"""Independent oracles used by the tests.

These deliberately avoid the library's own differentiation and integration
paths: gradients come from central finite differences, the optimizer is a
plain penalty descent on those finite differences, and the reference ODE
integrator is classical RK4 with tiny steps.  The composite energy is
evaluated one state at a time with plain numpy reductions, the reference the
batched energy in ``analysis`` must match bit for bit.  The averaged system
has a second stepper driven by the square PSD root of its squared diffusion,
the reference in law for the library's channel factor.
"""

import math

import numpy as np


def fd_gradient(fun, x, step=1e-6):
    """Central finite differences of a scalar callable."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = step
        out[k] = (fun(x + e) - fun(x - e)) / (2.0 * step)
    return out


def penalty_descent(problem, x0, mu_schedule=(1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6),
                    iters=2000):
    """Quadratic-penalty descent on the total cost, gradients by finite
    differences only.  Good to ~1e-2 on smooth problems; used to confirm
    a candidate optimum, never to produce library values."""

    def penalized(x, mu):
        val = sum(a.f.value(x) for a in problem.agents)
        for a in problem.agents:
            for e in a.g:
                val += mu * max(e.value(x), 0.0) ** 2
            for e in a.h:
                val += mu * e.value(x) ** 2
        return val

    x = np.asarray(x0, dtype=float).copy()
    for mu in mu_schedule:
        for _ in range(iters):
            f0 = penalized(x, mu)
            g = fd_gradient(lambda y: penalized(y, mu), x, step=1e-7)
            ng = np.linalg.norm(g)
            if ng < 1e-8:
                break
            # fresh backtracking line search every iteration
            lr = 1.0 / max(ng, 1.0)
            accepted = False
            while lr > 1e-14:
                trial = x - lr * g
                if penalized(trial, mu) < f0:
                    x = trial
                    accepted = True
                    break
                lr *= 0.5
            if not accepted:
                break
    return x


def rk4(f, y0, t1, n_steps):
    """Classical fixed-step RK4 for dy/dt = f(y)."""
    y = np.asarray(y0, dtype=float).copy()
    h = t1 / n_steps
    for _ in range(n_steps):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def lyapunov_reference(state, eq, eta, omega):
    """Energy split, consensus error and distance to the optimum of one
    state, as a dict with the fields of ``analysis.LyapunovReport``."""
    r = state.lam.shape[0]
    eta = np.asarray(eta, dtype=float)
    if eta.ndim == 0:
        eta = np.full(r, float(eta))

    dx = state.x - eq.x
    dpair = state.pair - eq.pair
    V1 = 0.5 * float(np.sum(dx * dx)) + 0.5 * float(np.sum(dpair * dpair))
    dlam = state.lam - eq.lam
    V2 = 0.5 * float(np.sum(eta * dlam * dlam))

    V3 = 0.0
    bregman = {}
    for k in range(r):
        lam_k = float(state.lam[k])
        lam_star = float(eq.lam[k])
        if k in omega:
            if lam_k <= 0.0:
                raise ValueError(
                    f"multiplier {k} must be positive to evaluate the "
                    f"divergence term, got {lam_k}"
                )
            V3 += (lam_k - lam_star) - lam_star * (
                math.log(lam_k) - math.log(lam_star)
            )
            bregman[k] = lam_k * math.log(lam_k / lam_star) - lam_k + lam_star
        else:
            V3 += (lam_k - lam_star) ** 2
    dnu = state.nu - eq.nu
    V4 = 0.5 * float(np.sum(dnu * dnu))

    mean = state.x.mean(axis=0)
    consensus = float(np.linalg.norm(state.x - mean[None, :]))
    opt = float(np.linalg.norm(state.x - eq.x, axis=1).max())
    return dict(
        V1=V1, V2=V2, V3=V3, V4=V4, V=V1 + V2 + V3 + V4,
        bregman_terms=bregman, consensus_error=consensus, opt_error=opt,
    )


def psd_factor_averaged_run(drift, c, wsq, x, theta, lam, nu, h, n_steps, rng):
    """Euler-Maruyama of the averaged system with the symmetric PSD root of
    each agent's squared diffusion Gamma_i = sum_j wsq_ij d_ij d_ij^T
    (d_ij = x_j - x_i) as its noise factor, one Gaussian increment per agent
    coordinate; ``drift(x, theta, lam, nu)`` gives the four drift blocks.
    No multiplier clamping.  Returns the terminal x."""
    x, theta = np.array(x, dtype=float), np.array(theta, dtype=float)
    lam, nu = np.array(lam, dtype=float), np.array(nu, dtype=float)
    for _ in range(n_steps):
        dx, dtheta, dlam, dnu = drift(x, theta, lam, nu)
        d = x[None, :, :] - x[:, None, :]
        gamma = np.einsum("ij,ijn,ijm->inm", wsq, d, d)
        w, U = np.linalg.eigh(gamma)
        root = U @ (np.sqrt(np.clip(w, 0.0, None))[:, :, None] * np.swapaxes(U, 1, 2))
        noise = c * np.einsum("inm,im->in", root, rng.standard_normal(x.shape) * math.sqrt(h))
        x, theta = x + h * dx + noise, theta + h * dtheta - noise
        lam, nu = lam + h * dlam, nu + h * dnu
    return x
