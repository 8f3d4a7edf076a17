"""Independent oracles used by the tests.

These deliberately avoid the library's own differentiation and integration
paths: gradients come from central finite differences, the optimizer is a
plain penalty descent on those finite differences, and the reference ODE
integrator is classical RK4 with tiny steps.  The composite energy is
evaluated one state at a time with plain numpy reductions, the reference the
batched energy in ``analysis`` must match bit for bit.  The averaged system
has a second stepper driven by the square PSD root of its squared diffusion,
the reference in law for the library's channel factor.  The weak-convergence
study has its one-member-at-a-time loop, the reference the batched study
must match on every field bit for bit.  Expressions have the tree walk,
the reference the compiled evaluator of ``switchopt.expr`` must match bit
for bit, domain errors included.  The assumption gates keep their separate
fixed and switching branches, and the equilibrium its per-expression
gradients, the references for the one-mode gate path and the kernel-built
equilibrium.  Chain paths have their per-call sampler, the reference for the
jump tables each ``Generator`` builds once.  The substep schedule has its
step-by-step splitter, the reference the one-table ``schedule.chunk`` must
match bit for bit, in every draw and every round field.  The lone substep
has its union-pattern form, which sums the coupling and the channel noise
over every sender that some mode uses, the reference for the substep that
reads only the active mode's entries.  The ensemble energy dissipation
series and the right-continuous mode lookup of a chain path, which no
command reports, live here as test helpers over the library's own code.
"""

import math
from bisect import bisect_right
from dataclasses import replace

import numpy as np

from switchopt.analysis import _energy, lagrangian_phi
from switchopt.chain import ChainError, SwitchPath
from switchopt.dynamics import SystemState
from switchopt.expr import (Add, Const, Div, DomainError, Emitter, Exp, Ln, Mul, Neg, Pow, Sub,
                            Var)
from switchopt.problem import emit_kernel


def tree_walk(node, xs, seeds):
    """(value, tangents) of an expression node at the float tuple ``xs`` by
    forward-mode dual arithmetic, one recursive call per node.  ``seeds``
    holds one tangent tuple per coordinate (the canonical basis), or is None
    for the value alone: then no tangent is made and no derivative checked."""
    return _WALK[type(node)](node, xs, seeds)


def _const(node, xs, seeds):
    return node.value, (None if seeds is None else (0.0,) * len(xs))


def _var(node, xs, seeds):
    return xs[node.index], (None if seeds is None else seeds[node.index])


def _add(node, xs, seeds):
    a, ta = tree_walk(node.lhs, xs, seeds)
    b, tb = tree_walk(node.rhs, xs, seeds)
    if seeds is None:
        return a + b, None
    return a + b, tuple(u + v for u, v in zip(ta, tb))


def _sub(node, xs, seeds):
    a, ta = tree_walk(node.lhs, xs, seeds)
    b, tb = tree_walk(node.rhs, xs, seeds)
    if seeds is None:
        return a - b, None
    return a - b, tuple(u - v for u, v in zip(ta, tb))


def _mul(node, xs, seeds):
    a, ta = tree_walk(node.lhs, xs, seeds)
    b, tb = tree_walk(node.rhs, xs, seeds)
    if seeds is None:
        return a * b, None
    return a * b, tuple(a * v + b * u for u, v in zip(ta, tb))


def _div(node, xs, seeds):
    a, ta = tree_walk(node.lhs, xs, seeds)
    b, tb = tree_walk(node.rhs, xs, seeds)
    if b == 0.0:
        raise DomainError("division by zero")
    val = a / b
    if seeds is None:
        return val, None
    return val, tuple((u - val * v) / b for u, v in zip(ta, tb))


def _neg(node, xs, seeds):
    a, ta = tree_walk(node.operand, xs, seeds)
    if seeds is None:
        return -a, None
    return -a, tuple(-u for u in ta)


def _pow(node, xs, seeds):
    a, ta = tree_walk(node.base, xs, seeds)
    k = node.exponent
    integral = k == int(k)
    if a < 0.0 and not integral:
        raise DomainError(f"negative base {a!r} with fractional exponent {k!r}")
    if a == 0.0 and k < 0.0:
        raise DomainError(f"zero base with negative exponent {k!r}")
    try:
        val = a ** k
    except OverflowError:
        raise DomainError(f"power {a!r}^{k!r} overflows") from None
    if seeds is None:
        return val, None
    if a == 0.0 and k < 1.0 and k != 0.0:
        raise DomainError(f"derivative of x^{k!r} undefined at 0")
    try:
        dcoef = 0.0 if k == 0.0 else k * a ** (k - 1.0)
    except OverflowError:
        raise DomainError(f"derivative of x^{k!r} overflows at {a!r}") from None
    return val, tuple(dcoef * u for u in ta)


def _exp(node, xs, seeds):
    a, ta = tree_walk(node.operand, xs, seeds)
    try:
        val = math.exp(a)
    except OverflowError:
        val = math.inf
    if seeds is None:
        return val, None
    return val, tuple(val * u for u in ta)


def _ln(node, xs, seeds):
    a, ta = tree_walk(node.operand, xs, seeds)
    if a <= 0.0:
        raise DomainError(f"ln of nonpositive value {a!r}")
    val = math.log(a)
    if seeds is None:
        return val, None
    return val, tuple(u / a for u in ta)


_WALK = {Const: _const, Var: _var, Add: _add, Sub: _sub, Mul: _mul, Div: _div,
         Neg: _neg, Pow: _pow, Exp: _exp, Ln: _ln}


def tree_value(e, x):
    """``Expr.value`` by the tree walk."""
    return tree_walk(e.root, tuple(float(v) for v in x), None)[0]


def tree_value_and_grad(e, x):
    """``Expr.value_and_grad`` by the tree walk."""
    xs = tuple(float(v) for v in x)
    basis = tuple(tuple(1.0 if i == k else 0.0 for i in range(e.n)) for k in range(e.n))
    return tree_walk(e.root, xs, basis)


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
    state, as a dict with the keys of ``analysis.lyapunov``'s, and
    ``bregman_terms``: each k in omega mapped to its term of V3,
    D(lam*_k, lam_k) = lam*_k ln(lam*_k / lam_k) - lam*_k + lam_k, by the
    second formula."""
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
            bregman[k] = lam_star * math.log(lam_star / lam_k) - lam_star + lam_k
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


def generator_bound_series(trajectories, eq, problem, eta, omega, hbar, L, lam2):
    """Ensemble estimate of the energy dissipation against its bound.

    The left side is a finite difference of the ensemble-mean energy
    (``analysis._energy`` per member); the right side averages, over
    members, the saddle gap minus the coercive quadratic.  Both are
    Monte-Carlo estimates with visible noise, so the series is reported for
    inspection, never asserted.
    """
    if not trajectories:
        raise ValueError("need at least one trajectory")
    times = trajectories[0].times
    K = len(times)
    V = np.zeros((len(trajectories), K))
    rhs = np.zeros((len(trajectories), K))
    x_star = eq.x[0]
    for m, traj in enumerate(trajectories):
        V[m] = _energy(traj.x, traj.x + traj.theta, traj.lam, traj.nu,
                       eq, eta, omega)["V"]
        for k in range(K):
            left_state = SystemState(eq.x, traj.theta[k], traj.lam[k], traj.nu[k])
            right_state = SystemState(traj.x[k], eq.theta, eq.lam, eq.nu)
            gap = lagrangian_phi(
                left_state, problem, x_star, hbar, L
            ) - lagrangian_phi(right_state, problem, x_star, hbar, L)
            dx2 = float(np.sum((traj.x[k] - eq.x) ** 2))
            rhs[m, k] = gap - (hbar * lam2 - 1.0) * dx2
    mean_V = V.mean(axis=0)
    dt = np.diff(times)
    dissipation = np.diff(mean_V) / dt
    return {
        "t": times,
        "mean_V": mean_V,
        "dissipation_estimate": dissipation,
        "bound_mean": rhs.mean(axis=0),
        "n_members": len(trajectories),
    }


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


def _observables(problem, x):
    """Terminal observables of one member, as the study took them before
    batching: the stacked agent states, then the agents' costs summed at
    the agent mean, one ``Expr.value`` each."""
    mean = x.mean(axis=0)
    return np.concatenate([x.ravel(), [sum(a.f.value(mean) for a in problem.agents)]])


def serial_weak_convergence(problem, network, gen, alphas, ensemble, T, seed, init, cfg):
    """``averaging.weak_convergence_experiment`` as it ran before batching:
    each member a separate ``simulate`` or ``simulate_averaged`` call.
    Returns the report without its ``warnings`` key."""
    from switchopt.averaging import simulate_averaged
    from switchopt.chain import sample_path, stationary, trajectory_seeds
    from switchopt.dynamics import IntegratorConfig, simulate

    alphas = [float(a) for a in alphas]
    member_cfg = IntegratorConfig(h=cfg.h, horizon=T, eta=cfg.eta,
                                  lambda_floor=cfg.lambda_floor,
                                  output_stride=max(1, int(round(T / cfg.h))))
    pi = stationary(gen)

    clamp_total = 0
    avg_obs = np.empty((ensemble, problem.n_agents * problem.n + 1))
    for m in range(ensemble):
        _, noise_ss = trajectory_seeds(seed, m)
        traj = simulate_averaged(problem, network, pi, replace(member_cfg, seed=noise_ss),
                                 init.copy())
        clamp_total += traj.clamp_count
        avg_obs[m] = _observables(problem, traj.x[-1])
    avg_mean = avg_obs.mean(axis=0)
    avg_var = avg_obs.var(axis=0, ddof=1) / ensemble

    per_alpha = []
    for a_idx, alpha in enumerate(alphas):
        sw_obs = np.empty_like(avg_obs)
        for m in range(ensemble):
            chain_ss, noise_ss = trajectory_seeds(seed + 1 + a_idx, m)
            path = sample_path(gen, 0, alpha, T + cfg.h, chain_ss)
            traj = simulate(problem, network, path, replace(member_cfg, seed=noise_ss),
                            init.copy(), pi=pi)
            clamp_total += traj.clamp_count
            sw_obs[m] = _observables(problem, traj.x[-1])
        diff = sw_obs.mean(axis=0) - avg_mean
        err = float(np.linalg.norm(diff))
        var_diff = sw_obs.var(axis=0, ddof=1) / ensemble + avg_var
        if err > 0.0:
            u = diff / err
            sem = float(math.sqrt(float((u**2) @ var_diff)))
        else:
            sem = float(math.sqrt(float(var_diff.mean())))
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.abs(diff) / np.sqrt(var_diff)
        z = z[np.isfinite(z)]
        per_alpha.append({"alpha": alpha, "err": err, "sem": sem,
                          "max_component_z": float(z.max()) if z.size else 0.0,
                          "mean": [float(v) for v in diff + avg_mean]})

    monotone = True
    for a, b in zip(per_alpha, per_alpha[1:]):
        if b["err"] > a["err"] + 2.0 * math.sqrt(a["sem"] ** 2 + b["sem"] ** 2):
            monotone = False
    first, last = per_alpha[0], per_alpha[-1]
    sep_threshold = 2.0 * math.sqrt(first["sem"] ** 2 + last["sem"] ** 2)
    return {
        "alphas": alphas,
        "ensemble": ensemble,
        "horizon": T,
        "per_alpha": per_alpha,
        "averaged_mean": [float(v) for v in avg_mean],
        "averaged_sem": [float(v) for v in np.sqrt(avg_var)],
        "monotone_within_2sem": monotone,
        "separation": first["err"] - last["err"],
        "separation_threshold_2sem": sep_threshold,
        "separated": first["err"] - last["err"] > sep_threshold,
        "clamp_count_total": clamp_total,
    }


def check_assumptions_reference(network, pi=None, *, switching=None):
    """``dynamics.check_assumptions`` as it was with a fixed branch and a
    switching branch of its own, each building its Laplacians from the
    graphs.  The one-mode path must give the same report, except that one
    agent now counts as connected in the switching report too."""
    from switchopt.graph import lambda2, laplacian

    def check(name, passed, detail):
        return {"name": name, "passed": passed, "detail": detail}

    if switching is None:
        switching = pi is not None
    checks = []
    kappa = network.kappa
    c = network.coupling
    N = network.n_nodes
    off = network.sigma[~np.eye(N, dtype=bool)]
    sig_max = float(off.max()) if off.size else 0.0
    checks.append(check("noise_bound", sig_max <= kappa + 1e-15,
                        f"max sigma {sig_max:.6g} vs kappa {kappa:.6g}"))
    if not switching:
        mode = "fixed"
        bound = math.inf if kappa == 0.0 else (2.0 / 3.0) / kappa**2
        checks.append(check("coupling_bound", 0.0 < c < bound,
                            f"c={c:.6g} must lie in (0, {bound:.6g})"))
        lam2 = lambda2(laplacian(network.graphs[0]))
        checks.append(check(
            "spectral_gate", kappa <= math.sqrt(max(lam2, 0.0)) / 2.0,
            f"kappa={kappa:.6g} vs sqrt(lambda2={lam2:.6g})/2="
            f"{math.sqrt(max(lam2, 0.0)) / 2.0:.6g}"))
        checks.append(check("connected", lam2 > 1e-9 or N == 1,
                            f"lambda2 of the fixed graph is {lam2:.6g}"))
    else:
        mode = "switching"
        if pi is not None:
            ratio = float(pi.min()) / float(pi.max())
            bound = math.inf if kappa == 0.0 else (2.0 / 3.0) * ratio / kappa**2
            checks.append(check(
                "coupling_bound_switching", 0.0 < c < bound,
                f"c={c:.6g} must lie in (0, {bound:.6g}) (pi_min/pi_max={ratio:.6g})"))
        else:
            checks.append(check(
                "coupling_bound_switching", c > 0.0,
                "stationary distribution not supplied; only positivity "
                f"of c={c:.6g} checked"))
        lam2_bar = lambda2(sum(laplacian(g) for g in network.graphs))
        checks.append(check(
            "spectral_gate_switching", kappa <= math.sqrt(max(lam2_bar, 0.0)) / 2.0,
            f"kappa={kappa:.6g} vs sqrt(lambda2_bar={lam2_bar:.6g})/2="
            f"{math.sqrt(max(lam2_bar, 0.0)) / 2.0:.6g}"))
        checks.append(check("jointly_connected", lam2_bar > 1e-9,
                            f"lambda2 of the summed Laplacian is {lam2_bar:.6g}"))
    return {"mode": mode, "all_passed": all(c["passed"] for c in checks), "checks": checks}


def build_equilibrium_reference(problem, cert, tol=1e-6):
    """``dynamics.build_equilibrium`` as it was: theta per agent from each
    expression's own gradient, walking the stacked multiplier order with
    its own counters."""
    from switchopt.dynamics import SystemState

    bad = {k: v for k, v in cert.residuals.items() if v > tol}
    if bad:
        raise ValueError(f"certificate residuals above {tol}: {bad}")
    N = problem.n_agents
    x_star = np.asarray(cert.x_star, dtype=float)
    x = np.tile(x_star, (N, 1))
    theta = np.zeros((N, problem.n))
    pt = tuple(x_star)
    pos_g = 0
    pos_h = 0
    for i, a in enumerate(problem.agents):
        theta[i] = -np.asarray(a.f.grad(pt))
        for e in a.g:
            theta[i] -= cert.lambda_star[pos_g] * np.asarray(e.grad(pt))
            pos_g += 1
        for e in a.h:
            theta[i] -= cert.nu_star[pos_h] * np.asarray(e.grad(pt))
            pos_h += 1
    total = np.linalg.norm(theta.sum(axis=0))
    if total > 10.0 * max(tol, cert.residuals["stationarity"]) + 1e-12:
        raise ValueError(f"theta blocks do not balance: |sum theta| = {total:.3e}")
    return SystemState(x, theta, cert.lambda_star, cert.nu_star)


def sample_path_reference(gen, s0, alpha, horizon, seed):
    """``chain.sample_path`` as it was, without its argument checks: jump
    tables built per call, the exit rate read as ``-Q[s, s]`` and the next
    mode picked by ``np.searchsorted``.  Returns (times, modes, absorbed)."""
    Q = gen.Q
    rng = np.random.default_rng(seed)
    cum = []
    for s in range(Q.shape[0]):
        row = Q[s].copy()
        row[s] = 0.0
        tot = row.sum()
        cum.append(np.cumsum(row) / tot if tot > 0.0 else None)
    times, modes, t, s, absorbed = [0.0], [s0], 0.0, s0, False
    while True:
        exit_rate = -Q[s, s]
        if exit_rate <= 0.0:
            absorbed = True
            break
        t = t + rng.exponential(alpha / exit_rate)
        if t >= horizon:
            break
        s = int(np.searchsorted(cum[s], rng.random(), side="right"))
        times.append(t)
        modes.append(s)
    return np.array(times), np.array(modes, dtype=np.int64), absorbed


def mode_at(path, t):
    """Right-continuous lookup: at a jump instant the new mode applies."""
    if t < 0.0 or t > path.horizon:
        raise ChainError(f"time {t} outside [0, {path.horizon}]")
    idx = bisect_right(path.times, t) - 1
    return int(path.modes[idx])


def _split_step_reference(times, modes, j, cur, t_end):
    """Substeps (start, length, mode) of the step [cur, t_end) cut at the
    jumps from index j on; a jump within 1e-15 of a cut cuts nothing."""
    subs = []
    while True:
        while j < len(times) and times[j] <= cur + 1e-15:
            j += 1
        if j < len(times) and times[j] < t_end - 1e-15:
            nxt = float(times[j])
        else:
            nxt = t_end
        subs.append((cur, nxt - cur, int(modes[j - 1])))
        cur = nxt
        if cur >= t_end - 1e-15:
            return subs


def chunk_reference(paths, rngs, k0, k1, h, N):
    """``schedule.chunk`` as it was: each step a member's path jumps in is
    split by ``_split_step_reference``, the later substeps are kept in a
    (step, round) dictionary and the draws are placed by per-member offsets.
    Returns the same (Z, rounds) as ``schedule.chunk``."""
    M, C = len(paths), k1 - k0
    starts = np.arange(k0, k1, dtype=float) * h
    ends = np.arange(k0 + 1, k1 + 1, dtype=float) * h
    first_h = np.empty((M, C))
    first_h[:] = ends - starts
    first_mode = np.zeros((M, C), dtype=np.int64)
    extra = np.zeros((M, C), dtype=np.int64)
    later = {}  # (step, round) -> [(member, start, length, mode), ...]
    after, before = starts + 1e-15, ends - 1e-15
    for m, path in enumerate(paths):
        if not isinstance(path, SwitchPath):  # None (mode 0) or a mode held
            first_mode[m] = path or 0
            continue
        times = path.times
        jp = np.searchsorted(times, after, side="right")
        first_mode[m] = path.modes[jp - 1]
        nxt = times[np.minimum(jp, len(times) - 1)]
        cut = np.flatnonzero((jp < len(times)) & (nxt < before)).tolist()
        if cut:  # split_step runs on lists: numpy scalars cost more
            times, entered = times.tolist(), path.modes.tolist()
        for i in cut:
            subs = _split_step_reference(times, entered, int(jp[i]), float(starts[i]), float(ends[i]))
            first_h[m, i] = subs[0][1]
            extra[m, i] = len(subs) - 1
            for r, sub in enumerate(subs[1:], 1):
                later.setdefault((i, r), []).append((m, *sub))

    # member m's draws fill Z[begin[m]:end[m]], one per substep in order
    counts = C + extra.sum(axis=1)
    end = np.cumsum(counts)
    begin = end - counts
    first_draw = begin[:, None] + np.arange(C) + np.cumsum(extra, axis=1) - extra
    Z = np.empty((end[-1], N, N))
    for rng, a, b in zip(rngs, begin.tolist(), end.tolist()):
        rng.standard_normal(out=Z[a:b])
    lengths = np.empty(end[-1])
    lengths[first_draw] = first_h

    if M == 1:
        hs, modes, draws = first_h[0].tolist(), first_mode[0].tolist(), first_draw[0].tolist()
    else:
        hs = list(first_h.T.copy())
        held = (first_mode == first_mode[0, 0]).all()  # one mode: index by an int
        modes = [int(first_mode[0, 0])] * C if held else list(first_mode.T.copy())
        draws = list(first_draw.T.copy())
    rounds = []
    for i, (t, k_done) in enumerate(zip(starts.tolist(), range(k0 + 1, k1 + 1))):
        rounds.append((t, hs[i], modes[i], None, draws[i], 0 if (i, 1) in later else k_done))
        r = 1
        while (i, r) in later:
            done = 0 if (i, r + 1) in later else k_done
            if M == 1:
                (_, t_r, h_r, mode_r), = later[(i, r)]
                draw_r = draws[i] + r
            else:
                rows, t_r, h_r, mode_r = (np.array(col) for col in zip(*later[(i, r)]))
                draw_r = first_draw[rows, i] + r
            lengths[draw_r] = h_r
            rounds.append((t_r, h_r, mode_r, None if M == 1 else rows, draw_r, done))
            r += 1
    Z *= np.sqrt(lengths)[:, None, None]
    return Z, rounds


def lone_union_reference(model):
    """A lone member's substep generated with one sum per cell over every
    sender whose entry is nonzero in some mode of ``model``: ``(drift,
    update, laplacians, receive)``, with ``drift(x, pair, lam, nu,
    laplacians[mode])`` and ``update(x, pair, lam, nu, dx, dtheta, dlam,
    dnu, receive[mode], W, h, floor)``, W the (N, N) increments flat."""
    N, n, r, s, c = model.N, model.n, model.r, model.s, float(model.c)
    cells = [(i, k, f"{i}_{k}") for i in range(N) for k in range(n)]
    flat, lams, nus = [v for _, _, v in cells], list(range(r)), list(range(s))

    def senders(stack):  # per receiver i, the j with a nonzero entry in some mode
        return [[j for j in range(N) if stack[:, i, j].any()] for i in range(N)]

    def bind(em, *pairs):
        for name, names in pairs:
            if names:
                em.line(f"{''.join(f'{name}{v}, ' for v in names)}= {name}")

    def lists(*blocks):
        return ", ".join(f"[{', '.join(b)}]" for b in blocks)

    em = Emitter()
    G, gvals, hvals = emit_kernel(model.problem, em)
    coupled = senders(model.L)
    bind(em, ("p", flat), ("L", [f"{i}_{j}" for i in range(N) for j in range(N)]))
    Lx = [em.left_sum([f"L{i}_{j} * x{j}_{k}" for j in coupled[i]]) for i, k, _ in cells]
    dx = [f"({-c!r}) * {p} - (p{v} - x{v}) - {G[i][k]}" for (i, k, v), p in zip(cells, Lx)]
    dtheta = [f"{c!r} * {p}" for p in Lx]
    dlam = [f"lam{k} / (1.0 + {e!r} * lam{k}) * {g}"
            for k, (e, g) in enumerate(zip(model.eta.tolist(), gvals))]
    drift = em.compile("lone_drift", "x, p, lam, nu, L", lists(dx, dtheta, dlam, hvals))

    em = Emitter()
    heard = senders(model.R)
    bind(em, ("x", flat), ("p", flat), ("l", lams), ("m", nus), ("dx", flat), ("dt", flat),
         ("dl", lams), ("dn", nus))
    for i in range(N):
        for j in heard[i]:
            em.line(f"q{i}_{j} = R[{i * N + j}] * W[{i * N + j}]")
    for i, k, v in cells:
        noise = em.left_sum([f"q{i}_{j} * (x{j}_{k} - x{v})" for j in heard[i]])
        em.line(f"xn{v} = x{v} + (h * dx{v} + {c!r} * {noise})")
        em.line(f"pn{v} = p{v} + h * (dx{v} + dt{v})")
    em.line("clamped = 0")
    for k in lams:
        em.line(f"ln{k} = l{k} + h * dl{k}")
        em.line(f"if ln{k} < floor and l{k} >= floor:\n    ln{k} = floor\n    clamped += 1")
    for k in nus:
        em.line(f"mn{k} = m{k} + h * dn{k}")
    new = ([f"xn{v}" for v in flat], [f"pn{v}" for v in flat], [f"ln{k}" for k in lams],
           [f"mn{k}" for k in nus])
    em.line(f"if not all(map(isfinite, ({''.join(f'{v}, ' for b in new for v in b)}))):\n"
            "    raise ArithmeticError")
    update = em.compile("lone_update", "x, p, l, m, dx, dt, dl, dn, R, W, h, floor",
                        f"{lists(*new)}, clamped")
    return drift, update, *(stack.reshape(len(stack), -1).tolist() for stack in (model.L, model.R))
