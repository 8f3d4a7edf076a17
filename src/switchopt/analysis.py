"""Diagnostics that mirror the convergence argument.

The composite energy V decomposes into a primal part (distance to the
optimum plus distance of the noise-free pair sum), a quadratic multiplier
part, a divergence part for the inequality multipliers, and a quadratic
part for the equality multipliers.  The divergence part uses the potential
whose derivative cancels the (1 + eta*lambda) factor of the multiplier
flow, so the energy dissipates along trajectories; for multipliers that are
active at the optimum this is the x*ln(x) Bregman divergence with the
equilibrium value as the first argument.

The relaxed Lagrangian adds a consensus quadratic to the raw Lagrangian,
weighted by a coupling/noise constant: hbar = (c - c^2 kappa^2 / 2) / 2 for
a fixed topology and hbar = (c pi_min - (3/2) c^2 kappa^2 pi_max) / 2 under
switching.  Its saddle structure around the certified optimum is what the
sampled inequality checks exercise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import StationaryDist
from .dynamics import Equilibrium, SystemState, Trajectory, _eta_vector
from .problem import TOL_ACTIVE, KktCertificate, Problem, total_cost

__all__ = [
    "LyapunovReport",
    "bregman_divergence",
    "omega_from_certificate",
    "lyapunov",
    "hbar_fixed",
    "hbar_switching",
    "lagrangian_phi",
    "convergence_metrics",
    "saddle_point_samples",
    "generator_bound_series",
]


def bregman_divergence(a: float, b: float) -> float:
    """D(a, b) = a*ln(a/b) - a + b from the potential x*ln(x); nonnegative,
    zero exactly at a = b."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"divergence needs positive arguments, got {a}, {b}")
    return a * math.log(a / b) - a + b


def omega_from_certificate(cert: KktCertificate) -> frozenset:
    """Stacked inequality indices whose equilibrium multiplier is above
    ``TOL_ACTIVE``."""
    return frozenset(
        int(k) for k, v in enumerate(cert.lambda_star) if v > TOL_ACTIVE
    )


@dataclass
class LyapunovReport:
    V1: float
    V2: float
    V3: float
    V4: float
    V: float
    bregman_terms: dict
    consensus_error: float
    opt_error: float


def _energy(x, pair, lam, nu, eq: Equilibrium, eta, omega: frozenset) -> dict:
    """Energy split and errors for K samples at once.

    ``x`` and ``pair`` are (K, N, n), ``lam`` (K, r) and ``nu`` (K, s).
    Every reduction runs in the order of the one-sample formulas, so each
    row is bit-identical to evaluating that sample alone: contiguous row
    sums, a sequential sum over agents for the mean, a BLAS dot for the
    consensus norm, and ``math.log`` with sequential accumulation for V3.
    """
    K, N, n = x.shape
    eta = _eta_vector(eta, lam.shape[1])

    dx = x - eq.x
    dpair = pair - eq.pair
    V1 = (0.5 * (dx * dx).reshape(K, N * n).sum(axis=1)
          + 0.5 * (dpair * dpair).reshape(K, N * n).sum(axis=1))
    dlam = lam - eq.lam
    V2 = 0.5 * (eta * dlam * dlam).sum(axis=1)

    lam_star = eq.lam.tolist()
    V3 = np.empty(K)
    for k, row in enumerate(lam.tolist()):
        v3 = 0.0
        for j, (lam_j, star) in enumerate(zip(row, lam_star)):
            if j in omega:
                if lam_j <= 0.0:
                    raise ValueError(
                        f"multiplier {j} must be positive to evaluate the "
                        f"divergence term, got {lam_j}"
                    )
                v3 += (lam_j - star) - star * (math.log(lam_j) - math.log(star))
            else:
                v3 += (lam_j - star) ** 2
        V3[k] = v3
    dnu = nu - eq.nu
    V4 = 0.5 * (dnu * dnu).sum(axis=1)

    dev = (x - x.mean(axis=1)[:, None, :]).reshape(K, N * n)
    consensus = np.sqrt(np.matmul(dev[:, None, :], dev[:, :, None]).reshape(K))
    opt = np.sqrt((dx * dx).sum(axis=2)).max(axis=1)
    return {
        "V": V1 + V2 + V3 + V4, "V1": V1, "V2": V2, "V3": V3, "V4": V4,
        "consensus_error": consensus, "opt_error": opt,
    }


def lyapunov(
    state: SystemState, eq: Equilibrium, eta, omega: frozenset
) -> LyapunovReport:
    """Evaluate the composite energy at one state.

    ``omega`` selects the inequality indices treated with the divergence
    potential (positive equilibrium multiplier); the rest contribute plain
    squared deviations.  Multipliers in omega must be positive here.
    """
    e = _energy(state.x[None], state.pair[None], state.lam[None], state.nu[None],
                eq, eta, omega)
    bregman = {
        k: bregman_divergence(float(state.lam[k]), float(eq.lam[k]))
        for k in range(state.lam.shape[0]) if k in omega
    }
    return LyapunovReport(bregman_terms=bregman, **{k: float(v[0]) for k, v in e.items()})


def hbar_fixed(c: float, kappa: float) -> float:
    return 0.5 * (c - 0.5 * c**2 * kappa**2)


def hbar_switching(c: float, kappa: float, pi: StationaryDist) -> float:
    return 0.5 * (c * pi.p_min - 1.5 * c**2 * kappa**2 * pi.p_max)


def lagrangian_phi(
    state: SystemState,
    problem: Problem,
    x_star,
    hbar: float,
    L: np.ndarray,
) -> float:
    """Relaxed Lagrangian at a stacked state.

    The consensus quadratic uses the (N x N) Laplacian ``L`` applied
    blockwise; callers pick the fixed-topology constant and Laplacian or the
    switching variants (summed Laplacian, switching hbar).  The value is
    relative to the certified optimum through the (x - x*)' theta term, so a
    certificate is required before any evaluation.
    """
    x = state.x
    x_star = np.asarray(x_star, dtype=float)
    theta = state.theta
    value = 0.0
    for i, a in enumerate(problem.agents):
        value += a.f.value(tuple(x[i]))
    dx = x - x_star[None, :]
    value += float(np.sum(dx * theta))
    value += hbar * float(np.einsum("ij,ik,jk->", L, x, x))
    for k, (i, _, e) in enumerate(problem.ineq_index()):
        value += state.lam[k] * e.value(tuple(x[i]))
    for k, (i, _, e) in enumerate(problem.eq_index()):
        value += state.nu[k] * e.value(tuple(x[i]))
    return float(value)


def convergence_metrics(
    trajectory: Trajectory,
    eq: Equilibrium,
    problem: Problem,
    eta,
    omega: frozenset,
) -> dict:
    """Per-sample series: energy split, consensus error, distance to the
    optimum, and the cost gap of the agent mean."""
    p_star = total_cost(problem, tuple(eq.x[0]))
    energy = _energy(trajectory.x, trajectory.x + trajectory.theta,
                     trajectory.lam, trajectory.nu, eq, eta, omega)
    cost_gap = [total_cost(problem, m) - p_star for m in trajectory.x.mean(axis=1).tolist()]
    return {"t": np.array(trajectory.times), **energy, "cost_gap": np.array(cost_gap)}


def saddle_point_samples(
    problem: Problem,
    eq: Equilibrium,
    hbar: float,
    L: np.ndarray,
    n_samples: int,
    rng,
) -> dict:
    """Sampled two-sided saddle inequality around the equilibrium.

    Left side perturbs (theta, lambda >= 0, nu) at the optimal x; right side
    perturbs x at the optimal multipliers.  Reports the worst slacks; both
    should be nonnegative up to roundoff.
    """
    x_star = eq.x[0]
    center = eq.as_state()
    phi_center = lagrangian_phi(center, problem, x_star, hbar, L)
    min_left = math.inf
    min_right = math.inf
    for _ in range(n_samples):
        theta = eq.theta + rng.normal(0.0, 1.0, eq.theta.shape)
        lam = np.abs(eq.lam + rng.normal(0.0, 1.0, eq.lam.shape))
        nu = eq.nu + rng.normal(0.0, 1.0, eq.nu.shape)
        left_state = SystemState(eq.x, theta, lam, nu)
        phi_left = lagrangian_phi(left_state, problem, x_star, hbar, L)
        min_left = min(min_left, phi_center - phi_left)

        x = eq.x + rng.normal(0.0, 1.0, eq.x.shape)
        right_state = SystemState(x, eq.theta, eq.lam, eq.nu)
        phi_right = lagrangian_phi(right_state, problem, x_star, hbar, L)
        min_right = min(min_right, phi_right - phi_center)
    return {
        "n_samples": n_samples,
        "phi_center": phi_center,
        "min_left_slack": min_left,
        "min_right_slack": min_right,
    }


def generator_bound_series(
    trajectories: list[Trajectory],
    eq: Equilibrium,
    problem: Problem,
    eta,
    omega: frozenset,
    hbar: float,
    L: np.ndarray,
    lam2: float,
) -> dict:
    """Ensemble estimate of the energy dissipation against its bound.

    The left side is a finite difference of the ensemble-mean energy; the
    right side averages, over members, the saddle gap minus the coercive
    quadratic.  Both are Monte-Carlo estimates with visible noise, so the
    series is reported for inspection, never asserted.
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
