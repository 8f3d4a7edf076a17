"""The non-switching averaged system and the weak-convergence harness.

Replacing the fast mode process by its stationary statistics yields a
time-invariant diffusion: the coupling Laplacian becomes the
stationary-weighted average of the mode Laplacians, and the squared
diffusion becomes the weighted average of the per-mode squared diffusions.
Both the x and theta blocks receive the same averaged increment with
opposite signs, exactly as in the switching system, so the pair sum stays
noise-free here too and the single-mode case reproduces the switching
system in law.

The diffusion factor is taken as the symmetric PSD square root of the
averaged squared diffusion.  It is block diagonal over agents (each agent's
noise involves only its own incident channels), so the factorization runs
on small per-agent blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import Generator, StationaryDist, sample_path, stationary, trajectory_seeds
from .dynamics import (
    IntegrationError,
    IntegratorConfig,
    SystemState,
    Trajectory,
    _Model,
    check_assumptions,
    simulate,
)
from .expr import DomainError
from .graph import Network, lambda2, laplacian
from .problem import Problem, total_cost

__all__ = [
    "AveragedNetwork",
    "FactorizationError",
    "average_laplacian",
    "averaged_diffusion_factor",
    "simulate_averaged",
    "weak_convergence_experiment",
]

FACTOR_TOL = 1e-10
EIG_CLIP = -1e-12


class FactorizationError(RuntimeError):
    pass


@dataclass(frozen=True)
class AveragedNetwork:
    """Stationary-weighted Laplacian plus everything needed to rebuild the
    averaged diffusion at any state."""

    L_pi: np.ndarray
    pi: StationaryDist
    source: Network
    lambda2_pi: float

    @property
    def coupling(self) -> float:
        return self.source.coupling


def average_laplacian(network: Network, pi: StationaryDist) -> AveragedNetwork:
    """Weighted sum of the mode Laplacians under the stationary weights."""
    if len(pi.pi) != network.n_modes:
        raise ValueError(
            f"stationary distribution has {len(pi.pi)} entries for "
            f"{network.n_modes} modes"
        )
    L_pi = sum(p * laplacian(g) for p, g in zip(pi.pi, network.graphs))
    return AveragedNetwork(
        L_pi=L_pi, pi=pi, source=network, lambda2_pi=lambda2(L_pi)
    )


def _squared_coeffs(network: Network, pi: StationaryDist) -> np.ndarray:
    """W[i, j] = sum_s pi_s * (mode-s channel coefficient j->i)^2."""
    out = np.zeros((network.n_nodes, network.n_nodes))
    for p, m in zip(pi.pi, range(network.n_modes)):
        out += p * network.receive_coeffs(m) ** 2
    return out


def _diffusion_blocks(x: np.ndarray, wsq: np.ndarray):
    """Per-agent n x n blocks of the averaged squared diffusion and their
    symmetric PSD square roots (eigenvalues clipped at the roundoff floor)."""
    diffs = x[None, :, :] - x[:, None, :]
    gamma = np.einsum("ij,ijn,ijm->inm", wsq, diffs, diffs)
    w, U = np.linalg.eigh(gamma)
    if float(w.min(initial=0.0)) < EIG_CLIP:
        raise FactorizationError(
            f"averaged squared diffusion has eigenvalue {w.min():.3e} below "
            "the clipping floor; it should be PSD up to roundoff"
        )
    w = np.clip(w, 0.0, None)
    roots = U @ (np.sqrt(w)[..., None] * np.swapaxes(U, -1, -2))
    return gamma, roots


def averaged_diffusion_factor(
    state: SystemState, network: Network, pi: StationaryDist
) -> np.ndarray:
    """Square (nN x nN) factor whose square reproduces the averaged squared
    diffusion at this state to FACTOR_TOL in Frobenius norm."""
    x = state.x
    N, n = x.shape
    wsq = _squared_coeffs(network, pi)
    gamma, roots = _diffusion_blocks(x, wsq)
    out = np.zeros((N * n, N * n))
    for i in range(N):
        out[i * n : (i + 1) * n, i * n : (i + 1) * n] = roots[i]
    resid = 0.0
    for i in range(N):
        resid += float(np.sum((roots[i] @ roots[i] - gamma[i]) ** 2))
    resid = math.sqrt(resid)
    if resid > FACTOR_TOL:
        raise FactorizationError(
            f"factor reconstruction residual {resid:.3e} exceeds {FACTOR_TOL}"
        )
    return out


def simulate_averaged(
    problem: Problem,
    avg: AveragedNetwork,
    cfg: IntegratorConfig,
    init: SystemState,
    reconstruct_check_every: int = 0,
) -> Trajectory:
    """Integrate the averaged system.

    Drift matches the switching drift with the averaged Laplacian; the
    multiplier dynamics are unchanged.  The diffusion factor is rebuilt from
    the current state every step.  ``reconstruct_check_every`` > 0 verifies
    the factorization residual on that stride.
    """
    import warnings as _warnings

    network = avg.source
    model = _Model(problem, network, cfg.eta_vector(problem.r))
    wsq = _squared_coeffs(network, avg.pi)
    L_pi = avg.L_pi
    c = network.coupling

    warnings: list[str] = []
    if init.lam.size and init.lam.min() <= 0.0:
        warnings.append(
            f"initial multiplier min {init.lam.min():.6g} is not positive"
        )
    theta_sum = np.linalg.norm(init.theta.sum(axis=0))
    if theta_sum > 1e-9:
        warnings.append(
            f"initial theta blocks sum to {theta_sum:.3e}, not zero"
        )
    report = check_assumptions(problem, network, avg.pi)
    for failed in report.failures():
        warnings.append(f"assumption {failed.name} failed: {failed.detail}")
    if warnings and cfg.strict:
        raise IntegrationError("; ".join(warnings))
    for w in warnings:
        _warnings.warn(w, RuntimeWarning, stacklevel=2)

    h = cfg.h
    n_steps = int(round(cfg.horizon / h))
    rng = np.random.default_rng(cfg.seed)
    N, n = model.N, model.n
    sqh = math.sqrt(h)

    x = init.x.copy()
    pair = init.pair.copy()
    lam = init.lam.copy()
    nu = init.nu.copy()
    clamp_count = init.clamp_count

    n_samples = n_steps // cfg.output_stride + 1
    T = np.empty(n_samples)
    X = np.empty((n_samples, N, n))
    TH = np.empty((n_samples, N, n))
    LM = np.empty((n_samples, model.r))
    NU = np.empty((n_samples, model.s))
    T[0] = 0.0
    X[0] = x
    TH[0] = pair - x
    LM[0] = lam
    NU[0] = nu
    slot = 1

    for k in range(n_steps):
        theta = pair - x
        try:
            dx, dtheta, dlam, dnu = model.drift(x, theta, lam, nu, 0, L_override=L_pi)
        except DomainError as exc:
            raise model.domain_failure(x, k * h, "averaged", exc) from exc
        gamma, roots = _diffusion_blocks(x, wsq)
        if reconstruct_check_every and (k % reconstruct_check_every == 0):
            resid = math.sqrt(
                sum(
                    float(np.sum((roots[i] @ roots[i] - gamma[i]) ** 2))
                    for i in range(N)
                )
            )
            if resid > FACTOR_TOL:
                raise FactorizationError(
                    f"step {k}: reconstruction residual {resid:.3e}"
                )
        xi = rng.standard_normal((N, n)) * sqh
        noise = c * np.einsum("inm,im->in", roots, xi)
        x_new = x + (h * dx + noise)
        pair_new = pair + h * (dx + dtheta)
        lam_new = lam + h * dlam
        crossed = (lam_new < cfg.lambda_floor) & (lam >= cfg.lambda_floor)
        if np.any(crossed):
            clamp_count += int(np.count_nonzero(crossed))
            lam_new = np.where(crossed, cfg.lambda_floor, lam_new)
        nu_new = nu + h * dnu
        if not (
            np.isfinite(x_new).all()
            and np.isfinite(pair_new).all()
            and np.isfinite(lam_new).all()
            and np.isfinite(nu_new).all()
        ):
            raise IntegrationError(
                f"nonfinite state at t={(k + 1) * h:.6g} (averaged): "
                "step size too large for this problem's stiffness"
            )
        x, pair, lam, nu = x_new, pair_new, lam_new, nu_new
        if (k + 1) % cfg.output_stride == 0:
            T[slot] = (k + 1) * h
            X[slot] = x
            TH[slot] = pair - x
            LM[slot] = lam
            NU[slot] = nu
            slot += 1

    final = SystemState._from_pair(
        x.copy(), pair.copy(), lam.copy(), nu.copy(), n_steps * h, clamp_count
    )
    return Trajectory(
        times=T[:slot], x=X[:slot], theta=TH[:slot], lam=LM[:slot], nu=NU[:slot],
        clamp_count=clamp_count, warnings=warnings, final_state=final,
    )


def _observables(problem: Problem, x: np.ndarray) -> np.ndarray:
    """Terminal observable vector: stacked agent states plus the total cost
    at the agent mean."""
    mean = x.mean(axis=0)
    return np.concatenate([x.ravel(), [total_cost(problem, mean)]])


def weak_convergence_experiment(
    problem: Problem,
    network: Network,
    gen: Generator,
    alphas,
    ensemble: int,
    T: float,
    seed: int,
    init: SystemState,
    cfg: IntegratorConfig | None = None,
) -> dict:
    """Compare switched ensembles against the averaged ensemble as the
    time-scale ratio shrinks.

    For each alpha, ``ensemble`` switched trajectories run with independent
    chain paths and noise; one averaged ensemble of the same size serves as
    the reference.  err(alpha) is the Euclidean distance between ensemble
    means of the terminal observables.  Its sampling scale sem(alpha) is the
    delta-method projection of the component-mean variances onto the
    difference direction; the monotonicity verdicts allow 2 combined sems of
    slack.  Statistical definitions, not assertions: the report carries the
    verdicts.
    """
    alphas = [float(a) for a in alphas]
    if sorted(alphas, reverse=True) != alphas:
        raise ValueError("alphas must be strictly decreasing")
    if ensemble < 2:
        raise ValueError("ensemble must hold at least 2 members")
    if cfg is None:
        cfg = IntegratorConfig(h=1e-3, horizon=T, eta=1.0, lambda_floor=0.0)

    pi = stationary(gen)
    avg = average_laplacian(network, pi)

    clamp_total = 0
    avg_obs = np.empty((ensemble, problem.n_agents * problem.n + 1))
    for m in range(ensemble):
        _, noise_ss = trajectory_seeds(seed, m)
        run_cfg = IntegratorConfig(
            h=cfg.h, horizon=T, eta=cfg.eta, lambda_floor=cfg.lambda_floor,
            seed=noise_ss, output_stride=max(1, int(round(T / cfg.h))),
        )
        traj = simulate_averaged(problem, avg, run_cfg, init.copy())
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
            run_cfg = IntegratorConfig(
                h=cfg.h, horizon=T, eta=cfg.eta, lambda_floor=cfg.lambda_floor,
                seed=noise_ss, output_stride=max(1, int(round(T / cfg.h))),
            )
            traj = simulate(problem, network, path, run_cfg, init.copy(), pi=pi)
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
        per_alpha.append(
            {
                "alpha": alpha,
                "err": err,
                "sem": sem,
                "max_component_z": float(z.max()) if z.size else 0.0,
                "mean": diff + avg_mean,
            }
        )

    monotone = True
    for a, b in zip(per_alpha, per_alpha[1:]):
        slack = 2.0 * math.sqrt(a["sem"] ** 2 + b["sem"] ** 2)
        if b["err"] > a["err"] + slack:
            monotone = False
    first, last = per_alpha[0], per_alpha[-1]
    sep_threshold = 2.0 * math.sqrt(first["sem"] ** 2 + last["sem"] ** 2)
    report = {
        "alphas": alphas,
        "ensemble": ensemble,
        "horizon": T,
        "per_alpha": [
            {
                "alpha": e["alpha"],
                "err": e["err"],
                "sem": e["sem"],
                "max_component_z": e["max_component_z"],
                "mean": [float(v) for v in e["mean"]],
            }
            for e in per_alpha
        ],
        "averaged_mean": [float(v) for v in avg_mean],
        "averaged_sem": [float(v) for v in np.sqrt(avg_var)],
        "monotone_within_2sem": monotone,
        "separation": first["err"] - last["err"],
        "separation_threshold_2sem": sep_threshold,
        "separated": first["err"] - last["err"] > sep_threshold,
        "clamp_count_total": clamp_total,
    }
    return report
