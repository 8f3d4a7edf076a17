"""The non-switching averaged system and the weak-convergence harness.

Replacing the fast mode process by its stationary statistics yields a
time-invariant diffusion: the coupling Laplacian becomes the
stationary-weighted average L_pi of the mode Laplacians, and agent i's
squared diffusion becomes Gamma_i = sum_j w_ij d_ij d_ij^T, with
w = sum_s pi_s R_s^2 and d_ij = x_j - x_i.  The n x N factor
G_i = [sqrt(w_ij) d_ij]_j gives G_i G_i^T = Gamma_i exactly, and a weak
solution depends on the diffusion only through that product.  So the
averaged system is one more mode S of the switching system, with coupling
L_pi and channel coefficients sqrt(w), one increment per ordered channel:
an averaged run is ``simulate`` held in mode S throughout, on the switching
system's own step.  The pair sum stays noise-free, and a one-mode network
reproduces the fixed run bit for bit.

``averaged_diffusion_factor`` is the square (nN x nN) factor instead, the
symmetric PSD root of Gamma built on per-agent blocks.  It checks the
diffusion at a state and does not drive the run.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .chain import Generator, check_alpha, sample_path, stationary, trajectory_seeds
from .dynamics import IntegratorConfig, SystemState, Trajectory, simulate
from .graph import Network, is_integer
from .problem import Problem, total_cost

__all__ = [
    "FactorizationError",
    "averaged_diffusion_factor",
    "simulate_averaged",
    "weak_convergence_experiment",
]

FACTOR_TOL = 1e-10
EIG_CLIP = -1e-12


class FactorizationError(RuntimeError):
    pass


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
    state: SystemState, network: Network, pi: np.ndarray
) -> np.ndarray:
    """Square (nN x nN) factor whose square reproduces the averaged squared
    diffusion at this state to FACTOR_TOL in Frobenius norm."""
    x = state.x
    N, n = x.shape
    _, wsq = network.average(pi)
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
    network: Network,
    pi: np.ndarray,
    cfg: IntegratorConfig,
    init: SystemState,
) -> Trajectory:
    """Integrate the averaged system of ``network`` under stationary ``pi``:
    ``simulate`` held in the averaged mode S throughout.

    Drift matches the switching drift with the averaged Laplacian L_pi; the
    multiplier dynamics are unchanged.  The noise is the channel noise with
    coefficients sqrt(w) (see the module docstring).  The run carries the
    switching assumption report under ``pi``.  A list of noise seeds in
    ``cfg.seed`` runs a batch (see ``dynamics._integrate``).
    """
    return simulate(problem, network, network.n_modes, cfg, init, pi=pi)


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
    verdicts, the clamp total and the run warnings, each once.  All
    ensembles run as one batch, member m of each on its own streams, as if
    it ran alone (see ``dynamics._integrate``); the averaged members hold
    the averaged mode S.  A failure message numbers the batch members: the
    averaged ensemble first, then each alpha's in turn.

    Only ``h``, ``eta`` and ``lambda_floor`` are read from ``cfg``.  The
    design and the horizon are checked before any trajectory runs:
    ValueError unless the alphas are positive, finite and strictly
    decreasing, the ensemble holds at least 2 members (an integer count)
    and ``T`` is positive and finite; ChainError on a seed that
    ``trajectory_seeds`` refuses.
    """
    alphas = [check_alpha(a) for a in alphas]
    if any(a <= b for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be strictly decreasing")
    if not (is_integer(ensemble) and ensemble >= 2):
        raise ValueError("ensemble must hold at least 2 members")
    # checks T first: the member stride rounds T / h, which fails on nan and inf
    cfg = replace(cfg or IntegratorConfig(lambda_floor=0.0), horizon=T)

    # one batch: the averaged ensemble, held in the averaged mode S, then
    # each alpha's switched ensemble, member m of each on its own streams
    pi = stationary(gen)
    paths = [network.n_modes] * ensemble
    noise = [trajectory_seeds(seed, m)[1] for m in range(ensemble)]
    for a_idx, alpha in enumerate(alphas):
        streams = [trajectory_seeds(seed + 1 + a_idx, m) for m in range(ensemble)]
        paths += [sample_path(gen, 0, alpha, T + cfg.h, chain_ss) for chain_ss, _ in streams]
        noise += [noise_ss for _, noise_ss in streams]
    member_cfg = replace(cfg, seed=noise, output_stride=cfg.n_steps, strict=False)
    run = simulate(problem, network, paths, member_cfg, init, pi=pi)
    # each member's terminal observables: its stacked agent states, then the
    # total cost at its agent mean
    final = np.array([traj.x[-1] for traj in run.members])
    costs = [total_cost(problem, mean) for mean in final.mean(axis=1).tolist()]
    obs = np.column_stack([final.reshape(len(final), -1), costs])
    avg_obs, *sw_ensembles = obs.reshape(1 + len(alphas), ensemble, -1)
    avg_mean = avg_obs.mean(axis=0)
    avg_var = avg_obs.var(axis=0, ddof=1) / ensemble

    per_alpha = []
    for alpha, sw_obs in zip(alphas, sw_ensembles):
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
                          "mean": (diff + avg_mean).tolist()})

    monotone = not any(
        b["err"] > a["err"] + 2.0 * math.sqrt(a["sem"] ** 2 + b["sem"] ** 2)
        for a, b in zip(per_alpha, per_alpha[1:])
    )
    first, last = per_alpha[0], per_alpha[-1]
    sep_threshold = 2.0 * math.sqrt(first["sem"] ** 2 + last["sem"] ** 2)
    return {
        "alphas": alphas,
        "ensemble": ensemble,
        "horizon": T,
        "per_alpha": per_alpha,
        "averaged_mean": avg_mean.tolist(),
        "averaged_sem": np.sqrt(avg_var).tolist(),
        "monotone_within_2sem": monotone,
        "separation": first["err"] - last["err"],
        "separation_threshold_2sem": sep_threshold,
        "separated": first["err"] - last["err"] > sep_threshold,
        "clamp_count_total": run.clamp_count,
        "warnings": list(run.warnings),
    }
