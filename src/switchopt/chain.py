"""Continuous-time Markov chain over switching modes.

Exact event-driven simulation: holding times are sampled from the
exponential law of the current mode's exit rate (divided by the time-scale
factor alpha), and the next mode from the normalized off-diagonal rates.
No time discretization enters here, so integrator step error is the only
discretization source downstream.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Generator",
    "StationaryDist",
    "SwitchPath",
    "ChainError",
    "validate_generator",
    "stationary",
    "sample_path",
    "mode_at",
    "occupation_fractions",
    "trajectory_seeds",
]

ROW_SUM_TOL = 1e-12


class ChainError(ValueError):
    pass


@dataclass(frozen=True)
class Generator:
    """Validated transition-rate matrix (rows sum to zero)."""

    Q: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.Q.shape[0]


def validate_generator(Q) -> Generator:
    """Check off-diagonal nonnegativity, zero row sums, finiteness."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ChainError("not a generator: matrix must be square")
    if not np.all(np.isfinite(Q)):
        raise ChainError("not a generator: nonfinite entry")
    S = Q.shape[0]
    for i in range(S):
        for j in range(S):
            if i != j and Q[i, j] < 0.0:
                raise ChainError(
                    f"not a generator: negative off-diagonal rate q[{i},{j}]={Q[i, j]}"
                )
        rs = Q[i].sum()
        if abs(rs) > ROW_SUM_TOL:
            raise ChainError(f"not a generator: row {i} sums to {rs:.3e}, not 0")
    Q = Q.copy()
    Q.flags.writeable = False
    return Generator(Q)


@dataclass(frozen=True)
class StationaryDist:
    pi: np.ndarray

    @property
    def p_min(self) -> float:
        return float(self.pi.min())

    @property
    def p_max(self) -> float:
        return float(self.pi.max())


def _strongly_connected(Q: np.ndarray) -> bool:
    """The digraph of positive rates must be strongly connected."""
    S = Q.shape[0]

    def reach(adj):
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in range(S):
                if adj[u, v] > 0.0 and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == S

    mask = Q > 0.0
    return reach(mask) and reach(mask.T)


def stationary(gen: Generator) -> StationaryDist:
    """Unique stationary distribution of an irreducible chain.

    Solved by replacing one row of the transposed generator with the
    normalization constraint; verified to machine accuracy afterwards.
    """
    Q = gen.Q
    S = Q.shape[0]
    if S == 1:
        return StationaryDist(np.array([1.0]))
    if not _strongly_connected(Q):
        raise ChainError(
            "no unique stationary distribution: rate digraph is not strongly connected"
        )
    M = Q.T.copy()
    M[-1, :] = 1.0
    rhs = np.zeros(S)
    rhs[-1] = 1.0
    pi = np.linalg.solve(M, rhs)
    pi = pi / pi.sum()
    resid = float(np.max(np.abs(Q.T @ pi)))
    if resid > ROW_SUM_TOL:
        raise ChainError(f"stationary solve residual {resid:.3e} above tolerance")
    if np.any(pi <= 0.0):
        raise ChainError("stationary distribution has a nonpositive component")
    return StationaryDist(pi)


@dataclass(frozen=True)
class SwitchPath:
    """Piecewise-constant mode trajectory, right continuous.

    times[0] = 0 with modes[0] the initial mode; each later entry is a jump
    instant together with the mode entered there.  Holding times are scaled
    by alpha, so smaller alpha means faster switching in slow time.
    """

    times: np.ndarray
    modes: np.ndarray
    alpha: float
    horizon: float
    n_modes: int
    absorbed: bool = False

    @property
    def n_jumps(self) -> int:
        return len(self.times) - 1


def sample_path(gen: Generator, s0: int, alpha: float, horizon: float, seed) -> SwitchPath:
    """Exact CTMC path over [0, horizon] in slow time.

    ``seed`` may be anything numpy's default_rng accepts (int, SeedSequence,
    Generator).  A mode with zero exit rate yields a single-segment path
    flagged as absorbed.
    """
    # "not > 0" also rejects nan, which would never reach the horizon
    if not alpha > 0.0:
        raise ChainError("alpha must be positive")
    if not horizon > 0.0:
        raise ChainError("horizon must be positive")
    Q = gen.Q
    S = Q.shape[0]
    if not 0 <= s0 < S:
        raise ChainError(f"initial mode {s0} outside 0..{S - 1}")
    rng = np.random.default_rng(seed)

    # per-mode cumulative jump distributions, built once
    cum = []
    for s in range(S):
        row = Q[s].copy()
        row[s] = 0.0
        tot = row.sum()
        cum.append(np.cumsum(row) / tot if tot > 0.0 else None)

    times = [0.0]
    modes = [s0]
    t = 0.0
    s = s0
    absorbed = False
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
    return SwitchPath(
        times=np.array(times),
        modes=np.array(modes, dtype=np.int64),
        alpha=alpha,
        horizon=horizon,
        n_modes=S,
        absorbed=absorbed,
    )


def mode_at(path: SwitchPath, t: float) -> int:
    """Right-continuous lookup: at a jump instant the new mode applies."""
    if t < 0.0 or t > path.horizon:
        raise ChainError(f"time {t} outside [0, {path.horizon}]")
    idx = bisect_right(path.times, t) - 1
    return int(path.modes[idx])


def occupation_fractions(path: SwitchPath) -> np.ndarray:
    """Fraction of [0, horizon] spent in each of the generator's modes."""
    out = np.zeros(path.n_modes)
    bounds = np.append(path.times, path.horizon)
    for k, m in enumerate(path.modes):
        out[m] += bounds[k + 1] - bounds[k]
    return out / path.horizon


def trajectory_seeds(root_seed: int, index: int):
    """Derived, order-independent seeds for ensemble member ``index``.

    The scheme is a documented counter: SeedSequence([root_seed, index])
    spawned into (chain, noise) children, so members can run in any order or
    concurrently and reproduce bit-identical results.
    """
    ss = np.random.SeedSequence([int(root_seed), int(index)])
    chain_ss, noise_ss = ss.spawn(2)
    return chain_ss, noise_ss
