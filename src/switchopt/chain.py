"""Continuous-time Markov chain over switching modes.

Exact event-driven simulation: holding times are sampled from the
exponential law of the current mode's exit rate (divided by the time-scale
factor alpha), and the next mode from the normalized off-diagonal rates.
No time discretization enters here, so integrator step error is the only
discretization source downstream.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Generator",
    "SwitchPath",
    "ChainError",
    "validate_generator",
    "stationary",
    "check_alpha",
    "sample_path",
    "occupation_fractions",
    "trajectory_seeds",
]

ROW_SUM_TOL = 1e-12
MAX_EXPECTED_JUMPS = 10**7


class ChainError(ValueError):
    pass


@dataclass(frozen=True)
class Generator:
    """Validated transition-rate matrix (rows sum to zero)."""

    Q: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.Q.shape[0]

    @cached_property
    def jump_tables(self):
        """Per mode, its exit rate and the cumulative distribution of the
        mode it jumps to (None where it exits at rate 0), as float lists;
        built once, as ``Q`` is read-only."""
        cum = []
        for s, row in enumerate(self.Q):
            row = row.copy()
            row[s] = 0.0
            tot = row.sum()
            cum.append((np.cumsum(row) / tot).tolist() if tot > 0.0 else None)
        return (-self.Q.diagonal()).tolist(), cum


def validate_generator(Q) -> Generator:
    """Check off-diagonal nonnegativity, zero row sums, finiteness."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ChainError("not a generator: matrix must be square")
    if Q.size == 0:
        raise ChainError("not a generator: matrix must have at least one mode")
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


def _strongly_connected(Q: np.ndarray) -> bool:
    """The digraph of positive rates must be strongly connected: every mode
    reaches every other in at most S - 1 jumps (an empty digraph is not)."""
    S = Q.shape[0]
    return S > 0 and bool(
        np.linalg.matrix_power(np.eye(S, dtype=bool) | (Q > 0.0), S - 1).all())


def stationary(gen: Generator) -> np.ndarray:
    """Unique stationary distribution of an irreducible chain, as a
    read-only probability vector (one mode: [1.0]).

    Solved by replacing one row of the transposed generator with the
    normalization constraint; verified to machine accuracy afterwards.
    """
    Q = gen.Q
    S = Q.shape[0]
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
    pi.flags.writeable = False
    return pi


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


def check_alpha(alpha) -> float:
    """The time-scale ratio ``alpha`` as a float, refused unless positive
    ("not > 0" also rejects nan, which would never reach the horizon) and
    finite (an inf never jumps)."""
    alpha = float(alpha)
    if not alpha > 0.0:
        raise ChainError("alpha must be positive")
    if not math.isfinite(alpha):
        raise ChainError(f"alpha must be finite, got {alpha}")
    return alpha


def sample_path(gen: Generator, s0: int, alpha: float, horizon: float, seed) -> SwitchPath:
    """Exact CTMC path over [0, horizon] in slow time.

    ``seed`` may be anything numpy's default_rng accepts (int, SeedSequence,
    Generator).  A mode with zero exit rate yields a single-segment path
    flagged as absorbed.
    """
    alpha = check_alpha(alpha)
    if not horizon > 0.0:  # "not > 0" also rejects nan
        raise ChainError("horizon must be positive")
    S = gen.n_modes
    if not 0 <= s0 < S:
        raise ChainError(f"initial mode {s0} outside 0..{S - 1}")
    exit_rates, cum = gen.jump_tables
    # at most horizon * (the largest exit rate) / alpha jumps are expected; past
    # the cap the path fills memory, or never ends once t stops advancing
    expected = horizon * max(exit_rates) / alpha
    if not expected <= MAX_EXPECTED_JUMPS:
        raise ChainError(f"the expected jump count over horizon {horizon} at alpha {alpha}, "
                         f"{expected:.3g}, overflows the cap of {MAX_EXPECTED_JUMPS}")
    rng = np.random.default_rng(seed)

    times = [0.0]
    modes = [s0]
    t = 0.0
    s = s0
    absorbed = False
    while True:
        exit_rate = exit_rates[s]
        if exit_rate <= 0.0:
            absorbed = True
            break
        t = t + rng.exponential(alpha / exit_rate)
        if t >= horizon:
            break
        s = bisect_right(cum[s], rng.random())
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


def occupation_fractions(path: SwitchPath) -> np.ndarray:
    """Fraction of [0, horizon] spent in each of the generator's modes."""
    out = np.zeros(path.n_modes)
    bounds = np.append(path.times, path.horizon)
    for k, m in enumerate(path.modes):
        out[m] += bounds[k + 1] - bounds[k]
    return out / path.horizon


def trajectory_seeds(root_seed: int, index: int):
    """Derived, order-independent seeds for ensemble member ``index``.

    The scheme is a documented counter: the (chain, noise) children of
    SeedSequence([root_seed, index]), spawn keys (0,) and (1,), exactly
    what its ``spawn(2)`` returns, built without the parent.  Members can
    run in any order or concurrently and reproduce bit-identical results.
    """
    entropy = [int(root_seed), int(index)]
    chain_ss, noise_ss = (np.random.SeedSequence(entropy, spawn_key=(i,)) for i in range(2))
    return chain_ss, noise_ss
