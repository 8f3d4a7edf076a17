"""Switching stochastic dynamics of the distributed primal-dual flow.

Each agent carries a primal estimate x_i, an integral-action state theta_i,
and multipliers for its own constraints.  Agents exchange relative states
over the active graph; each directed channel corrupts what it carries with
multiplicative noise proportional to the transmitted difference.  The same
Wiener increment enters the x-update with a plus sign and the theta-update
with a minus sign, so the pair x + theta evolves noise-free.

The integrator exploits that structure: it carries x and the pair sum
x + theta as its state variables and reconstructs theta by subtraction.
The per-step update of the pair sum is then literally
``pair + h * (drift_x + drift_theta)`` with no noise term in the expression,
making the cancellation exact in floating point rather than approximate.

Euler-Maruyama stepping, Ito interpretation.  Substeps are split exactly at
the switch instants of the mode path so no step straddles a topology change.
"""

from __future__ import annotations

import math
import sys
import textwrap
import warnings as _warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .chain import SwitchPath
from .expr import ONE, DomainError, Emitter, _add, _lit, _mul, _sub
from .graph import Network, connected, is_integer, lambda2
from .problem import KktCertificate, Problem, _evaluate, emit_kernel
from .schedule import chunk, chunk_steps

__all__ = [
    "SystemState",
    "IntegratorConfig",
    "Trajectory",
    "Ensemble",
    "IntegrationError",
    "TrajectoryWarning",
    "drift",
    "diffusion_matrix",
    "em_step",
    "simulate",
    "check_assumptions",
    "start_warnings",
    "build_equilibrium",
]

EQUILIBRIUM_TOL = 1e-6  # the largest certificate residual build_equilibrium accepts


class IntegrationError(RuntimeError):
    """A run that left a domain, went nonfinite or failed the strict gate;
    a failing batch member sets its index and its failing substep's start."""

    start: float | None = None
    member: int | None = None


class TrajectoryWarning(RuntimeWarning):
    """A warning that the run also records in ``Trajectory.warnings``."""


class SystemState:
    """Stacked simulator state at one instant.

    Stores ``x`` (N x n) and the pair sum ``pair = x + theta`` as primary
    arrays; ``theta`` is derived.  ``lam`` must stay positive along
    trajectories (the flow preserves this; the integrator clamps and counts
    any discrete crossing).
    """

    __slots__ = ("x", "pair", "lam", "nu", "t", "clamp_count")

    def __init__(self, x, theta, lam, nu, t=0.0):
        self.x = np.array(x, dtype=float)
        self.pair = self.x + np.asarray(theta, dtype=float)
        self.lam = np.array(lam, dtype=float).reshape(-1)
        self.nu = np.array(nu, dtype=float).reshape(-1)
        self.t = float(t)
        self.clamp_count = 0

    @classmethod
    def _from_pair(cls, x, pair, lam, nu, t, clamp_count):
        obj = cls.__new__(cls)
        obj.x = x
        obj.pair = pair
        obj.lam = lam
        obj.nu = nu
        obj.t = t
        obj.clamp_count = clamp_count
        return obj

    @property
    def theta(self) -> np.ndarray:
        return self.pair - self.x

    def copy(self):
        out = SystemState._from_pair(
            self.x.copy(), self.pair.copy(), self.lam.copy(), self.nu.copy(),
            self.t, self.clamp_count,
        )
        return out


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size, horizon, multiplier parameters and seeding.

    ``seed`` is one noise seed, or a nonempty list of them for a batch of
    members.  Frozen, so each rule on the settings is checked here once: a
    changed setting is a new config (``dataclasses.replace``).
    """

    h: float = 1e-3
    horizon: float = 1.0
    eta: float | np.ndarray = 1.0
    lambda_floor: float = 1e-12
    seed: int | list = 0
    output_stride: int = 1
    strict: bool = False

    def __post_init__(self):
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise ValueError(f"step size must be positive and finite, got {self.h}")
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not math.isfinite(self.horizon / self.h):
            raise ValueError(f"step size {self.h} is too small for horizon {self.horizon}: "
                             "the step count overflows")
        if self.n_steps < 1:
            raise ValueError(f"step size {self.h} is too large for horizon {self.horizon}: "
                             "no step would run")
        if not math.isfinite(self.lambda_floor):
            raise ValueError(f"lambda_floor must be finite, got {self.lambda_floor}")
        if self.lambda_floor < 0.0:
            raise ValueError("lambda_floor must be nonnegative")
        if not is_integer(self.output_stride):
            raise ValueError(f"output_stride must be an integer, got {self.output_stride!r}")
        if self.output_stride < 1:
            raise ValueError("output stride must be at least 1")
        if type(self.strict) is not bool:
            raise ValueError(f"strict must be true or false, got {self.strict!r}")
        if isinstance(self.seed, (list, tuple)) and not self.seed:
            raise ValueError("cfg.seed is an empty list: a batch needs at least one noise seed")

    @property
    def n_steps(self) -> int:
        """The steps a run takes: horizon / h, rounded (at least 1)."""
        return round(self.horizon / self.h)

    def off_grid(self) -> str | None:
        """The warning of a horizon that is not a multiple of ``h``, None on the grid."""
        if abs(self.n_steps * self.h - self.horizon) <= 1e-9 * max(1.0, self.horizon):
            return None
        return (f"horizon {self.horizon} is not a multiple of h={self.h}; "
                f"running {self.n_steps} steps to t={self.n_steps * self.h:.6g}")

    def eta_vector(self, r: int) -> np.ndarray:
        return _eta_vector(self.eta, r)


def _eta_vector(eta, r: int) -> np.ndarray:
    """``eta``, a scalar or length r, as r finite positive multiplier weights."""
    eta = np.asarray(eta, dtype=float)
    if eta.ndim == 0:
        eta = np.full(r, float(eta))
    if eta.shape != (r,):
        raise ValueError(f"eta must be scalar or length {r}")
    if not np.all(np.isfinite(eta) & (eta > 0.0)):
        raise ValueError("eta entries must be finite and positive")
    return eta


@dataclass
class Trajectory:
    """Strided samples of one integrated path."""

    times: np.ndarray
    x: np.ndarray        # (K, N, n)
    theta: np.ndarray    # (K, N, n)
    lam: np.ndarray      # (K, r)
    nu: np.ndarray       # (K, s)
    clamp_count: int
    warnings: list[str] = field(default_factory=list)
    final_state: SystemState | None = None
    assumptions: dict | None = None  # check_assumptions' report


@dataclass
class Ensemble:
    """The trajectories of one batch, member k at ``members[k]``, and the
    run warnings of the batch, each once."""

    members: list[Trajectory]
    warnings: list[str]

    @property
    def clamp_count(self) -> int:
        """Multiplier clamps summed over the members."""
        return sum(traj.clamp_count for traj in self.members)


# A batch round of at least this many members steps as one numpy update,
# within a few ulp of its members' lone runs; a smaller one steps member by
# member on the lone substep, bit for bit.  Per member, numpy costs less from
# about 10 members on the bundled fixed problem and 14-16 on the switching
# one (interleaved timings, 2-CPU x86-64, numpy 2.4).
BATCH_KERNEL_ROWS = 16


class _Model:
    """Precomputed structure shared by every step of one run.

    ``drift`` and ``step`` take a lone member as flat float lists (x and
    pair agent-major), which runs on the compiled substep ``lone``, or a
    batch stacked on a leading member axis, x (M, N, n), with ``mode`` an
    int or one per member.  ``eta`` is a scalar or one weight per inequality
    multiplier.  Given the stationary distribution ``pi``, the stacks gain
    the averaged system as mode S = ``averaged``: L_pi and the channel
    coefficients sqrt(w), w = sum_s pi_s R_s^2 (see ``averaging``).
    """

    def __init__(self, problem: Problem, network: Network, eta, pi: np.ndarray | None = None):
        if network.n_nodes != problem.n_agents:
            raise ValueError(
                f"network has {network.n_nodes} nodes but problem has "
                f"{problem.n_agents} agents"
            )
        self.problem = problem
        self.N = problem.n_agents
        self.n = problem.n
        self.c = network.coupling
        self.S = network.n_modes
        # stacked over modes, so that one index picks a mode or one per member
        self.L = network.laplacians
        self.R = network.receive
        self.averaged = None
        if pi is not None:
            L_pi, w = network.average(pi)
            self.L = np.concatenate([self.L, L_pi[None]])
            self.R = np.concatenate([self.R, np.sqrt(w)[None]])
            self.averaged = self.S
        self.r = problem.r
        self.s = problem.s
        self.eta = _eta_vector(eta, self.r)

    @cached_property
    def lone(self):
        """A lone member's compiled substep, generated on first use (see
        ``_compile_lone``)."""
        return _compile_lone(self)

    def drift(self, x, pair, lam, nu, mode):
        """Drift blocks (dx, dtheta, dlam, dnu), theta being pair - x; only
        the coupling Laplacian depends on the mode."""
        if isinstance(x, list):  # a lone member
            drift, _, coupling, _ = self.lone
            branch, L = coupling[mode]
            return drift(x, pair, lam, nu, branch, L)
        Lx = self.L[mode] @ x
        grad_terms, gvals, hvals = self.problem.batch_kernel(x, lam, nu)
        # a multiplier at -1/eta: inf or nan, and the round is rerun member
        # by member, with no numpy warning
        with np.errstate(divide="ignore", invalid="ignore"):
            dlam = lam / (1.0 + self.eta * lam) * gvals
        return -self.c * Lx - (pair - x) - grad_terms, self.c * Lx, dlam, hvals

    def failure(self, what, detail, t, h, mode, member=None):
        """IntegrationError "<what> at t=<t + h> (<mode>): <detail>", naming
        ``member`` (unless None) and carrying it and ``t``, the start of its
        substep."""
        where = "averaged" if mode == self.averaged else f"mode {mode}"
        if member is None:
            return IntegrationError(f"{what} at t={t + h:.6g} ({where}): {detail}")
        err = IntegrationError(f"{what} at t={t + h:.6g} ({where}, member {member}): {detail}")
        err.start, err.member = t, member
        return err

    def noise_term(self, x, mode, W):
        """c * M_mode(x) applied to the channel increments W (M, N, N),
        W[m, i, j] being member m's increment on the channel carrying j to i:
        c * sum_j R[mode][..., i, j] W[m, i, j] (x[m, j] - x[m, i]) for each
        receiver i of each member m of x (M, N, n)."""
        diffs = x[:, None, :, :] - x[:, :, None, :]
        return self.c * np.einsum("mij,mijk->mik", self.R[mode] * W, diffs)

    def step(self, x, pair, lam, nu, t, h, mode, W, clamp_floor, members=None, failures=None):
        """One Euler-Maruyama substep; returns the new state and clamp count.

        A lone member's state is four flat float lists, ``W`` its (N, N)
        channel increments and ``members`` its index in failure messages
        (None: unnamed).  In a batch, ``t``, ``h``, ``mode`` and ``members``
        (the rows' names) are each shared or one per member, and broadcast;
        the clamp count is per member.  A round below ``BATCH_KERNEL_ROWS``
        members, or whose numpy update fails, steps member by member once
        (``_each``, which fills ``failures``); a lone member's failing
        expression is named by certification's own pass.  The pair-sum
        update deliberately contains no noise term; see the module docstring.
        """
        if isinstance(x, list):  # a lone member
            _, update, _, channels = self.lone
            branch, R = channels[mode]
            try:
                dx, dtheta, dlam, dnu = self.drift(x, pair, lam, nu, mode)
                return update(x, pair, lam, nu, dx, dtheta, dlam, dnu, branch, R,
                              W.ravel().tolist(), h, clamp_floor)
            except DomainError:  # the same lowering: the pass fails on the same expression
                try:
                    _evaluate(self.problem, np.reshape(x, (self.N, self.n)).tolist())
                except DomainError as exc:
                    raise self.failure("expression left its domain", str(exc), t, 0.0, mode,
                                       members) from exc
            except ArithmeticError:  # a multiplier at -1/eta, or a nonfinite state
                raise self.failure("nonfinite state", _STIFF, t, h, mode, members) from None
        args = (x, pair, lam, nu, t, h, mode, W, clamp_floor, members, failures)
        if len(x) < BATCH_KERNEL_ROWS:
            return self._each(*args)
        try:
            dx, dtheta, dlam, dnu = self.drift(x, pair, lam, nu, mode)
        except DomainError:
            return self._each(*args)
        noise = self.noise_term(x, mode, W)
        hx, hv = np.reshape(h, (-1, 1, 1)), np.reshape(h, (-1, 1))
        x_new = x + (hx * dx + noise)
        pair_new = pair + hx * (dx + dtheta)
        lam_new = lam + hv * dlam
        clamped = 0
        if lam_new.size and lam_new.min() < clamp_floor:
            crossed = (lam_new < clamp_floor) & (lam >= clamp_floor)
            clamped = np.count_nonzero(crossed, axis=-1)
            lam_new = np.where(crossed, clamp_floor, lam_new)
        nu_new = nu + hv * dnu
        new = (x_new, pair_new, lam_new, nu_new)
        if not all(np.isfinite(a).all() for a in new):
            return self._each(*args)
        return (*new, clamped)

    def _each(self, x, pair, lam, nu, t, h, mode, W, clamp_floor, members, failures):
        """``step`` of a batch, each member once on the lone substep, the state
        converted to flat float lists once for the round.  A failing member
        keeps its state; its error goes to ``failures``, or raises without it."""
        M = len(x)
        state = (x, pair, lam, nu)
        flat = [a.reshape(M, a[0].size).tolist() for a in state]
        # np.full broadcasts a shared value as np.broadcast_to does, at a quarter of its cost
        per = [np.full(M, v).tolist() for v in (t, h, mode, members)]
        out = []
        for xm, pm, lm, nm, Wm, tm, hm, mode_m, m in zip(*flat, W, *per):
            try:
                out.append(self.step(xm, pm, lm, nm, tm, hm, mode_m, Wm, clamp_floor, m))
            except IntegrationError as err:
                if failures is None:
                    raise
                failures.append(err)
                out.append((xm, pm, lm, nm, 0))
        *new, clamped = zip(*out)
        return (*(np.reshape(b, a.shape) for a, b in zip(state, new)), np.array(clamped))


_STIFF = "step size too large for this problem's stiffness"


def _check_mode(mode, count: int, where=""):
    """Refuse a mode that is not an int index of ``count`` stacked modes
    (0..S-1, and S given pi): ValueError "<where>mode <mode> is outside
    0..<count - 1>"."""
    if not (is_integer(mode) and mode in range(count)):
        raise ValueError(f"{where}mode {mode!r} is outside 0..{count - 1}")


def _compile_lone(model: _Model):
    """The substep of a lone member as straight-line float code, generated
    once per model with ``expr.Emitter`` around ``emit_kernel``.  The state
    is four flat float lists: x and pair agent-major, lam, nu.

    Returns ``(drift, update, coupling, channels)``: ``drift(x, pair, lam,
    nu, branch, L)`` gives the blocks (dx, dtheta, dlam, dnu), summing L @ x
    over the senders j left to right from 0.0; ``update(x, pair, lam, nu,
    dx, dtheta, dlam, dnu, branch, R, W, h, floor)`` the new state and the
    clamp count, summing the channel noise over the senders in the same
    order.  Only these two sums depend on the mode, and each reads only the
    mode's nonzero entries: ``coupling[mode]`` is ``(branch, L)``, the
    branch of the mode's pattern of nonzero Laplacian entries and those
    entries, flat in the order the branch reads them, and ``channels[mode]``
    the same for the channel coefficients R.  Modes of one pattern share a
    branch; a one-pattern model (any fixed network) has no branch.  A
    left-out term is +-0.0 at a finite state, which leaves a sum begun at
    0.0 unchanged, so the bits are those of a sum over every sender (a
    nonfinite x fails the step either way).  A nonfinite new state, or a
    multiplier at exactly -1/eta, raises ArithmeticError.
    """
    N, n, r, s, c = model.N, model.n, model.r, model.s, float(model.c)
    cells = [(i, k, f"{i}_{k}") for i in range(N) for k in range(n)]
    flat, lams, nus = [v for _, _, v in cells], list(range(r)), list(range(s))

    def by_pattern(em, stack, write):
        """``write(em, senders)`` once per distinct pattern of nonzero
        entries among the modes of ``stack`` (senders per receiver), under
        ``if b == <its index>:`` where there are several; returns per mode
        its pattern's index and its nonzero entries, row-major."""
        index, modes = {}, []
        for a in stack:
            nonzero = tuple(map(tuple, np.argwhere(a).tolist()))
            modes.append((index.setdefault(nonzero, len(index)), a[a != 0.0].tolist()))
        outer = em.lines
        for b, pattern in enumerate(index):
            em.lines = [] if len(index) > 1 else outer
            write(em, [[j for i2, j in pattern if i2 == i] for i in range(N)])
            if len(index) > 1:
                test = "else" if b == len(index) - 1 else f"{'el' if b else ''}if b == {b}"
                outer.append(f"{test}:\n" + textwrap.indent("\n".join(em.lines), "    "))
        em.lines = outer
        return modes

    def bind(em, *pairs):  # unpack each parameter ``name`` into name<v> locals
        for name, names in pairs:
            if names:
                em.line(f"{''.join(f'{name}{v}, ' for v in names)}= {name}")

    def lists(*blocks):
        return ", ".join(f"[{', '.join(b)}]" for b in blocks)

    def couple(em, senders):
        bind(em, ("L", [f"{i}_{j}" for i in range(N) for j in senders[i]]))
        for i, k, v in cells:
            em.left_sum([f"L{i}_{j} * x{j}_{k}" for j in senders[i]], f"Lx{v}")

    em = Emitter()
    G, gvals, hvals = emit_kernel(model.problem, em)
    bind(em, ("p", flat))
    coupling = by_pattern(em, model.L, couple)
    # the products with c and eta, and the sum with G, by expr's rule table
    dx = [_sub(f"{_mul(_lit(-c), f'Lx{v}')} - (p{v} - x{v})", G[i][k]) for i, k, v in cells]
    dtheta = [_mul(_lit(c), f"Lx{v}") for v in flat]
    dlam = [_mul(f"lam{k} / ({_add(ONE, _mul(_lit(e), f'lam{k}'))})", g)
            for k, (e, g) in enumerate(zip(model.eta.tolist(), gvals))]
    drift = em.compile("lone_drift", "x, p, lam, nu, b, L", lists(dx, dtheta, dlam, hvals))

    def hear(em, senders):
        for e, (i, j) in enumerate((i, j) for i in range(N) for j in senders[i]):
            em.line(f"q{i}_{j} = R[{e}] * W[{i * N + j}]")
        for i, k, v in cells:
            em.left_sum([f"q{i}_{j} * (x{j}_{k} - x{v})" for j in senders[i]], f"noise{v}")

    em = Emitter()
    bind(em, ("x", flat), ("p", flat), ("l", lams), ("m", nus), ("dx", flat), ("dt", flat),
         ("dl", lams), ("dn", nus))
    channels = by_pattern(em, model.R, hear)
    for v in flat:
        em.line(f"xn{v} = x{v} + (h * dx{v} + {_mul(_lit(c), f'noise{v}')})")
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
    update = em.compile("lone_update", "x, p, l, m, dx, dt, dl, dn, b, R, W, h, floor",
                        f"{lists(*new)}, clamped")
    return drift, update, coupling, channels


def drift(state: SystemState, mode: int, problem: Problem, network: Network, eta=1.0):
    """Drift blocks (dx, dtheta, dlam, dnu) of the switching dynamics, as
    the lone substep computes them."""
    arrays = (state.x, state.pair, state.lam, state.nu)
    blocks = _shared_model(problem, network, eta, mode).drift(*_flat(arrays), mode)
    return tuple(np.reshape(b, a.shape) for a, b in zip(arrays, blocks))


def diffusion_matrix(state: SystemState, mode: int, network: Network) -> np.ndarray:
    """Explicit (nN) x (N^2) diffusion matrix of the active mode.

    Block-diagonal over agents: block i has N columns, column j holding the
    channel coefficient times (x_j - x_i).  Column i*N + j matches the
    flattened channel increment W[i, j].  A mode outside the network's
    raises ValueError, as in ``drift``.
    """
    _check_mode(mode, network.n_modes)
    x = state.x
    N, n = x.shape
    R = network.receive[mode]
    M = np.zeros((n * N, N * N))
    for i in range(N):
        for j in range(N):
            if R[i, j] != 0.0:
                M[i * n : (i + 1) * n, i * N + j] = R[i, j] * (x[j] - x[i])
    return M


def em_step(
    state: SystemState,
    mode: int,
    h: float,
    noise_increment,
    problem: Problem,
    network: Network,
    cfg: IntegratorConfig,
) -> SystemState:
    """One Euler-Maruyama step with caller-supplied channel increments.

    ``noise_increment`` is the vector of Wiener increments per ordered
    channel, shaped (N, N) or flat (N^2,), already scaled to variance h.
    """
    N = state.x.shape[0]
    W = np.asarray(noise_increment, dtype=float)
    if W.shape not in ((N, N), (N * N,)):
        raise ValueError(f"noise increment must have shape ({N},{N}) or ({N * N},)")
    if not np.isfinite(W).all():  # the substep reads only the mode's channels
        raise ValueError("noise increment must be finite")
    arrays = (state.x, state.pair, state.lam, state.nu)
    *new, clamped = _shared_model(problem, network, cfg.eta, mode).step(
        *_flat(arrays), state.t, h, mode, W.reshape(N, N), cfg.lambda_floor)
    return SystemState._from_pair(*(np.reshape(b, a.shape) for a, b in zip(arrays, new)),
                                  state.t + h, state.clamp_count + clamped)


def _shared_model(problem: Problem, network: Network, eta, mode) -> _Model:
    """The model of the public helpers, refusing a ``mode`` outside it: one
    per (problem, network, eta), kept across calls (the 16 most recent), so
    that repeated calls generate the lone substep once."""
    model = _cached_model(problem, network, float(eta) if np.ndim(eta) == 0
                          else tuple(np.ravel(eta).tolist()))
    _check_mode(mode, len(model.L))
    return model


@lru_cache(maxsize=16)
def _cached_model(problem: Problem, network: Network, eta) -> _Model:
    return _Model(problem, network, eta)


def _flat(arrays):
    """Each array as a flat list of floats: a lone member's state."""
    return [a.ravel().tolist() for a in arrays]


def check_assumptions(
    network: Network, pi: np.ndarray | None = None, *, switching: bool | None = None
) -> dict:
    """Gate report for the convergence hypotheses, in the form meta.json
    holds: ``{"mode", "all_passed", "checks": [{"name", "passed",
    "detail"}, ...]}``.

    Fixed mode: noise bound, coupling bound c < (2/3) / kappa^2, and
    kappa <= sqrt(lambda2(L)) / 2 for the single graph.  Switching mode:
    coupling bound scaled by pi_min/pi_max and the spectral gate on the
    summed Laplacian.  ``switching`` defaults to whether ``pi`` was given;
    a switching check without ``pi`` cannot evaluate the coupling bound and
    says so in the report.  One agent counts as connected in both.
    """
    if switching is None:
        switching = pi is not None
    kappa = network.kappa
    c = network.coupling
    N = network.n_nodes
    off = network.sigma[~np.eye(N, dtype=bool)]
    sig_max = float(off.max()) if off.size else 0.0
    # the fixed report is the switching report of one mode: the first
    # graph alone, with pi_min/pi_max = 1
    if switching:
        mode, gate, laplacians = "switching", "_switching", network.laplacians
        ratio = None if pi is None else float(pi.min()) / float(pi.max())
    else:
        mode, gate, laplacians, ratio = "fixed", "", network.laplacians[:1], 1.0
    summed = laplacians.sum(axis=0)
    lam2 = lambda2(summed)
    checks = [("noise_bound", sig_max <= kappa + 1e-15,
               f"max sigma {sig_max:.6g} vs kappa {kappa:.6g}")]
    if ratio is None:
        checks.append((
            "coupling_bound_switching", c > 0.0,
            f"stationary distribution not supplied; only positivity of c={c:.6g} checked"))
    else:
        bound = math.inf if kappa == 0.0 else (2.0 / 3.0) * ratio / kappa**2
        note = f" (pi_min/pi_max={ratio:.6g})" if switching else ""
        checks.append(("coupling_bound" + gate, 0.0 < c < bound,
                       f"c={c:.6g} must lie in (0, {bound:.6g}){note}"))
    root = math.sqrt(max(lam2, 0.0)) / 2.0
    name = "lambda2_bar" if switching else "lambda2"
    checks.append(("spectral_gate" + gate, kappa <= root,
                   f"kappa={kappa:.6g} vs sqrt({name}={lam2:.6g})/2={root:.6g}"))
    checks.append((
        "jointly_connected" if switching else "connected", connected(summed),
        f"lambda2 of the {'summed Laplacian' if switching else 'fixed graph'} is {lam2:.6g}"))
    checks = [{"name": name, "passed": bool(passed), "detail": detail}
              for name, passed, detail in checks]
    return {"mode": mode, "all_passed": all(c["passed"] for c in checks), "checks": checks}


def build_equilibrium(problem: Problem, cert: KktCertificate) -> SystemState:
    """Stationary point (x*, theta*, lambda*, nu*) of the flow from a
    certificate of ``problem`` with residuals within ``EQUILIBRIUM_TOL``,
    every row of x the certified optimum.  theta per agent balances that
    agent's own gradient contributions, summed from the certificate's, so
    the drift vanishes blockwise."""
    N, n, r, s = problem.n_agents, problem.n, problem.r, problem.s
    for what, got, want in (("dimension of x*", np.size(cert.x_star), n),
                            ("inequality multiplier count", np.size(cert.lambda_star), r),
                            ("equality multiplier count", np.size(cert.nu_star), s),
                            ("gradient count", len(cert.gradients), N + r + s)):
        if got != want:
            raise ValueError(f"certificate of another problem: the {what} is {got}, not {want}")
    bad = {k: v for k, v in cert.residuals.items() if v > EQUILIBRIUM_TOL}
    if bad:
        raise ValueError(f"certificate residuals above {EQUILIBRIUM_TOL}: {bad}")
    # theta_i = -(grad f_i + sum lam_k grad g_k + sum nu_k grad h_k), agent
    # i's terms added in the drift's order
    terms = cert.gradients[:N].copy()
    owners = [i for i, _, _ in problem.ineq_index() + problem.eq_index()]
    for i, m, grad in zip(owners, [*cert.lambda_star, *cert.nu_star], cert.gradients[N:]):
        terms[i] += m * grad
    total = np.linalg.norm(terms.sum(axis=0))
    if total > 10.0 * max(EQUILIBRIUM_TOL, cert.residuals["stationarity"]) + 1e-12:
        raise ValueError(f"theta blocks do not balance: |sum theta| = {total:.3e}")
    return SystemState(np.tile(cert.x_star, (N, 1)), -terms, cert.lambda_star, cert.nu_star)


def simulate(
    problem: Problem,
    network: Network,
    chain_path: SwitchPath | list | None,
    cfg: IntegratorConfig,
    init: SystemState,
    pi: np.ndarray | None = None,
) -> Trajectory | Ensemble:
    """Integrate the switching dynamics over cfg.horizon.

    Fixed topology when ``chain_path`` is None (mode 0 throughout).  Substep
    boundaries land exactly on the path's jump instants.  Given ``pi``, a
    path may also be the int S, the averaged system held throughout (see
    ``_Model``).  Gate failures and noncompliant initial conditions
    downgrade to warnings unless cfg.strict, in which case they raise.  A
    list of noise seeds in ``cfg.seed`` runs a batch, with a list of paths
    (see ``_integrate``).
    """
    model = _Model(problem, network, cfg.eta, pi)
    report = check_assumptions(network, pi, switching=chain_path is not None)
    return _integrate(model, chain_path, cfg, init, report)


def start_warnings(x, pair, lam, cfg: IntegratorConfig) -> list[tuple[str, str]]:
    """A run's warnings about its start, as (name, text) pairs: a
    nonpositive initial multiplier, initial theta blocks that do not sum to
    zero, and a horizon off the step grid.  ``x``, ``pair`` and ``lam`` may
    carry a leading member axis; the worst member is reported."""
    out = []
    if lam.size and lam.min() <= 0.0:
        out.append(("initial_multipliers_nonpositive",
                    f"initial multiplier min {lam.min():.6g} is not positive"))
    thetas = (pair - x).reshape(-1, *x.shape[-2:])
    theta_sum = max(np.linalg.norm(th.sum(axis=0)) for th in thetas)
    if theta_sum > 1e-9:
        out.append(("initial_theta_sum_nonzero",
                    f"initial theta blocks sum to {theta_sum:.3e}, not zero; the "
                    "convergence guarantees assume a zero sum"))
    if cfg.off_grid():
        out.append(("horizon_off_grid", cfg.off_grid()))
    return out


def _integrate(
    model: _Model,
    chain_path: SwitchPath | list | None,
    cfg: IntegratorConfig,
    init: SystemState,
    report: dict,
) -> Trajectory | Ensemble:
    """Euler-Maruyama core shared by every view of the dynamics.

    ``model`` supplies the drift and the channel noise, driven by one
    Gaussian increment per ordered channel; ``chain_path`` the mode schedule
    (mode 0 throughout when None, that mode throughout when an int).  A
    list of noise seeds in ``cfg.seed`` runs a batch and returns an
    ``Ensemble``: member k draws from seed k, follows ``chain_path[k]`` (or
    the one path given) and starts from ``init`` (or its row k, given a
    leading member axis), as if it ran alone: bit for bit while its rounds
    stay below ``BATCH_KERNEL_ROWS`` members, within a few ulp per step
    above (see ``_Model.step``).  A lone run raises at its failing substep;
    a batch steps a failing round member by member once, each failing
    member keeping its state, and at the end of the step raises the error
    of its earliest failing substep, the lowest member on a tie.  A lone
    member carries its state as flat float lists between substeps, on the
    compiled substep, and its draws as the chunk's numpy array.  The
    samples of a chunk are stored at its end, one slice per sample array;
    the arrays are allocated before the first step.  A path outside the
    model's modes, or a held mode that is not an int
    (``_check_mode``), is refused before any step; the settings'
    rules, and the off-grid horizon warning, are ``cfg``'s.  Warnings point
    at the first caller outside this package.
    """
    seeds = cfg.seed if isinstance(cfg.seed, (list, tuple)) else [cfg.seed]
    M = len(seeds)
    paths = chain_path if isinstance(chain_path, (list, tuple)) else [chain_path] * M
    if len(paths) != M:
        raise ValueError(f"{len(paths)} chain paths for {M} members")
    for m, path in enumerate(paths):  # modes 0..S-1, and S given pi
        if isinstance(path, SwitchPath) and path.n_modes != model.S:
            raise ValueError(f"chain path of member {m} switches among {path.n_modes} "
                             f"modes; the network has {model.S} (modes 0..{model.S - 1})")
        if not (path is None or isinstance(path, SwitchPath)):
            _check_mode(path, len(model.L), f"chain path of member {m}: ")
    N, n = model.N, model.n
    shapes = ((N, n), (N, n), (model.r,), (model.s,))
    start = [np.broadcast_to(a, (M, *shape))
             for a, shape in zip((init.x, init.pair, init.lam, init.nu), shapes)]
    x, pair, lam, nu = start

    # the start as given: a start broadcast over the members is checked once
    warnings = [text for _, text in start_warnings(init.x, init.pair, init.lam, cfg)]
    warnings += [f"assumption {c['name']} failed: {c['detail']}"
                 for c in report["checks"] if not c["passed"]]
    if warnings and cfg.strict:
        raise IntegrationError("; ".join(warnings))
    caller, level = sys._getframe(1), 2  # the first frame outside this package
    while caller.f_back and caller.f_globals.get("__package__") == __package__:
        caller, level = caller.f_back, level + 1
    for w in warnings:
        _warnings.warn(w, TrajectoryWarning, stacklevel=level)

    h, n_steps = cfg.h, cfg.n_steps
    if any(isinstance(p, SwitchPath) and p.horizon < n_steps * h - 1e-12 for p in paths):
        raise ValueError("chain path horizon shorter than the integration")
    rngs = [np.random.default_rng(s) for s in seeds]
    clamp_floor = cfg.lambda_floor
    if M == 1:  # a lone member: flat float lists
        x, pair, lam, nu = _flat(start)
        clamps, everyone = init.clamp_count, None
    else:
        x, pair, lam, nu = (a.copy() for a in start)
        clamps, everyone = np.full(M, init.clamp_count, dtype=np.int64), np.arange(M)

    stride = cfg.output_stride
    n_samples = n_steps // stride + 1
    try:  # before the first step: a run whose samples cannot be held does not start
        T = np.empty(n_samples)
        X, P, LM, NU = stored = [np.empty((n_samples, M, *shape)) for shape in shapes]
    except (MemoryError, ValueError):
        raise ValueError(f"{n_samples:.6g} samples at output_stride {stride} do not fit in "
                         "memory; raise output_stride or shorten the horizon") from None
    # the chunk's samples, kept as they are: a lone substep returns new lists
    # and a batch's round 0 new arrays, and its later rounds write rows in
    # place before the step's sample is kept
    kept, filled = [(x, pair, lam, nu)], 0
    failures = []  # a batch's failures in the step under way
    span = chunk_steps(M, N)
    for k0 in range(0, n_steps, span):
        Z, rounds = chunk(paths, rngs, k0, min(k0 + span, n_steps), h, N)
        for t, h_sub, mode, rows, draws, k_done in rounds:
            W = Z[draws]
            if rows is None:
                x, pair, lam, nu, clamped = model.step(
                    x, pair, lam, nu, t, h_sub, mode, W, clamp_floor, everyone, failures)
                clamps += clamped
            else:
                *new, clamped = model.step(x[rows], pair[rows], lam[rows], nu[rows],
                                           t, h_sub, mode, W, clamp_floor, rows, failures)
                x[rows], pair[rows], lam[rows], nu[rows] = new
                clamps[rows] += clamped
            if k_done and failures:  # the earliest start wins, the lowest member on a tie
                raise min(failures, key=lambda f: (f.start, f.member)) from None
            if k_done and k_done % stride == 0:
                kept.append((x, pair, lam, nu))
        stop = filled + len(kept)  # store the chunk's samples, one slice per array
        T[filled:stop] = np.arange(filled, stop) * stride * h
        for rec, samples in zip(stored, zip(*kept)):
            rec[filled:stop] = np.reshape(samples, rec[filled:stop].shape)
        kept, filled = [], stop

    final = [np.reshape(a, (M, *shape)) for a, shape in zip((x, pair, lam, nu), shapes)]
    recorded = (X, P - X, LM, NU)
    members = []
    for m, count in enumerate(np.full(M, clamps).tolist()):
        end = SystemState._from_pair(*(a[m].copy() for a in final), n_steps * h, count)
        # times, x, theta, lam, nu, clamp count, warnings, final state
        members.append(Trajectory(T, *(a[:, m] for a in recorded), end.clamp_count,
                                  warnings, end, report))
    if isinstance(cfg.seed, (list, tuple)):
        return Ensemble(members, warnings)
    return members[0]
