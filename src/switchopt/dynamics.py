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
import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np

from .chain import StationaryDist, SwitchPath
from .expr import DomainError
from .graph import Network, lambda2
from .problem import KktCertificate, Problem, domain_error_detail
from .schedule import CHUNK_STEPS, chunk

__all__ = [
    "SystemState",
    "Equilibrium",
    "IntegratorConfig",
    "Trajectory",
    "Ensemble",
    "IntegrationError",
    "TrajectoryWarning",
    "AssumptionReport",
    "drift",
    "diffusion_matrix",
    "apply_diffusion",
    "em_step",
    "simulate",
    "check_assumptions",
    "build_equilibrium",
]


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
class Equilibrium:
    """Stationary point of the flow built from a KKT certificate.

    theta per agent balances that agent's own gradient contributions, so the
    drift vanishes blockwise; the agent-sum of theta equals minus the
    stationarity residual of the certificate.
    """

    x: np.ndarray        # (N, n), every row the certified optimum
    theta: np.ndarray    # (N, n)
    lam: np.ndarray      # (r,)
    nu: np.ndarray       # (s,)

    def as_state(self, t=0.0) -> SystemState:
        return SystemState(self.x, self.theta, self.lam, self.nu, t=t)

    @property
    def pair(self) -> np.ndarray:
        return self.x + self.theta


@dataclass
class IntegratorConfig:
    """Step size, horizon, multiplier parameters and seeding.

    ``seed`` is one noise seed, or a list of them for a batch of members.
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
        if self.lambda_floor < 0.0:
            raise ValueError("lambda_floor must be nonnegative")
        if self.output_stride < 1:
            raise ValueError("output stride must be at least 1")

    def eta_vector(self, r: int) -> np.ndarray:
        return _eta_vector(self.eta, r)


def _eta_vector(eta, r: int) -> np.ndarray:
    """``eta``, a scalar or length r, as r positive multiplier weights."""
    eta = np.asarray(eta, dtype=float)
    if eta.ndim == 0:
        eta = np.full(r, float(eta))
    if eta.shape != (r,):
        raise ValueError(f"eta must be scalar or length {r}")
    if np.any(eta <= 0.0):
        raise ValueError("eta entries must be positive")
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


@dataclass
class AssumptionCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class AssumptionReport:
    mode: str
    checks: list[AssumptionCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def as_dict(self):
        return {
            "mode": self.mode,
            "all_passed": self.all_passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


class _Model:
    """Precomputed structure shared by every step of one run.

    Methods take one member's state, x (N, n), or a batch stacked on a
    leading axis, x (M, N, n), with ``mode`` an int or one per member.
    ``eta`` is a scalar or one weight per inequality multiplier.
    """

    def __init__(self, problem: Problem, network: Network, eta):
        if network.n_nodes != problem.n_agents:
            raise ValueError(
                f"network has {network.n_nodes} nodes but problem has "
                f"{problem.n_agents} agents"
            )
        self.problem = problem
        self.kernel = problem.kernel
        self.N = problem.n_agents
        self.n = problem.n
        self.c = network.coupling
        # stacked over modes, so that one index picks a mode or one per member
        self.L = network.laplacians
        self.R = network.receive
        self.r = problem.r
        self.s = problem.s
        self.eta = _eta_vector(eta, self.r)
        self.eta_list = self.eta.tolist()

    def where(self, mode):
        """Label of ``mode`` in failure messages."""
        return f"mode {mode}"

    def drift(self, x, theta, lam, nu, mode):
        """Drift blocks (dx, dtheta, dlam, dnu); only the coupling Laplacian
        depends on the mode."""
        Lx = self.L[mode] @ x
        if x.ndim == 2:
            lams = lam.tolist()
            grad_terms, gvals, hvals = self.kernel(x.tolist(), lams, nu.tolist())
            # float by float, in the order of the array expression below:
            # IEEE + * / give the same bits as the numpy ufuncs, without
            # their overhead on a few values
            try:
                dlam = np.array([v / (1.0 + e * v) * g
                                 for v, e, g in zip(lams, self.eta_list, gvals)], dtype=float)
            except ZeroDivisionError:  # a multiplier at -1/eta: numpy gives inf or nan
                dlam = lam / (1.0 + self.eta * lam) * np.array(gvals, dtype=float)
        else:  # the compiled kernel is scalar: one call per member
            grad_terms, gvals, hvals = zip(*map(self.kernel, x.tolist(), lam.tolist(),
                                                nu.tolist()))
            dlam = lam / (1.0 + self.eta * lam) * np.array(gvals, dtype=float)
        dx = -self.c * Lx - theta - np.array(grad_terms)
        dtheta = self.c * Lx
        return dx, dtheta, dlam, np.array(hvals, dtype=float)

    def failure(self, what, detail, t, h, mode, members, row):
        """IntegrationError "<what> at t=<t + h> (<mode>): <detail>"; in a
        batch, for member ``members[row]``, named and carried with the start
        of its substep."""
        if row is None:
            return IntegrationError(f"{what} at t={t + h:.6g} ({self.where(mode)}): {detail}")
        t, h, mode = (_row(v, row) for v in (t, h, mode))
        member = row if members is None else int(members[row])
        err = IntegrationError(f"{what} at t={t + h:.6g} "
                               f"({self.where(int(mode))}, member {member}): {detail}")
        err.start, err.member = float(t), member
        return err

    def domain_failure(self, x, lam, nu, t, mode, members, exc):
        """IntegrationError naming the first expression that left its domain
        at the agent points of ``x`` (in a batch, of the first member whose
        kernel raises), found by evaluating the expressions one at a time in
        the kernel's order (cold path, after the kernel raised ``exc``)."""
        row = None
        if x.ndim == 3:
            for row, args in enumerate(zip(x.tolist(), lam.tolist(), nu.tolist())):
                try:
                    self.kernel(*args)
                except DomainError as err:
                    exc = err
                    break
        detail = domain_error_detail(self.problem, (x if row is None else x[row]).tolist(), exc)
        return self.failure("expression left its domain", detail, t, 0.0, mode, members, row)

    def noise_term(self, x, mode, W):
        """c * M_mode(x) applied to the channel increments W (N x N, one per
        member of a batch), W[..., i, j] being the increment on the channel
        carrying j to i."""
        return _channel_noise(self.c, self.R[mode], x, W)

    def step(self, x, pair, lam, nu, t, h, mode, W, clamp_floor, members=None):
        """One Euler-Maruyama substep; returns new arrays and clamp count.

        In a batch, ``t``, ``h`` and ``mode`` are scalars or one per member,
        ``members`` names the rows in failure messages and the clamp count
        is per member.  The pair-sum update deliberately contains no noise
        term; see the module docstring.
        """
        theta = pair - x
        try:
            dx, dtheta, dlam, dnu = self.drift(x, theta, lam, nu, mode)
        except DomainError as exc:
            raise self.domain_failure(x, lam, nu, t, mode, members, exc) from exc
        noise = self.noise_term(x, mode, W)
        if isinstance(h, np.ndarray):  # one substep length per member
            hx, hv = h[:, None, None], h[:, None]
        else:
            hx = hv = h
        x_new = x + (hx * dx + noise)
        pair_new = pair + hx * (dx + dtheta)
        lam_new = lam + hv * dlam
        clamped = 0
        if lam_new.size and lam_new.min() < clamp_floor:
            crossed = (lam_new < clamp_floor) & (lam >= clamp_floor)
            clamped = np.count_nonzero(crossed, axis=-1)
            clamped = int(clamped) if x.ndim == 2 else clamped
            lam_new = np.where(crossed, clamp_floor, lam_new)
        nu_new = nu + hv * dnu
        new = (x_new, pair_new, lam_new, nu_new)
        if x.ndim == 2:
            # A nonfinite entry makes this float total nonfinite; the
            # per-array tests tell a finite state whose total overflows apart.
            ok = math.isfinite(sum(sum(a.ravel().tolist()) for a in new))
        else:
            ok = all(np.isfinite(a).all() for a in new)
        if not ok:
            finite = (np.isfinite(x_new).all(axis=(-2, -1))
                      & np.isfinite(pair_new).all(axis=(-2, -1))
                      & np.isfinite(lam_new).all(axis=-1)
                      & np.isfinite(nu_new).all(axis=-1))
            if not finite.all():
                raise self.failure(
                    "nonfinite state", "step size too large for this problem's stiffness",
                    t, h, mode, members, None if x.ndim == 2 else int(np.argmin(finite)))
        return x_new, pair_new, lam_new, nu_new, clamped


def _channel_noise(c, R, x, W):
    """c * sum_j R[..., i, j] W[..., i, j] (x_j - x_i) for each receiver i."""
    if x.ndim == 2:
        diffs = x[None, :, :] - x[:, None, :]
    else:
        diffs = x[:, None, :, :] - x[:, :, None, :]
    return c * np.einsum("...ij,...ijn->...in", R * W, diffs)


def _channel_increments(W, N: int) -> np.ndarray:
    """Channel increments W as (N, N), given as (N, N) or flat (N^2,)."""
    W = np.asarray(W, dtype=float)
    if W.shape == (N * N,):
        W = W.reshape(N, N)
    if W.shape != (N, N):
        raise ValueError(f"noise increment must have shape ({N},{N}) or ({N * N},)")
    return W


def drift(state: SystemState, mode: int, problem: Problem, network: Network, eta=1.0):
    """Drift blocks (dx, dtheta, dlam, dnu) of the switching dynamics."""
    return _Model(problem, network, eta).drift(state.x, state.theta, state.lam, state.nu, mode)


def diffusion_matrix(state: SystemState, mode: int, network: Network) -> np.ndarray:
    """Explicit (nN) x (N^2) diffusion matrix of the active mode.

    Block-diagonal over agents: block i has N columns, column j holding the
    channel coefficient times (x_j - x_i).  Column i*N + j matches the
    flattened channel increment W[i, j].
    """
    x = state.x
    N, n = x.shape
    R = network.receive[mode]
    M = np.zeros((n * N, N * N))
    for i in range(N):
        for j in range(N):
            if R[i, j] != 0.0:
                M[i * n : (i + 1) * n, i * N + j] = R[i, j] * (x[j] - x[i])
    return M


def apply_diffusion(state: SystemState, mode: int, network: Network, W) -> np.ndarray:
    """c * M(x) @ w for channel increments W given as (N, N) or flat (N^2,)."""
    W = _channel_increments(W, state.x.shape[0])
    return _channel_noise(network.coupling, network.receive[mode], state.x, W)


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
    W = _channel_increments(noise_increment, state.x.shape[0])
    *new, clamped = _Model(problem, network, cfg.eta).step(
        state.x, state.pair, state.lam, state.nu, state.t, h, mode, W, cfg.lambda_floor)
    return SystemState._from_pair(*new, state.t + h, state.clamp_count + clamped)


def check_assumptions(
    problem: Problem,
    network: Network,
    pi: StationaryDist | None = None,
    *,
    switching: bool | None = None,
) -> AssumptionReport:
    """Gate report for the convergence hypotheses.

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
        ratio = None if pi is None else pi.p_min / pi.p_max
    else:
        mode, gate, laplacians, ratio = "fixed", "", network.laplacians[:1], 1.0
    lam2 = lambda2(laplacians.sum(axis=0))
    checks = [AssumptionCheck("noise_bound", sig_max <= kappa + 1e-15,
                              f"max sigma {sig_max:.6g} vs kappa {kappa:.6g}")]
    if ratio is None:
        checks.append(AssumptionCheck(
            "coupling_bound_switching", c > 0.0,
            f"stationary distribution not supplied; only positivity of c={c:.6g} checked"))
    else:
        bound = math.inf if kappa == 0.0 else (2.0 / 3.0) * ratio / kappa**2
        note = f" (pi_min/pi_max={ratio:.6g})" if switching else ""
        checks.append(AssumptionCheck("coupling_bound" + gate, 0.0 < c < bound,
                                      f"c={c:.6g} must lie in (0, {bound:.6g}){note}"))
    root = math.sqrt(max(lam2, 0.0)) / 2.0
    name = "lambda2_bar" if switching else "lambda2"
    checks.append(AssumptionCheck("spectral_gate" + gate, kappa <= root,
                                  f"kappa={kappa:.6g} vs sqrt({name}={lam2:.6g})/2={root:.6g}"))
    checks.append(AssumptionCheck(
        "jointly_connected" if switching else "connected", lam2 > 1e-9 or N == 1,
        f"lambda2 of the {'summed Laplacian' if switching else 'fixed graph'} is {lam2:.6g}"))
    return AssumptionReport(mode=mode, checks=checks)


def build_equilibrium(
    problem: Problem, cert: KktCertificate, tol: float = 1e-6
) -> Equilibrium:
    """Stationary point from a certificate with residuals within ``tol``."""
    bad = {k: v for k, v in cert.residuals.items() if v > tol}
    if bad:
        raise ValueError(f"certificate residuals above {tol}: {bad}")
    x = np.tile(np.asarray(cert.x_star, dtype=float), (problem.n_agents, 1))
    # theta_i = -(grad f_i + sum lam_k grad g_k + sum nu_k grad h_k), agent i's terms
    grad_terms, _, _ = problem.kernel(x.tolist(), cert.lambda_star.tolist(),
                                      cert.nu_star.tolist())
    theta = -np.array(grad_terms, dtype=float)
    total = np.linalg.norm(theta.sum(axis=0))
    if total > 10.0 * max(tol, cert.residuals["stationarity"]) + 1e-12:
        raise ValueError(
            f"theta blocks do not balance: |sum theta| = {total:.3e}"
        )
    return Equilibrium(
        x=x, theta=theta,
        lam=cert.lambda_star.copy(), nu=cert.nu_star.copy(),
    )


def simulate(
    problem: Problem,
    network: Network,
    chain_path: SwitchPath | list | None,
    cfg: IntegratorConfig,
    init: SystemState,
    pi: StationaryDist | None = None,
) -> Trajectory | Ensemble:
    """Integrate the switching dynamics over cfg.horizon.

    Fixed topology when ``chain_path`` is None (mode 0 throughout).  Substep
    boundaries land exactly on the path's jump instants.  Gate failures and
    noncompliant initial conditions downgrade to warnings unless
    cfg.strict, in which case they raise.  A list of noise seeds in
    ``cfg.seed`` runs a batch, with a list of paths (see ``_integrate``).
    """
    model = _Model(problem, network, cfg.eta)
    report = check_assumptions(
        problem, network, pi, switching=chain_path is not None
    )
    return _integrate(model, chain_path, cfg, init, report)


def _row(v, row):
    """Entries ``row`` of a per-member array, or the shared scalar ``v``."""
    return v[row] if isinstance(v, np.ndarray) else v


def _earliest_failure(err, model, arrays, Z, rounds, clamp_floor, clamps):
    """The earliest failure of the step in which ``err`` arose: the other
    members take the rest of its ``rounds``, each failing one dropping out;
    the earliest substep start wins, the lowest member on a tie."""
    failures = [err]
    for t, h, mode, rows, draws, k_done in rounds:
        rows = np.arange(len(arrays[0])) if rows is None else rows
        keep = ~np.isin(rows, [f.member for f in failures])
        while keep.any():
            sel = (_row(v, keep) for v in (t, h, mode))
            try:
                _advance(model, arrays, rows[keep], *sel, Z[draws][keep], clamp_floor, clamps)
                break
            except IntegrationError as exc:
                failures.append(exc)
                keep &= rows != exc.member
        if k_done:
            break
    return min(failures, key=lambda f: (f.start, f.member))


def _advance(model, arrays, rows, t, h, mode, W, clamp_floor, clamps):
    """One substep of the members ``rows`` of a batch, written back into
    the state ``arrays`` (x, pair, lam, nu) and the clamp counts."""
    *new, clamped = model.step(*(a[rows] for a in arrays), t, h, mode, W, clamp_floor, rows)
    for a, b in zip(arrays, new):
        a[rows] = b
    clamps[rows] += clamped


def _integrate(
    model: _Model,
    chain_path: SwitchPath | list | None,
    cfg: IntegratorConfig,
    init: SystemState,
    report: AssumptionReport,
) -> Trajectory | Ensemble:
    """Euler-Maruyama core shared by every view of the dynamics.

    ``model`` supplies the drift and the channel noise, driven by one
    Gaussian increment per ordered channel; ``chain_path`` the mode schedule
    (mode 0 throughout when None).  A list of noise seeds in ``cfg.seed``
    runs a batch and returns an ``Ensemble``: member k draws from seed k,
    follows ``chain_path[k]`` (or the one path given) and starts from
    ``init`` (or its row k, given a leading member axis), bit for bit as
    if it ran alone.  A batch raises the error of its earliest failing
    substep, the lowest member on a tie.  Warnings point at the caller of
    the public entry point.
    """
    seeds = cfg.seed if isinstance(cfg.seed, (list, tuple)) else [cfg.seed]
    M = len(seeds)
    paths = chain_path if isinstance(chain_path, (list, tuple)) else [chain_path] * M
    if len(paths) != M:
        raise ValueError(f"{len(paths)} chain paths for {M} members")
    N, n = model.N, model.n
    shapes = ((N, n), (N, n), (model.r,), (model.s,))
    # a lone member runs without the member axis, at less overhead
    lead = (M,) if M > 1 else ()
    x, pair, lam, nu = (np.broadcast_to(a, (M, *shape)).reshape(lead + shape).copy()
                        for a, shape in zip((init.x, init.pair, init.lam, init.nu), shapes))

    warnings: list[str] = []
    if lam.size and lam.min() <= 0.0:
        warnings.append(
            f"initial multiplier min {lam.min():.6g} is not positive"
        )
    theta_sum = max(np.linalg.norm(th.sum(axis=0)) for th in (pair - x).reshape(M, N, n))
    if theta_sum > 1e-9:
        warnings.append(
            f"initial theta blocks sum to {theta_sum:.3e}, not zero; the "
            "convergence guarantees assume a zero sum"
        )
    for failed in report.failures():
        warnings.append(f"assumption {failed.name} failed: {failed.detail}")
    h = cfg.h
    n_steps = int(round(cfg.horizon / h))
    if abs(n_steps * h - cfg.horizon) > 1e-9 * max(1.0, cfg.horizon):
        warnings.append(
            f"horizon {cfg.horizon} is not a multiple of h={h}; "
            f"running {n_steps} steps to t={n_steps * h:.6g}"
        )
    if warnings and cfg.strict:
        raise IntegrationError("; ".join(warnings))
    for w in warnings:
        _warnings.warn(w, TrajectoryWarning, stacklevel=3)

    if any(p is not None and p.horizon < n_steps * h - 1e-12 for p in paths):
        raise ValueError("chain path horizon shorter than the integration")
    rngs = [np.random.default_rng(s) for s in seeds]
    clamp_floor = cfg.lambda_floor
    clamps = init.clamp_count if M == 1 else np.full(M, init.clamp_count, dtype=np.int64)
    everyone = None if M == 1 else np.arange(M)

    stride = cfg.output_stride
    n_samples = n_steps // stride + 1
    T = np.empty(n_samples)
    X, TH, LM, NU = (np.empty((n_samples, *a.shape)) for a in (x, x, lam, nu))

    def record(slot, t):
        T[slot] = t
        X[slot] = x
        TH[slot] = pair - x
        LM[slot] = lam
        NU[slot] = nu

    record(0, 0.0)
    for k0 in range(0, n_steps, CHUNK_STEPS):
        Z, rounds = chunk(paths, rngs, k0, min(k0 + CHUNK_STEPS, n_steps), h, N)
        for i, (t, h_sub, mode, rows, draws, k_done) in enumerate(rounds):
            try:
                if rows is None:
                    x, pair, lam, nu, clamped = model.step(
                        x, pair, lam, nu, t, h_sub, mode, Z[draws], clamp_floor, everyone
                    )
                    clamps += clamped
                else:
                    _advance(model, (x, pair, lam, nu), rows, t, h_sub, mode, Z[draws],
                             clamp_floor, clamps)
            except IntegrationError as err:
                if M == 1:
                    raise
                raise _earliest_failure(err, model, (x, pair, lam, nu), Z, rounds[i:],
                                        clamp_floor, clamps) from None
            if k_done and k_done % stride == 0:
                record(k_done // stride, k_done * h)

    final = [a.reshape(M, *shape) for a, shape in zip((x, pair, lam, nu), shapes)]
    recorded = [a.reshape(n_samples, M, *shape) for a, shape in zip((X, TH, LM, NU), shapes)]
    members = []
    for m in range(M):
        end = SystemState._from_pair(*(a[m].copy() for a in final), n_steps * h,
                                     int(_row(clamps, m)))
        # times, x, theta, lam, nu, clamp count, warnings, final state
        members.append(Trajectory(T, *(a[:, m] for a in recorded), end.clamp_count,
                                  warnings, end))
    if isinstance(cfg.seed, (list, tuple)):
        return Ensemble(members, warnings)
    return members[0]
