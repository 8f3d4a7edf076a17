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
from .graph import Network, lambda2, laplacian
from .problem import KktCertificate, Problem

__all__ = [
    "SystemState",
    "Equilibrium",
    "IntegratorConfig",
    "Trajectory",
    "IntegrationError",
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
    pass


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

    @property
    def x_hat(self) -> np.ndarray:
        return self.x.ravel()

    @property
    def theta_hat(self) -> np.ndarray:
        return self.theta.ravel()

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
    """Step size, horizon, multiplier parameters and seeding."""

    h: float = 1e-3
    horizon: float = 1.0
    eta: float | np.ndarray = 1.0
    lambda_floor: float = 1e-12
    seed: int = 0
    output_stride: int = 1
    strict: bool = False

    def __post_init__(self):
        if self.h <= 0.0:
            raise ValueError("step size must be positive")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if self.lambda_floor < 0.0:
            raise ValueError("lambda_floor must be nonnegative")
        if self.output_stride < 1:
            raise ValueError("output stride must be at least 1")

    def eta_vector(self, r: int) -> np.ndarray:
        eta = np.asarray(self.eta, dtype=float)
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
    """Precomputed structure shared by every step of one run."""

    def __init__(self, problem: Problem, network: Network, eta):
        if network.n_nodes != problem.n_agents:
            raise ValueError(
                f"network has {network.n_nodes} nodes but problem has "
                f"{problem.n_agents} agents"
            )
        self.problem = problem
        self.kernel = problem.kernel
        self.network = network
        self.N = problem.n_agents
        self.n = problem.n
        self.c = network.coupling
        self.L = [laplacian(g) for g in network.graphs]
        self.R = [network.receive_coeffs(m) for m in range(network.n_modes)]
        self.r = problem.r
        self.s = problem.s
        self.eta = np.asarray(eta, dtype=float).reshape(-1)
        if self.eta.shape != (self.r,):
            raise ValueError(f"eta must have length {self.r}")

    def drift(self, x, theta, lam, nu, mode, L_override=None):
        """Drift blocks (dx, dtheta, dlam, dnu) at one state.

        ``L_override`` substitutes the coupling Laplacian (used by the
        averaged system); everything else is mode independent.
        """
        L = self.L[mode] if L_override is None else L_override
        Lx = L @ x
        grad_terms, gvals, hvals = self.kernel(x.tolist(), lam.tolist(), nu.tolist())
        dx = -self.c * Lx - theta - np.array(grad_terms)
        dtheta = self.c * Lx
        dlam = lam / (1.0 + self.eta * lam) * np.array(gvals, dtype=float)
        dnu = np.array(hvals, dtype=float)
        return dx, dtheta, dlam, dnu

    def domain_failure(self, x, t, where, exc):
        """IntegrationError naming the first expression that left its domain
        at the agent points ``x``, found by re-walking the expression trees
        in the kernel's order (cold path, after the kernel raised ``exc``)."""
        p = self.problem
        labelled = [(i, "cost", a.f) for i, a in enumerate(p.agents)]
        labelled += [(i, f"inequality {j + 1}", e) for i, j, e in p.ineq_index()]
        labelled += [(i, f"equality {j + 1}", e) for i, j, e in p.eq_index()]
        rows = x.tolist()
        detail = str(exc)
        for i, label, e in labelled:
            try:
                e.value_and_grad(rows[i])
            except DomainError as err:
                detail = f"agent {i + 1} {label} {str(e)!r}: {err}"
                break
        return IntegrationError(f"expression left its domain at t={t:.6g} ({where}): {detail}")

    def noise_term(self, x, mode, W):
        """c * M_mode(x) applied to the channel increments W (N x N),
        W[i, j] being the increment on the channel carrying j to i."""
        diffs = x[None, :, :] - x[:, None, :]
        return self.c * np.einsum("ij,ijn->in", self.R[mode] * W, diffs)

    def step(self, x, pair, lam, nu, t, h, mode, W, clamp_floor):
        """One Euler-Maruyama substep; returns new arrays and clamp count.

        The pair-sum update deliberately contains no noise term; see the
        module docstring.
        """
        theta = pair - x
        try:
            dx, dtheta, dlam, dnu = self.drift(x, theta, lam, nu, mode)
        except DomainError as exc:
            raise self.domain_failure(x, t, f"mode {mode}", exc) from exc
        noise = self.noise_term(x, mode, W)
        x_new = x + (h * dx + noise)
        pair_new = pair + h * (dx + dtheta)
        lam_new = lam + h * dlam
        clamped = 0
        if lam_new.size:
            crossed = (lam_new < clamp_floor) & (lam >= clamp_floor)
            clamped = int(np.count_nonzero(crossed))
            if clamped:
                lam_new = np.where(crossed, clamp_floor, lam_new)
        nu_new = nu + h * dnu
        if not (
            np.isfinite(x_new).all()
            and np.isfinite(pair_new).all()
            and np.isfinite(lam_new).all()
            and np.isfinite(nu_new).all()
        ):
            raise IntegrationError(
                f"nonfinite state at t={t + h:.6g} (mode {mode}): "
                "step size too large for this problem's stiffness"
            )
        return x_new, pair_new, lam_new, nu_new, clamped


def drift(state: SystemState, mode: int, problem: Problem, network: Network, eta=1.0):
    """Drift blocks (dx, dtheta, dlam, dnu) of the switching dynamics."""
    cfg_eta = IntegratorConfig(horizon=1.0, eta=eta).eta_vector(problem.r)
    model = _Model(problem, network, cfg_eta)
    return model.drift(state.x, state.theta, state.lam, state.nu, mode)


def diffusion_matrix(state: SystemState, mode: int, network: Network) -> np.ndarray:
    """Explicit (nN) x (N^2) diffusion matrix of the active mode.

    Block-diagonal over agents: block i has N columns, column j holding the
    channel coefficient times (x_j - x_i).  Column i*N + j matches the
    flattened channel increment W[i, j].
    """
    x = state.x
    N, n = x.shape
    R = network.receive_coeffs(mode)
    M = np.zeros((n * N, N * N))
    for i in range(N):
        for j in range(N):
            if R[i, j] != 0.0:
                M[i * n : (i + 1) * n, i * N + j] = R[i, j] * (x[j] - x[i])
    return M


def apply_diffusion(state: SystemState, mode: int, network: Network, W) -> np.ndarray:
    """c * M(x) @ w for channel increments W given as (N, N) or flat (N^2,)."""
    W = np.asarray(W, dtype=float)
    N = state.x.shape[0]
    if W.shape == (N * N,):
        W = W.reshape(N, N)
    diffs = state.x[None, :, :] - state.x[:, None, :]
    R = network.receive_coeffs(mode)
    return network.coupling * np.einsum("ij,ijn->in", R * W, diffs)


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
    W = np.asarray(noise_increment, dtype=float)
    N = state.x.shape[0]
    if W.shape == (N * N,):
        W = W.reshape(N, N)
    if W.shape != (N, N):
        raise ValueError(f"noise increment must have shape ({N},{N}) or ({N * N},)")
    model = _Model(problem, network, cfg.eta_vector(problem.r))
    x, pair, lam, nu, clamped = model.step(
        state.x, state.pair, state.lam, state.nu, state.t, h, mode, W,
        cfg.lambda_floor,
    )
    out = SystemState._from_pair(x, pair, lam, nu, state.t + h,
                                 state.clamp_count + clamped)
    return out


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
    says so in the report.
    """
    if switching is None:
        switching = pi is not None
    checks = []
    kappa = network.kappa
    c = network.coupling
    N = network.n_nodes
    off = network.sigma[~np.eye(N, dtype=bool)]
    sig_max = float(off.max()) if off.size else 0.0
    checks.append(
        AssumptionCheck(
            "noise_bound",
            sig_max <= kappa + 1e-15,
            f"max sigma {sig_max:.6g} vs kappa {kappa:.6g}",
        )
    )
    if not switching:
        mode = "fixed"
        bound = math.inf if kappa == 0.0 else (2.0 / 3.0) / kappa**2
        checks.append(
            AssumptionCheck(
                "coupling_bound",
                0.0 < c < bound,
                f"c={c:.6g} must lie in (0, {bound:.6g})",
            )
        )
        lam2 = lambda2(laplacian(network.graphs[0]))
        checks.append(
            AssumptionCheck(
                "spectral_gate",
                kappa <= math.sqrt(max(lam2, 0.0)) / 2.0,
                f"kappa={kappa:.6g} vs sqrt(lambda2={lam2:.6g})/2="
                f"{math.sqrt(max(lam2, 0.0)) / 2.0:.6g}",
            )
        )
        checks.append(
            AssumptionCheck(
                "connected",
                lam2 > 1e-9 or N == 1,
                f"lambda2 of the fixed graph is {lam2:.6g}",
            )
        )
    else:
        mode = "switching"
        if pi is not None:
            ratio = pi.p_min / pi.p_max
            bound = math.inf if kappa == 0.0 else (2.0 / 3.0) * ratio / kappa**2
            checks.append(
                AssumptionCheck(
                    "coupling_bound_switching",
                    0.0 < c < bound,
                    f"c={c:.6g} must lie in (0, {bound:.6g}) "
                    f"(pi_min/pi_max={ratio:.6g})",
                )
            )
        else:
            checks.append(
                AssumptionCheck(
                    "coupling_bound_switching",
                    c > 0.0,
                    "stationary distribution not supplied; only positivity "
                    f"of c={c:.6g} checked",
                )
            )
        total = sum(laplacian(g) for g in network.graphs)
        lam2_bar = lambda2(total)
        checks.append(
            AssumptionCheck(
                "spectral_gate_switching",
                kappa <= math.sqrt(max(lam2_bar, 0.0)) / 2.0,
                f"kappa={kappa:.6g} vs sqrt(lambda2_bar={lam2_bar:.6g})/2="
                f"{math.sqrt(max(lam2_bar, 0.0)) / 2.0:.6g}",
            )
        )
        checks.append(
            AssumptionCheck(
                "jointly_connected",
                lam2_bar > 1e-9,
                f"lambda2 of the summed Laplacian is {lam2_bar:.6g}",
            )
        )
    return AssumptionReport(mode=mode, checks=checks)


def build_equilibrium(
    problem: Problem, cert: KktCertificate, tol: float = 1e-6
) -> Equilibrium:
    """Stationary point from a certificate with residuals within ``tol``."""
    bad = {k: v for k, v in cert.residuals.items() if v > tol}
    if bad:
        raise ValueError(f"certificate residuals above {tol}: {bad}")
    N = problem.n_agents
    n = problem.n
    x_star = np.asarray(cert.x_star, dtype=float)
    x = np.tile(x_star, (N, 1))
    theta = np.zeros((N, n))
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
    chain_path: SwitchPath | None,
    cfg: IntegratorConfig,
    init: SystemState,
    pi: StationaryDist | None = None,
) -> Trajectory:
    """Integrate the switching dynamics over cfg.horizon.

    Fixed topology when ``chain_path`` is None (mode 0 throughout).  Substep
    boundaries land exactly on the path's jump instants.  Gate failures and
    noncompliant initial conditions downgrade to warnings unless
    cfg.strict, in which case they raise.
    """
    model = _Model(problem, network, cfg.eta_vector(problem.r))
    warnings: list[str] = []

    if init.lam.size and init.lam.min() <= 0.0:
        warnings.append(
            f"initial multiplier min {init.lam.min():.6g} is not positive"
        )
    theta_sum = np.linalg.norm(init.theta.sum(axis=0))
    if theta_sum > 1e-9:
        warnings.append(
            f"initial theta blocks sum to {theta_sum:.3e}, not zero; the "
            "convergence guarantees assume a zero sum"
        )
    report = check_assumptions(
        problem, network, pi, switching=chain_path is not None
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
        _warnings.warn(w, RuntimeWarning, stacklevel=2)

    rng = np.random.default_rng(cfg.seed)
    N = model.N

    if chain_path is not None:
        jump_times = chain_path.times
        jump_modes = chain_path.modes
        if chain_path.horizon < n_steps * h - 1e-12:
            raise ValueError("chain path horizon shorter than the integration")
    else:
        jump_times = np.array([0.0])
        jump_modes = np.array([0])

    x = init.x.copy()
    pair = init.pair.copy()
    lam = init.lam.copy()
    nu = init.nu.copy()
    clamp_count = init.clamp_count

    n_samples = n_steps // cfg.output_stride + 1
    T = np.empty(n_samples)
    X = np.empty((n_samples, N, model.n))
    TH = np.empty((n_samples, N, model.n))
    LM = np.empty((n_samples, model.r))
    NU = np.empty((n_samples, model.s))

    def record(slot, t):
        T[slot] = t
        X[slot] = x
        TH[slot] = pair - x
        LM[slot] = lam
        NU[slot] = nu

    record(0, 0.0)
    slot = 1
    jp = 1  # first candidate jump strictly after current time
    n_jumps = len(jump_times)
    for k in range(n_steps):
        t_end = (k + 1) * h
        cur = k * h
        while True:
            while jp < n_jumps and jump_times[jp] <= cur + 1e-15:
                jp += 1
            if jp < n_jumps and jump_times[jp] < t_end - 1e-15:
                nxt = float(jump_times[jp])
            else:
                nxt = t_end
            mode = int(jump_modes[jp - 1])
            h_sub = nxt - cur
            W = rng.standard_normal((N, N)) * math.sqrt(h_sub)
            x, pair, lam, nu, clamped = model.step(
                x, pair, lam, nu, cur, h_sub, mode, W, cfg.lambda_floor
            )
            clamp_count += clamped
            cur = nxt
            if cur >= t_end - 1e-15:
                break
        if (k + 1) % cfg.output_stride == 0:
            record(slot, t_end)
            slot += 1

    final = SystemState._from_pair(
        x.copy(), pair.copy(), lam.copy(), nu.copy(), n_steps * h, clamp_count
    )
    return Trajectory(
        times=T[:slot], x=X[:slot], theta=TH[:slot], lam=LM[:slot], nu=NU[:slot],
        clamp_count=clamp_count, warnings=warnings, final_state=final,
    )
