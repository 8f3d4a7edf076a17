"""Multi-agent constrained problem assembly and KKT certification.

A problem is a collection of agents, each holding a private cost together
with optional inequality and equality constraints, all functions of the one
shared decision vector.  The operations here certify a candidate optimum:
active-set detection, constraint-qualification checks, least-squares
multiplier recovery and the residuals of the first-order optimality system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, wraps

import numpy as np

from .expr import DomainError, Emitter, Expr, ExprError

__all__ = [
    "AgentSpec",
    "Problem",
    "KktCertificate",
    "total_cost",
    "check_slater",
    "active_set",
    "check_licq",
    "derive_multipliers",
    "domain_error_detail",
    "convexity_lint",
]

DEFAULT_TOL_ACTIVE = 1e-8
# rank cutoff is this factor times the largest singular value
DEFAULT_RANK_FACTOR = 1e-10


@dataclass(frozen=True)
class AgentSpec:
    """One agent's private cost and constraints."""

    f: Expr
    g: tuple[Expr, ...] = ()
    h: tuple[Expr, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "g", tuple(self.g))
        object.__setattr__(self, "h", tuple(self.h))


@dataclass(frozen=True)
class Problem:
    """N agents over a shared decision vector of dimension n."""

    n: int
    agents: tuple[AgentSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        if self.n < 1:
            raise ValueError("decision dimension must be positive")
        if not self.agents:
            raise ValueError("a problem needs at least one agent")
        for idx, a in enumerate(self.agents):
            for e in (a.f, *a.g, *a.h):
                if e.n != self.n:
                    raise ValueError(
                        f"agent {idx}: expression dimension {e.n} != problem n={self.n}"
                    )

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def r(self) -> int:
        return sum(len(a.g) for a in self.agents)

    @property
    def s(self) -> int:
        return sum(len(a.h) for a in self.agents)

    def ineq_index(self):
        """Stacked inequality order: [(agent, local_j, Expr), ...]."""
        return [
            (i, j, e)
            for i, a in enumerate(self.agents)
            for j, e in enumerate(a.g)
        ]

    def eq_index(self):
        return [
            (i, j, e)
            for i, a in enumerate(self.agents)
            for j, e in enumerate(a.h)
        ]

    @cached_property
    def kernel(self):
        """All costs and constraints fused into one compiled function
        ``kernel(rows, lam, nu) -> (grad_terms, gvals, hvals)``.

        ``rows`` holds the N agent points (lists of n floats), ``lam`` and
        ``nu`` the stacked multipliers as floats.  ``grad_terms[i]`` is
        grad f_i, plus lam_k grad g_k over agent i's inequalities in
        ``ineq_index`` order, plus nu_k grad h_k over its equalities in
        ``eq_index`` order; ``gvals`` and ``hvals`` are the constraint values.
        The result is bit-identical to each expression's own
        ``value_and_grad``, which runs the same lowering, and a point outside
        an expression's domain raises the same DomainError.
        Compiled on first use and kept for the life of the problem.
        """
        return _compile_kernel(self)


def _compile_kernel(problem: Problem):
    def unpack(names):
        return "".join(f"{name}, " for name in names)

    em = Emitter()
    xs = [[f"x{i}_{j}" for j in range(problem.n)] for i in range(problem.n_agents)]
    em.line(f"{unpack(f'({unpack(row)})' for row in xs)}= rows")
    if problem.r:
        em.line(f"{unpack(f'lam{k}' for k in range(problem.r))}= lam")
    if problem.s:
        em.line(f"{unpack(f'nu{k}' for k in range(problem.s))}= nu")
    grads = [list(a.f.emit(em, xs[i])[1]) for i, a in enumerate(problem.agents)]

    def accumulate(index, mult):
        values = []
        for k, (i, _, e) in enumerate(index):
            v, g = e.emit(em, xs[i])
            values.append(v)
            grads[i] = [em.temp(f"{acc} + {mult}{k} * {d}") for acc, d in zip(grads[i], g)]
        return values

    gvals = accumulate(problem.ineq_index(), "lam")
    hvals = accumulate(problem.eq_index(), "nu")
    rows = ", ".join(f"[{', '.join(g)}]" for g in grads)
    return em.compile("kernel", "rows, lam, nu",
                      f"[{rows}], [{', '.join(gvals)}], [{', '.join(hvals)}]")


def domain_error_detail(problem: Problem, rows, exc: DomainError) -> str:
    """``exc``'s message led by the first expression, in kernel order (the
    costs, then the inequalities and the equalities in stacked order), that
    leaves its domain at the agent points ``rows``: "agent 1 cost '<expr>':
    <error>".  The bare message when every expression evaluates."""
    labelled = [(i, "cost", a.f) for i, a in enumerate(problem.agents)]
    labelled += [(i, f"inequality {j + 1}", e) for i, j, e in problem.ineq_index()]
    labelled += [(i, f"equality {j + 1}", e) for i, j, e in problem.eq_index()]
    for i, label, e in labelled:
        try:
            e.value_and_grad(rows[i])
        except DomainError as err:
            return f"agent {i + 1} {label} {str(e)!r}: {err}"
    return str(exc)


def _names_domain_errors(certify):
    """``certify(problem, x, ...)`` whose DomainError names the expression
    that left its domain at the point x (see ``domain_error_detail``)."""
    @wraps(certify)
    def wrapper(problem, x, *args, **kwargs):
        try:
            return certify(problem, x, *args, **kwargs)
        except DomainError as exc:
            rows = [x] * problem.n_agents
            raise DomainError(domain_error_detail(problem, rows, exc)) from exc
    return wrapper


@dataclass
class KktCertificate:
    """First-order optimality evidence at a candidate point.

    ``lambda_star`` keeps whatever the least-squares solve produced; a
    negative entry beyond tolerance is flagged in ``warnings`` rather than
    clipped, since it is evidence the candidate is not optimal.
    """

    x_star: np.ndarray
    lambda_star: np.ndarray
    nu_star: np.ndarray
    active_sets: list[list[int]]
    residuals: dict[str, float]
    warnings: list[str] = field(default_factory=list)

    def as_dict(self):
        return {
            "x_star": [float(v) for v in self.x_star],
            "lambda_star": [float(v) for v in self.lambda_star],
            "nu_star": [float(v) for v in self.nu_star],
            "active_sets": [list(map(int, js)) for js in self.active_sets],
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "warnings": list(self.warnings),
        }


def total_cost(problem: Problem, x) -> float:
    """Sum of the agents' costs at ``x``."""
    return float(sum(a.f.value(x) for a in problem.agents))


def check_slater(problem: Problem, x_probe, tol: float = 1e-6) -> bool:
    """Strict feasibility probe: every inequality strictly inside by ``tol``
    and every equality within ``tol``.  Domain errors count as infeasible."""
    try:
        for a in problem.agents:
            for e in a.g:
                if e.value(x_probe) >= -tol:
                    return False
            for e in a.h:
                if abs(e.value(x_probe)) > tol:
                    return False
    except ExprError:
        return False
    return True


def active_set(problem: Problem, x, tol_active: float = DEFAULT_TOL_ACTIVE):
    """Per-agent indices j with |g_ij(x)| <= tol_active."""
    return [
        [j for j, e in enumerate(a.g) if abs(e.value(x)) <= tol_active]
        for a in problem.agents
    ]


def _qualification_matrix(agent: AgentSpec, x, active):
    """Rows: equality gradients then active inequality gradients."""
    rows = [agent.h[j].grad(x) for j in range(len(agent.h))]
    rows += [agent.g[j].grad(x) for j in active]
    if not rows:
        return np.zeros((0, len(tuple(x))))
    return np.array(rows, dtype=float)


@_names_domain_errors
def check_licq(
    problem: Problem,
    x,
    tol_active: float = DEFAULT_TOL_ACTIVE,
    rank_factor: float = DEFAULT_RANK_FACTOR,
) -> bool:
    """Full row rank of [equality grads; active inequality grads] per agent.

    The rank cutoff scales with the largest singular value so the decision is
    invariant under rescaling the constraints.
    """
    actives = active_set(problem, x, tol_active)
    for agent, act in zip(problem.agents, actives):
        mat = _qualification_matrix(agent, x, act)
        if mat.shape[0] == 0:
            continue
        svals = np.linalg.svd(mat, compute_uv=False)
        cutoff = rank_factor * svals[0] if svals[0] > 0 else 0.0
        if int(np.sum(svals > cutoff)) < mat.shape[0]:
            return False
    return True


@_names_domain_errors
def derive_multipliers(
    problem: Problem, x_star, tol_active: float = DEFAULT_TOL_ACTIVE
) -> KktCertificate:
    """Recover multipliers at ``x_star`` and report optimality residuals.

    Inactive inequality multipliers are pinned to zero, which makes the
    complementarity products exact by construction.  The active multipliers
    and all equality multipliers solve the stationarity system in least
    squares through an SVD, so near-degenerate active sets stay stable.
    """
    x_star = np.asarray(x_star, dtype=float)
    actives = active_set(problem, x_star, tol_active)
    ineq = problem.ineq_index()
    g_grads = [np.asarray(e.grad(x_star)) for _, _, e in ineq]
    h_grads = [np.asarray(e.grad(x_star)) for _, _, e in problem.eq_index()]

    grad_f_sum = np.zeros(problem.n)
    for a in problem.agents:
        grad_f_sum += np.asarray(a.f.grad(x_star))

    # columns of the stationarity system: active g gradients, then all h
    active = [k for k, (i, j, _) in enumerate(ineq) if j in actives[i]]
    cols = [g_grads[k] for k in active] + h_grads

    lam = np.zeros(problem.r)
    nu = np.zeros(problem.s)
    warnings = []
    if cols:
        A = np.column_stack(cols)
        svals = np.linalg.svd(A, compute_uv=False)
        cutoff = DEFAULT_RANK_FACTOR * svals[0] if svals[0] > 0 else 0.0
        rank = int(np.sum(svals > cutoff))
        if rank < A.shape[1]:
            raise ValueError(
                "LICQ violated: stationarity system is rank deficient "
                f"(rank {rank} < {A.shape[1]} unknowns)"
            )
        sol, *_ = np.linalg.lstsq(A, -grad_f_sum, rcond=None)
        lam[active] = sol[:len(active)]
        nu[:] = sol[len(active):]
        if lam.size and lam.min() < -tol_active:
            warnings.append(
                f"negative inequality multiplier {lam.min():.6g}: "
                "candidate fails dual feasibility"
            )

    # residuals of the optimality system with the derived multipliers
    stat = grad_f_sum.copy()
    gvals = np.array([e.value(x_star) for _, _, e in ineq], dtype=float)
    comp = 0.0
    for k, grad in enumerate(g_grads):
        stat += lam[k] * grad
        comp = max(comp, abs(lam[k] * gvals[k]))
    hvals = np.array([e.value(x_star) for _, _, e in problem.eq_index()], dtype=float)
    for k, grad in enumerate(h_grads):
        stat += nu[k] * grad

    residuals = {
        "stationarity": float(np.linalg.norm(stat)),
        "primal_ineq": float(np.max(np.maximum(gvals, 0.0), initial=0.0)),
        "primal_eq": float(np.max(np.abs(hvals), initial=0.0)),
        "complementarity": float(comp),
    }
    return KktCertificate(
        x_star=x_star,
        lambda_star=lam,
        nu_star=nu,
        active_sets=actives,
        residuals=residuals,
        warnings=warnings,
    )


def convexity_lint(problem: Problem, rng, n_points: int = 20, n_dirs: int = 5,
                   scale: float = 1.0, tol: float = -1e-6):
    """Sampled curvature check, advisory only.

    Second central differences of every cost and inequality constraint along
    random directions must not be materially negative, and equality
    constraints must have (numerically) zero curvature.  Returns a list of
    human-readable violations; empty means nothing was caught.
    """
    out = []
    step = 1e-3
    for _ in range(n_points):
        x0 = rng.normal(0.0, scale, problem.n)
        for _ in range(n_dirs):
            d = rng.normal(0.0, 1.0, problem.n)
            d /= np.linalg.norm(d)
            for i, a in enumerate(problem.agents):
                checks = [("f", a.f, tol)] + [
                    (f"g[{j}]", e, tol) for j, e in enumerate(a.g)
                ]
                for name, e, lo in checks:
                    try:
                        c2 = (
                            e.value(x0 + step * d)
                            - 2.0 * e.value(x0)
                            + e.value(x0 - step * d)
                        ) / step**2
                    except ExprError:
                        continue
                    if c2 < lo:
                        out.append(
                            f"agent {i} {name}: curvature {c2:.3g} < 0 "
                            f"near {np.round(x0, 3).tolist()}"
                        )
                for j, e in enumerate(a.h):
                    try:
                        c2 = (
                            e.value(x0 + step * d)
                            - 2.0 * e.value(x0)
                            + e.value(x0 - step * d)
                        ) / step**2
                    except ExprError:
                        continue
                    if abs(c2) > 1e-4:
                        out.append(
                            f"agent {i} h[{j}]: curvature {c2:.3g} != 0, "
                            "equality constraint is not affine"
                        )
    return out
