"""Multi-agent constrained problem assembly and KKT certification.

A problem is a collection of agents, each holding a private cost together
with optional inequality and equality constraints, all functions of the one
shared decision vector.  The operations here certify a candidate optimum:
active-set detection, constraint-qualification checks, least-squares
multiplier recovery and the residuals of the first-order optimality system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .expr import BatchEmitter, DomainError, Emitter, Expr, ExprError, _add, _mul, coerce

__all__ = [
    "AgentSpec",
    "Problem",
    "KktCertificate",
    "total_cost",
    "check_slater",
    "check_licq",
    "derive_multipliers",
    "certify",
    "convexity_lint",
]

# a constraint value or multiplier within this of zero is taken as zero
TOL_ACTIVE = 1e-8
# rank cutoff is this factor times the largest singular value
RANK_FACTOR = 1e-10
SLATER_TOL = 1e-6  # check_slater's margin of strict feasibility
# convexity_lint: sample points, directions per point, and the most negative
# second difference of a cost or inequality still taken as convex
LINT_POINTS, LINT_DIRECTIONS, CURVATURE_TOL = 20, 5, -1e-6


@dataclass(frozen=True)
class AgentSpec:
    """One agent's private cost and constraints."""

    f: Expr
    g: tuple[Expr, ...] = ()
    h: tuple[Expr, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "g", tuple(self.g))
        object.__setattr__(self, "h", tuple(self.h))


@dataclass(frozen=True, eq=False)
class Problem:
    """N agents over a shared decision vector of dimension n.  It equals and
    hashes as itself alone, as a ``Network`` does."""

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
                        f"agent {idx + 1}: expression dimension {e.n} != problem n={self.n}"
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
    def batch_kernel(self):
        """``emit_kernel`` compiled over M members on numpy columns:
        ``batch_kernel(x, lam, nu) -> (grad_terms, gvals, hvals)`` on (M, N,
        n), (M, r) and (M, s) arrays, each within a few ulp of the lowering
        on floats.  A domain test that any member fails raises a DomainError
        naming no member; ``_Model.step`` then reruns the round member by member.
        Compiled on first use.
        """
        N, n, r, s = self.n_agents, self.n, self.r, self.s
        em = BatchEmitter()  # one column per agent coordinate and per multiplier
        em.line("x, lam, nu, M = x.reshape(len(x), -1).T, lam.T, nu.T, len(x)")
        grads, gvals, hvals = emit_kernel(self, em)
        # a column may be a float, broadcast over M as it is written
        em.line(f"G, gv, hv = empty(({N}, {n}, M)), empty(({r}, M)), empty(({s}, M))")
        for i, g in enumerate(grads):
            for j, d in enumerate(g):
                em.line(f"G[{i}, {j}] = {d}")
        for out, values in (("gv", gvals), ("hv", hvals)):
            for k, v in enumerate(values):
                em.line(f"{out}[{k}] = {v}")
        kernel = em.compile("batch_kernel", "x, lam, nu", "G.transpose(2, 0, 1), gv.T, hv.T")
        return np.errstate(all="ignore")(kernel)

    @cached_property
    def cost(self):
        """The agents' costs fused into one compiled function
        ``cost(x1, ..., xn) -> float`` of the n coordinates: each cost's
        value pass, as its ``Expr.value`` runs it, in agent order, added left
        to right from 0.0 (as ``sum`` adds floats before Python 3.12).  So
        the bits match the agents' ``Expr.value`` summed that way, and a
        point outside a domain raises the DomainError of the first agent
        whose ``Expr.value`` would.  Compiled on first use."""
        em = Emitter()
        xs = [f"x{k}" for k in range(self.n)]
        values = [a.f.emit(em, xs, grad=False)[0] for a in self.agents]
        return em.compile("cost", ", ".join(xs), em.left_sum(values))

    def __getstate__(self):
        # the compiled functions derive from the fields: pickle the fields alone
        return {"n": self.n, "agents": self.agents}


def emit_kernel(problem: Problem, em: Emitter):
    """Write all costs and constraints fused into ``em``: the agent points
    bound from the flat, agent-major local ``x``, the multipliers from
    ``lam`` and ``nu``.  Returns the code of grad_terms (per agent, grad f_i
    plus lam_k grad g_k over its inequalities, then nu_k grad h_k over its
    equalities, in stacked order), gvals and hvals; on floats, bit for bit
    each expression's own ``value_and_grad``, the same lowering.  The sums
    ``acc + lam_k * d`` follow ``expr``'s rule table: an entry zero by
    construction adds no code, and a grad_terms entry that stays so is
    ``ZERO``, written ``0.0``.  Against the plain sums, only two edge
    classes differ: a zero entry has the sign of its own arithmetic (``+0.0``
    for a structural zero), and one that was ``nan`` only because an
    infinite or ``nan`` factor met a structural zero is exact."""
    def unpack(names):
        return "".join(f"{name}, " for name in names)

    N, n, r, s = problem.n_agents, problem.n, problem.r, problem.s
    xs = [[f"x{i}_{j}" for j in range(n)] for i in range(N)]
    em.line(f"{unpack(v for row in xs for v in row)}= x")
    if r:
        em.line(f"{unpack(f'lam{k}' for k in range(r))}= lam")
    if s:
        em.line(f"{unpack(f'nu{k}' for k in range(s))}= nu")
    grads = [list(a.f.emit(em, xs[i])[1]) for i, a in enumerate(problem.agents)]

    def accumulate(index, mult):
        values = []
        for k, (i, _, e) in enumerate(index):
            v, g = e.emit(em, xs[i])
            values.append(v)
            grads[i] = [em.local(_add(acc, _mul(f"{mult}{k}", d)))
                        for acc, d in zip(grads[i], g)]
        return values

    return grads, accumulate(problem.ineq_index(), "lam"), accumulate(problem.eq_index(), "nu")


@dataclass
class KktCertificate:
    """First-order optimality evidence at a candidate point.

    ``lambda_star`` keeps whatever the least-squares solve produced; a
    negative entry beyond tolerance is flagged in ``warnings`` rather than
    clipped, since it is evidence the candidate is not optimal.
    ``gradients`` holds each expression's gradient at ``x_star``, stacked as
    the costs, the inequalities, then the equalities; ``as_dict`` omits it.
    """

    x_star: np.ndarray
    lambda_star: np.ndarray
    nu_star: np.ndarray
    active_sets: list[list[int]]
    residuals: dict[str, float]
    gradients: np.ndarray
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
    """Sum of the agents' costs at ``x`` (``Problem.cost``)."""
    return problem.cost(*coerce(x, problem.n))


def check_slater(problem: Problem, x_probe) -> bool:
    """Strict feasibility probe: every inequality strictly inside by
    ``SLATER_TOL`` and every equality within it.  Domain errors count as
    infeasible."""
    try:
        for a in problem.agents:
            for e in a.g:
                if e.value(x_probe) >= -SLATER_TOL:
                    return False
            for e in a.h:
                if abs(e.value(x_probe)) > SLATER_TOL:
                    return False
    except ExprError:
        return False
    return True


def _expressions(problem: Problem):
    """Every expression in kernel order, as lists of (agent, name, Expr) for
    the costs, the inequalities in ``ineq_index`` order and the equalities
    in ``eq_index`` order; the name counts agents and constraints from 1:
    "agent 1 cost '<expr>'", "agent 2 equality 1 '<expr>'"."""
    def named(i, label, e):
        return i, f"agent {i + 1} {label} {str(e)!r}", e

    return ([named(i, "cost", a.f) for i, a in enumerate(problem.agents)],
            [named(i, f"inequality {j + 1}", e) for i, j, e in problem.ineq_index()],
            [named(i, f"equality {j + 1}", e) for i, j, e in problem.eq_index()])


def _evaluate(problem: Problem, rows):
    """The certification pass: each expression's ``value_and_grad`` once, at
    the agent points ``rows``, in kernel order.  Returns lists of (value,
    grad), grouped as ``_expressions``.  An expression outside its domain
    raises a DomainError that names it: "agent 1 cost '<expr>': <error>"."""
    def evaluate(i, name, e):
        try:
            return e.value_and_grad(rows[i])
        except DomainError as err:
            raise DomainError(f"{name}: {err}") from err

    return tuple([evaluate(*item) for item in group] for group in _expressions(problem))


def _rank(mat: np.ndarray) -> int:
    """Numerical rank: the singular values above ``RANK_FACTOR`` times the largest."""
    svals = np.linalg.svd(mat, compute_uv=False)
    cutoff = RANK_FACTOR * svals[0] if svals[0] > 0 else 0.0
    return int(np.sum(svals > cutoff))


class _Certification:
    """One ``_evaluate`` pass at the point ``x`` of every agent, and the
    stacked indices of the inequalities active there."""

    def __init__(self, problem: Problem, x):
        self.problem, self.x = problem, np.asarray(x, dtype=float)
        self.costs, self.ineqs, self.eqs = _evaluate(problem, [self.x] * problem.n_agents)
        self.active = [k for k, (v, _) in enumerate(self.ineqs) if abs(v) <= TOL_ACTIVE]

    def active_sets(self):
        ineq = self.problem.ineq_index()
        return [[ineq[k][1] for k in self.active if ineq[k][0] == i]
                for i in range(self.problem.n_agents)]

    def licq(self) -> bool:
        ineq, eq = self.problem.ineq_index(), self.problem.eq_index()
        for agent in range(self.problem.n_agents):
            rows = [grad for (i, _, _), (_, grad) in zip(eq, self.eqs) if i == agent]
            rows += [self.ineqs[k][1] for k in self.active if ineq[k][0] == agent]
            if rows and _rank(np.array(rows, dtype=float)) < len(rows):
                return False
        return True

    def certificate(self) -> KktCertificate:
        problem, active = self.problem, self.active
        gradients = np.array([grad for _, grad in self.costs + self.ineqs + self.eqs])
        grads = list(gradients[problem.n_agents:])
        grad_f_sum = np.zeros(problem.n)
        for grad in gradients[:problem.n_agents]:
            grad_f_sum += grad

        # columns of the stationarity system: active g gradients, then all h
        cols = [grads[k] for k in active] + grads[problem.r:]
        lam, nu, warnings = np.zeros(problem.r), np.zeros(problem.s), []
        if cols:
            A = np.column_stack(cols)
            rank = _rank(A)
            if rank < A.shape[1]:
                raise ValueError(
                    "LICQ violated: stationarity system is rank deficient "
                    f"(rank {rank} < {A.shape[1]} unknowns)"
                )
            sol, *_ = np.linalg.lstsq(A, -grad_f_sum, rcond=None)
            lam[active], nu[:] = sol[:len(active)], sol[len(active):]
            if lam.size and lam.min() < -TOL_ACTIVE:
                warnings.append(
                    f"negative inequality multiplier {lam.min():.6g}: "
                    "candidate fails dual feasibility"
                )

        # residuals of the optimality system with the derived multipliers
        stat = grad_f_sum.copy()
        for m, grad in zip([*lam, *nu], grads):
            stat += m * grad
        gvals = np.array([v for v, _ in self.ineqs], dtype=float)
        hvals = np.array([v for v, _ in self.eqs], dtype=float)
        residuals = {
            "stationarity": float(np.linalg.norm(stat)),
            "primal_ineq": float(np.max(np.maximum(gvals, 0.0), initial=0.0)),
            "primal_eq": float(np.max(np.abs(hvals), initial=0.0)),
            "complementarity": float(max([0.0] + [abs(m * v) for m, v in zip(lam, gvals)])),
        }
        return KktCertificate(self.x, lam, nu, self.active_sets(), residuals, gradients,
                              warnings)


def check_licq(problem: Problem, x) -> bool:
    """Full row rank of [equality grads; active inequality grads] per agent.

    The rank cutoff scales with the largest singular value so the decision is
    invariant under rescaling the constraints.
    """
    return _Certification(problem, x).licq()


def derive_multipliers(problem: Problem, x_star) -> KktCertificate:
    """Recover multipliers at ``x_star`` and report optimality residuals.

    Inactive inequality multipliers are pinned to zero, which makes the
    complementarity products exact by construction.  The active multipliers
    and all equality multipliers solve the stationarity system in least
    squares through an SVD, so near-degenerate active sets stay stable.
    """
    return _Certification(problem, x_star).certificate()


def certify(problem: Problem, x) -> KktCertificate | None:
    """``derive_multipliers`` at ``x`` where ``check_licq`` holds there, else
    None, from one evaluation of each expression."""
    at = _Certification(problem, x)
    return at.certificate() if at.licq() else None


def convexity_lint(problem: Problem, rng):
    """Sampled curvature check, advisory only.

    Second central differences of every cost and inequality constraint along
    random directions must not fall below ``CURVATURE_TOL``, and equality
    constraints must have (numerically) zero curvature.  Returns a list of
    human-readable violations, each led by the expression's name as
    certification gives it (``_expressions``); empty means nothing was
    caught.
    """
    costs, ineqs, eqs = _expressions(problem)
    checks = [(name, e, False) for _, name, e in costs + ineqs]
    checks += [(name, e, True) for _, name, e in eqs]
    out = []
    step = 1e-3
    for _ in range(LINT_POINTS):
        x0 = rng.normal(0.0, 1.0, problem.n)
        for _ in range(LINT_DIRECTIONS):
            d = rng.normal(0.0, 1.0, problem.n)
            d /= np.linalg.norm(d)
            for name, e, affine in checks:
                try:
                    c2 = (e.value(x0 + step * d) - 2.0 * e.value(x0)
                          + e.value(x0 - step * d)) / step**2
                except ExprError:
                    continue
                if affine and abs(c2) > 1e-4:
                    out.append(
                        f"{name}: curvature {c2:.3g} != 0, "
                        "equality constraint is not affine"
                    )
                elif not affine and c2 < CURVATURE_TOL:
                    out.append(
                        f"{name}: curvature {c2:.3g} < 0 "
                        f"near {np.round(x0, 3).tolist()}"
                    )
    return out
