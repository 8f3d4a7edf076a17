import math
import re
from collections import Counter

import numpy as np
import pytest

from switchopt.expr import DomainError, parse
from switchopt.problem import (
    AgentSpec,
    Problem,
    active_set,
    certify,
    check_licq,
    check_slater,
    convexity_lint,
    derive_multipliers,
    total_cost,
)

from conftest import X_STAR
from oracles import penalty_descent


def test_total_cost_at_reference_optimum(five_agent):
    assert total_cost(five_agent, (1.0, 2.0)) == pytest.approx(172.41, abs=0.01)


def test_total_cost_all_zero_costs():
    p = Problem(n=2, agents=tuple(AgentSpec(f=parse("0", 2)) for _ in range(4)))
    for x in [(0, 0), (3, -1), (1e2, 1e2)]:
        assert total_cost(p, x) == 0.0


def test_total_cost_at_origin(five_agent):
    # 0 + 0 + 0 + 0 + e^0
    assert total_cost(five_agent, (0.0, 0.0)) == pytest.approx(1.0, abs=1e-14)


def test_centralized_penalty_oracle_confirms_optimum(five_agent):
    x = penalty_descent(five_agent, np.array([0.5, 1.5]))
    assert np.linalg.norm(x - X_STAR) < 2e-2


def test_slater_probe_requires_equality(five_agent):
    # strict inequality holds at (1, 2.5) but the equality is off by 0.5
    assert not check_slater(five_agent, (1.0, 2.5))


def test_slater_probe_infeasible_inequality(five_agent):
    # on the equality line but outside the inequality region
    assert not check_slater(five_agent, (0.5, 1.0))


def test_slater_probe_feasible_point(five_agent):
    # x1=2, x2=4 lies on the line, g1 = -3 < 0, g2 = -4 < 0
    assert check_slater(five_agent, (2.0, 4.0))


def test_slater_vacuous_without_constraints():
    p = Problem(n=1, agents=(AgentSpec(f=parse("x1^2", 1)),))
    assert check_slater(p, (123.0,))


def test_active_set_at_optimum(five_agent):
    J = active_set(five_agent, X_STAR)
    assert J[0] == [0]
    assert J[1] == []
    assert J[2] == J[3] == J[4] == []


def test_active_set_interior_point(five_agent):
    J = active_set(five_agent, (2.0, 4.0))
    assert all(not j for j in J)


def test_active_set_boundary_squared_constraint():
    p = Problem(
        n=1,
        agents=(AgentSpec(f=parse("0", 1), g=(parse("x1^2", 1),)),),
    )
    assert active_set(p, (0.0,))[0] == [0]


def test_licq_at_optimum(five_agent):
    assert check_licq(five_agent, X_STAR)


def test_licq_duplicate_active_constraints_fails():
    p = Problem(
        n=2,
        agents=(
            AgentSpec(
                f=parse("x1^2 + x2^2", 2),
                g=(parse("x1 + x2", 2), parse("x1 + x2", 2)),
            ),
        ),
    )
    assert not check_licq(p, (0.5, -0.5))


def test_licq_vacuous_without_constraints():
    p = Problem(n=2, agents=(AgentSpec(f=parse("x1^2", 2)),))
    assert check_licq(p, (0.0, 0.0))


def test_derive_multipliers_against_independent_solve(five_agent):
    cert = derive_multipliers(five_agent, X_STAR)
    # stationarity couples the active inequality and the equality gradients:
    # grad_sum + lam * (-2, -1) + nu * (2, -1) = 0, solved independently
    e5 = math.exp(5.0)
    grad_sum = np.array([12.0 + 3.0 * e5, 12.0 + e5])
    A = np.array([[-2.0, 2.0], [-1.0, -1.0]])
    lam_nu = np.linalg.solve(A, -grad_sum)
    assert cert.lambda_star[0] == pytest.approx(lam_nu[0], rel=1e-12)
    assert cert.nu_star[0] == pytest.approx(lam_nu[1], rel=1e-12)
    # agreement with the displayed three-decimal values
    assert cert.lambda_star[0] == pytest.approx(194.516, abs=1e-3)
    assert cert.lambda_star[1] == 0.0
    assert cert.nu_star[0] == pytest.approx(-34.103, abs=1e-3)
    assert cert.residuals["stationarity"] <= 1e-9
    assert cert.residuals["primal_ineq"] <= 1e-12
    assert cert.residuals["primal_eq"] <= 1e-12
    assert cert.residuals["complementarity"] <= 1e-12
    assert not cert.warnings


def test_unconstrained_stationary_point():
    p = Problem(n=1, agents=(AgentSpec(f=parse("(x1 - 3)^2", 1)),))
    cert = derive_multipliers(p, (3.0,))
    assert cert.lambda_star.size == 0
    assert cert.nu_star.size == 0
    assert cert.residuals["stationarity"] <= 1e-12


def test_unconstrained_residual_is_gradient_norm():
    p = Problem(n=1, agents=(AgentSpec(f=parse("(x1 - 3)^2", 1)),))
    cert = derive_multipliers(p, (1.0,))
    assert cert.residuals["stationarity"] == pytest.approx(4.0, rel=1e-12)


def test_derive_multipliers_at_infeasible_point(five_agent):
    cert = derive_multipliers(five_agent, (0.0, 0.0))
    # h = 0 there but the first inequality is violated by 5
    assert cert.residuals["primal_eq"] == 0.0
    assert cert.residuals["primal_ineq"] == pytest.approx(5.0, abs=1e-12)


def test_complementarity_exact_by_construction(five_agent):
    cert = derive_multipliers(five_agent, X_STAR)
    pos = 0
    for i, a in enumerate(five_agent.agents):
        for j, e in enumerate(a.g):
            product = cert.lambda_star[pos] * e.value(X_STAR)
            if j not in cert.active_sets[i]:
                assert product == 0.0
            pos += 1


def test_certificate_residuals_reevaluate_identically(five_agent):
    cert = derive_multipliers(five_agent, X_STAR)
    # independent re-evaluation of the optimality system
    x = cert.x_star
    stat = np.zeros(2)
    for a in five_agent.agents:
        stat += np.asarray(a.f.grad(x))
    pos = 0
    comp = 0.0
    gmax = 0.0
    for a in five_agent.agents:
        for e in a.g:
            gv = e.value(x)
            stat += cert.lambda_star[pos] * np.asarray(e.grad(x))
            comp = max(comp, abs(cert.lambda_star[pos] * gv))
            gmax = max(gmax, max(gv, 0.0))
            pos += 1
    pos = 0
    hmax = 0.0
    for a in five_agent.agents:
        for e in a.h:
            stat += cert.nu_star[pos] * np.asarray(e.grad(x))
            hmax = max(hmax, abs(e.value(x)))
            pos += 1
    assert abs(np.linalg.norm(stat) - cert.residuals["stationarity"]) <= 1e-12
    assert abs(gmax - cert.residuals["primal_ineq"]) <= 1e-12
    assert abs(hmax - cert.residuals["primal_eq"]) <= 1e-12
    assert abs(comp - cert.residuals["complementarity"]) <= 1e-12


def test_agent_permutation_permutes_certificate_blocks(five_agent):
    perm = [4, 2, 0, 1, 3]
    permuted = Problem(n=2, agents=tuple(five_agent.agents[i] for i in perm))
    base = derive_multipliers(five_agent, X_STAR)
    moved = derive_multipliers(permuted, X_STAR)
    for key in base.residuals:
        assert abs(base.residuals[key] - moved.residuals[key]) <= 1e-12
    # agent 0's multipliers moved to position 2 in the permuted order
    assert moved.lambda_star[len(permuted.agents[0].g) + len(permuted.agents[1].g)] == pytest.approx(
        base.lambda_star[0], rel=1e-12
    )


def test_rank_deficient_multiplier_system_raises():
    p = Problem(
        n=2,
        agents=(
            AgentSpec(
                f=parse("x1^2 + x2^2", 2),
                g=(parse("x1 + x2", 2), parse("2*x1 + 2*x2", 2)),
            ),
        ),
    )
    with pytest.raises(ValueError, match="LICQ"):
        derive_multipliers(p, (0.5, -0.5))


def test_negative_multiplier_reported_not_clipped():
    # minimizing x^2 with the non-binding-side constraint x <= 1 active at 1
    # makes the candidate non-optimal: the derived multiplier is negative
    p = Problem(
        n=1,
        agents=(AgentSpec(f=parse("x1^2", 1), g=(parse("x1 - 1", 1),)),),
    )
    cert = derive_multipliers(p, (1.0,))
    assert cert.lambda_star[0] < 0
    assert cert.warnings


def test_convexity_lint_flags_concave_cost():
    p = Problem(n=1, agents=(AgentSpec(f=parse("-x1^2", 1)),))
    findings = convexity_lint(p, np.random.default_rng(3))
    assert findings


def test_convexity_lint_clean_on_reference_problem(five_agent):
    findings = convexity_lint(five_agent, np.random.default_rng(3))
    assert findings == []


@pytest.mark.parametrize("certify", [check_licq, derive_multipliers])
def test_certification_names_the_expression_that_leaves_its_domain(certify, five_agent):
    # agent 1's inequality overflows too, but its cost comes first in kernel order
    with pytest.raises(DomainError, match=re.escape(
            "agent 1 cost '4.0*x1^2.0 + 2.0*x2': power 1e+200^2.0 overflows")):
        certify(five_agent, (1e200, 1.0))


@pytest.mark.parametrize("certify", [check_licq, derive_multipliers])
@pytest.mark.parametrize("kind", ["inequality", "equality"])
def test_certification_names_a_constraint_by_kind_and_index(certify, kind):
    ln = parse("ln(x1)", 1)
    constraints = (parse("x1 - 1", 1), ln)
    second = AgentSpec(f=parse("x1", 1), **{"g" if kind == "inequality" else "h": constraints})
    p = Problem(n=1, agents=(AgentSpec(f=parse("x1^2", 1)), second))
    with pytest.raises(DomainError, match=re.escape(f"agent 2 {kind} 2 {str(ln)!r}: ")):
        certify(p, (-1.0,))


@pytest.mark.parametrize("view", [active_set, check_licq, derive_multipliers, certify])
def test_certification_evaluates_each_expression_once(view, five_agent, evaluations):
    view(five_agent, X_STAR)
    expected = Counter(("value_and_grad", id(e))
                       for a in five_agent.agents for e in (a.f, *a.g, *a.h))
    assert evaluations == expected


def test_certify_is_the_certificate_where_licq_holds_else_none(five_agent):
    cert = certify(five_agent, X_STAR)
    assert cert.as_dict() == derive_multipliers(five_agent, X_STAR).as_dict()
    p = Problem(n=2, agents=(AgentSpec(f=parse("x1^2 + x2^2", 2),
                                       g=(parse("x1 + x2", 2), parse("x1 + x2", 2))),))
    assert not check_licq(p, (0.5, -0.5))
    assert certify(p, (0.5, -0.5)) is None


@pytest.mark.parametrize("view", [active_set, check_licq, certify])
def test_certification_names_a_cost_that_leaves_its_domain(view):
    # no constraint needs agent 2's cost, but the one pass evaluates it too
    ln = parse("ln(x1)", 1)
    p = Problem(n=1, agents=(AgentSpec(f=parse("x1^2", 1), g=(parse("x1 + 1", 1),)),
                             AgentSpec(f=ln)))
    with pytest.raises(DomainError, match=re.escape(f"agent 2 cost {str(ln)!r}: ")):
        view(p, (-1.0,))
