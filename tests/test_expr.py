import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchopt.expr import (
    MAX_DEPTH,
    DomainError,
    ExprError,
    ExprSyntaxError,
    VariableRangeError,
    parse,
)

from conftest import deep_expression
from oracles import fd_gradient


def test_parse_quadratic_cost():
    e = parse("4*x1^2 + 2*x2", 2)
    assert e.value((1, 2)) == pytest.approx(8.0, abs=1e-12)


def test_parse_zero_function():
    e = parse("0", 3)
    for point in [(0, 0, 0), (1, -5, 2.5), (1e3, 2, 3)]:
        assert e.value(point) == 0.0


def test_parse_exponential_against_independent_exp():
    e = parse("exp(3*x1 + x2)", 2)
    assert e.value((1, 2)) == pytest.approx(math.exp(5.0), rel=1e-12)


def test_eval_quadratic_single_coordinate():
    e = parse("2*x2^2", 2)
    assert e.value((-3, 3)) == pytest.approx(18.0, abs=1e-12)


def test_eval_identity():
    assert parse("x1", 1).value((7,)) == 7.0


def test_eval_active_constraint_at_optimum():
    e = parse("(x1 - 2)^2 - x2 + 1", 2)
    assert e.value((1, 2)) == 0.0


def test_grad_quadratic():
    e = parse("4*x1^2 + 2*x2", 2)
    assert np.allclose(e.grad((1, 2)), (8.0, 2.0), atol=1e-12)


def test_grad_constant_is_zero():
    e = parse("3.5", 4)
    assert e.grad((1, 2, 3, 4)) == (0.0, 0.0, 0.0, 0.0)


def test_grad_exponential():
    e = parse("exp(3*x1 + x2)", 2)
    g = e.grad((1, 2))
    assert g[0] == pytest.approx(3.0 * math.exp(5.0), rel=1e-12)
    assert g[1] == pytest.approx(math.exp(5.0), rel=1e-12)


def test_value_and_grad_consistent():
    e = parse("x1*x2 + ln(x1 + 3)", 2)
    v, g = e.value_and_grad((1.0, 2.0))
    assert v == pytest.approx(2.0 + math.log(4.0), rel=1e-14)
    assert g[0] == pytest.approx(2.0 + 0.25, rel=1e-14)
    assert g[1] == pytest.approx(1.0, rel=1e-14)


# ---------------------------------------------------------------------------
# random expressions against finite differences
# ---------------------------------------------------------------------------


# coordinates at which values and derivatives reach 0, -0.0, the subnormal
# range, exp overflow and power overflow
SPECIAL_POINTS = (0.0, -0.0, 1e-300, 40.0, -40.0, 1e3, -1e3, 1e155, -1e155)


def random_expr_text(rng, n, depth=0):
    """Expression generator restricted to globally smooth constructs so the
    finite-difference oracle is valid everywhere: ln and division get
    strictly positive arguments by construction."""
    if depth >= 3 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return f"x{rng.integers(1, n + 1)}"
        return repr(round(float(rng.uniform(-3, 3)), 4))
    kind = rng.integers(0, 6)
    a = random_expr_text(rng, n, depth + 1)
    b = random_expr_text(rng, n, depth + 1)
    if kind == 0:
        return f"({a} + {b})"
    if kind == 1:
        return f"({a} - {b})"
    if kind == 2:
        return f"({a})*({b})"
    if kind == 3:
        return f"({a})/(1 + ({b})^2)"
    if kind == 4:
        return f"({a})^{rng.integers(1, 4)}"
    return f"exp(0.3*({a}))" if rng.random() < 0.5 else f"ln(0.5 + ({a})^2)"


def test_gradient_matches_finite_differences_1000_cases():
    rng = np.random.default_rng(12345)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(1, 4))
        text = random_expr_text(rng, n)
        e = parse(text, n)
        x = rng.uniform(-1.0, 1.0, n)
        try:
            v, g = e.value_and_grad(x)
        except DomainError:
            continue
        if not np.all(np.isfinite(g)) or np.max(np.abs(g)) > 1e3:
            continue
        fd = fd_gradient(lambda y: e.value(y), x, step=1e-6)
        for ad_k, fd_k in zip(g, fd):
            assert abs(ad_k - fd_k) <= max(1e-8, 1e-6 * abs(ad_k)), (
                f"{text} at {x}: ad={ad_k} fd={fd_k}"
            )
        checked += 1


def test_gradient_linearity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = 2
        t1 = random_expr_text(rng, n)
        t2 = random_expr_text(rng, n)
        a = round(float(rng.uniform(-2, 2)), 3)
        b = round(float(rng.uniform(-2, 2)), 3)
        combo = parse(f"{a!r}*({t1}) + {b!r}*({t2})", n)
        e1, e2 = parse(t1, n), parse(t2, n)
        x = rng.uniform(-1, 1, n)
        try:
            g = np.asarray(combo.grad(x))
            g1 = np.asarray(e1.grad(x))
            g2 = np.asarray(e2.grad(x))
        except DomainError:
            continue
        ref = a * g1 + b * g2
        scale = max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(g - ref)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# round trips, determinism, errors
# ---------------------------------------------------------------------------


def test_round_trip_reparse_structural_identity():
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        e = parse(random_expr_text(rng, n), n)
        assert parse(str(e), n) == e


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    e = parse(random_expr_text(rng, n), n)
    assert parse(str(e), n) == e


def test_evaluation_deterministic_bit_for_bit():
    e = parse("exp(0.1*x1) * (x2 - 0.3)^3 / (1 + x1^2)", 2)
    vals = {e.value((0.7312, -1.529)) for _ in range(50)}
    assert len(vals) == 1


def test_syntax_error_reports_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("4*x1 + @", 2)
    assert exc.value.position == 7


def test_unbalanced_parens_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("(x1 + 2", 2)


def test_variable_out_of_range():
    with pytest.raises(VariableRangeError):
        parse("x3 + 1", 2)


def test_unknown_identifier():
    with pytest.raises(ExprSyntaxError):
        parse("sin(x1)", 1)


@pytest.mark.parametrize("shape, value, refusal", [
    ("sum", 250.0, "expression nests 501 levels deep, past MAX_DEPTH=500 (at position 0)"),
    ("signs", -0.5, "expression nests 501 levels deep, past MAX_DEPTH=500 (at position 0)"),
    ("parentheses", 0.5,
     "groups nest 101 deep, past MAX_DEPTH=500 at 5 levels each (at position 100)"),
    ("calls", None,
     "groups nest 101 deep, past MAX_DEPTH=500 at 5 levels each (at position 400)"),
])
def test_expressions_nest_up_to_max_depth(shape, value, refusal):
    # at MAX_DEPTH levels an expression parses and evaluates; one step past,
    # parse refuses it by the limit's name instead of overflowing the stack
    assert MAX_DEPTH == 500
    e = parse(deep_expression(shape), 2)
    if value is not None:
        assert e.value((0.5, 0.0)) == value
    with pytest.raises(ExprSyntaxError) as exc:
        parse(deep_expression(shape, past=True), 2)
    assert str(exc.value) == refusal


def test_exponent_must_be_literal():
    with pytest.raises(ExprSyntaxError):
        parse("x1^x2", 2)


def test_ln_domain_error():
    e = parse("ln(x1)", 1)
    with pytest.raises(DomainError):
        e.value((-1.0,))
    with pytest.raises(DomainError):
        e.value((0.0,))


def test_division_by_zero_reported():
    e = parse("x1 / x2", 2)
    with pytest.raises(DomainError):
        e.value((1.0, 0.0))


def test_fractional_power_of_negative_base():
    e = parse("x1^0.5", 1)
    with pytest.raises(DomainError):
        e.value((-2.0,))
    assert e.value((4.0,)) == 2.0


def test_signed_exponent():
    e = parse("x1^-2", 1)
    assert e.value((2.0,)) == 0.25
    assert parse(str(e), 1) == e


# ---------------------------------------------------------------------------
# any text of the grammar, evaluated anywhere: only the layer's own errors
# ---------------------------------------------------------------------------

# decimals and scientific literals from 1e-400 (underflows to 0) to 1e999
# (overflows), so literals the parser must refuse are drawn too
LITERALS = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "0.5", "2.5", ".25", "10"]),
    st.builds(lambda m, k: f"{m}e{k}", st.sampled_from(["1", "2.5", "9.99"]),
              st.integers(min_value=-400, max_value=999)),
)
EXPONENTS = st.builds(lambda sign, lit: sign + lit, st.sampled_from(["", "-", "+"]),
                      st.one_of(st.sampled_from(["2", "3", "0.5", "1.5", "0", "1"]), LITERALS))


def _compose(children):
    return st.one_of(
        st.builds(lambda a, op, b: f"({a} {op} {b})", children,
                  st.sampled_from("+-*/"), children),
        st.builds(lambda a, k: f"({a})^{k}", children, EXPONENTS),
        st.builds(lambda f, a: f"{f}({a})", st.sampled_from(["exp", "ln"]), children),
        children.map(lambda a: f"-{a}"),
    )


EXPR_TEXTS = st.recursive(
    st.one_of(LITERALS, st.integers(min_value=1, max_value=4).map(lambda k: f"x{k}")),
    _compose, max_leaves=8,
)
POINTS = SPECIAL_POINTS + (1e200, -1e200, 0.5, -2.0)


@given(text=EXPR_TEXTS, n=st.integers(min_value=1, max_value=3), data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_expression_layer_raises_only_its_own_errors(text, n, data):
    try:
        e = parse(text, n)
    except (ExprSyntaxError, VariableRangeError):
        return
    assert parse(str(e), n) == e
    point = data.draw(st.lists(st.sampled_from(POINTS), min_size=n, max_size=n))
    try:
        v = e.value(point)
    except DomainError:
        pass
    else:
        assert type(v) is float
    try:
        v, g = e.value_and_grad(point)
    except DomainError:
        return
    assert type(v) is float and len(g) == n and all(type(d) is float for d in g)


def test_parse_refuses_a_dimension_below_one():
    with pytest.raises(ExprError, match="^dimension must be positive, got 0$"):
        parse("1", 0)


def test_equal_expressions_hash_equal():
    # spacing is not part of an expression: equal trees, one set entry
    a, b = parse("x1 + 1", 1), parse("x1+1", 1)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
