"""The compiled expression evaluators against the tree-walk oracle of
``tests/oracles.py``: the fused problem kernel, and ``Expr.value``,
``Expr.grad`` and ``Expr.value_and_grad`` of each expression.

Equality is bitwise throughout (``float.hex`` and raw array bytes), so
``-0.0``, ``inf`` and ``nan`` results count, and domain errors must match in
type and message.
"""

import pickle

import numpy as np
import pytest

from switchopt import averaging, chain, cli, dynamics
from switchopt import expr as expr_mod
from switchopt import problem as problem_mod
from switchopt.expr import DomainError, parse
from switchopt.graph import laplacian
from switchopt.problem import AgentSpec, Problem
from switchopt.scenario import load_scenario

from conftest import SCENARIO_DIR
from oracles import tree_value, tree_value_and_grad
from test_expr import SPECIAL_POINTS, random_expr_text


def tree_kernel(problem, rows, lam, nu):
    """Reference of ``Problem.kernel``: every tree walked in drift order."""
    grads = [list(tree_value_and_grad(a.f, rows[i])[1]) for i, a in enumerate(problem.agents)]
    gvals = []
    for k, (i, _, e) in enumerate(problem.ineq_index()):
        v, g = tree_value_and_grad(e, rows[i])
        gvals.append(v)
        grads[i] = [acc + lam[k] * d for acc, d in zip(grads[i], g)]
    hvals = []
    for k, (i, _, e) in enumerate(problem.eq_index()):
        v, g = tree_value_and_grad(e, rows[i])
        hvals.append(v)
        grads[i] = [acc + nu[k] * d for acc, d in zip(grads[i], g)]
    return grads, gvals, hvals


def outcome(fn, *args):
    """Result with every float as its hex form, or the raised error."""
    try:
        grads, gvals, hvals = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return ([[float.hex(v) for v in row] for row in grads],
            [float.hex(v) for v in gvals], [float.hex(v) for v in hvals])


def hexed(v):
    """A float, or nested tuples of floats, with every float as its hex form
    (anything but a float fails)."""
    return float.hex(v) if isinstance(v, float) else tuple(hexed(u) for u in v)


# each Expr method with its tree-walk oracle
METHODS = {
    "value": (lambda e, x: e.value(x), tree_value),
    "grad": (lambda e, x: e.grad(x), lambda e, x: tree_value_and_grad(e, x)[1]),
    "value_and_grad": (lambda e, x: e.value_and_grad(x), tree_value_and_grad),
}


def method_outcome(fn, e, point):
    """``fn(e, point)`` in hex form, or the raised error."""
    try:
        return hexed(fn(e, point))
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def flat(v):
    """The strings of nested tuples and lists, in order."""
    return (v,) if isinstance(v, str) else tuple(u for w in v for u in flat(w))


def assert_methods_match_tree(e, point, seen):
    """Every Expr method equals the tree walk at ``point``; the hex forms
    of the floats they return go into ``seen``."""
    for name, (method, oracle) in METHODS.items():
        got = method_outcome(method, e, point)
        assert got == method_outcome(oracle, e, point), (name, str(e), point)
        if not isinstance(got[0], type):
            seen.update(flat(got))


def probe_problem(e):
    """Agent 1 sees the bare gradient of ``e``; agent 2 also uses ``e`` as an
    inequality and an equality, so its values and the fused sum show."""
    return Problem(n=e.n, agents=(AgentSpec(f=e), AgentSpec(f=e, g=(e,), h=(e,))))


def test_random_expressions_bit_equal_to_tree():
    rng = np.random.default_rng(2026)
    seen, seen_methods = set(), set()
    for _ in range(400):
        n = int(rng.integers(1, 4))
        p = probe_problem(parse(random_expr_text(rng, n), n))
        points = [rng.uniform(-1.0, 1.0, n).tolist(),
                  [float(v) for v in rng.choice(SPECIAL_POINTS, n)]]
        for point in points:
            rows = [point, point]
            lam, nu = [float(rng.uniform(0.1, 3.0))], [float(rng.normal())]
            got = outcome(p.kernel, rows, lam, nu)
            assert got == outcome(tree_kernel, p, rows, lam, nu), (str(p.agents[0].f), point)
            if isinstance(got[0], list):
                seen.update(flat(got))
            assert_methods_match_tree(p.agents[0].f, point, seen_methods)
    # the sweep reached the values a tolerance-free comparison is about
    assert {"inf", "-inf", "nan", "-0x0.0p+0"} <= seen
    assert {"inf", "-inf", "nan", "-0x0.0p+0"} <= seen_methods


@pytest.mark.parametrize("text, n, point", [
    ("ln(x1)", 1, (-1.0,)),
    ("ln(x1)", 1, (0.0,)),
    ("x1/x2", 2, (1.0, 0.0)),
    ("x1/x2", 2, (1.0, -0.0)),
    ("x1^0.5", 1, (-2.0,)),
    ("x1^0.5", 1, (0.0,)),
    ("x1^-1", 1, (0.0,)),
    ("(x1 - 1)^-2.5", 1, (0.5,)),
    ("2 + exp(x1)*ln(x2)", 2, (1.0, -3.0)),
    ("x1^2", 1, (1e200,)),
    ("(x1 - 1)^3", 1, (-1e200,)),
    ("x1^-1", 1, (1e-160,)),
])
def test_domain_errors_match_tree(text, n, point):
    p = probe_problem(parse(text, n))
    rows = [list(point)] * 2
    with pytest.raises(DomainError) as tree_exc:
        tree_kernel(p, rows, [1.0], [1.0])
    with pytest.raises(DomainError) as kernel_exc:
        p.kernel(rows, [1.0], [1.0])
    assert str(kernel_exc.value) == str(tree_exc.value)
    assert_methods_match_tree(p.agents[0].f, point, set())


def test_value_makes_no_derivative_check():
    # the value of x^0.5 exists at 0, its derivative does not
    e = parse("x1^0.5", 1)
    assert float.hex(e.value((0.0,))) == float.hex(tree_value(e, (0.0,))) == "0x0.0p+0"
    with pytest.raises(DomainError) as exc:
        e.value_and_grad((0.0,))
    assert str(exc.value) == "derivative of x^0.5 undefined at 0"
    assert method_outcome(METHODS["value_and_grad"][1], e, (0.0,)) == (
        DomainError, str(exc.value))


def test_each_expr_method_compiles_once(monkeypatch):
    compiles = []
    compile_fn = expr_mod.Emitter.compile

    def counting_compile(self, name, params, result):
        compiles.append(name)
        return compile_fn(self, name, params, result)

    monkeypatch.setattr(expr_mod.Emitter, "compile", counting_compile)
    e = parse("x1*exp(x2) - ln(1 + x1^2)", 2)
    for point in ([0.5, 1.0], [2.0, -1.0], (3, 4)):
        e.value(point), e.grad(point), e.value_and_grad(point)
    assert compiles == ["_value", "_value_and_grad"]


def test_evaluated_expr_pickles():
    e = parse("x1*exp(x2)", 2)
    e.value((1.0, 2.0)), e.value_and_grad((1.0, 2.0))
    twin = pickle.loads(pickle.dumps(e))
    assert twin == e and twin.value_and_grad((1.0, 2.0)) == e.value_and_grad((1.0, 2.0))


def test_exp_overflow_is_inf_in_both():
    p = probe_problem(parse("exp(x1) - x2", 2))
    rows = [[1000.0, 1.0]] * 2
    got = outcome(p.kernel, rows, [1.0], [0.0])
    assert got == outcome(tree_kernel, p, rows, [1.0], [0.0])
    assert got[1] == ["inf"] and got[0][0] == ["inf", "nan"]  # inf * 0.0 kept


@pytest.mark.parametrize("name", ["five_agent_fixed.json", "five_agent_switching.json"])
def test_bundled_problems_bit_equal_to_tree(name):
    p = load_scenario(SCENARIO_DIR / name).build_problem()
    exprs = [(i, a.f) for i, a in enumerate(p.agents)]
    exprs += [(i, e) for i, _, e in p.ineq_index() + p.eq_index()]
    rng = np.random.default_rng(5)
    for scale in (0.5, 3.0, 300.0):
        for _ in range(50):
            rows = rng.normal(0.0, scale, (p.n_agents, p.n)).tolist()
            lam = rng.uniform(0.0, 5.0, p.r).tolist()
            nu = rng.normal(0.0, 5.0, p.s).tolist()
            assert outcome(p.kernel, rows, lam, nu) == outcome(tree_kernel, p, rows, lam, nu)
            for i, e in exprs:
                assert_methods_match_tree(e, rows[i], set())


def tree_drift(model, x, theta, lam, nu, L):
    """The drift as it was computed before the kernel, one tree at a time."""
    Lx = L @ x
    grad_terms = np.zeros((model.N, model.n))
    for i, a in enumerate(model.problem.agents):
        grad_terms[i] = tree_value_and_grad(a.f, tuple(x[i]))[1]
    gvals = np.zeros(model.r)
    for k, (i, _, e) in enumerate(model.problem.ineq_index()):
        v, g = tree_value_and_grad(e, tuple(x[i]))
        gvals[k] = v
        grad_terms[i] += lam[k] * np.asarray(g)
    hvals = np.zeros(model.s)
    for k, (i, _, e) in enumerate(model.problem.eq_index()):
        v, g = tree_value_and_grad(e, tuple(x[i]))
        hvals[k] = v
        grad_terms[i] += nu[k] * np.asarray(g)
    dx = -model.c * Lx - theta - grad_terms
    dlam = lam / (1.0 + model.eta * lam) * gvals
    return dx, model.c * Lx, dlam, hvals


def test_model_drift_bit_equal_to_tree_walk(switching_scenario):
    p = switching_scenario.build_problem()
    net = switching_scenario.build_network()
    pi = chain.stationary(switching_scenario.build_generator())
    avg = averaging.average_laplacian(net, pi)
    model = dynamics._Model(p, net, np.array([1.0, 0.5]))
    avg_model = averaging._AveragedModel(p, avg, np.array([1.0, 0.5]))
    rng = np.random.default_rng(11)
    for trial in range(60):
        x = rng.normal(0.0, 2.0, (p.n_agents, p.n))
        theta = rng.normal(0.0, 2.0, (p.n_agents, p.n))
        lam = rng.uniform(0.01, 4.0, p.r)
        nu = rng.normal(0.0, 3.0, p.s)
        mode = trial % net.n_modes
        cases = [(model.drift(x, theta, lam, nu, mode), laplacian(net.graphs[mode])),
                 (avg_model.drift(x, theta, lam, nu, 0), avg.L_pi)]
        for got, L in cases:
            want = tree_drift(model, x, theta, lam, nu, L)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()


def test_kernel_cached_per_problem(five_agent):
    assert five_agent.kernel is five_agent.kernel
    twin = Problem(n=five_agent.n, agents=five_agent.agents)
    assert twin == five_agent and twin.kernel is not five_agent.kernel


def test_one_compile_per_compare_command(monkeypatch, switching_scenario_path, tmp_path):
    compiles, builds = [], []
    compile_kernel = problem_mod._compile_kernel
    model_init = dynamics._Model.__init__

    def counting_compile(p):
        compiles.append(p)
        return compile_kernel(p)

    def counting_init(self, *args, **kwargs):
        builds.append(self)
        model_init(self, *args, **kwargs)

    monkeypatch.setattr(problem_mod, "_compile_kernel", counting_compile)
    monkeypatch.setattr(dynamics._Model, "__init__", counting_init)
    rc = cli.main(["compare", str(switching_scenario_path), "--alpha", "0.5",
                   "--alpha", "0.1", "--ensemble", "3", "--horizon", "0.005",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    assert len(compiles) == 1
    assert len(builds) == 1 + 2  # one model per ensemble, each run as one batch
