"""The compiled expression evaluators against the tree-walk oracle of
``tests/oracles.py``: the fused problem kernel (``emit_kernel``) on floats
and on numpy columns, and ``Expr.value``, ``Expr.grad`` and
``Expr.value_and_grad`` of each expression.

Equality is bitwise throughout (``float.hex`` and raw array bytes), so
``-0.0``, ``inf`` and ``nan`` results count, and domain errors must match in
type and message; the numpy kernel's, which names no member, must occur
exactly where some member's scalar kernel raises.
"""

import dataclasses
import inspect
import math
import pickle

import numpy as np
import pytest

from switchopt import chain, cli, dynamics
from switchopt import expr as expr_mod
from switchopt import problem as problem_mod
from switchopt.dynamics import IntegratorConfig
from switchopt.expr import DomainError, ExprError, parse
from switchopt.graph import Network, laplacian
from switchopt.problem import AgentSpec, Problem
from switchopt.scenario import load_scenario

from conftest import SCENARIO_DIR, X_INIT, cubic_graph, drift_of_one, make_five_agent_problem
from oracles import tree_value, tree_value_and_grad
from test_expr import SPECIAL_POINTS, random_expr_text


def scalar_kernel(problem):
    """``kernel(rows, lam, nu) -> (grad_terms, gvals, hvals)``: the problem's
    ``emit_kernel`` compiled on floats, the lowering that the lone substep
    inlines, with the agent points ``rows`` flattened agent-major."""
    em = expr_mod.Emitter()
    grads, gvals, hvals = problem_mod.emit_kernel(problem, em)
    rows = ", ".join("[" + ", ".join(g) + "]" for g in grads)
    fn = em.compile("scalar_kernel", "x, lam, nu",
                    f"[{rows}], [{', '.join(gvals)}], [{', '.join(hvals)}]")
    return lambda rows, lam, nu: fn([v for row in rows for v in row], lam, nu)


def tree_kernel(problem, rows, lam, nu):
    """Reference of ``scalar_kernel``: every tree walked in drift order."""
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
        kernel = scalar_kernel(p)
        points = [rng.uniform(-1.0, 1.0, n).tolist(),
                  [float(v) for v in rng.choice(SPECIAL_POINTS, n)]]
        for point in points:
            rows = [point, point]
            lam, nu = [float(rng.uniform(0.1, 3.0))], [float(rng.normal())]
            got = outcome(kernel, rows, lam, nu)
            assert got == outcome(tree_kernel, p, rows, lam, nu), (str(p.agents[0].f), point)
            if isinstance(got[0], list):
                seen.update(flat(got))
            assert_methods_match_tree(p.agents[0].f, point, seen_methods)
    # the sweep reached the values a tolerance-free comparison is about
    assert {"inf", "-inf", "nan", "-0x0.0p+0"} <= seen
    assert {"inf", "-inf", "nan", "-0x0.0p+0"} <= seen_methods


DOMAIN_CASES = [
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
]


@pytest.mark.parametrize("text, n, point", DOMAIN_CASES)
def test_domain_errors_match_tree(text, n, point):
    p = probe_problem(parse(text, n))
    rows = [list(point)] * 2
    with pytest.raises(DomainError) as tree_exc:
        tree_kernel(p, rows, [1.0], [1.0])
    with pytest.raises(DomainError) as kernel_exc:
        scalar_kernel(p)(rows, [1.0], [1.0])
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
    got = outcome(scalar_kernel(p), rows, [1.0], [0.0])
    assert got == outcome(tree_kernel, p, rows, [1.0], [0.0])
    assert got[1] == ["inf"] and got[0][0] == ["inf", "nan"]  # inf * 0.0 kept


@pytest.mark.parametrize("name", ["five_agent_fixed.json", "five_agent_switching.json"])
def test_bundled_problems_bit_equal_to_tree(name):
    p = load_scenario(SCENARIO_DIR / name).build_problem()
    exprs = [(i, a.f) for i, a in enumerate(p.agents)]
    exprs += [(i, e) for i, _, e in p.ineq_index() + p.eq_index()]
    kernel = scalar_kernel(p)
    rng = np.random.default_rng(5)
    for scale in (0.5, 3.0, 300.0):
        for _ in range(50):
            rows = rng.normal(0.0, scale, (p.n_agents, p.n)).tolist()
            lam = rng.uniform(0.0, 5.0, p.r).tolist()
            nu = rng.normal(0.0, 5.0, p.s).tolist()
            assert outcome(kernel, rows, lam, nu) == outcome(tree_kernel, p, rows, lam, nu)
            for i, e in exprs:
                assert_methods_match_tree(e, rows[i], set())


def left_sum(terms):
    """The floats ``terms`` added left to right from 0.0 (from Python 3.12
    on, ``sum`` of floats compensates its rounding)."""
    total = 0.0
    for t in terms:
        total += t
    return total


def coupling(L, x):
    """L @ x with each entry summed over the senders j left to right from
    0.0, the order of both drift paths."""
    L, x = L.tolist(), x.tolist()
    return np.array([[left_sum(L[i][j] * x[j][k] for j in range(len(x)))
                      for k in range(len(x[0]))] for i in range(len(x))])


def tree_drift(model, x, theta, lam, nu, L):
    """The drift as it was computed before the kernel, one tree at a time,
    with the coupling summed in the drift's order."""
    Lx = coupling(L, x)
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
    L_pi, _ = net.average(pi)
    model = dynamics._Model(p, net, np.array([1.0, 0.5]), pi)
    rng = np.random.default_rng(11)
    for trial in range(60):
        x = rng.normal(0.0, 2.0, (p.n_agents, p.n))
        pair = rng.normal(0.0, 2.0, (p.n_agents, p.n))
        lam = rng.uniform(0.01, 4.0, p.r)
        nu = rng.normal(0.0, 3.0, p.s)
        mode = trial % net.n_modes
        for mode, L in ((mode, laplacian(net.graphs[mode])), (model.averaged, L_pi)):
            want = tree_drift(model, x, pair - x, lam, nu, L)
            # drift_of_one, and the flat-list call it makes, on float lists
            lone = model.drift(*(a.ravel().tolist() for a in (x, pair, lam, nu)), mode)
            for got in (drift_of_one(model, x, pair, lam, nu, mode),
                        [np.reshape(v, w.shape) for v, w in zip(lone, want)]):
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes()


def test_long_left_sum_compiles_and_adds_in_order():
    # 5000 terms: as one expression, CPython's compiler raises RecursionError
    rng = np.random.default_rng(8)
    values = (rng.normal(size=5000) * 10.0 ** rng.integers(-8, 9, 5000)).tolist()
    for terms in (values, values[:1], []):
        em = expr_mod.Emitter()
        total = em.left_sum([f"t[{k}]" for k in range(len(terms))])
        got = em.compile("long_sum", "t", total)(terms)
        assert float.hex(got) == float.hex(left_sum(terms))


def test_coupling_within_1e_12_of_blas():
    # three degree-3 Laplacians and their weighted average under a random
    # pi: the left-to-right sum and a BLAS matmul round differently there,
    # within 1e-12 relative (scale max(1, |v|)), on both drift paths
    rng = np.random.default_rng(21)
    for trial in range(30):
        N, n = 2 * int(rng.integers(2, 7)), int(rng.integers(1, 4))
        network = Network(graphs=tuple(cubic_graph(rng, N) for _ in range(3)), sigma=0.0,
                          coupling=1.0, kappa=0.0)
        problem = Problem(n=n, agents=(AgentSpec(f=parse("x1^2", n)),) * N)
        model = dynamics._Model(problem, network, 1.0, rng.dirichlet(np.ones(3)))
        none = np.zeros(0)
        for mode in range(4):
            x = rng.normal(0.0, 3.0, (N, n))
            want = model.L[mode] @ x
            lone = model.drift(x.ravel().tolist(), x.ravel().tolist(), [], [], mode)[1]
            batch = drift_of_one(model, x, x, none, none, mode)[1]
            for got in (np.reshape(lone, (N, n)), batch):
                assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_kernel_cached_per_problem(five_agent):
    assert five_agent.batch_kernel is five_agent.batch_kernel
    twin = Problem(n=five_agent.n, agents=five_agent.agents)
    assert (twin.n, twin.agents) == (five_agent.n, five_agent.agents)
    assert twin != five_agent and twin.batch_kernel is not five_agent.batch_kernel


def cost_sum(problem, x):
    """The agents' costs at ``x``, one ``Expr.value`` each, added as
    ``total_cost`` once added them: ``sum`` in agent order (left to right
    from 0.0 before Python 3.12)."""
    return left_sum(a.f.value(x) for a in problem.agents)


COST_PROBLEMS = {
    name: lambda name=name: load_scenario(SCENARIO_DIR / name).build_problem()
    for name in ("five_agent_fixed.json", "five_agent_switching.json")
}
COST_PROBLEMS["constant"] = lambda: Problem(n=2, agents=tuple(
    AgentSpec(f=parse(text, 2)) for text in ("3", "x1*x2 - 0.1", "3")))


@pytest.mark.parametrize("name", COST_PROBLEMS)
def test_total_cost_bit_equal_to_the_per_expression_sum(name):
    p = COST_PROBLEMS[name]()
    rng = np.random.default_rng(19)
    points = rng.normal(0.0, 1.0, (200, p.n)) * rng.choice([0.5, 3.0, 300.0], (200, 1))
    for x in [*points, *points.tolist()]:
        assert float.hex(problem_mod.total_cost(p, x)) == float.hex(cost_sum(p, x))


def test_total_cost_raises_the_first_failing_agent_s_domain_error():
    p = Problem(n=2, agents=tuple(
        AgentSpec(f=parse(text, 2)) for text in ("x1 + x2", "ln(x1)", "ln(x2)")))
    for x, failing in (((-1.0, -2.0), 1), ((1.0, -2.0), 2), ((0.0, 5.0), 1)):
        with pytest.raises(DomainError) as want:
            p.agents[failing].f.value(x)
        with pytest.raises(DomainError) as got:
            problem_mod.total_cost(p, x)
        assert str(got.value) == str(want.value)
    assert problem_mod.total_cost(p, (1.0, 1.0)) == 2.0


@pytest.mark.parametrize("x", [(1.0,), (1.0, 2.0, 3.0), ()], ids=["short", "long", "empty"])
def test_total_cost_of_a_point_of_the_wrong_dimension(five_agent, x):
    with pytest.raises(ExprError, match=f"expected a point of dimension 2, got {len(x)}"):
        problem_mod.total_cost(five_agent, x)


def test_compiled_problem_pickles(five_agent):
    fresh = pickle.dumps(Problem(n=five_agent.n, agents=five_agent.agents))
    batch = X_INIT[None], np.array([[0.5, 0.25]]), np.array([[-1.25]])
    five_agent.cost(0.5, 1.0), five_agent.batch_kernel(*batch)
    # the compiled functions derive from the fields: the fields alone pickle
    assert pickle.dumps(five_agent) == fresh
    twin = pickle.loads(fresh)
    assert (twin.n, twin.agents) == (five_agent.n, five_agent.agents)
    assert [a.tobytes() for a in twin.batch_kernel(*batch)] == [
        a.tobytes() for a in five_agent.batch_kernel(*batch)]
    for x in X_INIT:
        assert float.hex(problem_mod.total_cost(twin, x)) == float.hex(
            problem_mod.total_cost(five_agent, x))


def test_one_compile_per_compare_command(monkeypatch, switching_scenario_path, tmp_path):
    names, builds, runs = [], [], []
    compile_fn = expr_mod.Emitter.compile
    model_init = dynamics._Model.__init__
    integrate = dynamics._integrate

    def counting_emit(em, name, params, result):
        names.append(name)
        return compile_fn(em, name, params, result)

    def counting_init(self, *args, **kwargs):
        builds.append(self)
        model_init(self, *args, **kwargs)

    def counting_integrate(*args):
        runs.append(args)
        return integrate(*args)

    monkeypatch.setattr(expr_mod.Emitter, "compile", counting_emit)
    monkeypatch.setattr(dynamics._Model, "__init__", counting_init)
    monkeypatch.setattr(dynamics, "_integrate", counting_integrate)
    rc = cli.main(["compare", str(switching_scenario_path), "--alpha", "0.5",
                   "--alpha", "0.1", "--ensemble", "3", "--horizon", "0.005",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    # the lone substep alone: 9 members stay below BATCH_KERNEL_ROWS, so
    # every round steps member by member, and the numpy kernel is not compiled
    assert "batch_kernel" not in names
    assert [n for n in names if n.startswith("lone")] == ["lone_drift", "lone_update"]
    assert len(builds) == 1  # one model: every ensemble runs in one batch
    assert len(runs) == 1
    assert names.count("cost") == 1  # one fused total cost for every member


@pytest.fixture()
def sources(monkeypatch):
    """Every generated source compiled from here on, code cache hits
    included, as {source: function name}."""
    seen = {}
    code = expr_mod._code

    def spying(source, filename):
        seen[source] = filename.removeprefix("<switchopt ").removesuffix(">")
        return code(source, filename)

    monkeypatch.setattr(expr_mod, "_code", spying)
    return seen


@pytest.mark.parametrize("mode", ["fixed", "switching", "averaged"])
def test_one_lone_substep_compile_per_simulate_command(monkeypatch, mode, tmp_path, sources):
    # a simulate command runs one member on one model: its substep (the
    # functions lone_drift and lone_update) is generated once, for the run
    names, builds = [], []
    compile_fn = expr_mod.Emitter.compile
    model_init = dynamics._Model.__init__

    def counting_compile(em, name, params, result):
        names.append(name)
        return compile_fn(em, name, params, result)

    def counting_init(self, *args, **kwargs):
        builds.append(self)
        model_init(self, *args, **kwargs)

    monkeypatch.setattr(expr_mod.Emitter, "compile", counting_compile)
    monkeypatch.setattr(dynamics._Model, "__init__", counting_init)
    scenario = SCENARIO_DIR / f"five_agent_{'fixed' if mode == 'fixed' else 'switching'}.json"
    assert cli.main(["simulate", str(scenario), "--mode", mode, "--horizon", "0.3",
                     "--out-dir", str(tmp_path)]) == 0
    assert len(builds) == 1
    assert [n for n in names if n.startswith("lone")] == ["lone_drift", "lone_update"]
    assert "kernel" not in names
    # the lone substep pair, the total cost and the 8 expressions' own
    # value_and_grad, which certify the candidate: the equilibrium takes its
    # gradients from the certificate and compiles nothing
    assert len(sources) == 11 and "kernel" not in sources.values()
    assert sorted(set(sources.values())) == ["_value_and_grad", "cost", "lone_drift",
                                             "lone_update"]


def test_a_compare_command_compiles_four_sources(sources, tmp_path):
    # 80 members in one batch: rounds on numpy, and jump-split rounds below
    # BATCH_KERNEL_ROWS on the lone substep
    assert cli.main(["compare", str(SCENARIO_DIR / "five_agent_switching.json"),
                     "--ensemble", "20", "--horizon", "0.005", "--out-dir", str(tmp_path)]) == 0
    assert sorted(sources.values()) == ["batch_kernel", "cost", "lone_drift", "lone_update"]


def code_misses():
    """Generated sources compiled so far in this process."""
    return expr_mod._code.cache_info().misses


def compiled_functions(scenario):
    """Every generated function of a problem and model built afresh from
    ``scenario``: the numpy kernel, the total cost, the lone substep pair
    and agent 1's ``value_and_grad``."""
    problem = scenario.build_problem()
    model = dynamics._Model(problem, scenario.build_network(), scenario.build_config().eta)
    f = problem.agents[0].f
    f.value_and_grad(X_INIT[0])
    return [inspect.unwrap(problem.batch_kernel), problem.cost,
            *model.lone[:2], f._value_and_grad]


def test_a_rebuilt_problem_and_model_reuse_the_compiled_code(switching_scenario):
    first = compiled_functions(switching_scenario)
    misses = code_misses()
    second = compiled_functions(switching_scenario)
    assert code_misses() == misses
    for a, b in zip(first, second, strict=True):
        # one code object, run into separate globals
        assert a is not b and a.__code__ is b.__code__
        assert a.__globals__ is not b.__globals__


def test_a_repeated_simulate_command_compiles_nothing_and_writes_the_same_bytes(tmp_path):
    argv = ["simulate", str(SCENARIO_DIR / "five_agent_switching.json"), "--horizon", "0.3"]
    assert cli.main([*argv, "--out-dir", str(tmp_path / "a")]) == 0
    misses = code_misses()
    assert cli.main([*argv, "--out-dir", str(tmp_path / "b")]) == 0
    assert code_misses() == misses
    names = sorted(path.name for path in (tmp_path / "a").iterdir())
    assert names and names == sorted(path.name for path in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_the_code_cache_stays_bounded():
    maxsize = expr_mod._code.cache_info().maxsize
    for k in range(maxsize + 3):
        em = expr_mod.Emitter()
        em.line(f"v = {k}")
        assert em.compile("probe", "", "v")() == k
    assert expr_mod._code.cache_info().currsize == maxsize


# ---------------------------------------------------------------------------
# the numpy backend of the same lowering, over a member axis
# ---------------------------------------------------------------------------


def within_ulps(got, want, ulps=4):
    """``got`` within ``ulps`` ulp of ``want`` at the scale max(1, |want|);
    infinities and nans must match exactly."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    finite = np.isfinite(want)
    same = np.array_equal(got[~finite], want[~finite], equal_nan=True)
    scale = np.maximum(1.0, np.abs(want[finite]))
    return same and bool(np.all(np.abs(got[finite] - want[finite])
                                <= ulps * np.finfo(float).eps * scale))


def batch_outcome(problem, x, lam, nu):
    """The numpy kernel's arrays, or the raised error."""
    try:
        return problem.batch_kernel(np.array(x), np.array(lam), np.array(nu))
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def assert_batch_matches_scalar(problem, x, lam, nu):
    """The numpy kernel over the members ``x`` agrees with the scalar kernel
    of each: within 4 ulp, or a DomainError exactly where the scalar kernel
    of at least one member raises.  Returns the floats reached (empty on an
    error)."""
    got = batch_outcome(problem, x, lam, nu)
    kernel = scalar_kernel(problem)
    scalar = [outcome(kernel, *args) for args in zip(x, lam, nu)]
    if any(isinstance(out[0], type) for out in scalar):
        assert got[0] is DomainError, (got, scalar)
        return set()
    assert not isinstance(got[0], type), (got, scalar)
    want = [kernel(*args) for args in zip(x, lam, nu)]
    for k, part in enumerate(got):
        assert within_ulps(part, [w[k] for w in want]), (k, part, [w[k] for w in want])
    return {float.hex(float(v)) for part in got for v in np.ravel(part)}


@pytest.mark.filterwarnings("error")
def test_batch_kernel_within_4_ulp_over_random_expressions():
    # the sweep of the scalar kernel's parity test, each expression's points
    # as the members of one batch, with numpy warnings turned into errors
    rng = np.random.default_rng(2026)
    seen = set()
    for _ in range(400):
        n = int(rng.integers(1, 4))
        p = probe_problem(parse(random_expr_text(rng, n), n))
        points = [rng.uniform(-1.0, 1.0, n).tolist(),
                  [float(v) for v in rng.choice(SPECIAL_POINTS, n)]]
        lam, nu = [float(rng.uniform(0.1, 3.0))], [float(rng.normal())]
        for members in ([points[0]], [points[1]], points):
            seen |= assert_batch_matches_scalar(
                p, [[pt, pt] for pt in members], [lam] * len(members), [nu] * len(members))
    assert {"inf", "-inf", "nan", "-0x0.0p+0"} <= seen


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["five_agent_fixed.json", "five_agent_switching.json"])
def test_batch_kernel_within_4_ulp_on_bundled_problems(name):
    p = load_scenario(SCENARIO_DIR / name).build_problem()
    rng = np.random.default_rng(5)
    for scale in (0.5, 3.0, 300.0):
        x = rng.normal(0.0, scale, (50, p.n_agents, p.n))
        lam = rng.uniform(0.0, 5.0, (50, p.r))
        nu = rng.normal(0.0, 5.0, (50, p.s))
        assert_batch_matches_scalar(p, x.tolist(), lam.tolist(), nu.tolist())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, n, point", DOMAIN_CASES)
def test_batch_kernel_domain_errors_name_the_member(text, n, point):
    # member 1 of three leaves the domain, and the scalar kernel raises for
    # it alone: the numpy kernel raises, and passes without member 1.  Its
    # error names no member; ``_Model.step`` reruns a failing round member
    # by member, and the member's lone substep names it
    p = probe_problem(parse(text, n))
    fine = [2.0] * n
    x = [[fine, fine], [list(point), list(point)], [fine, fine]]
    ones = [[1.0]] * 3
    with pytest.raises(DomainError):
        scalar_kernel(p)(x[1], [1.0], [1.0])
    assert_batch_matches_scalar(p, x, ones, ones)
    assert assert_batch_matches_scalar(p, x[::2], ones[:2], ones[:2])


@pytest.mark.filterwarnings("error")
def test_batch_kernel_exp_overflow_is_inf():
    p = probe_problem(parse("exp(x1) - x2", 2))
    x = np.array([[[1000.0, 1.0]] * 2, [[1.0, 1.0]] * 2])
    G, gv, _ = p.batch_kernel(x, np.ones((2, 1)), np.zeros((2, 1)))
    assert gv[0].tolist() == [math.inf] and G[0, 0].tolist()[0] == math.inf
    assert math.isnan(G[0, 0, 1])  # inf * 0.0 kept, as in the scalar kernel
    assert np.isfinite(G[1]).all()


def test_numpy_kernel_compiled_only_for_a_large_round(k5_network, reference_init):
    # serial runs and rounds below BATCH_KERNEL_ROWS step on the lone substep
    five_agent = make_five_agent_problem()
    small = dataclasses.replace(IntegratorConfig(h=1e-3, horizon=2e-3),
                                seed=list(range(dynamics.BATCH_KERNEL_ROWS - 1)))
    for cfg in (IntegratorConfig(h=1e-3, horizon=2e-3), small):
        dynamics.simulate(five_agent, k5_network, None, cfg, reference_init)
        assert "batch_kernel" not in vars(five_agent)
    big = dataclasses.replace(small, seed=list(range(dynamics.BATCH_KERNEL_ROWS)))
    dynamics.simulate(five_agent, k5_network, None, big, reference_init)
    assert "batch_kernel" in vars(five_agent)
