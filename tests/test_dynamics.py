import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchopt import chain, expr, schedule
from switchopt.averaging import simulate_averaged
from switchopt.dynamics import (
    BATCH_KERNEL_ROWS,
    IntegrationError,
    IntegratorConfig,
    SystemState,
    TrajectoryWarning,
    _integrate,
    _Model,
    build_equilibrium,
    check_assumptions,
    diffusion_matrix,
    drift,
    em_step,
    simulate,
)
from switchopt.expr import parse
from switchopt.graph import Graph, Network
from switchopt.problem import AgentSpec, Problem, derive_multipliers

from conftest import (SIX_GRAPHS, SIX_MODE_Q, X_INIT, complete_graph, cubic_graph, drift_of_one,
                      make_five_agent_problem)
from oracles import (build_equilibrium_reference, check_assumptions_reference,
                     lone_union_reference, mode_at, rk4)


def single_agent_problem(cost="0.5*x1^2", g=(), h=()):
    return Problem(
        n=1,
        agents=(AgentSpec(f=parse(cost, 1), g=tuple(parse(s, 1) for s in g),
                          h=tuple(parse(s, 1) for s in h)),),
    )


def single_node_network(sigma=0.0, kappa=0.0, coupling=1.0):
    return Network(graphs=(Graph(1),), sigma=sigma, coupling=coupling, kappa=kappa)


# the two entries of _Model.step: a lone member on its compiled substep, or a
# batch (here of one, its member unnamed), whose rounds below
# BATCH_KERNEL_ROWS step each member on that substep
STEP_PATHS = ["lone", "batch"]


def model_step(model, path, x, pair, lam, nu, t, h, mode, W, floor):
    """``model.step`` from one state on ``path``: the new state as arrays of
    the shapes given, and the clamp count."""
    state = [np.asarray(a, dtype=float) for a in (x, pair, lam, nu)]
    W = np.asarray(W, dtype=float)
    if path == "lone":
        *new, clamped = model.step(*(a.ravel().tolist() for a in state), t, h, mode,
                                   W.reshape(model.N, model.N), floor)
    else:
        *new, clamped = model.step(*(a[None] for a in state), t, h, mode, W[None], floor)
        new, clamped = [a[0] for a in new], int(np.sum(clamped))
    return (*(np.reshape(a, b.shape) for a, b in zip(new, state)), clamped)


# ---------------------------------------------------------------------------
# drift
# ---------------------------------------------------------------------------


def test_drift_vanishes_at_equilibrium(five_agent, k5_network, equilibrium):
    dx, dth, dlam, dnu = drift(equilibrium, 0, five_agent, k5_network, 1.0)
    assert np.linalg.norm(dx) <= 1e-8
    assert np.linalg.norm(dth) <= 1e-8
    assert np.linalg.norm(dlam) <= 1e-8
    assert np.linalg.norm(dnu) <= 1e-8


def test_drift_single_agent_reduces_to_gradient_flow():
    p = single_agent_problem()
    net = single_node_network()
    st = SystemState([[2.0]], [[0.7]], [], [], t=0.0)
    dx, dth, dlam, dnu = drift(st, 0, p, net, 1.0)
    # no neighbors: dx = -theta - grad f = -0.7 - 2.0, dtheta = 0
    assert dx[0, 0] == pytest.approx(-2.7, abs=1e-15)
    assert dth[0, 0] == 0.0
    assert dlam.size == 0 and dnu.size == 0


def test_multiplier_drift_sign():
    p_neg = single_agent_problem(g=("-1",))
    p_pos = single_agent_problem(g=("1",))
    net = single_node_network()
    st = SystemState([[0.0]], [[0.0]], [2.5], [], t=0.0)
    _, _, dlam_neg, _ = drift(st, 0, p_neg, net, 1.0)
    _, _, dlam_pos, _ = drift(st, 0, p_pos, net, 1.0)
    assert dlam_neg[0] < 0.0
    assert dlam_pos[0] > 0.0


# ---------------------------------------------------------------------------
# diffusion
# ---------------------------------------------------------------------------


def test_diffusion_matrix_zero_at_consensus(k5_network):
    x = np.tile([1.5, -2.0], (5, 1))
    st = SystemState(x, np.zeros_like(x), [1.0, 1.0], [1.0])
    M = diffusion_matrix(st, 0, k5_network)
    assert M.shape == (10, 25)
    assert np.all(M == 0.0)


def test_diffusion_matrix_zero_for_zero_sigma(five_agent):
    net = Network(graphs=(complete_graph(5),), sigma=0.0, coupling=1.0, kappa=0.0)
    st = SystemState(X_INIT, np.zeros_like(X_INIT), [3.0, 3.0], [3.0])
    assert np.all(diffusion_matrix(st, 0, net) == 0.0)


def test_trace_bound_random_states(six_mode_network):
    from switchopt.graph import laplacian, stack

    rng = np.random.default_rng(17)
    kappa2 = six_mode_network.kappa ** 2
    for mode in range(six_mode_network.n_modes):
        Lk = stack(laplacian(six_mode_network.graphs[mode]), 2)
        for _ in range(50):
            x = rng.normal(0.0, 2.0, (5, 2))
            st = SystemState(x, np.zeros_like(x), [1.0, 1.0], [1.0])
            M = diffusion_matrix(st, mode, six_mode_network)
            tr = float(np.sum(M * M))
            xhat = x.ravel()
            assert tr <= kappa2 * float(xhat @ Lk @ xhat) + 1e-10


def test_apply_diffusion_matches_explicit_matrix(five_agent, six_mode_network):
    # the channel-noise term the numpy path runs, on a batch of one
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 2))
    st = SystemState(x, np.zeros_like(x), [1.0, 1.0], [1.0])
    model = _Model(five_agent, six_mode_network, 1.0)
    for mode in (0, 5):
        W = rng.normal(size=(5, 5))
        M = diffusion_matrix(st, mode, six_mode_network)
        via_matrix = (six_mode_network.coupling * (M @ W.ravel())).reshape(5, 2)
        direct = model.noise_term(x[None], mode, W[None])[0]
        assert np.max(np.abs(via_matrix - direct)) <= 1e-14


@pytest.mark.parametrize("shape", [(5, 1), (7,), (5, 4)])
def test_helpers_reject_misshaped_increments(shape, five_agent, k5_network, reference_init):
    W = np.zeros(shape)
    message = re.escape("noise increment must have shape (5,5) or (25,)")
    with pytest.raises(ValueError, match=message):
        em_step(reference_init, 0, 1e-3, W, five_agent, k5_network, IntegratorConfig())


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("channel", [(0, 0), (0, 1), (2, 3)],
                         ids=["diagonal", "heard", "silent-in-mode-0"])
def test_em_step_refuses_a_nonfinite_increment(channel, value, five_agent, six_mode_network,
                                               reference_init):
    # refused on every channel: mode 0 hears only (0, 1) and (1, 0), so a
    # nonfinite value on another channel would otherwise step silently
    W = np.zeros((5, 5))
    W[channel] = value
    for shape in ((5, 5), (25,)):
        with pytest.raises(ValueError, match="^noise increment must be finite$"):
            em_step(reference_init, 0, 1e-3, W.reshape(shape), five_agent, six_mode_network,
                    IntegratorConfig())


# ---------------------------------------------------------------------------
# public helpers are views of the one model
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["fixed", "switching"])
def test_public_helpers_equal_the_model_bit_for_bit(kind, request):
    scn = request.getfixturevalue(f"{kind}_scenario")
    problem, network, cfg = scn.build_problem(), scn.build_network(), scn.build_config()
    N, n = problem.n_agents, problem.n
    rng = np.random.default_rng(5)
    st = SystemState(rng.normal(size=(N, n)), rng.normal(size=(N, n)),
                     rng.uniform(0.5, 2.0, problem.r), rng.normal(size=problem.s), t=0.25)
    model = _Model(problem, network, cfg.eta)
    for mode in range(network.n_modes):
        W = rng.normal(0.0, math.sqrt(cfg.h), (N, N))
        core = drift_of_one(model, st.x, st.pair, st.lam, st.nu, mode)
        view = drift(st, mode, problem, network, cfg.eta)
        assert [a.tobytes() for a in view] == [a.tobytes() for a in core]
        nxt = em_step(st, mode, cfg.h, W.ravel(), problem, network, cfg)
        for path in STEP_PATHS:
            *new, clamped = model_step(model, path, st.x, st.pair, st.lam, st.nu, st.t,
                                       cfg.h, mode, W, cfg.lambda_floor)
            assert [a.tobytes() for a in (nxt.x, nxt.pair, nxt.lam, nxt.nu)] == [
                a.tobytes() for a in new]
            assert (nxt.t, nxt.clamp_count) == (st.t + cfg.h, clamped)


def test_repeated_drift_makes_no_graph_computation(monkeypatch, five_agent):
    from switchopt import graph

    calls = []
    for name in ("adjacency", "laplacian"):
        def counting(g, original=getattr(graph, name), name=name):
            calls.append(name)
            return original(g)
        monkeypatch.setattr(graph, name, counting)
    net = Network(graphs=SIX_GRAPHS, sigma=0.15, coupling=1.0, kappa=0.5)
    st = SystemState(X_INIT, np.zeros_like(X_INIT), [3.0, 3.0], [3.0])
    first = drift(st, 0, five_agent, net)
    calls.clear()
    for mode in (0, 3, 5, 0):
        again = drift(st, mode, five_agent, net)
    assert calls == []
    assert [a.tobytes() for a in again] == [a.tobytes() for a in first]


# ---------------------------------------------------------------------------
# em_step: exact pair-sum identity
# ---------------------------------------------------------------------------


def test_em_step_pair_update_is_exactly_drift(five_agent, k5_network, reference_init):
    cfg = IntegratorConfig(h=1e-3, horizon=1.0, eta=1.0, lambda_floor=0.0)
    rng = np.random.default_rng(11)
    st = reference_init.copy()
    for _ in range(500):
        W = rng.standard_normal((5, 5)) * math.sqrt(cfg.h)
        dx, dth, _, _ = drift(st, 0, five_agent, k5_network, 1.0)
        expected_pair = st.pair + cfg.h * (dx + dth)
        nxt = em_step(st, 0, cfg.h, W, five_agent, k5_network, cfg)
        assert np.array_equal(nxt.pair, expected_pair)  # 0 ulps
        st = nxt


def test_pair_sum_immune_to_noise_perturbation(five_agent, k5_network, reference_init):
    # per step, from the same state, scaling the diffusion (which enters x
    # with + and theta with -) must not move the pair sum by a single bit
    cfg = IntegratorConfig(h=1e-3, horizon=1.0, eta=1.0, lambda_floor=0.0)
    rng = np.random.default_rng(5)
    st = reference_init.copy()
    saw_x_difference = False
    for _ in range(200):
        W = rng.standard_normal((5, 5)) * math.sqrt(cfg.h)
        stepped = em_step(st, 0, cfg.h, W, five_agent, k5_network, cfg)
        perturbed = em_step(st, 0, cfg.h, 2.0 * W, five_agent, k5_network, cfg)
        assert np.array_equal(stepped.pair, perturbed.pair)
        if not np.array_equal(stepped.x, perturbed.x):
            saw_x_difference = True
        st = stepped
    assert saw_x_difference


def test_em_step_accepts_flat_noise(five_agent, k5_network, reference_init):
    cfg = IntegratorConfig(h=1e-3, horizon=1.0)
    W = np.random.default_rng(0).standard_normal((5, 5)) * math.sqrt(cfg.h)
    a = em_step(reference_init.copy(), 0, cfg.h, W, five_agent, k5_network, cfg)
    b = em_step(reference_init.copy(), 0, cfg.h, W.ravel(), five_agent, k5_network, cfg)
    assert np.array_equal(a.x, b.x)


def test_em_step_matches_hand_euler_without_noise():
    p = single_agent_problem()
    net = single_node_network()
    cfg = IntegratorConfig(h=0.01, horizon=1.0)
    st = SystemState([[1.0]], [[0.5]], [], [])
    x, th = 1.0, 0.5
    for _ in range(100):
        st = em_step(st, 0, cfg.h, np.zeros((1, 1)), p, net, cfg)
        dx = -th - x  # f = x^2/2 so grad f = x
        x = x + (cfg.h * dx + 0.0)
        th = th + cfg.h * 0.0
        assert st.x[0, 0] == pytest.approx(x, abs=1e-15)
        assert st.theta[0, 0] == pytest.approx(th, abs=1e-13)


def test_multiplier_flow_monotone_positive_and_tracks_reference():
    # constraint identically -1: multiplier decays toward zero from 3
    p = single_agent_problem(g=("-1",))
    net = single_node_network()
    cfg = IntegratorConfig(h=0.1, horizon=5.0, eta=1.0, lambda_floor=0.0)
    st = SystemState([[0.0]], [[0.0]], [3.0], [])
    values = [st.lam[0]]
    for _ in range(50):
        st = em_step(st, 0, cfg.h, np.zeros((1, 1)), p, net, cfg)
        values.append(st.lam[0])
    values = np.array(values)
    assert np.all(np.diff(values) < 0.0)
    assert np.all(values > 0.0)
    assert st.clamp_count == 0
    ref = rk4(lambda lam: -lam / (1.0 + lam), np.array([3.0]), 5.0, 50_000)[0]
    assert st.lam[0] == pytest.approx(ref, abs=0.05)


def test_em_step_nonfinite_aborts(five_agent, k5_network, reference_init):
    cfg = IntegratorConfig(h=1e3, horizon=1e4)
    st = reference_init.copy()
    with pytest.raises(IntegrationError):
        for _ in range(50):
            st = em_step(st, 0, cfg.h, np.zeros((5, 5)), five_agent, k5_network, cfg)


def test_lambda_clamp_counts_crossings():
    p = single_agent_problem(g=("-100",))  # strong decay, big step overshoots
    net = single_node_network()
    cfg = IntegratorConfig(h=0.1, horizon=1.0, lambda_floor=1e-12)
    st = SystemState([[0.0]], [[0.0]], [0.5], [])
    st = em_step(st, 0, cfg.h, np.zeros((1, 1)), p, net, cfg)
    assert st.lam[0] == cfg.lambda_floor
    assert st.clamp_count == 1


# ---------------------------------------------------------------------------
# the lone substep reads only the active mode's entries
# ---------------------------------------------------------------------------

FLOATS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0))


@st.composite
def sparse_switching_cases(draw):
    """A model of a random sparse switching network, with or without the
    averaged mode S, and a lone member's state and channel increments: some
    modes have no edge, some repeat an earlier mode's edges, and zero noise
    intensities make the channel patterns differ from the edge patterns."""
    N, n = draw(st.integers(1, 7)), draw(st.integers(1, 3))
    pairs = [(i, j) for i in range(N) for j in range(i + 1, N)]
    graphs = []
    for _ in range(draw(st.integers(1, 4))):
        if graphs and draw(st.booleans()):
            graphs.append(draw(st.sampled_from(graphs)))
        else:
            edges = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
            graphs.append(Graph.from_edges(N, edges))
    sigma = np.array(draw(st.lists(st.sampled_from([0.0, 0.1, 0.3]), min_size=N * N,
                                   max_size=N * N))).reshape(N, N)
    network = Network(graphs=tuple(graphs), sigma=sigma,
                      coupling=draw(st.sampled_from([0.5, 1.0, 1.7])), kappa=0.5)
    variables = [f"x{k + 1}" for k in range(n)]
    agents = [AgentSpec(f=parse(" + ".join(f"{draw(st.sampled_from([0.5, 2.0]))}*{v}^2 - {v}"
                                           for v in variables), n))
              for _ in range(N)]
    if draw(st.booleans()):  # multipliers: an inequality and an equality on agent 1
        agents[0] = AgentSpec(f=agents[0].f, g=(parse(f"{variables[-1]} - 1", n),),
                              h=(parse(" + ".join(variables), n),))
    pi = None
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(st.sampled_from([1.0, 2.0, 5.0]), min_size=len(graphs),
                                         max_size=len(graphs))))
        pi = weights / weights.sum()
    model = _Model(Problem(n=n, agents=tuple(agents)), network, 0.7, pi)
    x, pair = (draw(st.lists(FLOATS, min_size=N * n, max_size=N * n)) for _ in range(2))
    lam = draw(st.lists(st.floats(0.01, 5.0), min_size=model.r, max_size=model.r))
    nu = draw(st.lists(FLOATS, min_size=model.s, max_size=model.s))
    W = np.array(draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.1, 0.1)),
                               min_size=N * N, max_size=N * N))).reshape(N, N)
    return model, x, pair, lam, nu, W


def hexed(blocks):
    """Each float of each block (a list of floats, or a clamp count) as its
    hex form, which tells -0.0 from 0.0."""
    return [[v.hex() for v in b] if isinstance(b, list) else b for b in blocks]


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(sparse_switching_cases())
def test_mode_sparse_substep_equals_the_union_reference_bit_for_bit(case):
    model, x, pair, lam, nu, W = case
    drift_ref, update_ref, laplacians, receive = lone_union_reference(model)
    for mode in range(len(model.L)):
        blocks = drift_ref(x, pair, lam, nu, laplacians[mode])
        assert hexed(model.drift(x, pair, lam, nu, mode)) == hexed(blocks)
        want = update_ref(x, pair, lam, nu, *blocks, receive[mode], W.ravel().tolist(), 1e-3,
                          0.5)
        got = model.step(x, pair, lam, nu, 0.0, 1e-3, mode, W, 0.5)
        assert hexed(got) == hexed(want)


def test_bundled_modes_read_their_own_coupling_terms_and_channels(switching_scenario):
    # 5 agents, n = 2: one edge (two in mode 6) per mode; mode S reads the union
    pi = chain.stationary(switching_scenario.build_generator())
    model = _Model(switching_scenario.build_problem(), switching_scenario.build_network(),
                   1.0, pi)
    _, _, coupling, channels = model.lone
    assert [len(L) * model.n for _, L in coupling] == [8, 8, 8, 8, 8, 16, 38]
    assert [len(R) for _, R in channels] == [2, 2, 2, 2, 2, 4, 14]
    assert [b for b, _ in coupling] == [b for b, _ in channels] == list(range(7))


def test_modes_of_one_pattern_share_a_branch_and_one_pattern_has_none(monkeypatch,
                                                                      five_agent):
    sources = []
    code = expr._code

    def spying(source, filename):
        sources.append(source)
        return code(source, filename)

    monkeypatch.setattr(expr, "_code", spying)
    # modes 0 and 2 have one edge set, mode 1 another
    graphs = (SIX_GRAPHS[0], SIX_GRAPHS[1], SIX_GRAPHS[0])
    sigma = np.full((5, 5), 0.2)
    sigma[1, 0] = 0.0  # mode 0's channel 1 -> 0 is silent: mode 0 hears 0 -> 1 alone
    model = _Model(five_agent, Network(graphs=graphs, sigma=sigma, coupling=1.0, kappa=0.5),
                   1.0)
    _, _, coupling, channels = model.lone
    assert [b for b, _ in coupling] == [0, 1, 0] and [b for b, _ in channels] == [0, 1, 0]
    assert [len(R) for _, R in channels] == [1, 2, 1]
    drift_source, update_source = sources
    assert drift_source.count("b == ") == update_source.count("b == ") == 1
    sources.clear()
    k5 = _Model(five_agent, Network(graphs=(complete_graph(5),), sigma=0.3, coupling=1.0,
                                    kappa=0.5), 1.0)
    assert k5.lone[2] == [(0, k5.L[0][k5.L[0] != 0.0].tolist())]
    assert len(sources) == 2 and not any("b == " in source for source in sources)


def test_repeated_helper_calls_generate_the_lone_substep_once(monkeypatch):
    # drift and em_step share one model per (problem, network, eta) across
    # calls, so 1000 of each generate its substep once
    from switchopt import dynamics

    compiles = []
    compile_lone = dynamics._compile_lone

    def counting(model):
        compiles.append(model)
        return compile_lone(model)

    monkeypatch.setattr(dynamics, "_compile_lone", counting)
    problem = make_five_agent_problem()
    network = Network(graphs=SIX_GRAPHS, sigma=0.15, coupling=1.0, kappa=0.5)
    cfg = IntegratorConfig(h=1e-3, eta=np.array([1.0, 0.5]))
    rng = np.random.default_rng(9)
    st = SystemState(X_INIT, np.zeros_like(X_INIT), [3.0, 3.0], [3.0])
    for k in range(1000):
        drift(st, k % 6, problem, network, cfg.eta)
        st = em_step(st, k % 6, cfg.h, rng.normal(0.0, 0.03, (5, 5)), problem, network, cfg)
    assert len(compiles) == 1


class _GivenDrift(_Model):
    """A model whose drift returns given blocks, so a test can put one
    nonfinite value into exactly one block of the new state."""

    def __init__(self, problem, network, dx, dtheta, dlam, dnu):
        super().__init__(problem, network, np.ones(problem.r))
        self.blocks = (dx, dtheta, dlam, dnu)

    def drift(self, x, theta, lam, nu, mode):
        if isinstance(x, list):  # a lone member: flat float lists
            return [b.ravel().tolist() for b in self.blocks]
        return [b[None] for b in self.blocks]


def _given_drift_step(five_agent, k5_network, path, x=X_INIT, lam=(-1.0, 3.0), W=None,
                      **blocks):
    parts = {"dx": np.zeros((5, 2)), "dtheta": np.zeros((5, 2)),
             "dlam": np.zeros(2), "dnu": np.zeros(1)}
    parts.update(blocks)
    model = _GivenDrift(five_agent, k5_network, **parts)
    W = np.zeros((5, 5)) if W is None else W
    return model_step(model, path, x, x, lam, np.zeros(1), 0.5, 1e-3, 0, W, 0.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("target", ["x", "pair", "lam", "nu"])
def test_step_rejects_a_nonfinite_entry_in_each_block(target, value, five_agent,
                                                      k5_network):
    # the value reaches exactly one of the four new arrays: x through a
    # channel increment, the others through their drift block; lam[0]
    # starts below the floor, so -inf there is not a crossing to clamp
    W = np.zeros((5, 5))
    blocks = {"dtheta": np.zeros((5, 2)), "dlam": np.zeros(2), "dnu": np.zeros(1)}
    if target == "x":
        W[0, 1] = value
    else:
        blocks[{"pair": "dtheta", "lam": "dlam", "nu": "dnu"}[target]].flat[0] = value
    for path in STEP_PATHS:
        with pytest.raises(IntegrationError, match=(
            r"^nonfinite state at t=0\.501 \(mode 0\): "
            r"step size too large for this problem's stiffness$"
        )):
            _given_drift_step(five_agent, k5_network, path, W=W, **blocks)


def test_step_accepts_a_finite_state_whose_total_overflows(five_agent, k5_network):
    # every entry is 1e308: each is finite, their sum is not; the test
    # raises nothing and warns nothing
    for path in STEP_PATHS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x_new, pair_new, lam_new, nu_new, clamped = _given_drift_step(
                five_agent, k5_network, path, x=np.full((5, 2), 1e308), lam=(1e308, 1e308)
            )
        assert np.all(x_new == 1e308) and np.all(pair_new == 1e308)
        assert np.all(lam_new == 1e308) and clamped == 0


def test_step_clamps_and_counts_only_crossings(five_agent, k5_network):
    # lam[0] starts below the floor and is left alone; lam[1] crosses it
    for path in STEP_PATHS:
        _, _, lam_new, _, clamped = _given_drift_step(
            five_agent, k5_network, path, dlam=np.array([-1.0, -1e4])
        )
        assert clamped == 1
        assert lam_new.tolist() == [-1.0 + 1e-3 * -1.0, 0.0]


def test_multiplier_drift_at_minus_one_over_eta_divides_by_zero():
    # 1 + eta * lam = 0: the drift, float code as in the lone substep,
    # divides by zero
    p = single_agent_problem(g=("x1 - 1",))
    net = single_node_network()
    st = SystemState([[0.0]], [[0.0]], [-1.0], [])
    with pytest.raises(ZeroDivisionError):
        drift(st, 0, p, net, eta=1.0)


def test_em_step_at_minus_one_over_eta_stops_with_a_nonfinite_state():
    # 1 + eta * lam = 0: the step stops with the nonfinite-state error
    p = single_agent_problem(g=("x1 - 1",))
    net = single_node_network()
    st = SystemState([[0.0]], [[0.0]], [-1.0], [])
    cfg = IntegratorConfig(h=1e-3, horizon=1e-3)
    with pytest.raises(IntegrationError, match=r"^nonfinite state at t=0\.001 \(mode 0\)"):
        em_step(st, 0, cfg.h, np.zeros((1, 1)), p, net, cfg)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows", [None, 1, 2, BATCH_KERNEL_ROWS])
def test_multiplier_at_minus_one_over_eta_fails_without_a_numpy_warning(rows):
    # the step stops with its nonfinite-state error alone, lone (rows None,
    # flat float lists) or in a batch on either kernel: numpy's
    # divide-by-zero warning stays silent
    p = single_agent_problem(g=("x1 - 1",))
    model = _Model(p, single_node_network(), 1.0)
    state = [np.zeros((1, 1)), np.zeros((1, 1)), np.array([-1.0]), np.zeros(0)]
    if rows is None:
        state, W, members = [a.ravel().tolist() for a in state], np.zeros((1, 1)), None
    else:
        state = [np.repeat(a[None], rows, axis=0) for a in state]
        W, members = np.zeros((rows, 1, 1)), np.arange(rows)
    with pytest.raises(IntegrationError, match=r"^nonfinite state at t=0\.001 \(mode 0"):
        model.step(*state, 0.0, 1e-3, 0, W, 0.0, members)


def _no_multiplier_problem():
    """Five agents over n = 2 with costs alone: r = s = 0."""
    costs = ("4*x1^2 + 2*x2", "2*x2^2", "exp(x1 - x2)", "(x1 + 1)^2", "ln(x1^2 + x2^2 + 1)")
    return Problem(n=2, agents=tuple(AgentSpec(f=parse(c, 2)) for c in costs))


def _weighted_case():
    """Eight agents over n = 2 on three random degree-3 graphs under a
    random pi: the averaged mode couples through non-integer weights."""
    rng = np.random.default_rng(29)
    network = Network(graphs=tuple(cubic_graph(rng, 8) for _ in range(3)), sigma=0.2,
                      coupling=1.3, kappa=0.5)
    problem = Problem(n=2, agents=tuple(AgentSpec(f=parse(f"{k + 1}*x1^2 + x2^2", 2),
                                                  g=(parse("x1 - 1", 2),)) for k in range(8)))
    return problem, network, rng.dirichlet(np.ones(3))


@pytest.mark.parametrize("kind", ["fixed", "switching", "no-multipliers", "weighted"])
def test_lone_substep_equals_a_batch_of_one_bit_for_bit(kind, request):
    # random states in every mode, the averaged one too; a large step and a
    # floor of 0.5 make some multipliers cross it, so clamps are compared.
    # "weighted": a weighted averaged mode and x entries at +-0.0, where a
    # matmul on either path rounds, or signs a zero, differently
    if kind == "weighted":
        problem, network, pi = _weighted_case()
    else:
        scn = request.getfixturevalue(f"{'fixed' if kind == 'fixed' else 'switching'}_scenario")
        problem, network = scn.build_problem(), scn.build_network()
        if kind == "no-multipliers":
            problem = _no_multiplier_problem()
        pi = np.full(network.n_modes, 1.0 / network.n_modes)
    model = _Model(problem, network, np.linspace(0.5, 2.0, problem.r), pi)
    N, n, r, s = problem.n_agents, problem.n, problem.r, problem.s
    rng = np.random.default_rng(17)
    clamps = 0
    for trial in range(240):
        mode = trial % (network.n_modes + 1)
        h = (1e-3, 0.2)[trial % 2]
        state = (rng.normal(0.0, 1.5, (N, n)), rng.normal(0.0, 1.5, (N, n)),
                 rng.uniform(0.0, 1.5, r), rng.normal(0.0, 2.0, s))
        if kind == "weighted":
            state[0][rng.random((N, n)) < 0.4] = (0.0, -0.0)[trial % 2]
        W = rng.normal(0.0, math.sqrt(h), (N, N))
        lone = model_step(model, "lone", *state, 0.5, h, mode, W, 0.5)
        batch = model_step(model, "batch", *state, 0.5, h, mode, W, 0.5)
        assert [a.tobytes() for a in lone[:4]] == [a.tobytes() for a in batch[:4]]
        assert lone[4] == batch[4]
        clamps += lone[4]
    assert (clamps > 0) == (r > 0)


@pytest.mark.parametrize("kind", ["fixed", "switching", "no-multipliers", "weighted"])
def test_numpy_round_within_1e_12_of_the_lone_substeps(kind, request):
    # a round of BATCH_KERNEL_ROWS members, one mode each (the averaged one
    # too), steps as one numpy update: each member within 1e-12 relative
    # (scale max(1, |v|)) of its lone substep, with the same clamps
    if kind == "weighted":
        problem, network, pi = _weighted_case()
    else:
        scn = request.getfixturevalue(f"{'fixed' if kind == 'fixed' else 'switching'}_scenario")
        problem, network = scn.build_problem(), scn.build_network()
        if kind == "no-multipliers":
            problem = _no_multiplier_problem()
        pi = np.full(network.n_modes, 1.0 / network.n_modes)
    model = _Model(problem, network, np.linspace(0.5, 2.0, problem.r), pi)
    N, n, r, s, M = problem.n_agents, problem.n, problem.r, problem.s, BATCH_KERNEL_ROWS
    rng = np.random.default_rng(23)
    clamps = 0
    for trial in range(20):
        h = (1e-3, 0.2)[trial % 2]
        state = [rng.normal(0.0, 1.5, (M, N, n)), rng.normal(0.0, 1.5, (M, N, n)),
                 rng.uniform(0.0, 1.5, (M, r)), rng.normal(0.0, 2.0, (M, s))]
        mode = rng.integers(0, network.n_modes + 1, M)
        W = rng.normal(0.0, math.sqrt(h), (M, N, N))
        *batch, clamped = model.step(*state, 0.5, h, mode, W, 0.5, np.arange(M))
        for m in range(M):
            lone = model_step(model, "lone", *(a[m] for a in state), 0.5, h, int(mode[m]), W[m],
                              0.5)
            for got, want in zip((a[m] for a in batch), lone[:4]):
                assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
            assert np.broadcast_to(clamped, M)[m] == lone[4]
            clamps += lone[4]
    assert (clamps > 0) == (r > 0)


def test_lone_substep_keeps_signed_zeros_of_a_batch_member():
    # n = 1, N = 6, every agent at -0.0 (a consensus) with negative channel
    # increments: each noise term is -0.0, and the sum over senders that
    # starts from 0.0 gives +0.0 on both paths, so x becomes +0.0; member 0
    # of a batch of three (the others at a nonzero consensus and off it)
    # equals the lone step bit for bit
    problem = Problem(n=1, agents=tuple(AgentSpec(f=parse("0.5*x1^2", 1)) for _ in range(6)))
    network = Network(graphs=(complete_graph(6),), sigma=0.3, coupling=1.0, kappa=0.5)
    model = _Model(problem, network, 1.0)
    W = -np.abs(np.random.default_rng(3).normal(0.0, 0.03, (6, 6)))
    starts = [np.full((6, 1), -0.0), np.full((6, 1), 1.5), np.arange(6.0)[:, None]]
    batch = model.step(np.array(starts), np.array(starts), np.zeros((3, 0)), np.zeros((3, 0)),
                       0.0, 1e-3, 0, np.array([W, W, W]), 0.0, np.arange(3))
    for m, x in enumerate(starts):
        lone = model_step(model, "lone", x, x, [], [], 0.0, 1e-3, 0, W, 0.0)
        assert [a.tobytes() for a in lone[:4]] == [a[m].tobytes() for a in batch[:4]]
        if m == 0:
            assert lone[0].tolist() == [[0.0]] * 6 and not np.signbit(lone[0]).any()


@pytest.mark.parametrize("M", [BATCH_KERNEL_ROWS, 3], ids=["numpy", "each"])
def test_shared_round_values_step_as_per_member_ones(M, fixed_scenario, monkeypatch):
    # a batch round's t, h, mode and members are each one shared value or
    # one per member, and the step broadcasts them: both forms give the same
    # bytes and clamp counts, on the numpy update and member by member
    problem, network = fixed_scenario.build_problem(), fixed_scenario.build_network()
    model = _Model(problem, network, 1.0)
    N, n, r, s = problem.n_agents, problem.n, problem.r, problem.s
    each = []
    monkeypatch.setattr(model, "_each", lambda *a: each.append(a) or _Model._each(model, *a))
    rng = np.random.default_rng(27)  # a draw where both sizes clamp
    t, h = 0.25, 0.2
    state = [rng.normal(0.0, 1.5, (M, N, n)), rng.normal(0.0, 1.5, (M, N, n)),
             rng.uniform(0.0, 1.5, (M, r)), rng.normal(0.0, 2.0, (M, s))]
    W = rng.normal(0.0, math.sqrt(h), (M, N, N))
    shared = model.step(*state, t, h, 0, W, 0.5)
    per = model.step(*state, np.full(M, t), np.full(M, h), np.zeros(M, dtype=np.int64), W, 0.5,
                     np.arange(M))
    assert len(each) == (2 if M < BATCH_KERNEL_ROWS else 0)
    assert [a.tobytes() for a in shared[:4]] == [a.tobytes() for a in per[:4]]
    assert np.array_equal(shared[4], per[4]) and 0 < np.sum(per[4]) < M * r


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_power_overflow_names_time_mode_agent_and_expression(five_agent, k5_network):
    # 4*x1^2 at x1 = 1e160: float ** raises OverflowError, a domain error here
    x = X_INIT.copy()
    x[0, 0] = 1e160
    init = SystemState(x, np.zeros_like(x), np.array([3.0, 3.0]), np.array([3.0]))
    cfg = IntegratorConfig(h=1e-3, horizon=1e-3, seed=1)
    for path in ["simulate", *STEP_PATHS]:
        with pytest.raises(IntegrationError, match="^" + re.escape(
            "expression left its domain at t=0 (mode 0): "
            "agent 1 cost '4.0*x1^2.0 + 2.0*x2': power 1e+160^2.0 overflows"
        ) + "$"):
            if path == "simulate":
                simulate(five_agent, k5_network, None, cfg, init)
            else:
                model_step(_Model(five_agent, k5_network, cfg.eta), path, init.x, init.pair,
                           init.lam, init.nu, 0.0, cfg.h, 0, np.zeros((5, 5)), 0.0)


def test_simulate_stays_at_equilibrium_without_noise(five_agent, equilibrium):
    net = Network(graphs=(complete_graph(5),), sigma=0.0, coupling=1.0, kappa=0.0)
    cfg = IntegratorConfig(h=1e-3, horizon=2.0, eta=1.0, lambda_floor=0.0,
                           seed=1, output_stride=100)
    with pytest.warns(RuntimeWarning):
        # equilibrium has a zero inactive multiplier, which warns
        traj = simulate(five_agent, net, None, cfg, equilibrium)
    final = traj.final_state
    assert np.max(np.abs(final.x - equilibrium.x)) <= 1e-9
    assert np.max(np.abs(final.theta - equilibrium.theta)) <= 1e-9
    dx, dth, dlam, dnu = drift(final, 0, five_agent, net, 1.0)
    assert max(np.linalg.norm(v) for v in (dx, dth, dlam, dnu)) <= 1e-8


def test_simulate_reduction_matches_closed_form():
    # single agent, f = x^2/2, no noise: x(t) = (x0 + th0) e^{-t} - th0
    p = single_agent_problem()
    net = single_node_network()
    cfg = IntegratorConfig(h=4e-6, horizon=0.5, seed=0, output_stride=125_000)
    init = SystemState([[1.0]], [[0.0]], [], [])
    traj = simulate(p, net, None, cfg, init)
    expected = 1.0 * math.exp(-0.5)
    assert traj.final_state.x[0, 0] == pytest.approx(expected, abs=1e-6)


def test_simulate_seed_reproducibility(five_agent, k5_network, reference_init):
    cfg = IntegratorConfig(h=1e-3, horizon=0.5, seed=77, output_stride=50)
    t1 = simulate(five_agent, k5_network, None, cfg, reference_init.copy())
    t2 = simulate(five_agent, k5_network, None, cfg, reference_init.copy())
    assert np.array_equal(t1.x, t2.x)
    assert np.array_equal(t1.theta, t2.theta)
    assert np.array_equal(t1.lam, t2.lam)
    t3 = simulate(
        five_agent, k5_network, None,
        IntegratorConfig(h=1e-3, horizon=0.5, seed=78, output_stride=50),
        reference_init.copy(),
    )
    assert not np.array_equal(t1.x, t3.x)


def test_theta_sum_conserved_without_noise_million_steps():
    # two agents, zero costs, one edge: theta integrates pure disagreement
    p = Problem(n=1, agents=(AgentSpec(f=parse("0", 1)), AgentSpec(f=parse("0", 1))))
    net = Network(graphs=(Graph.from_edges(2, [(0, 1)]),), sigma=0.0,
                  coupling=1.0, kappa=0.0)
    cfg = IntegratorConfig(h=1e-3, horizon=1000.0, seed=0, output_stride=1_000_000)
    init = SystemState([[1.0], [-1.0]], [[0.5], [-0.5]], [], [])
    traj = simulate(p, net, None, cfg, init)
    drift_sum = abs(float(traj.final_state.theta.sum()))
    assert drift_sum <= 1e-10


def test_substep_alignment_replicates_manual_stepping(five_agent, six_mode_network):
    # deterministic replication of the integrator, splitting at jump times
    gen = chain.validate_generator(SIX_MODE_Q)
    path = chain.sample_path(gen, 0, 0.002, 0.012, seed=9)
    assert path.n_jumps >= 3  # fast switching so grid cells get split
    cfg = IntegratorConfig(h=1e-3, horizon=0.01, seed=21, output_stride=10)
    init = SystemState(X_INIT, np.zeros_like(X_INIT), [3.0, 3.0], [3.0])
    traj = simulate(five_agent, six_mode_network, path, cfg, init.copy())

    rng = np.random.default_rng(21)
    st = init.copy()
    boundaries = [t for t in path.times if 0.0 < t < 0.01]
    grid = [k * 1e-3 for k in range(11)]
    cuts = sorted(set(grid) | set(boundaries))
    for a, b in zip(cuts, cuts[1:]):
        mode = mode_at(path, a)
        W = rng.standard_normal((5, 5)) * math.sqrt(b - a)
        st = em_step(st, mode, b - a, W, five_agent, six_mode_network, cfg)
    assert np.max(np.abs(st.x - traj.final_state.x)) <= 1e-12
    assert np.max(np.abs(st.theta - traj.final_state.theta)) <= 1e-12


def test_simulate_off_grid_horizon_warns_and_strict_raises(five_agent, k5_network,
                                                          reference_init):
    cfg = IntegratorConfig(h=1e-3, horizon=0.0105)
    with pytest.warns(RuntimeWarning, match="not a multiple of h"):
        traj = simulate(five_agent, k5_network, None, cfg, reference_init.copy())
    assert len(traj.times) == 11 and any("not a multiple" in w for w in traj.warnings)
    strict = dataclasses.replace(cfg, strict=True)
    with pytest.raises(IntegrationError, match="not a multiple of h"):
        simulate(five_agent, k5_network, None, strict, reference_init.copy())


@pytest.mark.parametrize("view", ["simulate", "simulate_averaged"])
def test_run_warnings_point_at_the_caller(view, five_agent, six_mode_network,
                                          six_mode_generator, reference_init):
    # simulate_averaged runs through simulate, yet both warn from this line
    cfg = IntegratorConfig(h=1e-3, horizon=0.0105)
    pi = chain.stationary(six_mode_generator)
    with pytest.warns(TrajectoryWarning) as record:
        if view == "simulate":
            simulate(five_agent, six_mode_network, None, cfg, reference_init.copy())
        else:
            simulate_averaged(five_agent, six_mode_network, pi, cfg, reference_init.copy())
    assert {w.filename for w in record} == {__file__}


def test_simulate_strict_mode_rejects_bad_init(five_agent, k5_network):
    cfg = IntegratorConfig(h=1e-3, horizon=0.1, strict=True)
    bad = SystemState(X_INIT, np.ones_like(X_INIT), [3.0, 3.0], [3.0])
    with pytest.raises(IntegrationError, match="theta"):
        simulate(five_agent, k5_network, None, cfg, bad)


def test_simulate_warns_on_gate_failure(five_agent):
    # published-style parameters: c=2 with kappa=1 breaks the coupling bound
    net = Network(graphs=(complete_graph(5),), sigma=1.0, coupling=2.0, kappa=1.0)
    cfg = IntegratorConfig(h=1e-4, horizon=0.01)
    init = SystemState(X_INIT, np.zeros_like(X_INIT), [3.0, 3.0], [3.0])
    with pytest.warns(RuntimeWarning, match="coupling_bound"):
        simulate(five_agent, net, None, cfg, init)


# ---------------------------------------------------------------------------
# assumption gates
# ---------------------------------------------------------------------------


def test_assumptions_published_parameters_fail_coupling():
    net = Network(graphs=(complete_graph(5),), sigma=1.0, coupling=2.0, kappa=1.0)
    report = check_assumptions(net)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["coupling_bound"].passed  # needs c < 2/3
    assert by_name["noise_bound"].passed
    assert by_name["spectral_gate"].passed  # 1 <= sqrt(5)/2
    assert not report.all_passed


def test_assumptions_compliant_fixed(k5_network):
    report = check_assumptions(k5_network)
    assert report.mode == "fixed"
    assert report.all_passed


def test_assumptions_noise_free_limit():
    net = Network(graphs=(complete_graph(5),), sigma=0.0, coupling=5.0, kappa=0.0)
    report = check_assumptions(net)
    assert report.all_passed  # kappa = 0 puts no bound on the coupling


def test_assumptions_switching_gates(six_mode_network, six_mode_generator):
    pi = chain.stationary(six_mode_generator)
    report = check_assumptions(six_mode_network, pi)
    assert report.mode == "switching"
    assert report.all_passed
    # tighter noise bound with the same topology must trip the spectral gate
    loud = Network(graphs=six_mode_network.graphs, sigma=0.8, coupling=1.0, kappa=0.8)
    report2 = check_assumptions(loud, pi)
    names = {c.name: c.passed for c in report2.checks}
    assert not names["spectral_gate_switching"]  # 0.8 > sqrt(2)/2


def test_one_agent_counts_as_connected_in_both_reports():
    net = Network(graphs=(Graph(1), Graph(1)), sigma=0.0, coupling=1.0, kappa=0.0)
    pi = np.array([0.5, 0.5])
    fixed = check_assumptions(net, switching=False)
    switching = check_assumptions(net, pi)
    assert fixed.checks[-1].name == "connected" and fixed.all_passed
    assert switching.checks[-1].name == "jointly_connected" and switching.all_passed


def test_repeated_helper_calls_do_not_hash_the_expressions(five_agent, k5_network,
                                                          reference_init, monkeypatch):
    # the helpers' model cache keys the problem by identity: hashing a
    # problem walks every expression tree
    from switchopt.expr import Expr

    cfg = IntegratorConfig(h=1e-3, horizon=1e-3)
    W = np.zeros((5, 5))
    want = drift(reference_init, 0, five_agent, k5_network)
    em_step(reference_init, 0, cfg.h, W, five_agent, k5_network, cfg)
    hashes = []
    monkeypatch.setattr(Expr, "__hash__", lambda self: hashes.append(self) or 0)
    got = drift(reference_init, 0, five_agent, k5_network)
    em_step(reference_init, 0, cfg.h, W, five_agent, k5_network, cfg)
    assert hashes == []
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def _gate_grid(kind, scn):
    """Networks and gate arguments over kappa, c, pi and ``switching``."""
    base = scn.build_network()
    pi = (chain.stationary(scn.build_generator()) if kind == "switching"
          else np.array([1.0]))
    for kappa in (base.kappa, 0.0, 5.0):
        for c in (base.coupling, 1e-3, 50.0):
            net = Network(graphs=base.graphs, sigma=base.sigma if kappa else 0.0,
                          coupling=c, kappa=kappa)
            for given in (None, pi):
                for switching in (None, False, True):
                    yield net, given, switching


@pytest.mark.parametrize("kind", ["fixed", "switching"])
def test_gates_equal_the_two_branch_reference(kind, request):
    scn = request.getfixturevalue(f"{kind}_scenario")
    grid = list(_gate_grid(kind, scn))
    assert len(grid) == 54
    for net, pi, switching in grid:
        got = check_assumptions(net, pi, switching=switching).as_dict()
        assert got == check_assumptions_reference(net, pi, switching=switching).as_dict()


# ---------------------------------------------------------------------------
# equilibrium construction
# ---------------------------------------------------------------------------


def test_equilibrium_theta_blocks(five_agent, certificate, equilibrium):
    assert type(equilibrium) is SystemState and equilibrium.t == 0.0
    e5 = math.exp(5.0)
    assert np.allclose(equilibrium.theta[4], [-3.0 * e5, -e5], rtol=1e-12)
    # agent 2 has only the inactive constraint: theta = -grad f2 = (0, -8)
    assert np.allclose(equilibrium.theta[1], [0.0, -8.0], atol=1e-12)
    assert np.linalg.norm(equilibrium.theta.sum(axis=0)) <= 1e-6


def test_equilibrium_linear_cost_agent():
    p = Problem(n=2, agents=(AgentSpec(f=parse("4*x1", 2)),))
    cert = derive_multipliers(p, (0.0, 0.0))
    # the gradient never vanishes, so the certificate must refuse
    with pytest.raises(ValueError, match="residual"):
        build_equilibrium(p, cert)
    # but the block formula itself is visible through a balanced two-agent pair
    p2 = Problem(
        n=2,
        agents=(AgentSpec(f=parse("4*x1", 2)), AgentSpec(f=parse("-4*x1", 2))),
    )
    cert2 = derive_multipliers(p2, (0.0, 0.0))
    eq2 = build_equilibrium(p2, cert2)
    assert np.allclose(eq2.theta[0], [-4.0, 0.0], atol=1e-14)
    assert np.allclose(eq2.theta[1], [4.0, 0.0], atol=1e-14)


def test_equilibrium_equals_the_per_expression_reference(fixed_scenario, switching_scenario):
    pair = Problem(n=2, agents=(AgentSpec(f=parse("4*x1", 2)), AgentSpec(f=parse("-4*x1", 2))))
    cases = [(scn.build_problem(), scn.candidate()) for scn in (fixed_scenario, switching_scenario)]
    for problem, x in cases + [(pair, (0.0, 0.0))]:
        cert = derive_multipliers(problem, x)
        got, ref = build_equilibrium(problem, cert), build_equilibrium_reference(problem, cert)
        for name in ("x", "pair", "theta", "lam", "nu"):
            assert np.array_equal(getattr(got, name), getattr(ref, name))


def test_equilibrium_refuses_bad_certificate(five_agent):
    cert = derive_multipliers(five_agent, (0.0, 0.0))
    with pytest.raises(ValueError):
        build_equilibrium(five_agent, cert)


def test_equilibrium_refuses_unbalanced_theta_blocks(five_agent, certificate):
    # residuals within tolerance, but lambda moved off the stationary solve
    moved = dataclasses.replace(certificate, lambda_star=certificate.lambda_star + 1.0)
    with pytest.raises(ValueError, match=r"^theta blocks do not balance: \|sum theta\| = "):
        build_equilibrium(five_agent, moved)


def balanced_pair():
    return Problem(n=2, agents=(AgentSpec(f=parse("4*x1", 2)), AgentSpec(f=parse("-4*x1", 2))))


def without_the_equality():
    five = make_five_agent_problem()
    return Problem(n=2, agents=(dataclasses.replace(five.agents[0], h=()), *five.agents[1:]))


@pytest.mark.parametrize("problem, mismatch", [
    (balanced_pair, "the inequality multiplier count is 2, not 0"),
    (lambda: Problem(n=3, agents=(AgentSpec(f=parse("x1^2 + x2^2 + x3^2", 3)),)),
     "the dimension of x* is 2, not 3"),
    (without_the_equality, "the equality multiplier count is 1, not 0"),
    (lambda: Problem(n=2, agents=(*make_five_agent_problem().agents,
                                  AgentSpec(f=parse("x1^2", 2)))),
     "the gradient count is 8, not 9"),
], ids=["two-agents", "dimension", "equalities", "six-agents"])
def test_equilibrium_refuses_a_five_agent_certificate_of_another_problem(
        problem, mismatch, certificate):
    # a certificate fits only a problem of its own shape: the first
    # mismatch, in the order x*, multipliers, gradients, is named
    with pytest.raises(ValueError) as exc:
        build_equilibrium(problem(), certificate)
    assert str(exc.value) == f"certificate of another problem: {mismatch}"


def test_equilibrium_refuses_a_two_agent_certificate_of_the_five_agent_problem(five_agent):
    pair = balanced_pair()
    cert = derive_multipliers(pair, (0.0, 0.0))
    assert build_equilibrium(pair, cert).theta.shape == (2, 2)
    with pytest.raises(ValueError) as exc:
        build_equilibrium(five_agent, cert)
    assert str(exc.value) == ("certificate of another problem: the inequality multiplier "
                              "count is 0, not 2")


# ---------------------------------------------------------------------------
# refusals of malformed integrator inputs
# ---------------------------------------------------------------------------


def test_config_refuses_a_negative_lambda_floor():
    with pytest.raises(ValueError, match="^lambda_floor must be nonnegative$"):
        IntegratorConfig(lambda_floor=-1)


@pytest.mark.parametrize("stride", [2.5, 2.0, True, "2"], ids=["float", "whole-float", "bool",
                                                                "text"])
def test_config_refuses_a_stride_that_is_not_an_int(stride):
    # 2.5 failed in numpy's slicing, and True ran as stride 1
    with pytest.raises(ValueError, match=f"^output_stride must be an integer, got {stride!r}$"):
        IntegratorConfig(output_stride=stride)
    with pytest.raises(ValueError, match="^output stride must be at least 1$"):
        IntegratorConfig(output_stride=0)
    assert IntegratorConfig(output_stride=np.int64(2)).output_stride == 2


def test_an_empty_seed_list_is_refused_before_any_step():
    # a run failed in the initial theta-sum check with max()'s message; the
    # config refuses it, also when it replaces a config's seed
    cfg = IntegratorConfig(h=1e-3, horizon=0.01)
    with pytest.raises(ValueError, match="^cfg\\.seed is an empty list: a batch needs at "
                                         "least one noise seed$"):
        dataclasses.replace(cfg, seed=[])


@pytest.mark.parametrize("field, value", [("output_stride", 0), ("h", -1e-3)])
def test_config_is_frozen_and_a_replaced_setting_is_checked_again(field, value):
    # assigned after construction, a stride of 0 divided by zero and a
    # negative step ran "-9 samples" into the memory check
    cfg = IntegratorConfig(h=1e-3, horizon=0.01)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, field, value)
    with pytest.raises(ValueError):
        dataclasses.replace(cfg, **{field: value})


@pytest.mark.parametrize("strict", [0, "false", None])
def test_config_refuses_a_strict_flag_that_is_not_a_bool(strict):
    with pytest.raises(ValueError, match=f"^strict must be true or false, got {strict!r}$"):
        IntegratorConfig(strict=strict)


def test_config_off_grid_names_the_steps_a_run_takes():
    assert IntegratorConfig(h=1e-3, horizon=0.01).off_grid() is None
    cfg = IntegratorConfig(h=1e-3, horizon=0.0105)
    assert cfg.n_steps == 10
    assert cfg.off_grid() == ("horizon 0.0105 is not a multiple of h=0.001; "
                              "running 10 steps to t=0.01")


@pytest.mark.parametrize("floor", [math.nan, math.inf], ids=["nan", "inf"])
def test_config_refuses_a_nonfinite_lambda_floor(floor):
    # a nan or inf floor passes `< 0` and never clamps
    with pytest.raises(ValueError, match=f"^lambda_floor must be finite, got {floor}$"):
        IntegratorConfig(lambda_floor=floor)


@pytest.mark.parametrize("eta", [math.nan, math.inf, [1.0, math.nan], [math.inf, 1.0], -1.0],
                         ids=["nan", "inf", "entry-nan", "entry-inf", "negative"])
def test_model_refuses_an_eta_that_is_not_finite_and_positive(eta, five_agent, k5_network):
    # a nan eta ran into a misleading step-size error, an inf one froze
    # every multiplier
    with pytest.raises(ValueError, match="^eta entries must be finite and positive$"):
        _Model(five_agent, k5_network, eta)
    with pytest.raises(ValueError, match="^eta entries must be finite and positive$"):
        IntegratorConfig(eta=eta).eta_vector(2)


def test_model_refuses_an_eta_of_the_wrong_length(five_agent, k5_network):
    with pytest.raises(ValueError, match="^eta must be scalar or length 2$"):
        _Model(five_agent, k5_network, [1.0, 1.0, 1.0])


def test_model_refuses_a_network_of_another_node_count(five_agent):
    with pytest.raises(ValueError, match="^network has 1 nodes but problem has 5 agents$"):
        _Model(five_agent, single_node_network(), 1.0)


def test_simulate_refuses_a_path_per_member_of_the_wrong_count(
        five_agent, six_mode_network, six_mode_generator, reference_init):
    path = chain.sample_path(six_mode_generator, 0, 0.1, 0.2, 0)
    cfg = IntegratorConfig(h=1e-3, horizon=0.1, seed=[1, 2])
    with pytest.raises(ValueError, match="^1 chain paths for 2 members$"):
        simulate(five_agent, six_mode_network, [path], cfg, reference_init)


def test_simulate_refuses_a_path_shorter_than_the_integration(
        five_agent, six_mode_network, six_mode_generator, reference_init):
    path = chain.sample_path(six_mode_generator, 0, 0.1, 0.05, 0)
    cfg = IntegratorConfig(h=1e-3, horizon=0.1)
    with pytest.raises(ValueError, match="^chain path horizon shorter than the integration$"):
        simulate(five_agent, six_mode_network, path, cfg, reference_init)


@pytest.mark.parametrize("path, pi, message", [
    (-1, False, r"chain path of member 0: mode -1 is outside 0\.\.5"),
    (6, False, r"chain path of member 0: mode 6 is outside 0\.\.5"),
    (7, True, r"chain path of member 0: mode 7 is outside 0\.\.6"),
    (2.0, False, r"chain path of member 0: mode 2\.0 is outside 0\.\.5"),
    (True, False, r"chain path of member 0: mode True is outside 0\.\.5"),
    ("three-mode", False, r"chain path of member 0 switches among 3 modes; "
                          r"the network has 6 \(modes 0\.\.5\)"),
], ids=["mode-minus-1", "mode-6", "mode-7-given-pi", "mode-float", "mode-bool",
        "three-mode-path"])
def test_simulate_refuses_a_path_the_network_cannot_follow(
        path, pi, message, five_agent, six_mode_network, six_mode_generator, reference_init):
    # before any step: a mode outside the stacks (the averaged mode S counts
    # given pi), a mode that is not an int, or a path sampled from a
    # generator of another mode count
    if path == "three-mode":
        three = chain.validate_generator([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
        path = chain.sample_path(three, 0, 0.1, 0.1, 0)
    cfg = IntegratorConfig(h=1e-3, horizon=0.1, seed=1)
    stationary = chain.stationary(six_mode_generator) if pi else None
    with pytest.raises(ValueError, match=f"^{message}$"):
        simulate(five_agent, six_mode_network, path, cfg, reference_init, pi=stationary)


def test_a_numpy_int_mode_runs_as_that_mode(five_agent, six_mode_network, reference_init):
    cfg = IntegratorConfig(h=1e-3, horizon=0.01, seed=1)
    held, plain = (simulate(five_agent, six_mode_network, mode, cfg, reference_init)
                   for mode in (np.int64(2), 2))
    assert held.x.tobytes() == plain.x.tobytes()


@pytest.mark.parametrize("mode", [-1, True, 1.0, 6], ids=["minus-1", "bool", "float", "six"])
@pytest.mark.parametrize("helper", ["drift", "em_step"])
def test_helpers_refuse_a_mode_outside_the_model(helper, mode, five_agent, six_mode_network,
                                                 reference_init):
    # as _integrate does: -1 ran as mode 5 and True as mode 1, 1.0 and 6
    # failed with bare indexing errors
    cfg = IntegratorConfig(h=1e-3)

    def call(m):
        if helper == "drift":
            return drift(reference_init, m, five_agent, six_mode_network)
        return em_step(reference_init, m, cfg.h, np.full((5, 5), 0.01), five_agent,
                       six_mode_network, cfg)

    with pytest.raises(ValueError, match=f"^mode {re.escape(repr(mode))} is outside 0\\.\\.5$"):
        call(mode)
    want = call(5)
    got = call(np.int64(5))
    for a, b in zip(*((v.x, v.pair, v.lam, v.nu) if helper == "em_step" else v
                      for v in (want, got))):
        assert a.tobytes() == b.tobytes()


def test_batch_refusal_names_the_member(five_agent, six_mode_network, reference_init):
    cfg = IntegratorConfig(h=1e-3, horizon=0.1, seed=[1, 2, 3])
    with pytest.raises(ValueError, match=r"^chain path of member 2: mode 6 is outside 0\.\.5$"):
        simulate(five_agent, six_mode_network, [0, 5, 6], cfg, reference_init)


# ---------------------------------------------------------------------------
# batches: members stacked on a leading axis
# ---------------------------------------------------------------------------


def _assert_member_equals_serial(member, serial):
    for name in ("times", "x", "theta", "lam", "nu"):
        assert np.array_equal(getattr(member, name), getattr(serial, name)), name
    assert member.clamp_count == serial.clamp_count
    for name in ("x", "pair", "lam", "nu", "t"):
        assert np.array_equal(getattr(member.final_state, name),
                              getattr(serial.final_state, name)), name


def test_noise_blocks_equal_successive_draws():
    # the batch draws each member's increments in chunks; a block followed
    # by a block must continue the stream exactly as per-substep draws do
    # (drawn into a buffer, as the schedule does, or as new arrays)
    ss = chain.trajectory_seeds(5, 3)[1]
    for first in (schedule.CHUNK_STEPS, 37):
        n = first + schedule.CHUNK_STEPS
        rng = np.random.default_rng(ss)
        serial = np.array([rng.standard_normal((5, 5)) for _ in range(n)])
        rng = np.random.default_rng(ss)
        blocks = np.concatenate([rng.standard_normal((first, 5, 5)),
                                 rng.standard_normal((n - first, 5, 5))])
        rng = np.random.default_rng(ss)
        buffer = np.empty((n, 5, 5))
        rng.standard_normal(out=buffer[:first])
        rng.standard_normal(out=buffer[first:])
        assert np.array_equal(blocks, serial) and np.array_equal(buffer, serial)


def test_switched_batch_members_equal_their_serial_runs(five_agent, six_mode_network,
                                                        six_mode_generator):
    # alpha=0.02: each member jumps about 0.14 times per step, at its own
    # instants, so rounds mix split and unsplit members; T spans two chunks
    pi = chain.stationary(six_mode_generator)
    h, T, M = 1e-3, 0.3, 7
    streams = [chain.trajectory_seeds(8, m) for m in range(M)]
    paths = [chain.sample_path(six_mode_generator, 0, 0.02, T + h, c) for c, _ in streams]
    split_steps = [{int(t // h) for t in p.times[1:] if t % h > 1e-12} for p in paths]
    assert all(split_steps) and len(set.union(*split_steps)) > max(map(len, split_steps))
    init = SystemState(X_INIT, np.zeros_like(X_INIT), [3.0, 3.0], [3.0])
    cfg = IntegratorConfig(h=h, horizon=T, seed=[n for _, n in streams], output_stride=1)
    batch = simulate(five_agent, six_mode_network, paths, cfg, init, pi=pi)
    assert len(batch.members) == M
    for m, (path, (_, noise)) in enumerate(zip(paths, streams)):
        serial = simulate(five_agent, six_mode_network, path,
                          dataclasses.replace(cfg, seed=noise), init, pi=pi)
        _assert_member_equals_serial(batch.members[m], serial)


def test_batch_with_a_jump_on_a_step_boundary(five_agent, six_mode_network):
    # h = 2^-10, so k*h is exact: member 0 jumps exactly at steps 5 and 9,
    # member 1 twice inside step 7, member 2 never
    h = 2.0 ** -10
    T = 16 * h

    def path(times, modes):
        return chain.SwitchPath(times=np.array(times), modes=np.array(modes),
                                alpha=1.0, horizon=T + h, n_modes=6)

    paths = [path([0.0, 5 * h, 9 * h], [0, 3, 1]),
             path([0.0, 7.25 * h, 7.5 * h], [2, 5, 4]),
             path([0.0], [1])]
    init = SystemState(X_INIT, np.zeros_like(X_INIT), [3.0, 3.0], [3.0])
    cfg = IntegratorConfig(h=h, horizon=T, seed=[11, 12, 13], output_stride=1)
    batch = simulate(five_agent, six_mode_network, paths, cfg, init)
    for m, p in enumerate(paths):
        serial = simulate(five_agent, six_mode_network, p,
                          dataclasses.replace(cfg, seed=11 + m), init)
        _assert_member_equals_serial(batch.members[m], serial)


def test_averaged_batch_members_equal_their_serial_runs(five_agent, six_mode_network,
                                                        six_mode_generator,
                                                        reference_init):
    pi = chain.stationary(six_mode_generator)
    seeds = [chain.trajectory_seeds(3, m)[1] for m in range(5)]
    cfg = IntegratorConfig(h=1e-3, horizon=0.3, seed=seeds, output_stride=7)
    batch = simulate_averaged(five_agent, six_mode_network, pi, cfg, reference_init)
    for member, seed in zip(batch.members, seeds):
        serial = simulate_averaged(five_agent, six_mode_network, pi,
                                   dataclasses.replace(cfg, seed=seed), reference_init)
        _assert_member_equals_serial(member, serial)


@pytest.mark.parametrize("members", [None, BATCH_KERNEL_ROWS], ids=["lone", "batch"])
def test_strided_samples_equal_the_stride_one_run_sliced(members, five_agent, six_mode_network,
                                                         six_mode_generator):
    # 600 steps span three chunks and are not a multiple of the stride; the
    # batch's jump splits step some rows in place between two samples
    h, T, stride = 1e-3, 0.6, 7
    streams = [chain.trajectory_seeds(5, m) for m in range(members or 1)]
    paths = [chain.sample_path(six_mode_generator, 0, 0.02, T + h, c) for c, _ in streams]
    noise = [n for _, n in streams]
    if members is None:
        paths, noise = paths[0], noise[0]
    init = SystemState(X_INIT, np.zeros_like(X_INIT), [3.0, 3.0], [3.0])
    runs = [simulate(five_agent, six_mode_network, paths,
                     IntegratorConfig(h=h, horizon=T, seed=noise, output_stride=k), init)
            for k in (stride, 1)]
    strided, every = ([run] if members is None else run.members for run in runs)
    for a, b in zip(strided, every):
        assert len(a.times) == 600 // stride + 1 and len(b.times) == 601
        for name in ("times", "x", "theta", "lam", "nu"):
            assert np.array_equal(getattr(a, name), getattr(b, name)[::stride]), name


def _member_axis_init(x_rows, lam=None):
    """Initial states of a one-agent, one-coordinate batch, one per row."""
    x = np.array(x_rows, dtype=float)[:, None, None]
    lam = np.zeros((len(x), 0)) if lam is None else np.array(lam, dtype=float)
    return SystemState._from_pair(x, x.copy(), lam, np.zeros((len(x), 0)), 0.0, 0)


def test_batch_counts_clamps_per_member():
    # strong multiplier decay with a big step: lam=0.5 and 0.25 cross the
    # floor on every step (back from it too), lam=1e3 never does within 3
    p = single_agent_problem(g=("-100",))
    net = single_node_network()
    lam0 = [0.5, 1e3, 0.25]
    init = _member_axis_init([0.0, 0.0, 0.0], lam=[[v] for v in lam0])
    cfg = IntegratorConfig(h=0.1, horizon=0.3, lambda_floor=1e-12, seed=[1, 2, 3])
    batch = simulate(p, net, None, cfg, init)
    assert [t.clamp_count for t in batch.members] == [3, 0, 3]
    assert batch.clamp_count == 6
    for m, member in enumerate(batch.members):
        serial = simulate(p, net, None, dataclasses.replace(cfg, seed=m + 1),
                          SystemState([[0.0]], [[0.0]], [lam0[m]], []))
        _assert_member_equals_serial(member, serial)




def test_batch_domain_failure_names_the_member():
    # only member 2 starts outside the domain of ln
    p = single_agent_problem(cost="ln(x1)")
    cfg = IntegratorConfig(h=1e-3, horizon=0.01, seed=[0, 1, 2, 3])
    with pytest.raises(IntegrationError, match=(
        r"^expression left its domain at t=0 \(mode 0, member 2\): "
        r"agent 1 cost 'ln\(x1\)': ln of nonpositive value"
    )) as info:
        simulate(p, single_node_network(), None, cfg, _member_axis_init([1.0, 2.0, -1.0, 3.0]))
    assert (info.value.member, info.value.start) == (2, 0.0)


def test_batch_failure_in_an_averaged_member_names_it():
    # members 0-2 hold the averaged mode S = 1 of a one-node network, 3-5
    # run mode 0; averaged member 2 starts outside the domain of ln
    p = single_agent_problem(cost="ln(x1)")
    pi = np.array([1.0])
    cfg = IntegratorConfig(h=1e-3, horizon=0.01, seed=list(range(6)))
    init = _member_axis_init([1.0, 2.0, -1.0, 3.0, 4.0, 5.0])
    with pytest.raises(IntegrationError, match=(
        r"^expression left its domain at t=0 \(averaged, member 2\): "
        r"agent 1 cost 'ln\(x1\)': ln of nonpositive value -1\.0$"
    )):
        simulate(p, single_node_network(), [1, 1, 1, None, None, None], cfg, init, pi=pi)


def _padded(x_rows, padded):
    """``x_rows``, padded with healthy members (at 0.5) to BATCH_KERNEL_ROWS
    when ``padded``: a round that runs the numpy update, fails there and is
    rerun member by member."""
    return x_rows + [0.5] * (BATCH_KERNEL_ROWS - len(x_rows)) if padded else x_rows


@pytest.mark.parametrize("padded", [False, True], ids=["as-is", "padded"])
def test_batch_nonfinite_failure_names_the_member(padded):
    # exp overflows to inf at x=1000: member 1's state goes nonfinite at t=h
    p = single_agent_problem(cost="exp(x1)")
    x_rows = _padded([0.0, 1000.0, 0.5], padded)
    cfg = IntegratorConfig(h=1e-3, horizon=0.01, seed=list(range(len(x_rows))))
    with pytest.raises(IntegrationError, match=(
        r"^nonfinite state at t=0\.001 \(mode 0, member 1\): "
        r"step size too large for this problem's stiffness$"
    )) as info:
        simulate(p, single_node_network(), None, cfg, _member_axis_init(x_rows))
    assert (info.value.member, info.value.start) == (1, 0.0)
    assert ("batch_kernel" in vars(p)) == padded


@pytest.mark.parametrize("padded", [False, True], ids=["as-is", "padded"])
def test_batch_failure_ties_go_to_the_lowest_member(padded):
    # members 1 and 3 both fail at t=0, member 3 in the drift's domain
    # check and member 1 only after it, in the finiteness check
    p = single_agent_problem(cost="ln(x1 + 2000) + exp(x1)")
    x_rows = _padded([0.0, 1000.0, 0.5, -3000.0], padded)
    cfg = IntegratorConfig(h=1e-3, horizon=0.01, seed=list(range(len(x_rows))))
    with pytest.raises(IntegrationError, match=(
        r"^nonfinite state at t=0\.001 \(mode 0, member 1\): "
        r"step size too large for this problem's stiffness$"
    )) as info:
        simulate(p, single_node_network(), None, cfg, _member_axis_init(x_rows))
    assert info.value.member == 1 and info.value.start == 0.0
    assert ("batch_kernel" in vars(p)) == padded


def test_a_failing_held_round_steps_each_member_once(monkeypatch):
    # 17 members hold mode 0 of a fixed network, and members 5 and 11 start
    # outside the domain of ln: the numpy update fails, and one pass member
    # by member steps the other 15 as their lone substeps, keeps 5 and 11
    # where they are and collects their errors in row order
    p = single_agent_problem(cost="ln(x1)")
    x_rows = [-1.0 if m == 5 else -2.0 if m == 11 else 1.0 + m for m in range(17)]
    net = single_node_network()
    model = _Model(p, net, np.ones(0))
    each = []
    monkeypatch.setattr(model, "_each", lambda *a: each.append(a) or _Model._each(model, *a))
    init, h, W = _member_axis_init(x_rows), 1e-3, np.zeros((17, 1, 1))
    failures = []
    *new, clamped = model.step(init.x, init.pair, init.lam, init.nu, 0.0, h, 0, W, 1e-12,
                               np.arange(17), failures)
    assert len(each) == 1 and "batch_kernel" in vars(p)  # the numpy update ran first
    assert [(f.member, f.start) for f in failures] == [(5, 0.0), (11, 0.0)]
    assert [str(f) for f in failures] == [
        f"expression left its domain at t=0 (mode 0, member {m}): agent 1 cost 'ln(x1)': "
        f"ln of nonpositive value {x_rows[m]!r}" for m in (5, 11)]
    assert clamped.tolist() == [0] * 17
    for m, x0 in enumerate(x_rows):
        if m in (5, 11):
            want = [[x0], [x0]]
        else:
            want = _Model.step(model, [x0], [x0], [], [], 0.0, h, 0, W[m], 1e-12, m)[:2]
        got = [new[0][m].ravel().tolist(), new[1][m].ravel().tolist()]
        assert [[float.hex(v) for v in b] for b in got] == [[float.hex(v) for v in b]
                                                            for b in want], m
    # a run raises member 5's error at the end of its first step
    cfg = IntegratorConfig(h=h, horizon=0.01, seed=list(range(17)))
    with pytest.raises(IntegrationError) as info:
        _integrate(model, None, cfg, init, check_assumptions(net))
    assert str(info.value) == ("expression left its domain at t=0 (mode 0, member 5): "
                               "agent 1 cost 'ln(x1)': ln of nonpositive value -1.0")
    assert len(each) == 2


# cost, failing start, healthy start, jump and the exact message: one agent,
# no noise, x falls past ln's domain edge or blows up through exp.  Each
# failure falls in the second chunk of steps, off the samples of stride 11,
# in the substep just after a jump 0.9 h into its step
LONE_FAILURES = {
    "domain": ("5*x1 + ln(x1)", 2.0, 3.0, 0.3059,
               "expression left its domain at t=0.3059 (mode 1{}): agent 1 cost "
               "'5.0*x1 + ln(x1)': ln of nonpositive value -0.04369364776740328"),
    "nonfinite": ("x1 - exp(x1)", 1.2, 0.5, 0.3639,
                  "nonfinite state at t=0.364 (mode 1{}): "
                  "step size too large for this problem's stiffness"),
}


@pytest.mark.parametrize("batch", [False, True], ids=["lone", "batch"])
@pytest.mark.parametrize("kind", list(LONE_FAILURES))
def test_failure_after_a_jump_split_keeps_its_message(kind, batch):
    # a lone run raises at the failing substep with its time, mode and
    # expression; in a batch below BATCH_KERNEL_ROWS it also names member 1
    cost, x0, healthy, jump, message = LONE_FAILURES[kind]
    network = Network(graphs=(Graph(1), Graph(1)), sigma=0.0, coupling=1.0, kappa=0.0)

    def path(*jumps):
        return chain.SwitchPath(times=np.array([0.0, *jumps]), modes=np.arange(1 + len(jumps)),
                                alpha=1.0, horizon=2.0, n_modes=2)

    cfg = IntegratorConfig(h=1e-3, horizon=1.0, seed=1, output_stride=11)
    paths, init = path(jump), SystemState([[x0]], [[0.0]], [], [])
    if batch:
        cfg, paths = dataclasses.replace(cfg, seed=[1, 2, 3]), [path(), paths, path(0.5)]
        init = _member_axis_init([healthy, x0, healthy])
    with pytest.raises(IntegrationError, match="^" + re.escape(
            message.format(", member 1" if batch else "")) + "$"):
        simulate(single_agent_problem(cost), network, paths, cfg, init)


class _FailsAt(_Model):
    """A model whose step fails for member m at each substep starting at a
    time in ``fail_at[m]``, whatever the state.  It fails the member's own
    step: a round below BATCH_KERNEL_ROWS steps each member alone."""

    def __init__(self, problem, network, fail_at):
        super().__init__(problem, network, np.ones(problem.r))
        self.fail_at = fail_at

    def step(self, x, pair, lam, nu, t, h, mode, W, clamp_floor, members=None, failures=None):
        if isinstance(x, list) and t in self.fail_at.get(members, ()):
            raise self.failure("scripted failure", "test", t, 0.0, mode, members)
        return super().step(x, pair, lam, nu, t, h, mode, W, clamp_floor, members, failures)


# in step 3, member 0 splits once (at 3.5h), member 1 twice (3.1h, 3.2h) and
# member 2 not at all: round 0 (from 3h) holds all three with one substep
# length and mode each, round 1 members 0 and 1, round 2 member 1
H = 2.0 ** -10
BATCH_FAILURES = {
    # member 0's second substep (round 1, from 3.5h) fails before member
    # 1's third (round 2, from 3.2h) is taken, yet member 1's failure is
    # the earlier in time
    "later-round-earlier-in-time": ({0: (3.5 * H,), 1: (3.2 * H,)}, 0.003125, 3, 1),
    # member 1 fails in the first, full round; members 0 and 2 step on
    "first-round": ({0: (3.5 * H,), 1: (3 * H,)}, 0.00292969, 0, 1),
    # the whole round fails: every member keeps its state, and the lowest
    # member wins
    "whole-round": ({0: (3 * H,), 1: (3 * H,), 2: (3 * H,)}, 0.00292969, 0, 0),
    # member 0 fails twice in the step, member 1 in between
    "twice-in-one-step": ({0: (3 * H, 3.5 * H), 1: (3.2 * H,)}, 0.00292969, 0, 0),
}


@pytest.mark.parametrize("case", list(BATCH_FAILURES))
def test_batch_failure_earliest_in_time_wins_across_rounds(case, five_agent, six_mode_network):
    fail_at, t, mode, member = BATCH_FAILURES[case]
    T = 8 * H

    def path(times, modes):
        return chain.SwitchPath(times=np.array(times), modes=np.array(modes),
                                alpha=1.0, horizon=T + H, n_modes=6)

    paths = [path([0.0, 3.5 * H], [0, 1]), path([0.0, 3.1 * H, 3.2 * H], [0, 2, 3]),
             path([0.0], [4])]
    model = _FailsAt(five_agent, six_mode_network, fail_at)
    cfg = IntegratorConfig(h=H, horizon=T, seed=[1, 2, 3])
    init = SystemState(X_INIT, np.zeros_like(X_INIT), [3.0, 3.0], [3.0])
    report = check_assumptions(six_mode_network, switching=True)
    with pytest.raises(IntegrationError, match="^" + re.escape(
            f"scripted failure at t={t} (mode {mode}, member {member}): test") + "$"):
        _integrate(model, paths, cfg, init, report)
