import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from switchopt.analysis import (
    bregman_divergence,
    convergence_metrics,
    generator_bound_series,
    hbar_fixed,
    hbar_switching,
    lagrangian_phi,
    lyapunov,
    omega_from_certificate,
    saddle_point_samples,
)
from switchopt.chain import StationaryDist
from switchopt.dynamics import Equilibrium, IntegratorConfig, SystemState, Trajectory, simulate
from switchopt.expr import parse
from switchopt.graph import Network, laplacian
from switchopt.problem import AgentSpec, Problem, total_cost
from conftest import X_INIT, X_STAR, complete_graph
from oracles import lyapunov_reference


@pytest.fixture(scope="module")
def omega(certificate):
    return omega_from_certificate(certificate)


def test_omega_contains_only_active_multiplier(certificate, omega):
    assert omega == frozenset({0})


def test_lyapunov_zero_at_equilibrium(five_agent, equilibrium, omega):
    rep = lyapunov(equilibrium.as_state(), equilibrium, 1.0, omega)
    assert rep.V <= 1e-12
    assert rep.V1 == rep.V2 == rep.V4 == 0.0
    assert rep.consensus_error <= 1e-12
    assert rep.opt_error <= 1e-12


def test_lyapunov_reduction_with_empty_omega(five_agent, equilibrium):
    # with no divergence indices, the multiplier terms are plain quadratics:
    # V2 + V3 = eta d^2 / 2 + d^2 per component
    eq = equilibrium
    d = np.array([0.25, -0.5])
    lam = np.clip(eq.lam + d, 1e-9, None)
    d_eff = lam - eq.lam
    st_ = SystemState(eq.x, eq.theta, lam, eq.nu)
    rep = lyapunov(st_, eq, 2.0, frozenset())
    expected = 0.5 * float(np.sum(2.0 * d_eff**2)) + float(np.sum(d_eff**2))
    assert rep.V2 + rep.V3 == pytest.approx(expected, rel=1e-12)


def test_bregman_value():
    assert bregman_divergence(2.0, 1.0) == pytest.approx(
        2.0 * math.log(2.0) - 1.0, rel=1e-14
    )
    assert bregman_divergence(2.0, 1.0) == pytest.approx(0.3863, abs=1e-4)


@given(
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=1e-3, max_value=10.0),
)
@settings(max_examples=300, deadline=None)
def test_bregman_nonnegative_property(a, b):
    d = bregman_divergence(a, b)
    assert d >= -1e-15
    if abs(a - b) > 1e-10:
        assert d > 0.0


def test_bregman_zero_iff_equal():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = float(rng.uniform(1e-3, 10.0))
        assert bregman_divergence(a, a) == 0.0


def test_bregman_rejects_nonpositive():
    with pytest.raises(ValueError):
        bregman_divergence(-1.0, 1.0)
    with pytest.raises(ValueError):
        bregman_divergence(1.0, 0.0)


def test_lyapunov_reports_bregman_terms(equilibrium, omega):
    lam = equilibrium.lam.copy()
    lam[0] = 2.0 * lam[0]
    st_ = SystemState(equilibrium.x, equilibrium.theta, lam, equilibrium.nu)
    rep = lyapunov(st_, equilibrium, 1.0, omega)
    assert set(rep.bregman_terms) == {0}
    assert rep.bregman_terms[0] == pytest.approx(
        bregman_divergence(lam[0], equilibrium.lam[0]), rel=1e-12
    )
    assert rep.V > 0.0


def test_lyapunov_requires_positive_multiplier_in_omega(equilibrium, omega):
    lam = equilibrium.lam.copy()
    lam[0] = 0.0
    st_ = SystemState(equilibrium.x, equilibrium.theta, lam, equilibrium.nu)
    with pytest.raises(ValueError):
        lyapunov(st_, equilibrium, 1.0, omega)


def test_hbar_values():
    assert hbar_fixed(1.0, 0.5) == pytest.approx(0.4375, abs=1e-15)
    pi = StationaryDist(np.array([0.25, 0.75]))
    # (c pi_min - 1.5 c^2 kappa^2 pi_max) / 2
    assert hbar_switching(1.0, 0.5, pi) == pytest.approx(
        0.5 * (0.25 - 1.5 * 0.25 * 0.75), rel=1e-14
    )


def test_phi_at_equilibrium_is_total_cost(five_agent, equilibrium):
    L = laplacian(complete_graph(5))
    hbar = hbar_fixed(1.0, 0.5)
    phi = lagrangian_phi(equilibrium.as_state(), five_agent, X_STAR, hbar, L)
    assert phi == pytest.approx(172.4131591025766, rel=1e-12)


def test_phi_reduces_to_psi_with_zero_multipliers(five_agent, equilibrium):
    L = laplacian(complete_graph(5))
    hbar = hbar_fixed(1.0, 0.5)
    rng = np.random.default_rng(9)
    x = X_INIT + rng.normal(0.0, 0.1, X_INIT.shape)
    st_full = SystemState(x, equilibrium.theta, np.zeros(2), np.zeros(1))
    phi = lagrangian_phi(st_full, five_agent, X_STAR, hbar, L)
    # recompute psi independently
    psi = sum(
        a.f.value(tuple(x[i])) for i, a in enumerate(five_agent.agents)
    )
    psi += float(np.sum((x - X_STAR) * equilibrium.theta))
    psi += hbar * float(x.ravel() @ np.kron(L, np.eye(2)) @ x.ravel())
    assert phi == pytest.approx(psi, rel=1e-12)


def test_saddle_point_sampled_inequalities(five_agent, equilibrium):
    L = laplacian(complete_graph(5))
    hbar = hbar_fixed(1.0, 0.5)
    report = saddle_point_samples(
        five_agent, equilibrium, hbar, L, n_samples=1000,
        rng=np.random.default_rng(2),
    )
    assert report["min_left_slack"] >= -1e-9
    assert report["min_right_slack"] >= -1e-9


def test_saddle_point_right_side_needs_positive_hbar(five_agent, equilibrium):
    # with a negative consensus weight the right inequality must break
    L = laplacian(complete_graph(5))
    report = saddle_point_samples(
        five_agent, equilibrium, -0.5, L, n_samples=200,
        rng=np.random.default_rng(2),
    )
    assert report["min_right_slack"] < 0.0


def test_convergence_metrics_at_equilibrium(five_agent, equilibrium, omega):
    net = Network(graphs=(complete_graph(5),), sigma=0.0, coupling=1.0, kappa=0.0)
    cfg = IntegratorConfig(h=1e-3, horizon=0.05, lambda_floor=0.0, output_stride=10)
    with pytest.warns(RuntimeWarning):
        traj = simulate(five_agent, net, None, cfg, equilibrium.as_state())
    m = convergence_metrics(traj, equilibrium, five_agent, 1.0, omega)
    assert np.max(m["V"]) <= 1e-10
    assert np.max(np.abs(m["cost_gap"])) <= 1e-8
    assert np.max(m["opt_error"]) <= 1e-9


def test_opt_error_at_reference_initial_states(five_agent, equilibrium, omega):
    st_ = SystemState(X_INIT, np.zeros_like(X_INIT), [3.0, 3.0], [3.0])
    rep = lyapunov(st_, equilibrium, 1.0, omega)
    assert rep.opt_error == pytest.approx(math.sqrt(52.0), rel=1e-12)


def test_noise_free_lyapunov_monotone_short_run(five_agent, equilibrium, omega, reference_init):
    net = Network(graphs=(complete_graph(5),), sigma=0.0, coupling=1.0, kappa=0.0)
    cfg = IntegratorConfig(h=1e-3, horizon=5.0, lambda_floor=0.0, seed=0,
                           output_stride=100)
    traj = simulate(five_agent, net, None, cfg, reference_init.copy())
    m = convergence_metrics(traj, equilibrium, five_agent, 1.0, omega)
    V = m["V"]
    for a, b in zip(V, V[1:]):
        assert b <= a + 1e-9 * (1.0 + a)


def test_generator_bound_series_reports(five_agent, equilibrium, omega, k5_network, reference_init):
    cfg = IntegratorConfig(h=1e-3, horizon=0.2, lambda_floor=0.0, output_stride=20)
    trajs = []
    for seed in range(4):
        c = IntegratorConfig(h=1e-3, horizon=0.2, lambda_floor=0.0,
                             seed=seed, output_stride=20)
        trajs.append(simulate(five_agent, k5_network, None, c, reference_init.copy()))
    L = laplacian(complete_graph(5))
    out = generator_bound_series(
        trajs, equilibrium, five_agent, 1.0, omega,
        hbar_fixed(1.0, 0.5), L, 5.0,
    )
    assert out["n_members"] == 4
    assert len(out["dissipation_estimate"]) == len(out["t"]) - 1
    assert np.all(np.isfinite(out["bound_mean"]))


@st.composite
def _energy_cases(draw):
    """Random shapes, omega subsets and values for the batched energy: an
    equilibrium, two trajectories over it and a problem of matching size."""
    N, n = draw(st.integers(1, 7)), draw(st.integers(1, 3))
    r, s, K = draw(st.integers(0, 4)), draw(st.integers(0, 3)), draw(st.integers(1, 12))
    omega = frozenset(draw(st.sets(st.integers(0, r - 1)))) if r else frozenset()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    eta = rng.uniform(0.1, 3.0, r) if draw(st.booleans()) else 0.5

    def multipliers(shape):
        lam = scale * rng.normal(size=shape)
        cols = sorted(omega)
        lam[..., cols] = np.exp(rng.normal(size=lam[..., cols].shape))
        return lam

    eq = Equilibrium(
        x=np.tile(scale * rng.normal(size=n), (N, 1)),
        theta=scale * rng.normal(size=(N, n)),
        lam=multipliers(r), nu=scale * rng.normal(size=s),
    )
    trajs = [
        Trajectory(
            times=0.1 * np.arange(K), x=scale * rng.normal(size=(K, N, n)),
            theta=scale * rng.normal(size=(K, N, n)), lam=multipliers((K, r)),
            nu=scale * rng.normal(size=(K, s)), clamp_count=0,
        )
        for _ in range(2)
    ]
    agents = [
        AgentSpec(
            f=parse(f"{i + 1}*x1^2 + x{n}", n),
            g=tuple(parse(f"x1 - {j}", n) for j in range(r) if j % N == i),
            h=tuple(parse(f"x{n} + {j}", n) for j in range(s) if j % N == i),
        )
        for i in range(N)
    ]
    return eq, trajs, Problem(n=n, agents=tuple(agents)), eta, omega


def _states(traj):
    return [SystemState(traj.x[k], traj.theta[k], traj.lam[k], traj.nu[k])
            for k in range(len(traj.times))]


@settings(max_examples=150, deadline=None)
@given(_energy_cases())
def test_batched_energy_bit_identical_to_per_state_oracle(case):
    eq, trajs, problem, eta, omega = case
    refs = [[lyapunov_reference(st_, eq, eta, omega) for st_ in _states(t)] for t in trajs]
    m = convergence_metrics(trajs[0], eq, problem, eta, omega)
    for key in ("V", "V1", "V2", "V3", "V4", "consensus_error", "opt_error"):
        assert np.array_equal(m[key], [ref[key] for ref in refs[0]]), key
    p_star = total_cost(problem, tuple(eq.x[0]))
    assert np.array_equal(m["cost_gap"], [
        total_cost(problem, x.mean(axis=0)) - p_star for x in trajs[0].x
    ])
    for st_, ref in zip(_states(trajs[0]), refs[0]):
        assert dataclasses.asdict(lyapunov(st_, eq, eta, omega)) == ref
    out = generator_bound_series(trajs, eq, problem, eta, omega, 0.25,
                                 np.eye(problem.n_agents), 1.0)
    mean_V = np.array([[ref["V"] for ref in member] for member in refs]).mean(axis=0)
    assert np.array_equal(out["mean_V"], mean_V)


@settings(max_examples=40, deadline=None)
@given(_energy_cases(), st.data())
def test_batched_energy_rejects_nonpositive_multiplier_in_omega(case, data):
    eq, trajs, problem, eta, omega = case
    assume(omega)
    traj = trajs[0]
    k = data.draw(st.integers(0, len(traj.times) - 1))
    j = data.draw(st.sampled_from(sorted(omega)))
    traj.lam[k, j] = data.draw(st.sampled_from([0.0, -0.5]))
    with pytest.raises(ValueError) as expected:
        for st_ in _states(traj):
            lyapunov_reference(st_, eq, eta, omega)
    message = re.escape(str(expected.value))
    assert str(expected.value).startswith(f"multiplier {j} must be positive")
    with pytest.raises(ValueError, match=f"^{message}$"):
        convergence_metrics(traj, eq, problem, eta, omega)
    with pytest.raises(ValueError, match=f"^{message}$"):
        lyapunov(_states(traj)[k], eq, eta, omega)
    with pytest.raises(ValueError, match=f"^{message}$"):
        generator_bound_series(trajs, eq, problem, eta, omega, 0.25,
                               np.eye(problem.n_agents), 1.0)


def test_batched_energy_bit_identical_on_a_long_trajectory(five_agent, equilibrium):
    # 20000 divergence terms: enough to expose a vectorized log that differs
    # from math.log in the last bit (about 0.07% of V3 terms), which the
    # small random cases rarely reach
    eq = dataclasses.replace(equilibrium, lam=np.array([1.7, 0.3]))
    rng = np.random.default_rng(11)
    K = 10000
    traj = Trajectory(
        times=1e-3 * np.arange(K), x=rng.normal(size=(K, 5, 2)),
        theta=rng.normal(size=(K, 5, 2)), lam=np.exp(rng.normal(size=(K, 2))),
        nu=rng.normal(size=(K, 1)), clamp_count=0,
    )
    omega = frozenset({0, 1})
    m = convergence_metrics(traj, eq, five_agent, 1.0, omega)
    refs = [lyapunov_reference(st_, eq, 1.0, omega) for st_ in _states(traj)]
    for key in ("V", "V1", "V2", "V3", "V4", "consensus_error", "opt_error"):
        assert np.array_equal(m[key], [ref[key] for ref in refs]), key
