import math

import numpy as np
import pytest

from switchopt import chain
from switchopt.averaging import (
    FactorizationError,
    average_laplacian,
    averaged_diffusion_factor,
    simulate_averaged,
    weak_convergence_experiment,
)
from switchopt.chain import stationary, validate_generator
from switchopt.dynamics import IntegrationError, IntegratorConfig, SystemState, simulate
from switchopt.expr import parse
from switchopt.graph import Graph, Network, lambda2, laplacian
from switchopt.problem import AgentSpec, Problem

from conftest import X_INIT


def test_single_mode_average_is_identity(k5_network):
    pi = chain.StationaryDist(np.array([1.0]))
    avg = average_laplacian(k5_network, pi)
    assert np.allclose(avg.L_pi, laplacian(k5_network.graphs[0]), atol=1e-15)


def test_uniform_average_of_three_edges_is_scaled_triangle():
    graphs = (
        Graph.from_edges(3, [(0, 1)]),
        Graph.from_edges(3, [(1, 2)]),
        Graph.from_edges(3, [(0, 2)]),
    )
    net = Network(graphs=graphs, sigma=0.1, coupling=1.0, kappa=0.2)
    pi = chain.StationaryDist(np.full(3, 1.0 / 3.0))
    avg = average_laplacian(net, pi)
    triangle = laplacian(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))
    assert np.allclose(avg.L_pi, triangle / 3.0, atol=1e-15)
    assert avg.lambda2_pi == pytest.approx(1.0, abs=1e-12)


def test_disconnected_modes_jointly_connected_average():
    g1 = Graph.from_edges(4, [(0, 1), (2, 3)])
    g2 = Graph.from_edges(4, [(0, 2), (1, 3)])
    net = Network(graphs=(g1, g2), sigma=0.1, coupling=1.0, kappa=0.2)
    pi = chain.StationaryDist(np.array([0.5, 0.5]))
    avg = average_laplacian(net, pi)
    assert lambda2(laplacian(g1)) == pytest.approx(0.0, abs=1e-12)
    assert lambda2(laplacian(g2)) == pytest.approx(0.0, abs=1e-12)
    assert avg.lambda2_pi > 0.4


def test_average_laplacian_structure(six_mode_network, six_mode_generator):
    pi = stationary(six_mode_generator)
    avg = average_laplacian(six_mode_network, pi)
    L = avg.L_pi
    assert np.max(np.abs(L - L.T)) == 0.0
    assert np.max(np.abs(L.sum(axis=1))) <= 1e-14
    assert np.linalg.eigvalsh(L)[0] >= -1e-12
    assert avg.lambda2_pi > 0.25


def test_diffusion_factor_zero_at_consensus(six_mode_network, six_mode_generator):
    pi = stationary(six_mode_generator)
    x = np.tile([0.3, -1.0], (5, 1))
    st = SystemState(x, np.zeros_like(x), [1.0, 1.0], [1.0])
    M = averaged_diffusion_factor(st, six_mode_network, pi)
    assert np.all(M == 0.0)


def test_diffusion_factor_single_mode_reconstruction(k5_network):
    from switchopt.dynamics import diffusion_matrix

    rng = np.random.default_rng(8)
    pi = chain.StationaryDist(np.array([1.0]))
    x = rng.normal(size=(5, 2))
    st = SystemState(x, np.zeros_like(x), [1.0, 1.0], [1.0])
    Mbar = averaged_diffusion_factor(st, k5_network, pi)
    M = diffusion_matrix(st, 0, k5_network)
    assert np.max(np.abs(Mbar @ Mbar.T - M @ M.T)) <= 1e-12


def test_diffusion_factor_random_states_reconstruction(six_mode_network, six_mode_generator):
    from switchopt.dynamics import diffusion_matrix

    pi = stationary(six_mode_generator)
    rng = np.random.default_rng(21)
    for _ in range(20):
        x = rng.normal(0.0, 2.0, (5, 2))
        st = SystemState(x, np.zeros_like(x), [1.0, 1.0], [1.0])
        Mbar = averaged_diffusion_factor(st, six_mode_network, pi)
        gamma = sum(
            p * diffusion_matrix(st, m, six_mode_network)
            @ diffusion_matrix(st, m, six_mode_network).T
            for m, p in enumerate(pi.pi)
        )
        assert np.linalg.norm(Mbar @ Mbar.T - gamma, "fro") <= 1e-10
        # PSD, block-diagonal over the two coordinates of each agent
        evals = np.linalg.eigvalsh(Mbar)
        assert evals.min() >= -1e-12


def test_averaged_drift_is_mode_mixture(five_agent, six_mode_network, six_mode_generator):
    pi = stationary(six_mode_generator)
    avg = average_laplacian(six_mode_network, pi)
    rng = np.random.default_rng(4)
    from switchopt.dynamics import _Model

    model = _Model(five_agent, six_mode_network, np.ones(2))
    for _ in range(100):
        x = rng.normal(0.0, 1.5, (5, 2))
        theta = rng.normal(0.0, 1.5, (5, 2))
        lam = rng.uniform(0.1, 3.0, 2)
        nu = rng.normal(0.0, 1.0, 1)
        davg = model.drift(x, theta, lam, nu, 0, L_override=avg.L_pi)
        mix = None
        for m, p in enumerate(pi.pi):
            parts = model.drift(x, theta, lam, nu, m)
            if mix is None:
                mix = [p * q for q in parts]
            else:
                mix = [acc + p * q for acc, q in zip(mix, parts)]
        for a, b in zip(davg, mix):
            scale = max(1.0, float(np.max(np.abs(b))))
            assert np.max(np.abs(a - b)) <= 1e-12 * scale


def test_simulate_averaged_single_step_pair_noise_free(five_agent, six_mode_network,
                                                       six_mode_generator, reference_init):
    # over one step from a shared state, the pair update carries no noise:
    # different seeds move x differently but the pair lands on the same bits
    pi = stationary(six_mode_generator)
    avg = average_laplacian(six_mode_network, pi)
    finals = []
    for seed in (3, 999):
        cfg = IntegratorConfig(h=1e-3, horizon=1e-3, seed=seed, output_stride=1)
        traj = simulate_averaged(five_agent, avg, cfg, reference_init.copy(),
                                 reconstruct_check_every=1)
        finals.append(traj.final_state)
    pair1 = finals[0].pair
    pair2 = finals[1].pair
    assert np.array_equal(pair1, pair2)
    assert not np.array_equal(finals[0].x, finals[1].x)


def test_simulate_averaged_deterministic_given_seed(five_agent, six_mode_network,
                                                    six_mode_generator, reference_init):
    pi = stationary(six_mode_generator)
    avg = average_laplacian(six_mode_network, pi)
    cfg = IntegratorConfig(h=1e-3, horizon=0.2, seed=3, output_stride=200)
    t1 = simulate_averaged(five_agent, avg, cfg, reference_init.copy())
    t2 = simulate_averaged(five_agent, avg, cfg, reference_init.copy())
    assert np.array_equal(t1.x, t2.x)
    assert np.array_equal(t1.theta, t2.theta)


def test_simulate_averaged_sigma_zero_matches_switched_stepper(five_agent):
    # all modes share one graph, so the average equals that graph exactly and
    # the averaged integrator must reproduce the switched one path for path
    g = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    net = Network(graphs=(g, g), sigma=0.0, coupling=1.0, kappa=0.0)
    pi = chain.StationaryDist(np.array([0.5, 0.5]))
    avg = average_laplacian(net, pi)
    cfg = IntegratorConfig(h=1e-3, horizon=0.5, seed=12, output_stride=100)
    init = SystemState(X_INIT, np.zeros_like(X_INIT), [3.0, 3.0], [3.0])
    t_avg = simulate_averaged(five_agent, avg, cfg, init.copy())
    t_fix = simulate(five_agent, net, None, cfg, init.copy())
    assert np.max(np.abs(t_avg.x[-1] - t_fix.x[-1])) <= 1e-12
    assert np.max(np.abs(t_avg.theta[-1] - t_fix.theta[-1])) <= 1e-12


@pytest.mark.parametrize("g, h, lam, nu", [
    (("1e308*x1 + 1e308",), (), [1.0], []),
    ((), ("1e308*x1 + 1e308",), [], [0.0]),
])
def test_simulate_averaged_rejects_nonfinite_multipliers(g, h, lam, nu, six_mode_network,
                                                         six_mode_generator):
    # at x1 = 1 the constraint value overflows to inf while its gradient stays
    # finite: one step leaves x and the pair finite but a multiplier infinite
    agent = AgentSpec(f=parse("x1^2", 2), g=tuple(parse(s, 2) for s in g),
                      h=tuple(parse(s, 2) for s in h))
    p = Problem(n=2, agents=(agent,) + tuple(AgentSpec(f=parse("x2^2", 2)) for _ in range(4)))
    avg = average_laplacian(six_mode_network, stationary(six_mode_generator))
    init = SystemState(np.ones((5, 2)), np.zeros((5, 2)), lam, nu)
    cfg = IntegratorConfig(h=1e-3, horizon=1e-3)
    with pytest.raises(IntegrationError, match=r"nonfinite state at t=0\.001 \(averaged\)"):
        simulate_averaged(p, avg, cfg, init)


def test_weak_convergence_single_mode_control_is_null(five_agent):
    # one mode: switched and averaged dynamics agree in law, so the gap is
    # pure Monte-Carlo noise
    g = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)] + [(0, 2)])
    net = Network(graphs=(g,), sigma=0.15, coupling=1.0, kappa=0.5)
    gen = validate_generator([[0.0]])
    init = SystemState(X_INIT, np.zeros_like(X_INIT), [3.0, 3.0], [3.0])
    report = weak_convergence_experiment(
        five_agent, net, gen, [0.5, 0.02], ensemble=60, T=0.5, seed=5,
        init=init,
        cfg=IntegratorConfig(h=2e-3, horizon=0.5, lambda_floor=0.0),
    )
    for entry in report["per_alpha"]:
        assert entry["err"] <= 4.0 * entry["sem"]
    assert report["monotone_within_2sem"]


def test_weak_convergence_linear_problem_matrix_exponential_oracle():
    # two symmetric modes, no noise, quadratic costs: the averaged flow is
    # linear, so its terminal state has a closed form via the matrix
    # exponential, and small alpha must drive the switched mean onto it
    import scipy.linalg

    n_agents = 3
    p = Problem(
        n=1,
        agents=tuple(
            AgentSpec(f=parse(f"{c}*x1^2", 1)) for c in (0.5, 1.0, 1.5)
        ),
    )
    g1 = Graph.from_edges(3, [(0, 1)])
    g2 = Graph.from_edges(3, [(1, 2)])
    net = Network(graphs=(g1, g2), sigma=0.0, coupling=1.0, kappa=0.0)
    gen = validate_generator([[-1.0, 1.0], [1.0, -1.0]])
    pi = stationary(gen)
    assert np.allclose(pi.pi, 0.5)
    L_pi = 0.5 * (laplacian(g1) + laplacian(g2))

    # averaged linear flow on (x, theta): dx = -(L_pi + K) x - theta,
    # dtheta = L_pi x, with K = diag(1, 2, 3) from the quadratic costs
    K = np.diag([1.0, 2.0, 3.0])
    A = np.block([[-(L_pi + K), -np.eye(3)], [L_pi, np.zeros((3, 3))]])
    z0 = np.array([1.0, -2.0, 0.5, 0.0, 0.0, 0.0])
    T = 1.0
    z_ref = scipy.linalg.expm(A * T) @ z0

    init = SystemState(z0[:3, None], np.zeros((3, 1)), [], [])
    cfg = IntegratorConfig(h=1e-3, horizon=T, lambda_floor=0.0)
    ens = 160
    finals = np.zeros((ens, 3))
    for m in range(ens):
        chain_ss, noise_ss = chain.trajectory_seeds(31, m)
        path = chain.sample_path(gen, 0, 0.004, T + 1e-3, chain_ss)
        run_cfg = IntegratorConfig(h=1e-3, horizon=T, seed=noise_ss,
                                   lambda_floor=0.0, output_stride=1000)
        traj = simulate(p, net, path, run_cfg, init.copy(), pi=pi)
        finals[m] = traj.x[-1][:, 0]
    mean = finals.mean(axis=0)
    assert np.max(np.abs(mean - z_ref[:3])) <= 1e-3 + 3.0 * finals.std(axis=0).max() / math.sqrt(ens)
    # the averaged integrator itself matches the exponential tightly
    avg = average_laplacian(net, pi)
    t_avg = simulate_averaged(p, avg, IntegratorConfig(h=1e-4, horizon=T,
                                                       lambda_floor=0.0,
                                                       output_stride=10_000),
                              init.copy())
    assert np.max(np.abs(t_avg.x[-1][:, 0] - z_ref[:3])) <= 1e-3


def test_weak_convergence_requires_decreasing_alphas(five_agent, six_mode_network,
                                                     six_mode_generator, reference_init):
    with pytest.raises(ValueError):
        weak_convergence_experiment(
            five_agent, six_mode_network, six_mode_generator, [0.1, 0.5],
            ensemble=4, T=0.1, seed=0, init=reference_init,
        )


def test_factorization_error_detectable(monkeypatch, six_mode_network, six_mode_generator):
    # force a residual failure by corrupting the block square roots
    import switchopt.averaging as avg_mod

    pi = stationary(six_mode_generator)
    x = np.random.default_rng(0).normal(size=(5, 2))
    st = SystemState(x, np.zeros_like(x), [1.0, 1.0], [1.0])

    original = avg_mod._diffusion_blocks

    def corrupted(x_, wsq):
        gamma, roots = original(x_, wsq)
        return gamma, roots + 1e-3
    monkeypatch.setattr(avg_mod, "_diffusion_blocks", corrupted)
    with pytest.raises(FactorizationError):
        averaged_diffusion_factor(st, six_mode_network, pi)
