import math

import numpy as np
import pytest

from switchopt import chain, dynamics
from switchopt.averaging import (
    FactorizationError,
    averaged_diffusion_factor,
    simulate_averaged,
    weak_convergence_experiment,
)
from switchopt.chain import stationary, validate_generator
from switchopt.dynamics import IntegrationError, IntegratorConfig, SystemState, simulate
from switchopt.expr import parse
from switchopt.graph import Graph, Network, lambda2, laplacian
from switchopt.problem import AgentSpec, Problem

from conftest import X_INIT, drift_of_one


def test_single_mode_average_is_identity(k5_network):
    pi = np.array([1.0])
    L_pi, _ = k5_network.average(pi)
    assert np.allclose(L_pi, laplacian(k5_network.graphs[0]), atol=1e-15)


def test_uniform_average_of_three_edges_is_scaled_triangle():
    graphs = (
        Graph.from_edges(3, [(0, 1)]),
        Graph.from_edges(3, [(1, 2)]),
        Graph.from_edges(3, [(0, 2)]),
    )
    net = Network(graphs=graphs, sigma=0.1, coupling=1.0, kappa=0.2)
    pi = np.full(3, 1.0 / 3.0)
    L_pi, _ = net.average(pi)
    triangle = laplacian(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))
    assert np.allclose(L_pi, triangle / 3.0, atol=1e-15)
    assert lambda2(L_pi) == pytest.approx(1.0, abs=1e-12)


def test_disconnected_modes_jointly_connected_average():
    g1 = Graph.from_edges(4, [(0, 1), (2, 3)])
    g2 = Graph.from_edges(4, [(0, 2), (1, 3)])
    net = Network(graphs=(g1, g2), sigma=0.1, coupling=1.0, kappa=0.2)
    pi = np.array([0.5, 0.5])
    L_pi, _ = net.average(pi)
    assert lambda2(laplacian(g1)) == pytest.approx(0.0, abs=1e-12)
    assert lambda2(laplacian(g2)) == pytest.approx(0.0, abs=1e-12)
    assert lambda2(L_pi) > 0.4


def test_average_laplacian_structure(six_mode_network, six_mode_generator):
    pi = stationary(six_mode_generator)
    L, _ = six_mode_network.average(pi)
    assert np.max(np.abs(L - L.T)) == 0.0
    assert np.max(np.abs(L.sum(axis=1))) <= 1e-14
    assert np.linalg.eigvalsh(L)[0] >= -1e-12
    assert lambda2(L) > 0.25


def test_diffusion_factor_zero_at_consensus(six_mode_network, six_mode_generator):
    pi = stationary(six_mode_generator)
    x = np.tile([0.3, -1.0], (5, 1))
    st = SystemState(x, np.zeros_like(x), [1.0, 1.0], [1.0])
    M = averaged_diffusion_factor(st, six_mode_network, pi)
    assert np.all(M == 0.0)


def test_diffusion_factor_single_mode_reconstruction(k5_network):
    from switchopt.dynamics import diffusion_matrix

    rng = np.random.default_rng(8)
    pi = np.array([1.0])
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
            for m, p in enumerate(pi)
        )
        assert np.linalg.norm(Mbar @ Mbar.T - gamma, "fro") <= 1e-10
        # PSD, block-diagonal over the two coordinates of each agent
        evals = np.linalg.eigvalsh(Mbar)
        assert evals.min() >= -1e-12


def test_averaged_drift_is_mode_mixture(five_agent, six_mode_network, six_mode_generator):
    pi = stationary(six_mode_generator)
    L_pi, _ = six_mode_network.average(pi)
    rng = np.random.default_rng(4)
    from switchopt.dynamics import _Model

    # the averaged system is mode S of the model built with pi
    model = _Model(five_agent, six_mode_network, np.ones(2), pi)
    assert np.array_equal(model.L[model.averaged], L_pi)
    for _ in range(100):
        x = rng.normal(0.0, 1.5, (5, 2))
        pair = rng.normal(0.0, 1.5, (5, 2))
        lam = rng.uniform(0.1, 3.0, 2)
        nu = rng.normal(0.0, 1.0, 1)
        davg = drift_of_one(model, x, pair, lam, nu, model.averaged)
        mix = None
        for m, p in enumerate(pi):
            parts = drift_of_one(model, x, pair, lam, nu, m)
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
    finals = []
    for seed in (3, 999):
        cfg = IntegratorConfig(h=1e-3, horizon=1e-3, seed=seed, output_stride=1)
        traj = simulate_averaged(five_agent, six_mode_network, pi, cfg, reference_init.copy())
        finals.append(traj.final_state)
        # the diffusion factor reconstructs at every state the step visited
        for x, theta, lam, nu in zip(traj.x, traj.theta, traj.lam, traj.nu):
            averaged_diffusion_factor(SystemState(x, theta, lam, nu), six_mode_network, pi)
    pair1 = finals[0].pair
    pair2 = finals[1].pair
    assert np.array_equal(pair1, pair2)
    assert not np.array_equal(finals[0].x, finals[1].x)


def test_simulate_averaged_deterministic_given_seed(five_agent, six_mode_network,
                                                    six_mode_generator, reference_init):
    pi = stationary(six_mode_generator)
    cfg = IntegratorConfig(h=1e-3, horizon=0.2, seed=3, output_stride=200)
    t1 = simulate_averaged(five_agent, six_mode_network, pi, cfg, reference_init.copy())
    t2 = simulate_averaged(five_agent, six_mode_network, pi, cfg, reference_init.copy())
    assert np.array_equal(t1.x, t2.x)
    assert np.array_equal(t1.theta, t2.theta)


def test_simulate_averaged_sigma_zero_matches_switched_stepper(five_agent):
    # all modes share one graph, so the average equals that graph exactly and
    # the averaged system, run through the same stepper as the fixed one,
    # must reproduce it bit for bit at every sample
    g = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    net = Network(graphs=(g, g), sigma=0.0, coupling=1.0, kappa=0.0)
    pi = np.array([0.5, 0.5])
    cfg = IntegratorConfig(h=1e-3, horizon=0.5, seed=12, output_stride=100)
    init = SystemState(X_INIT, np.zeros_like(X_INIT), [3.0, 3.0], [3.0])
    t_avg = simulate_averaged(five_agent, net, pi, cfg, init.copy())
    t_fix = simulate(five_agent, net, None, cfg, init.copy())
    assert np.array_equal(net.average(pi)[0], laplacian(g))
    assert len(t_avg.times) == 6
    assert np.array_equal(t_avg.x, t_fix.x)
    assert np.array_equal(t_avg.theta, t_fix.theta)


def test_one_mode_averaged_run_equals_the_fixed_run(five_agent, k5_network, reference_init):
    # for one mode sqrt(w) is R and L_pi is L to the bit, so the averaged
    # run is the fixed run: same channel increments, same step
    pi = np.array([1.0])
    cfg = IntegratorConfig(h=1e-3, horizon=0.3, seed=17, output_stride=10)
    t_avg = simulate_averaged(five_agent, k5_network, pi, cfg, reference_init.copy())
    t_fix = simulate(five_agent, k5_network, None, cfg, reference_init.copy())
    for key in ("x", "theta", "lam", "nu"):
        assert np.array_equal(getattr(t_avg, key), getattr(t_fix, key)), key
    assert not np.array_equal(t_avg.x[-1], t_avg.x[0])


def test_channel_factor_squares_to_the_averaged_diffusion(five_agent, six_mode_network,
                                                         six_mode_generator):
    # G_i = [sqrt(w_ij) d_ij]_j, the factor the averaged run applies to the
    # channel increments, reproduces the PSD path's Gamma_i
    from switchopt.averaging import _diffusion_blocks
    from switchopt.dynamics import _Model

    pi = stationary(six_mode_generator)
    model = _Model(five_agent, six_mode_network, np.ones(2), pi)
    S = model.averaged
    _, wsq = six_mode_network.average(pi)
    rng = np.random.default_rng(2026)
    for _ in range(200):
        x = rng.normal(0.0, 2.0, (5, 2))
        gamma, _ = _diffusion_blocks(x, wsq)
        G = model.R[S][:, None, :] * (x[None, :, :] - x[:, None, :]).transpose(0, 2, 1)
        GGt = G @ G.transpose(0, 2, 1)
        assert np.max(np.abs(GGt - gamma)) <= 1e-12 * np.max(np.abs(gamma))
        W = rng.standard_normal((5, 5))
        noise = model.noise_term(x[None], S, W[None])[0]
        expected = model.c * np.einsum("inj,ij->in", G, W)
        assert np.max(np.abs(noise - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_channel_factor_run_matches_the_psd_factor_run_in_law(five_agent, six_mode_network,
                                                             six_mode_generator,
                                                             reference_init):
    # the two factors share G G^T, so the terminal states agree in law; 200
    # members each at T=0.5, independent streams
    from switchopt.dynamics import _Model
    from oracles import psd_factor_averaged_run

    pi = stationary(six_mode_generator)
    model = _Model(five_agent, six_mode_network, np.ones(2), pi)
    wsq = sum(p * six_mode_network.receive[m] ** 2 for m, p in enumerate(pi))
    members, h, T = 200, 1e-3, 0.5
    ours = np.empty((members, 10))
    ref = np.empty((members, 10))
    for m in range(members):
        _, noise_ss = chain.trajectory_seeds(41, m)
        cfg = IntegratorConfig(h=h, horizon=T, seed=noise_ss, lambda_floor=0.0,
                               output_stride=500)
        ours[m] = simulate_averaged(five_agent, six_mode_network, pi, cfg,
                                    reference_init.copy()).x[-1].ravel()
        ref[m] = psd_factor_averaged_run(
            lambda x, th, lam, nu: drift_of_one(model, x, x + th, lam, nu, model.averaged),
            model.c, wsq,
            reference_init.x, reference_init.theta, reference_init.lam, reference_init.nu,
            h, 500, np.random.default_rng([42, m]),
        ).ravel()
    v_ours, v_ref = ours.var(axis=0, ddof=1), ref.var(axis=0, ddof=1)
    z = (ours.mean(axis=0) - ref.mean(axis=0)) / np.sqrt((v_ours + v_ref) / members)
    assert np.max(np.abs(z)) <= 3.0, z
    ratio = v_ours / v_ref
    assert np.all((ratio >= 0.7) & (ratio <= 1.4)), ratio


def test_simulate_averaged_keeps_the_runtime_warning(five_agent, six_mode_network,
                                                     six_mode_generator, reference_init):
    pi = stationary(six_mode_generator)
    cfg = IntegratorConfig(h=1e-3, horizon=0.0105)
    with pytest.warns(RuntimeWarning, match="not a multiple of h"):
        simulate_averaged(five_agent, six_mode_network, pi, cfg, reference_init.copy())


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
    pi = stationary(six_mode_generator)
    init = SystemState(np.ones((5, 2)), np.zeros((5, 2)), lam, nu)
    cfg = IntegratorConfig(h=1e-3, horizon=1e-3)
    with pytest.raises(IntegrationError, match=r"nonfinite state at t=0\.001 \(averaged\)"):
        simulate_averaged(p, six_mode_network, pi, cfg, init)


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


def test_weak_convergence_noise_free_one_mode_study_has_zero_err_and_sem():
    # no noise and one mode: every member, switched or averaged, runs the same
    # path, so err is exactly 0 and sem takes its fallback, the mean
    # component variance, also 0
    p = Problem(n=1, agents=(AgentSpec(f=parse("x1^2", 1)), AgentSpec(f=parse("(x1 - 1)^2", 1))))
    net = Network(graphs=(Graph.from_edges(2, [(0, 1)]),), sigma=0.0, coupling=1.0, kappa=0.0)
    init = SystemState([[1.0], [-1.0]], [[0.0], [0.0]], [], [])
    report = weak_convergence_experiment(p, net, validate_generator([[0.0]]), [0.5, 0.1],
                                         ensemble=2, T=0.1, seed=0, init=init,
                                         cfg=IntegratorConfig(h=1e-2, lambda_floor=0.0))
    assert [(e["alpha"], e["err"], e["sem"]) for e in report["per_alpha"]] == [
        (0.5, 0.0, 0.0), (0.1, 0.0, 0.0)]


@pytest.mark.parametrize("floor", [0.0, 2.999])
def test_batched_study_equals_the_serial_loop(monkeypatch, floor, five_agent,
                                              six_mode_network, six_mode_generator):
    # each ensemble runs as one batch; every field of the report, floats bit
    # for bit, and the clamp total must equal the one-member-at-a-time
    # loop's.  Started at the optimum, agent 2's multiplier decays (its
    # constraint value is -3), so the high floor clamps it on every step.
    # The batch of 6 x 4 = 24 members stays on the scalar kernel, which
    # promises bit equality (the numpy kernel promises a few ulp).
    from oracles import serial_weak_convergence

    monkeypatch.setattr(dynamics, "BATCH_KERNEL_ROWS", 25)

    x0 = X_INIT if floor == 0.0 else np.tile([1.0, 2.0], (5, 1))
    init = SystemState(x0, np.zeros_like(x0), [3.0, 3.0], [3.0])
    cfg = IntegratorConfig(h=1e-3, horizon=1.0, lambda_floor=floor)
    args = (five_agent, six_mode_network, six_mode_generator, [0.5, 0.1, 0.02], 6, 0.06,
            21, init)
    report = weak_convergence_experiment(*args, cfg=cfg)
    serial = serial_weak_convergence(*args, cfg)
    assert report.pop("warnings") == []
    assert report == serial
    assert (report["clamp_count_total"] > 0) == (floor > 0.0)


def _study_args(five_agent, six_mode_network, six_mode_generator, ensemble):
    init = SystemState(X_INIT, np.zeros_like(X_INIT), [3.0, 3.0], [3.0])
    cfg = IntegratorConfig(h=1e-3, horizon=1.0, lambda_floor=0.0)
    return (five_agent, six_mode_network, six_mode_generator, [0.5, 0.1, 0.02], ensemble,
            0.06, 21, init), cfg


def test_merged_scalar_kernel_batch_equals_the_serial_loop(monkeypatch, five_agent,
                                                           six_mode_network,
                                                           six_mode_generator):
    # the averaged ensemble and three switched ones run as one batch of 40;
    # on the scalar kernel (the threshold raised past the batch) member k is
    # its serial run, so every field of the report is equal, floats bit for bit
    from oracles import serial_weak_convergence

    monkeypatch.setattr(dynamics, "BATCH_KERNEL_ROWS", 41)
    args, cfg = _study_args(five_agent, six_mode_network, six_mode_generator, 10)
    report = weak_convergence_experiment(*args, cfg=cfg)
    assert report.pop("warnings") == []
    assert report == serial_weak_convergence(*args, cfg)


def _close(got, want, rel=1e-12):
    """Floats within ``rel`` at the scale max(1, |v|), all else equal."""
    if isinstance(want, float):
        return isinstance(got, float) and abs(got - want) <= rel * max(1.0, abs(want))
    if isinstance(want, (list, dict)):
        keys = range(len(want)) if isinstance(want, list) else want
        return (type(got) is type(want) and len(got) == len(want)
                and all(_close(got[k], want[k], rel) for k in keys))
    return got == want


def test_merged_numpy_kernel_batch_agrees_with_the_serial_loop(monkeypatch, five_agent,
                                                               six_mode_network,
                                                               six_mode_generator):
    # every round on the numpy kernel, the small jump-split rounds too: the
    # report agrees with the serial loop within 1e-12 relative, and its
    # verdicts, counts and warnings are equal
    from oracles import serial_weak_convergence

    monkeypatch.setattr(dynamics, "BATCH_KERNEL_ROWS", 1)
    args, cfg = _study_args(five_agent, six_mode_network, six_mode_generator, 10)
    report = weak_convergence_experiment(*args, cfg=cfg)
    assert report.pop("warnings") == []
    assert _close(report, serial_weak_convergence(*args, cfg))


def test_study_failure_names_the_averaged_member(six_mode_network, six_mode_generator):
    # every member starts outside the domain of ln, so the batch fails at
    # t=0 on its lowest member: member 0 of the averaged ensemble, first
    p = Problem(n=2, agents=tuple(AgentSpec(f=parse("ln(x1)", 2)) for _ in range(5)))
    init = SystemState(-np.ones((5, 2)), np.zeros((5, 2)), [], [])
    with pytest.raises(IntegrationError, match=(
        r"^expression left its domain at t=0 \(averaged, member 0\): agent 1 cost"
    )):
        weak_convergence_experiment(p, six_mode_network, six_mode_generator, [0.5, 0.1],
                                    ensemble=3, T=0.01, seed=1, init=init)


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
    assert np.allclose(pi, 0.5)
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
    t_avg = simulate_averaged(p, net, pi, IntegratorConfig(h=1e-4, horizon=T,
                                                           lambda_floor=0.0,
                                                           output_stride=10_000),
                              init.copy())
    assert np.max(np.abs(t_avg.x[-1][:, 0] - z_ref[:3])) <= 1e-3


def test_weak_convergence_requires_decreasing_alphas(five_agent, six_mode_network,
                                                     six_mode_generator, reference_init):
    for alphas in ([0.1, 0.5], [0.5, 0.5]):
        with pytest.raises(ValueError, match="strictly decreasing"):
            weak_convergence_experiment(
                five_agent, six_mode_network, six_mode_generator, alphas,
                ensemble=4, T=0.1, seed=0, init=reference_init,
            )


@pytest.mark.parametrize("ensemble, seed, error, text", [
    (2.5, 0, ValueError, "^ensemble must hold at least 2 members$"),
    (True, 0, ValueError, "^ensemble must hold at least 2 members$"),
    (2, 2.5, chain.ChainError, "^root seed 2.5 is not a nonnegative integer$"),
    (2, True, chain.ChainError, "^root seed True is not a nonnegative integer$")],
    ids=["ensemble-float", "ensemble-bool", "seed-float", "seed-bool"])
def test_weak_convergence_refuses_a_count_or_seed_that_is_not_an_integer(
        ensemble, seed, error, text, five_agent, six_mode_network, six_mode_generator,
        reference_init):
    # seed 2.5 ran as seed 2 and True as 1; ensemble 2.5 ended in a bare TypeError
    with pytest.raises(error, match=text):
        weak_convergence_experiment(five_agent, six_mode_network, six_mode_generator,
                                    [0.5, 0.1], ensemble=ensemble, T=0.01, seed=seed,
                                    init=reference_init)


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


@pytest.mark.parametrize("T", [math.nan, math.inf, -1.0])
def test_weak_convergence_refuses_a_horizon_that_is_not_positive_and_finite(
        T, five_agent, six_mode_network, six_mode_generator, reference_init):
    with pytest.raises(ValueError, match=f"^horizon must be positive and finite, got {T}$"):
        weak_convergence_experiment(five_agent, six_mode_network, six_mode_generator,
                                    [0.5, 0.1], ensemble=2, T=T, seed=0, init=reference_init)
