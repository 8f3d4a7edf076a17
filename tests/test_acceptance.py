"""Acceptance suite.

Each test prints one ``ACCEPTANCE <nn> <name>: PASS|FAIL`` line before its
assertions so the verdicts survive in the log either way.  Criteria 2 and 3
assert convergence targets that this algorithm does not meet at the stated
horizons; they are implemented exactly as stated and allowed to fail, and a
supplementary long-horizon run at the end demonstrates where convergence
actually lands.  Runtime bounds are asserted where stated.
"""

import math
import time

import numpy as np
import pytest

from switchopt import analysis, averaging, chain, dynamics
from switchopt.dynamics import IntegratorConfig, SystemState
from switchopt.expr import DomainError, parse
from switchopt.graph import Graph, Network, laplacian, stack
from switchopt.problem import derive_multipliers, total_cost

from conftest import SIX_GRAPHS, X_INIT, X_STAR, complete_graph
from oracles import fd_gradient
from test_expr import random_expr_text

RESULTS: dict = {"clamp_counts": {}}


def verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {status}" + (f" ({detail})" if detail else ""))
    return ok


def fresh_init():
    return SystemState(X_INIT, np.zeros_like(X_INIT), [3.0, 3.0], [3.0])


# ---------------------------------------------------------------------------


def test_criterion_01_optimum_certification(five_agent):
    t0 = time.monotonic()
    cert = derive_multipliers(five_agent, X_STAR)
    cost = total_cost(five_agent, X_STAR)
    elapsed = time.monotonic() - t0
    ok = (
        cert.residuals["stationarity"] <= 1e-6
        and cert.residuals["primal_ineq"] <= 1e-8
        and cert.residuals["primal_eq"] <= 1e-8
        and cert.residuals["complementarity"] <= 1e-8
        and np.all(cert.lambda_star >= 0.0)
        and abs(cost - 172.41) <= 0.01
        and elapsed < 1.0
    )
    verdict(1, "optimum-certification", ok,
            f"cost={cost:.4f}, stationarity={cert.residuals['stationarity']:.2e}, "
            f"{elapsed:.3f}s")
    assert cert.residuals["stationarity"] <= 1e-6
    assert cert.residuals["primal_ineq"] <= 1e-8
    assert cert.residuals["primal_eq"] <= 1e-8
    assert cert.residuals["complementarity"] <= 1e-8
    assert np.all(cert.lambda_star >= 0.0)
    assert cost == pytest.approx(172.41, abs=0.01)
    assert elapsed < 1.0


def test_criterion_02_fixed_network_convergence(five_agent):
    # pinned: K5, kappa=0.5, c=1, h=1e-3, theta(0)=0, lambda(0)=3, nu(0)=3,
    # the reference initial states, T=50, 20 seeds, target 0.05 for >= 19/20
    net = Network(graphs=(complete_graph(5),), sigma=0.3, coupling=1.0, kappa=0.5)
    t0 = time.monotonic()
    # the 20 seeds as one batch, member k bit for bit its serial run
    noise = [chain.trajectory_seeds(20260801, seed_index)[1] for seed_index in range(20)]
    cfg = IntegratorConfig(h=1e-3, horizon=50.0, eta=1.0, lambda_floor=0.0,
                           seed=noise, output_stride=50_000)
    run = dynamics.simulate(five_agent, net, None, cfg, fresh_init())
    clamps = run.clamp_count
    errors = [float(np.linalg.norm(traj.final_state.x - X_STAR, axis=1).max())
              for traj in run.members]
    elapsed = time.monotonic() - t0
    RESULTS["clamp_counts"]["criterion_02"] = clamps
    passes = sum(e <= 0.05 for e in errors)
    ok = passes >= 19 and elapsed < 120.0
    verdict(2, "fixed-network-convergence", ok,
            f"{passes}/20 seeds within 0.05 at T=50; "
            f"errors {min(errors):.3f}..{max(errors):.3f}; {elapsed:.0f}s")
    assert elapsed < 120.0
    assert passes >= 19, (
        f"only {passes}/20 seeds reached the 0.05 target at T=50 "
        f"(errors {min(errors):.3f}..{max(errors):.3f}); the integral-action "
        "states must reach exponential-scale values through consensus "
        "disagreement alone, which takes t of roughly 1.3e3 on this problem "
        "(see the supplementary long-horizon check)"
    )


def test_criterion_03_switching_and_averaged_convergence(five_agent,
                                                         six_mode_network,
                                                         six_mode_generator):
    # horizon is not pinned by the criterion; T=50 is the largest horizon
    # that keeps the 40-trajectory study inside the stated runtime bound
    T = 50.0
    pi = chain.stationary(six_mode_generator)
    avg = averaging.average_laplacian(six_mode_network, pi)
    t0 = time.monotonic()
    # one batch over the mode-S stacks: 20 averaged members held in the
    # averaged mode S, then 20 switched ones, seed k driving both member k's
    streams = [chain.trajectory_seeds(77, seed_index) for seed_index in range(20)]
    paths = [six_mode_network.n_modes] * 20 + [
        chain.sample_path(six_mode_generator, 0, 0.01, T + 1e-3, chain_ss)
        for chain_ss, _ in streams]
    cfg = IntegratorConfig(h=1e-3, horizon=T, eta=1.0, lambda_floor=0.0,
                           seed=[noise_ss for _, noise_ss in streams] * 2,
                           output_stride=int(T * 1000))
    run = dynamics.simulate(five_agent, six_mode_network, paths, cfg, fresh_init(), pi=pi)
    clamps = run.clamp_count
    errors = [float(np.linalg.norm(traj.final_state.x - X_STAR, axis=1).max())
              for traj in run.members]
    avg_errors, sw_errors = errors[:20], errors[20:]
    elapsed = time.monotonic() - t0
    RESULTS["clamp_counts"]["criterion_03"] = clamps
    avg_passes = sum(e <= 0.05 for e in avg_errors)
    sw_passes = sum(e <= 0.10 for e in sw_errors)
    ok = avg_passes >= 19 and sw_passes >= 19 and elapsed < 300.0
    verdict(3, "averaged-and-switched-convergence", ok,
            f"averaged {avg_passes}/20 within 0.05 "
            f"(errors {min(avg_errors):.3f}..{max(avg_errors):.3f}); "
            f"switched {sw_passes}/20 within 0.10 "
            f"(errors {min(sw_errors):.3f}..{max(sw_errors):.3f}); {elapsed:.0f}s")
    assert elapsed < 300.0
    assert avg_passes >= 19 and sw_passes >= 19, (
        f"averaged {avg_passes}/20 within 0.05, switched {sw_passes}/20 "
        f"within 0.10 at T={T}; the averaged coupling lambda2 is "
        f"{avg.lambda2_pi:.3f}, an order of magnitude weaker than the "
        "complete graph, so the dual slow mode is slower still; the targets "
        "are unreachable inside the stated runtime bound"
    )


def test_criterion_04_weak_convergence_in_alpha(five_agent, six_mode_network,
                                                six_mode_generator):
    t0 = time.monotonic()
    report = averaging.weak_convergence_experiment(
        five_agent, six_mode_network, six_mode_generator,
        alphas=[0.5, 0.1, 0.02], ensemble=200, T=1.0, seed=20260801,
        init=fresh_init(),
        cfg=IntegratorConfig(h=1e-3, horizon=1.0, eta=1.0, lambda_floor=0.0),
    )
    # single-mode control: same problem on the union graph, one chain state
    union_edges = set()
    for g in SIX_GRAPHS:
        union_edges |= set(g.edges)
    union = Graph(5, frozenset(union_edges))
    control_net = Network(graphs=(union,), sigma=0.15, coupling=1.0, kappa=0.5)
    control = averaging.weak_convergence_experiment(
        five_agent, control_net, chain.validate_generator([[0.0]]),
        alphas=[0.5, 0.02], ensemble=200, T=1.0, seed=20260801,
        init=fresh_init(),
        cfg=IntegratorConfig(h=1e-3, horizon=1.0, eta=1.0, lambda_floor=0.0),
    )
    elapsed = time.monotonic() - t0

    errs = {e["alpha"]: e for e in report["per_alpha"]}
    control_z = max(e["max_component_z"] for e in control["per_alpha"])
    control_null = control_z <= 3.5
    ok = (report["separated"] and report["monotone_within_2sem"]
          and control_null and elapsed < 600.0)
    verdict(4, "weak-convergence-in-alpha", ok,
            f"err: 0.5->{errs[0.5]['err']:.3f}, 0.1->{errs[0.1]['err']:.3f}, "
            f"0.02->{errs[0.02]['err']:.3f}; separation "
            f"{report['separation']:.3f} > {report['separation_threshold_2sem']:.3f}; "
            f"control max z {control_z:.2f}; {elapsed:.0f}s")
    RESULTS["clamp_counts"]["criterion_04"] = (
        report["clamp_count_total"] + control["clamp_count_total"]
    )
    assert elapsed < 600.0
    assert report["separated"], report
    assert report["monotone_within_2sem"], report
    assert control_null, control


def test_criterion_05_noise_cancellation_identity(five_agent):
    # sigma = 1 as stated; coupling 0.6 keeps the gates satisfied
    net = Network(graphs=(complete_graph(5),), sigma=1.0, coupling=0.6, kappa=1.0)
    cfg = IntegratorConfig(h=1e-3, horizon=100.0, eta=1.0, lambda_floor=0.0)
    rng = np.random.default_rng(3)
    st = fresh_init()
    n_steps = 100_000
    for _ in range(n_steps):
        W = rng.standard_normal((5, 5)) * math.sqrt(cfg.h)
        dx, dth, _, _ = dynamics.drift(st, 0, five_agent, net, 1.0)
        expected_pair = st.pair + cfg.h * (dx + dth)
        st = dynamics.em_step(st, 0, cfg.h, W, five_agent, net, cfg)
        if not np.array_equal(st.pair, expected_pair):
            verdict(5, "noise-cancellation-identity", False,
                    f"bit mismatch at t={st.t:.3f}")
            raise AssertionError("pair update deviated from the drift expression")
    verdict(5, "noise-cancellation-identity", True,
            f"{n_steps} steps, 0 ulps deviation")


def test_criterion_06_lambda_positivity_no_clamps():
    missing = {"criterion_02", "criterion_03", "criterion_04"} - set(
        RESULTS["clamp_counts"]
    )
    if missing:
        pytest.skip(f"needs the runs from {sorted(missing)} in this session")
    total = sum(RESULTS["clamp_counts"].values())
    ok = total == 0
    verdict(6, "multiplier-positivity", ok,
            f"clamp counts {RESULTS['clamp_counts']}")
    assert total == 0


def test_criterion_07_trace_bound(six_mode_network):
    rng = np.random.default_rng(5)
    kappa2 = six_mode_network.kappa ** 2
    worst = -math.inf
    for mode in range(six_mode_network.n_modes):
        Lk = stack(laplacian(six_mode_network.graphs[mode]), 2)
        for _ in range(1000):
            x = rng.normal(0.0, 3.0, (5, 2))
            st = SystemState(x, np.zeros_like(x), [1.0, 1.0], [1.0])
            M = dynamics.diffusion_matrix(st, mode, six_mode_network)
            tr = float(np.sum(M * M))
            bound = kappa2 * float(x.ravel() @ Lk @ x.ravel())
            worst = max(worst, tr - bound)
    ok = worst <= 1e-10
    verdict(7, "diffusion-trace-bound", ok, f"worst tr - bound = {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_08_stationary_distribution(six_mode_generator):
    dist = chain.stationary(six_mode_generator)
    resid = float(np.max(np.abs(six_mode_generator.Q.T @ dist.pi)))
    total = float(dist.pi.sum())
    mean_holding = 1.0 / float(np.mean(-np.diag(six_mode_generator.Q)))
    horizon = 1e4 * mean_holding
    path = chain.sample_path(six_mode_generator, 0, 1.0, horizon, seed=2024)
    occ = chain.occupation_fractions(path)
    occ_err = float(np.max(np.abs(occ - dist.pi)))
    ok = (resid <= 1e-12 and abs(total - 1.0) <= 1e-14
          and np.all(dist.pi > 0) and occ_err <= 0.02)
    verdict(8, "stationary-distribution", ok,
            f"residual={resid:.2e}, sum-1={total - 1.0:.2e}, "
            f"occupation err={occ_err:.4f} over {path.n_jumps} jumps")
    assert resid <= 1e-12
    assert abs(total - 1.0) <= 1e-14
    assert np.all(dist.pi > 0)
    assert occ_err <= 0.02


def test_criterion_09_noise_free_lyapunov_monotonicity(five_agent, certificate,
                                                       equilibrium):
    net = Network(graphs=(complete_graph(5),), sigma=0.0, coupling=1.0, kappa=0.0)
    cfg = IntegratorConfig(h=1e-3, horizon=20.0, eta=1.0, lambda_floor=0.0,
                           seed=0, output_stride=10)
    traj = dynamics.simulate(five_agent, net, None, cfg, fresh_init())
    omega = analysis.omega_from_certificate(certificate)
    metrics = analysis.convergence_metrics(traj, equilibrium, five_agent, 1.0, omega)
    V = metrics["V"]
    violations = [
        (float(t), float(a), float(b))
        for t, a, b in zip(metrics["t"][1:], V, V[1:])
        if b > a + 1e-9 * (1.0 + a)
    ]
    ok = not violations
    verdict(9, "noise-free-energy-monotonicity", ok,
            f"{len(V)} samples over T=20, V(0)={V[0]:.1f}, V(T)={V[-1]:.4f}"
            + (f"; first violation at t={violations[0][0]}" if violations else ""))
    assert not violations


def test_criterion_10_saddle_point_inequality(five_agent, equilibrium):
    L = laplacian(complete_graph(5))
    hbar = analysis.hbar_fixed(1.0, 0.5)
    report = analysis.saddle_point_samples(
        five_agent, equilibrium, hbar, L, n_samples=1000,
        rng=np.random.default_rng(14),
    )
    ok = report["min_left_slack"] >= -1e-9 and report["min_right_slack"] >= -1e-9
    verdict(10, "saddle-point-inequality", ok,
            f"min slacks {report['min_left_slack']:.3e} / "
            f"{report['min_right_slack']:.3e}")
    assert report["min_left_slack"] >= -1e-9
    assert report["min_right_slack"] >= -1e-9


def test_criterion_11_gradient_oracle():
    rng = np.random.default_rng(60481)
    checked = 0
    worst = 0.0
    while checked < 1000:
        n = int(rng.integers(1, 4))
        text = random_expr_text(rng, n)
        e = parse(text, n)
        x = rng.uniform(-1.0, 1.0, n)
        try:
            _, g = e.value_and_grad(x)
        except DomainError:
            continue
        if not np.all(np.isfinite(g)) or np.max(np.abs(g)) > 1e3:
            continue
        fd = fd_gradient(lambda y: e.value(y), x, step=1e-6)
        for ad_k, fd_k in zip(g, fd):
            rel = abs(ad_k - fd_k) / max(1e-2, abs(ad_k))
            worst = max(worst, rel)
            assert abs(ad_k - fd_k) <= max(1e-8, 1e-6 * abs(ad_k))
        checked += 1
    verdict(11, "gradient-oracle", True,
            f"1000 expressions, worst relative gap {worst:.2e}")


# ---------------------------------------------------------------------------
# supplementary evidence (not a criterion): the fixed-network run does reach
# the 0.05 target, at a horizon roughly 28x the one criterion 2 pins
# ---------------------------------------------------------------------------


def test_supplementary_long_horizon_convergence(five_agent):
    net = Network(graphs=(complete_graph(5),), sigma=0.3, coupling=1.0, kappa=0.5)
    noise_ss = chain.trajectory_seeds(20260801, 0)[1]
    cfg = IntegratorConfig(h=1e-3, horizon=1400.0, eta=1.0, lambda_floor=0.0,
                           seed=noise_ss, output_stride=1_400_000)
    traj = dynamics.simulate(five_agent, net, None, cfg, fresh_init())
    err = float(np.linalg.norm(traj.final_state.x - X_STAR, axis=1).max())
    print(f"\nSUPPLEMENTARY long-horizon: max_i |x_i(1400) - x*| = {err:.4f}")
    assert err <= 0.05
    assert traj.clamp_count == 0
