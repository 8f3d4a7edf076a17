"""The CSV writers against per-value reference loops.

The reference writers format every value through ``repr(float(v))`` one
numpy scalar at a time; the library writers format ``.tolist()`` values a
block of ``CSV_BLOCK`` samples at a time.  Both must give the same bytes,
including for signed zeros, subnormals, large integral floats, non-finite
values, times off the step grid and block boundaries.
"""

import json

import numpy as np
import pytest

from switchopt import analysis, chain, dynamics
from switchopt.cli import (
    CSV_BLOCK, _metrics_csv, _multiplier_names, _multipliers_csv, _trajectory_csv, main,
)
from switchopt.problem import derive_multipliers, total_cost
from switchopt.scenario import load_scenario
from oracles import lyapunov_reference

METRIC_KEYS = ["t", "V", "V1", "V2", "V3", "V4", "consensus_error", "opt_error", "cost_gap"]


def _fmt(v):
    return repr(float(v))


def _header(scn, root_seed, mode):
    return f"# scenario_hash={scn.hash} root_seed={root_seed} mode={mode}"


def trajectory_csv_reference(header, traj, n):
    cols = ["t", "agent"] + [f"x{k + 1}" for k in range(n)] + [
        f"theta{k + 1}" for k in range(n)
    ]
    lines = [header, ",".join(cols)]
    for k, t in enumerate(traj.times):
        for i in range(traj.x.shape[1]):
            row = [
                _fmt(t),
                str(i + 1),
                *(_fmt(v) for v in traj.x[k, i]),
                *(_fmt(v) for v in traj.theta[k, i]),
            ]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def multipliers_csv_reference(header, traj, lam_names, nu_names):
    lines = [header, ",".join(["t", *lam_names, *nu_names])]
    for k, t in enumerate(traj.times):
        row = [_fmt(t), *(_fmt(v) for v in traj.lam[k]), *(_fmt(v) for v in traj.nu[k])]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def metrics_csv_reference(header, metrics):
    lines = [header, ",".join(METRIC_KEYS)]
    for k in range(len(metrics["t"])):
        lines.append(",".join(_fmt(metrics[key][k]) for key in METRIC_KEYS))
    return "\n".join(lines) + "\n"


AWKWARD = np.array([
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16, 1e22,
    3.0, -7.0, 0.1 + 0.2, 1.0 / 3.0, 123456789.0, 1e-7, np.inf, -np.inf, np.nan,
])


def _awkward_trajectory(K, N, n, r, s, seed):
    rng = np.random.default_rng(seed)

    def pick(*shape):
        return rng.choice(AWKWARD, size=shape) * rng.choice([1.0, 1.0, 0.5], size=shape)

    times = np.cumsum(rng.choice([0.1, 1e-3, 0.30000000000000004, 1e16], size=K))
    times[0] = -0.0
    return dynamics.Trajectory(
        times=times, x=pick(K, N, n), theta=pick(K, N, n),
        lam=pick(K, r), nu=pick(K, s), clamp_count=0,
    )


@pytest.mark.parametrize("K, N, n, r, s, seed", [
    (1, 1, 1, 0, 0, 0),
    (7, 5, 2, 2, 1, 1),
    (40, 3, 3, 4, 0, 2),
    (12, 7, 1, 0, 3, 3),
    (CSV_BLOCK - 1, 2, 1, 1, 1, 4),
    (CSV_BLOCK, 5, 2, 0, 0, 5),
    (CSV_BLOCK + 1, 3, 2, 2, 1, 6),
    (2 * CSV_BLOCK + 1, 1, 1, 0, 2, 7),
])
def test_writers_byte_equal_to_reference_loops(K, N, n, r, s, seed, fixed_scenario):
    traj = _awkward_trajectory(K, N, n, r, s, seed)
    lam_names = [f"lambda_{j + 1}" for j in range(r)]
    nu_names = [f"nu_{j + 1}" for j in range(s)]
    header = _header(fixed_scenario, fixed_scenario.root_seed(), "fixed")
    assert _trajectory_csv(header, traj, n) == trajectory_csv_reference(header, traj, n)
    assert _multipliers_csv(header, traj, lam_names, nu_names) == (
        multipliers_csv_reference(header, traj, lam_names, nu_names))
    rng = np.random.default_rng(seed)
    metrics = {key: rng.choice(AWKWARD, size=K) for key in METRIC_KEYS}
    metrics["t"] = traj.times
    assert _metrics_csv(header, metrics) == metrics_csv_reference(header, metrics)


def test_stride_one_fixed_run_matches_the_reference_pipeline(tmp_scenario_file, tmp_path):
    # the fixed-dense shape: K5, every step recorded; the written files must
    # equal the per-state energy oracle formatted by the per-value loops
    def mutate(d):
        d["integrator"]["horizon"] = 0.2
        d["integrator"]["output_stride"] = 1

    path = tmp_scenario_file(mutate)
    assert main(["simulate", str(path), "--seed", "3", "--out-dir", str(tmp_path)]) == 0

    scn = load_scenario(path)
    problem = scn.build_problem()
    cfg = scn.build_config(seed=chain.trajectory_seeds(3, 0)[1])
    traj = dynamics.simulate(problem, scn.build_network(), None, cfg, scn.build_init(problem))
    assert len(traj.times) == 201

    cert = derive_multipliers(problem, scn.candidate())
    eq = dynamics.build_equilibrium(problem, cert)
    omega = analysis.omega_from_certificate(cert)
    eta = cfg.eta_vector(problem.r)
    p_star = total_cost(problem, tuple(eq.x[0]))
    metrics = {key: np.empty(len(traj.times)) for key in METRIC_KEYS}
    metrics["t"] = traj.times
    for k in range(len(traj.times)):
        state = dynamics.SystemState(traj.x[k], traj.theta[k], traj.lam[k], traj.nu[k])
        ref = lyapunov_reference(state, eq, eta, omega)
        for key in METRIC_KEYS[1:-1]:
            metrics[key][k] = ref[key]
        metrics["cost_gap"][k] = total_cost(problem, traj.x[k].mean(axis=0)) - p_star

    lam_names, nu_names = _multiplier_names(problem)
    base = tmp_path / "five_agent_fixed.fixed"
    header = _header(scn, 3, "fixed")
    expected = {
        "trajectory": trajectory_csv_reference(header, traj, problem.n),
        "multipliers": multipliers_csv_reference(header, traj, lam_names, nu_names),
        "metrics": metrics_csv_reference(header, metrics),
    }
    for name, text in expected.items():
        assert base.with_name(f"{base.name}.{name}.csv").read_text() == text, name
    meta = json.loads(base.with_name(f"{base.name}.meta.json").read_text())
    assert meta["final"]["opt_error"] == metrics["opt_error"][-1]
