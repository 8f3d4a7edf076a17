"""Self-test of the benchmark's tracer against independent recounts.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from switchopt import analysis, averaging, chain, cli, dynamics, problem  # noqa: E402
from switchopt.scenario import Scenario  # noqa: E402

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _traced_command(workload, tmp_path, seed=7, **overrides):
    """Run one shortened workload command under the tracer."""
    scn = workload.scenario(ROOT, seed)
    scn["integrator"].update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scn))
    out = tmp_path / "out"
    tracer = Tracer()
    with contextlib.redirect_stdout(io.StringIO()), tracer:
        assert cli.main(workload.argv(path, out)) == 0
    return scn, tracer, out


def _children(tracer, parent_name, child_name):
    spans = tracer.spans()
    return sum(1 for name, parent, _, _ in spans
               if name == child_name and parent >= 0 and spans[parent][0] == parent_name)


def test_imported_names_are_patched_in_every_module():
    original = problem.total_cost
    modules = (problem, analysis, averaging, cli)
    with Tracer():
        wrapped = problem.total_cost
        assert wrapped is not original
        assert all(m.total_cost is wrapped for m in modules)
        assert averaging.simulate is dynamics.simulate is not None
    assert all(m.total_cost is original for m in modules)


def test_switching_counts_match_the_mode_path(tmp_path):
    scn, tracer, _ = _traced_command(WORKLOADS["switching-long"], tmp_path, horizon=0.3)
    m = tracer.metrics()
    s = Scenario.from_dict(scn)
    h, horizon = s.build_config().h, s.build_config().horizon
    chain_ss, _ = chain.trajectory_seeds(s.root_seed(), 0)
    path = chain.sample_path(s.build_generator(), s.initial_mode(), s.alpha(),
                             horizon + h, chain_ss)
    n_steps = round(horizon / h)
    inside = int((path.times[1:] < n_steps * h).sum())
    assert path.n_jumps >= inside > 50
    assert m["chain.jumps"] == path.n_jumps
    assert m["dynamics.jump_splits"] == inside
    assert m["dynamics.step.calls"] == n_steps + inside
    assert m["dynamics.drift.calls"] == m["dynamics.step.calls"]
    assert _children(tracer, "dynamics.drift", "expr.value_and_grad") == 8 * m["dynamics.drift.calls"]
    assert m["expr.value_and_grad.calls"] > 8 * m["dynamics.drift.calls"]
    assert m["dynamics.model_builds"] == 1
    assert m["dynamics.planned_steps"] == n_steps


def test_compare_counts(tmp_path):
    wl = WORKLOADS["compare-ensemble"]
    _, tracer, _ = _traced_command(wl, tmp_path, horizon=0.02)
    m = tracer.metrics()
    members = wl.trajectories()
    assert m["averaging.weak_convergence_experiment.calls"] == 1
    assert m["averaging.simulate_averaged.calls"] == wl.ensemble
    assert m["dynamics.simulate.calls"] == members - wl.ensemble
    assert m["chain.sample_path.calls"] == members - wl.ensemble
    assert m["dynamics.model_builds"] == members
    assert m["averaging.diffusion_blocks.calls"] == wl.ensemble * 20
    assert m["expr.value_and_grad.calls"] == 8 * m["dynamics.drift.calls"]
    h = json.loads((tmp_path / "scenario.json").read_text())["integrator"]["step"]
    assert m["dynamics.planned_steps"] == (members - wl.ensemble) * round(0.02 / h)
    assert 0 < m["dynamics.jump_splits"] <= m["chain.jumps"]


def test_fixed_dense_counts(tmp_path):
    scn, tracer, out = _traced_command(WORKLOADS["fixed-dense"], tmp_path, horizon=0.05)
    m = tracer.metrics()
    samples = 51
    assert m["dynamics.step.calls"] == 50 and m["dynamics.jump_splits"] == 0
    assert m["analysis.lyapunov.calls"] == samples
    assert m["problem.total_cost.calls"] == samples + 1
    assert m["cli.csv.calls"] == 3
    assert m["cli.csv.bytes"] == sum(p.stat().st_size for p in out.glob("*.csv"))
    assert m["chain.jumps"] == 0


def test_self_time_excludes_children(tmp_path):
    _, tracer, _ = _traced_command(WORKLOADS["fixed-dense"], tmp_path, horizon=0.05)
    stats = tracer.summary()
    for st in stats.values():
        assert 0.0 <= st.self_s <= st.total_s
    step = stats["dynamics.step"]
    assert step.total_s >= step.self_s + stats["dynamics.drift"].total_s - 1e-9


@pytest.mark.parametrize("owner, attr, metric", [
    (dynamics._Model, "drift", "dynamics.drift.self_s"),
    (averaging, "_diffusion_blocks", "averaging.diffusion_blocks.self_s"),
    (cli, "_trajectory_csv", "cli.csv.self_s"),
])
def test_vanished_private_symbol_is_missing_not_zero(monkeypatch, owner, attr, metric):
    monkeypatch.delattr(owner, attr)
    with Tracer() as tracer:
        pass
    m = tracer.metrics()
    assert metric not in m
    assert metric.rsplit(".", 1)[0] in tracer.missing
    assert "dynamics.step.self_s" in m


def test_jump_splits_missing_without_step_hook(monkeypatch):
    monkeypatch.delattr(dynamics._Model, "step")
    with Tracer() as tracer:
        pass
    m = tracer.metrics()
    assert "dynamics.step.calls" not in m and "dynamics.jump_splits" not in m
    assert m["dynamics.drift.calls"] == 0


def test_runner_reports_every_listed_metric(tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    _, tracer, _ = _traced_command(WORKLOADS["compare-ensemble"], tmp_path, horizon=0.02)
    produced = set(tracer.metrics()) | {"trace.overhead_frac"}
    assert set(run.PER_LAYER) <= produced
