import json

import numpy as np
import pytest

from switchopt.cli import main
from switchopt.scenario import Scenario, ScenarioError, load_scenario, scenario_hash


def test_load_bundled_fixed_scenario(fixed_scenario):
    assert fixed_scenario.mode == "fixed"
    p = fixed_scenario.build_problem()
    assert p.n_agents == 5 and p.r == 2 and p.s == 1
    net = fixed_scenario.build_network()
    assert net.n_modes == 1
    assert net.kappa == 0.5
    init = fixed_scenario.build_init(p)
    assert np.array_equal(init.x[4], [-3.0, -4.0])
    assert np.all(init.lam == 3.0)


def test_load_bundled_switching_scenario(switching_scenario):
    net = switching_scenario.build_network()
    assert net.n_modes == 6
    gen = switching_scenario.build_generator()
    assert gen.n_modes == 6
    assert switching_scenario.alpha() == 0.01
    assert switching_scenario.initial_mode() == 0


def test_round_trip_identity(fixed_scenario):
    data = fixed_scenario.to_dict()
    again = Scenario.from_dict(data)
    assert again.to_dict() == data
    assert again.hash == fixed_scenario.hash


def test_hash_changes_with_content(fixed_scenario):
    data = fixed_scenario.to_dict()
    h0 = scenario_hash(data)
    data["integrator"]["seed"] = 999
    assert scenario_hash(data) != h0


def test_missing_field_reported(tmp_scenario_file):
    path = tmp_scenario_file(lambda d: d.pop("network"))
    with pytest.raises(ScenarioError, match="network"):
        load_scenario(path)


def test_bad_expression_names_agent(tmp_scenario_file):
    path = tmp_scenario_file(
        lambda d: d["problem"]["agents"][2].__setitem__("cost", "4*zz")
    )
    with pytest.raises(ScenarioError, match="agent 3"):
        load_scenario(path)


def test_dimension_mismatch_rejected(tmp_scenario_file):
    path = tmp_scenario_file(
        lambda d: d["init"].__setitem__("x", [[0.0, 0.0]] * 4)
    )
    with pytest.raises(ScenarioError, match="init.x"):
        load_scenario(path)


def test_invalid_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",')
    with pytest.raises(ScenarioError, match="line"):
        load_scenario(path)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_validate_ok_exit_zero(fixed_scenario_path, capsys):
    assert main(["validate", str(fixed_scenario_path)]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "slater_probe" in out


def test_validate_warns_on_infeasible_slater_probe(tmp_scenario_file, capsys):
    # on the equality line but violating the first inequality
    path = tmp_scenario_file(lambda d: d.__setitem__("slater_probe", [0.5, 1.0]))
    assert main(["validate", str(path)]) == 2
    assert "slater_probe" in capsys.readouterr().out


def test_validate_switching_ok(switching_scenario_path):
    assert main(["validate", str(switching_scenario_path)]) == 0


def test_validate_warns_on_published_coupling(tmp_scenario_file, capsys):
    def mutate(d):
        d["network"]["coupling"] = 2.0
        d["network"]["sigma"] = 1.0
        d["network"]["kappa"] = 1.0

    path = tmp_scenario_file(mutate)
    assert main(["validate", str(path)]) == 2
    assert "coupling_bound" in capsys.readouterr().out


def test_validate_rejects_bad_generator(tmp_scenario_file, switching_scenario, capsys):
    def mutate(d):
        d.update(json.loads(switching_scenario.dumps()))
        d["chain"]["generator"][0][1] = -5.0

    path = tmp_scenario_file(mutate)
    assert main(["validate", str(path)]) == 1


def test_kkt_command_writes_certificate(fixed_scenario_path, tmp_path, capsys):
    rc = main(["kkt", str(fixed_scenario_path), "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "194.516" in out
    payload = json.loads((tmp_path / "five_agent_fixed.kkt.json").read_text())
    assert payload["total_cost"] == pytest.approx(172.41, abs=0.01)
    assert payload["certificate"]["residuals"]["stationarity"] <= 1e-9
    assert "scenario_hash" in payload


def test_kkt_explicit_candidate(fixed_scenario_path, capsys):
    rc = main(["kkt", str(fixed_scenario_path), "--x", "1.0,2.0"])
    assert rc == 0


def test_simulate_writes_and_reruns_byte_identical(tmp_scenario_file, tmp_path):
    def mutate(d):
        d["integrator"]["horizon"] = 0.2
        d["integrator"]["output_stride"] = 50

    path = tmp_scenario_file(mutate)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["simulate", str(path), "--out-dir", str(out1)]) == 0
    assert main(["simulate", str(path), "--out-dir", str(out2)]) == 0
    for name in (
        "scenario.fixed.trajectory.csv",
        "scenario.fixed.multipliers.csv",
        "scenario.fixed.metrics.csv",
        "scenario.fixed.meta.json",
    ):
        b1 = (out1 / name.replace("scenario", "five_agent_fixed")).read_bytes()
        b2 = (out2 / name.replace("scenario", "five_agent_fixed")).read_bytes()
        assert b1 == b2, name


def test_simulate_seed_changes_output(tmp_scenario_file, tmp_path):
    def mutate(d):
        d["integrator"]["horizon"] = 0.1
        d["integrator"]["output_stride"] = 100

    path = tmp_scenario_file(mutate)
    assert main(["simulate", str(path), "--out-dir", str(tmp_path / "a")]) == 0
    assert main(["simulate", str(path), "--seed", "5", "--out-dir",
                 str(tmp_path / "b")]) == 0
    ta = (tmp_path / "a" / "five_agent_fixed.fixed.trajectory.csv").read_text()
    tb = (tmp_path / "b" / "five_agent_fixed.fixed.trajectory.csv").read_text()
    assert ta != tb


def test_simulate_embeds_hash_and_seed(tmp_scenario_file, tmp_path, fixed_scenario):
    def mutate(d):
        d["integrator"]["horizon"] = 0.1
        d["integrator"]["output_stride"] = 100

    path = tmp_scenario_file(mutate)
    main(["simulate", str(path), "--out-dir", str(tmp_path)])
    scn = load_scenario(path)
    header = (tmp_path / "five_agent_fixed.fixed.trajectory.csv").read_text().splitlines()[0]
    assert f"scenario_hash={scn.hash}" in header
    assert "root_seed=20260801" in header
    meta = json.loads((tmp_path / "five_agent_fixed.fixed.meta.json").read_text())
    assert meta["scenario_hash"] == scn.hash
    assert meta["clamp_count"] == 0


def test_simulate_full_precision_round_trip(tmp_scenario_file, tmp_path):
    def mutate(d):
        d["integrator"]["horizon"] = 0.05
        d["integrator"]["output_stride"] = 50

    path = tmp_scenario_file(mutate)
    main(["simulate", str(path), "--out-dir", str(tmp_path)])
    lines = (tmp_path / "five_agent_fixed.fixed.trajectory.csv").read_text().splitlines()
    cells = lines[2].split(",")
    # repr round trip: float(repr(v)) == v exactly, so no precision marker fits
    for cell in cells[2:]:
        v = float(cell)
        assert repr(v) == cell


def test_simulate_switching_and_averaged_modes(switching_scenario_path, tmp_path):
    rc = main([
        "simulate", str(switching_scenario_path), "--horizon", "0.1",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    rc = main([
        "simulate", str(switching_scenario_path), "--mode", "averaged",
        "--horizon", "0.1", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    assert (tmp_path / "five_agent_switching.switching.trajectory.csv").exists()
    assert (tmp_path / "five_agent_switching.averaged.trajectory.csv").exists()


def test_simulate_strict_gate(tmp_scenario_file):
    def mutate(d):
        d["network"]["coupling"] = 2.0
        d["network"]["sigma"] = 1.0
        d["network"]["kappa"] = 1.0
        d["integrator"]["horizon"] = 0.01

    path = tmp_scenario_file(mutate)
    assert main(["simulate", str(path), "--strict", "--out-dir", "/tmp/ignored"]) == 1


def test_compare_smoke(switching_scenario_path, tmp_path, capsys):
    rc = main([
        "compare", str(switching_scenario_path),
        "--alpha", "0.5", "--alpha", "0.05",
        "--ensemble", "8", "--horizon", "0.1",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    report = json.loads(
        (tmp_path / "five_agent_switching.compare.report.json").read_text()
    )
    assert [e["alpha"] for e in report["per_alpha"]] == [0.5, 0.05]
    assert "separated" in report
    assert report["scenario_hash"]


def test_simulate_final_block_is_the_final_state(tmp_scenario_file, tmp_path):
    # horizon 0.15 with stride 100 samples t=0 and t=0.1 only; the final block
    # must still describe t=0.15, exactly as a stride-1 run of the same path
    metas = []
    for stride in (100, 1):
        def mutate(d, stride=stride):
            d["integrator"]["horizon"] = 0.15
            d["integrator"]["output_stride"] = stride

        out = tmp_path / f"stride{stride}"
        assert main(["simulate", str(tmp_scenario_file(mutate)), "--out-dir", str(out)]) == 0
        metas.append(json.loads((out / "five_agent_fixed.fixed.meta.json").read_text()))
    strided, dense = (m["final"] for m in metas)
    assert strided["t"] == pytest.approx(0.15)
    assert strided == dense
    lines = (tmp_path / "stride1" / "five_agent_fixed.fixed.metrics.csv").read_text().splitlines()
    last = dict(zip(lines[1].split(","), map(float, lines[-1].split(","))))
    for key in ("t", "opt_error", "consensus_error", "cost_gap"):
        assert dense[key] == last[key], key


def _domain_escape_scenario(tmp_path, switching_scenario):
    # agent 3 starts at x1 = 1 with cost ln(x1 - 0.9): the flow drives x1 to
    # the boundary and an Euler step crosses it within a few steps
    data = json.loads(json.dumps(switching_scenario.raw))
    data["problem"]["agents"][2]["cost"] = "ln(x1 - 0.9)"
    path = tmp_path / "escape.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("mode, where", [("switching", "(mode "), ("averaged", "(averaged)")])
def test_simulate_domain_error_names_the_failing_point(mode, where, tmp_path,
                                                       switching_scenario, capsys):
    path = _domain_escape_scenario(tmp_path, switching_scenario)
    rc = main(["simulate", str(path), "--mode", mode, "--horizon", "0.5",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: expression left its domain at t=")
    assert float(err.split("t=")[1].split()[0]) > 0.0
    assert where in err
    assert "agent 3 cost 'ln(x1 - 0.9)': ln of nonpositive value" in err


def test_compare_domain_error_exits_1(tmp_path, switching_scenario, capsys):
    path = _domain_escape_scenario(tmp_path, switching_scenario)
    rc = main(["compare", str(path), "--alpha", "0.5", "--alpha", "0.1",
               "--ensemble", "2", "--horizon", "0.5", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: expression left its domain at t=")
    assert "agent 3 cost 'ln(x1 - 0.9)'" in err
