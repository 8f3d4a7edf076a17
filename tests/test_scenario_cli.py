import json
import math
import re
import warnings

import numpy as np
import pytest

from switchopt import cli, dynamics
from switchopt.cli import main
from switchopt.expr import MAX_DEPTH
from switchopt.scenario import Scenario, ScenarioError, load_scenario, scenario_hash

from conftest import deep_expression


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


def test_simulate_csv_headers_name_the_seed_used(tmp_scenario_file, tmp_path):
    def mutate(d):
        d["integrator"]["horizon"] = 0.1
        d["integrator"]["output_stride"] = 100

    path = tmp_scenario_file(mutate)
    assert main(["simulate", str(path), "--seed", "5", "--out-dir", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "five_agent_fixed.fixed.meta.json").read_text())
    assert meta["root_seed"] == 5
    for name in ("trajectory", "multipliers", "metrics"):
        header = (tmp_path / f"five_agent_fixed.fixed.{name}.csv").read_text().splitlines()[0]
        assert header == (
            f"# scenario_hash={meta['scenario_hash']} root_seed=5 mode=fixed"), name


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


@pytest.mark.parametrize("scenario, mode", [
    ("fixed", "fixed"), ("switching", "switching"), ("switching", "averaged"),
])
def test_simulate_builds_one_assumption_report(scenario, mode, request, monkeypatch,
                                               tmp_path):
    # the report the run warns from is the one meta.json records
    calls = []
    check = dynamics.check_assumptions

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return check(*args, **kwargs)

    monkeypatch.setattr(dynamics, "check_assumptions", counting)
    path = request.getfixturevalue(f"{scenario}_scenario_path")
    rc = main(["simulate", str(path), "--mode", mode, "--horizon", "0.01",
               "--out-dir", str(tmp_path)])
    assert rc == 0 and len(calls) == 1
    meta = json.loads((tmp_path / f"five_agent_{scenario}.{mode}.meta.json").read_text())
    args, kwargs = calls[0]
    assert meta["assumptions"] == check(*args, **kwargs).as_dict()


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


@pytest.mark.parametrize("extra, message", [
    (["--alpha", "0.1", "--alpha", "0.5"], "alphas must be strictly decreasing"),
    (["--alpha", "0.5", "--alpha", "0.5"], "alphas must be strictly decreasing"),
    (["--ensemble", "1"], "ensemble must hold at least 2 members"),
    (["--alpha", "0.5", "--alpha", "-0.1", "--ensemble", "2"], "alpha must be positive"),
    (["--alpha", "0.5", "--alpha", "nan", "--ensemble", "2"], "alpha must be positive"),
    (["--alpha", "inf", "--ensemble", "2"], "alpha must be finite, got inf"),
], ids=["increasing", "repeated", "ensemble-1", "negative-alpha", "nan-alpha", "inf-alpha"])
def test_compare_bad_design_exits_1(extra, message, switching_scenario_path, tmp_path, capsys):
    rc = main(["compare", str(switching_scenario_path), "--horizon", "0.01",
               "--out-dir", str(tmp_path), *extra])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["simulate", "fixed", "--horizon", "-1"],
     "error: --horizon must be positive and finite, got -1.0\n"),
    (["simulate", "fixed", "--horizon", "nan"],
     "error: --horizon must be positive and finite, got nan\n"),
    (["simulate", "fixed", "--seed", "-1"],
     "error: --seed must be a nonnegative integer, got -1\n"),
    (["compare", "switching", "--seed", "-1"],
     "error: --seed must be a nonnegative integer, got -1\n"),
    (["compare", "switching", "--horizon", "-1"],
     "error: --horizon must be positive and finite, got -1.0\n"),
    (["compare", "switching", "--horizon", "inf"],
     "error: --horizon must be positive and finite, got inf\n"),
    (["kkt", "fixed", "--x", "a,b"], "error: --x entry 1 must be a number, got 'a'\n"),
    (["kkt", "fixed", "--x", "1,,2"], "error: --x entry 2 must be a number, got ''\n"),
    (["kkt", "fixed", "--x", "1"], "error: --x must have 2 entries, got 1\n"),
    (["kkt", "fixed", "--x", "nan,1"], "error: --x entry 1 must be finite, got nan\n"),
    (["kkt", "fixed", "--x", "1,-inf"], "error: --x entry 2 must be finite, got -inf\n"),
    (["kkt", "fixed", "--x", "1e200,1"],
     "error: agent 1 cost '4.0*x1^2.0 + 2.0*x2': power 1e+200^2.0 overflows\n"),
], ids=["simulate-horizon-neg", "simulate-horizon-nan", "simulate-seed-neg",
        "compare-seed-neg", "compare-horizon-neg", "compare-horizon-inf", "kkt-x-str",
        "kkt-x-empty", "kkt-x-short", "kkt-x-nan", "kkt-x-inf", "kkt-x-overflow"])
def test_bad_flag_exits_1(argv, message, request, tmp_path, capsys):
    command, kind, *flags = argv
    scenario = request.getfixturevalue(f"{kind}_scenario_path")
    out = tmp_path / "out"
    assert main([command, str(scenario), *flags, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("shape", ["sum", "signs", "parentheses"])
def test_simulate_runs_at_max_depth_and_exits_1_past_it(shape, tmp_scenario_file, tmp_path,
                                                       capsys):
    # agent 3's cost nests MAX_DEPTH levels deep, then one step past it
    def deep(past):
        def mutate(d):
            del d["candidate"]
            d["problem"]["agents"][2]["cost"] = deep_expression(shape, past)
            d["integrator"]["horizon"] = 0.01
        return str(tmp_scenario_file(mutate))

    assert main(["simulate", deep(False), "--out-dir", str(tmp_path / "at")]) == 0
    capsys.readouterr()
    for command in (["validate"], ["simulate", "--out-dir", str(tmp_path / "past")]):
        assert main([command[0], deep(True), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"past MAX_DEPTH={MAX_DEPTH}" in err
        assert err.count("\n") == 1
    assert not (tmp_path / "past").exists()


def test_simulate_wrong_candidate_writes_nothing(tmp_scenario_file, tmp_path, capsys):
    # [0.5, 2] violates the equality 2*x1 = x2: LICQ holds there, but the
    # certificate's residuals do not vanish, so no equilibrium exists
    def mutate(d):
        d["candidate"] = [0.5, 2.0]
        d["integrator"]["horizon"] = 0.01

    out = tmp_path / "out"
    assert main(["simulate", str(tmp_scenario_file(mutate)), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: certificate residuals above 1e-06") and err.count("\n") == 1
    assert not out.exists()


def test_simulate_failing_metrics_writes_nothing(tmp_scenario_file, tmp_path, capsys):
    # agent 1's first Euler step drives lambda_1 across the floor 0.0, where
    # it is clamped; the divergence term of the metrics needs it positive
    def mutate(d):
        d["init"]["x"][0] = [-2, 5000]
        d["integrator"].update(horizon=0.01, output_stride=1)

    out = tmp_path / "out"
    assert main(["simulate", str(tmp_scenario_file(mutate)), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: multiplier 0 must be positive to evaluate the divergence term, got 0.0\n")
    assert not out.exists()


def test_unexpected_errors_keep_their_traceback(monkeypatch, fixed_scenario_path, tmp_path):
    # only input and numerical errors become error: lines; anything else is a bug
    def broken(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr(dynamics, "simulate", broken)
    with pytest.raises(KeyError, match="bug"):
        main(["simulate", str(fixed_scenario_path), "--out-dir", str(tmp_path / "out")])


def test_simulate_averaged_warns_on_horizon_off_the_step_grid(switching_scenario_path,
                                                              tmp_path, capsys):
    # the CLI reports the warning once, as a warning: line on stdout, and
    # raises no RuntimeWarning beside it
    args = ["simulate", str(switching_scenario_path), "--mode", "averaged",
            "--horizon", "0.0105", "--out-dir", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 0
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if "not a multiple of h" in line] == [
        "warning: horizon 0.0105 is not a multiple of h=0.001; running 10 steps to t=0.01"
    ]
    meta = json.loads((tmp_path / "five_agent_switching.averaged.meta.json").read_text())
    assert any("not a multiple of h" in w for w in meta["warnings"])
    assert meta["final"]["t"] == pytest.approx(0.01)
    assert main(args + ["--strict"]) == 1


def test_compare_records_the_run_warnings(switching_scenario_path, tmp_path, capsys):
    # every member runs 10 steps to t=0.01: the report says so once, in
    # "warnings", and stdout once as a warning: line, with no RuntimeWarning
    args = ["compare", str(switching_scenario_path), "--alpha", "0.5", "--alpha", "0.1",
            "--ensemble", "3", "--horizon", "0.0105", "--out-dir", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 0
    expected = "horizon 0.0105 is not a multiple of h=0.001; running 10 steps to t=0.01"
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("warning:")] == [
        f"warning: {expected}"
    ]
    report = json.loads((tmp_path / "five_agent_switching.compare.report.json").read_text())
    assert report["horizon"] == 0.0105 and report["warnings"] == [expected]


def test_simulate_reports_each_failed_assumption_once(tmp_scenario_file, tmp_path, capsys):
    def mutate(d):
        d["network"]["coupling"] = 2.0
        d["network"]["sigma"] = 1.0
        d["network"]["kappa"] = 1.0
        d["integrator"]["horizon"] = 0.01

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", str(tmp_scenario_file(mutate)),
                     "--out-dir", str(tmp_path)]) == 0
    assert [str(w.message) for w in caught] == []
    out = capsys.readouterr().out
    assert sum(line.startswith("warning: assumption coupling_bound failed")
               for line in out.splitlines()) == 1


def test_simulate_refuses_fixed_mode_on_several_graphs(switching_scenario_path, tmp_path,
                                                       capsys):
    # fixed mode would run graph 1 of six alone, and graph 1 is disconnected
    rc = main(["simulate", str(switching_scenario_path), "--mode", "fixed",
               "--horizon", "0.01", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: fixed mode runs one graph, but the network has 6; "
        "run it in switching or averaged mode\n"
    )
    assert not (tmp_path / "out").exists()


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


def test_simulate_reports_only_the_files_it_wrote(tmp_scenario_file, tmp_path, capsys):
    # agent 1's inequality listed twice: both copies are active at the
    # candidate [1, 2], so LICQ fails there and no metrics file is written
    def mutate(d):
        agent = d["problem"]["agents"][0]
        agent["inequalities"] = agent["inequalities"] * 2
        d["integrator"]["horizon"] = 0.01

    out = tmp_path / "out"
    assert main(["simulate", str(tmp_scenario_file(mutate)), "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "five_agent_fixed.fixed.meta.json",
        "five_agent_fixed.fixed.multipliers.csv",
        "five_agent_fixed.fixed.trajectory.csv",
    ]
    assert capsys.readouterr().out == (
        f"wrote {out}/five_agent_fixed.fixed.trajectory.csv, .multipliers.csv, .meta.json\n"
    )


def _set(path, value):
    def mutate(d):
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] = value
    return mutate


@pytest.mark.parametrize("cost, position", [
    ("4*x1 + 0*x2^1e999", 12),
    ("4*x1 + 1e999*x2", 7),
], ids=["exponent", "coefficient"])
def test_nonfinite_literal_exits_1(cost, position, tmp_scenario_file, capsys):
    path = tmp_scenario_file(_set(["problem", "agents", 2, "cost"], cost))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: agent 3: numeric literal 1e999 is not finite (at position {position})\n")


@pytest.mark.parametrize("path, value, message", [
    (("network", "graphs"), 5, "network: "),
    (("network", "sigma"), "a", "network: "),
    (("integrator", "step"), "nan", "integrator: step size must be positive and finite"),
    (("integrator", "output_stride"), 0, "integrator: output stride must be at least 1"),
    (("init", "x"), [[-2, 4], [-3], [1, -2], [4, 2], [-3, -4]], "init: "),
    (("integrator", "horizon"), -1, "integrator: horizon must be positive and finite"),
    (("integrator", "eta"), "x", "integrator: "),
    (("problem", "agents", 0, "cost"), 5, "agent 1: "),
    (("integrator", "seed"), "x", "integrator: "),
    (("candidate",), "abc", "candidate: "),
], ids=["graphs-int", "sigma-str", "step-nan", "stride-0", "ragged-x", "horizon-neg",
        "eta-str", "cost-int", "seed-str", "candidate-str"])
def test_simulate_mistyped_scenario_exits_1(path, value, message, tmp_scenario_file,
                                            tmp_path, capsys):
    scenario = tmp_scenario_file(_set(path, value))
    assert main(["simulate", str(scenario), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path, value", [
    (("chain", "alpha"), "x"),
    (("chain", "initial_mode"), "x"),
], ids=["alpha-str", "initial-mode-str"])
def test_simulate_mistyped_chain_exits_1(path, value, switching_scenario, tmp_path, capsys):
    data = json.loads(json.dumps(switching_scenario.raw))
    _set(path, value)(data)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(data))
    assert main(["simulate", str(scenario), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: chain: ")


@pytest.mark.parametrize("seed", [math.inf, 2.5, True, -1],
                         ids=["infinity", "fraction", "bool", "negative"])
@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_seed_that_is_not_a_nonnegative_integer_exits_1(command, seed, tmp_scenario_file,
                                                        tmp_path, capsys):
    # int() would raise OverflowError on inf, run 2.5 as seed 2 and True
    # as seed 1; SeedSequence rejects -1 only once a run starts
    path = tmp_scenario_file(_set(("integrator", "seed"), seed))
    argv = [command, str(path)]
    if command == "simulate":
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: integrator: seed must be a nonnegative integer, got {seed!r}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path, value, message", [
    (("network", "graphs", 0, 0), [1.5, 2], "network.graphs[0]: edge endpoint 1.5 is not"),
    (("network", "graphs", 0, 0), [True, 2], "network.graphs[0]: edge endpoint True is not"),
    (("integrator", "output_stride"), 2.5, "integrator: output_stride must be an integer"),
    (("problem", "dimension"), 2.5, "problem: dimension must be an integer"),
    (("network", "nodes"), 5.5, "network: nodes must be an integer"),
    (("network", "nodes"), True, "network: nodes must be an integer"),
    (("chain", "initial_mode"), 1.5, "chain: initial_mode must be an integer"),
    (("integrator", "strict"), "false", "integrator: strict must be true or false"),
    (("integrator", "strict"), 0, "integrator: strict must be true or false"),
    (("integrator", "eta"), math.nan, "integrator: eta entries must be finite and positive"),
    (("integrator", "eta"), math.inf, "integrator: eta entries must be finite and positive"),
    (("integrator", "lambda_floor"), math.nan, "integrator: lambda_floor must be finite"),
    (("integrator", "lambda_floor"), math.inf, "integrator: lambda_floor must be finite"),
    (("chain", "alpha"), math.inf, "chain: alpha must be finite, got inf"),
    (("chain", "alpha"), math.nan, "chain: alpha must be positive"),
    (("network", "kappa"), math.inf, "network: kappa must be finite, got inf"),
    (("network", "kappa"), math.nan, "network: kappa must be finite, got nan"),
    (("network", "coupling"), math.inf, "network: coupling must be finite, got inf"),
    (("network", "coupling"), math.nan, "network: coupling must be finite, got nan"),
    (("network", "sigma"), math.nan, "network: noise intensities must be finite"),
], ids=["edge-fraction", "edge-bool", "stride-fraction", "dimension-fraction",
        "nodes-fraction", "nodes-bool", "initial-mode-fraction", "strict-string",
        "strict-int", "eta-nan", "eta-inf", "floor-nan", "floor-inf", "alpha-inf",
        "alpha-nan", "kappa-inf", "kappa-nan", "coupling-inf", "coupling-nan", "sigma-nan"])
@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_value_of_the_wrong_kind_exits_1(command, path, value, message, switching_scenario,
                                         tmp_path, capsys):
    # each ran as another value (int() truncates, bool("false") is True), or
    # ended in a traceback (edge 1.5) or a misleading step-size error (eta nan)
    data = json.loads(json.dumps(switching_scenario.raw))
    _set(path, value)(data)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(data))
    argv = [command, str(scenario)]
    if command == "simulate":
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("chain_section, message", [
    ({"generator": [[0.0]], "alpha": math.inf}, "chain: alpha must be finite, got inf"),
    ({"generator": [[0.0]], "alpha": -1.0}, "chain: alpha must be positive"),
    ({"generator": [[0.0]], "initial_mode": 1.5}, "chain: initial_mode must be an integer"),
    ({"generator": [[0.0, 1.0]]}, "chain: not a generator: matrix must be square"),
    ({"generator": [[-1.0, 1.0], [1.0, -1.0]]}, "generator has 2 modes, network 1"),
], ids=["alpha-inf", "alpha-negative", "initial-mode-fraction", "not-square", "two-modes"])
@pytest.mark.parametrize("command", [["validate"], ["simulate", "--mode", "switching"]],
                         ids=["validate", "simulate-switching"])
def test_a_fixed_scenarios_chain_section_is_checked_at_load(command, chain_section, message,
                                                            tmp_scenario_file, tmp_path,
                                                            capsys):
    # a fixed scenario needs no chain section, but one that it has is
    # checked as a switching scenario's is: validate passed it, and
    # simulate --mode switching failed on it without naming the section
    path = tmp_scenario_file(_set(("chain",), chain_section))
    argv = [command[0], str(path), *command[1:]]
    if command[0] == "simulate":
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_a_fixed_scenario_with_a_valid_chain_section_loads(tmp_scenario_file, tmp_path):
    path = tmp_scenario_file(_set(("chain",), {"generator": [[0.0]], "alpha": 0.5}))
    assert main(["validate", str(path)]) == 0
    assert main(["simulate", str(path), "--mode", "switching", "--horizon", "0.01",
                 "--out-dir", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("horizon, samples", [("1e12", "1e+13"), ("1e300", "1e+301")])
def test_samples_that_cannot_be_held_exit_1(horizon, samples, fixed_scenario_path, tmp_path,
                                            capsys):
    # the sample arrays exceed a 47-bit address space, whatever the machine's
    # memory: refused before the first step, not a traceback or a run that never ends
    assert main(["simulate", str(fixed_scenario_path), "--horizon", horizon,
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: {samples} samples at output_stride 100 do not fit in memory; "
        "raise output_stride or shorten the horizon\n")
    assert not (tmp_path / "out").exists()


def _write_with(scenario, tmp_path, **integrator):
    """A copy of ``scenario`` with the integrator entries given, as a file."""
    data = json.loads(json.dumps(scenario.raw))
    data["integrator"].update(integrator)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return path


# simulate runs the fixed scenario, compare the switching one (with two
# members): a chain path sampled over a huge horizon would not end
COMMANDS = {"simulate": ("fixed_scenario", []),
            "compare": ("switching_scenario", ["--ensemble", "2"])}


@pytest.mark.parametrize("step, horizon, flag, message", [
    (1e-320, 50.0, "0.01", "integrator: step size 1e-320 is too small for horizon 50.0"),
    (1e-300, 1e-290, "1e10", "step size 1e-300 is too small for horizon 10000000000.0"),
], ids=["in-the-file", "by-the-flag"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_step_too_small_for_the_horizon_exits_1(command, step, horizon, flag, message,
                                                request, tmp_path, capsys):
    # round(horizon / step) would raise OverflowError on the infinite ratio
    fixture, extra = COMMANDS[command]
    scenario = _write_with(request.getfixturevalue(fixture), tmp_path, step=step,
                           horizon=horizon)
    assert main([command, str(scenario), "--horizon", flag, *extra,
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}: the step count overflows\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_step_that_runs_no_step_exits_1(command, request, tmp_path, capsys):
    # horizon / step rounds to no step; a switching run would also sample
    # its chain path over the horizon plus that step
    fixture, extra = COMMANDS[command]
    scenario = _write_with(request.getfixturevalue(fixture), tmp_path, step=0.5)
    assert main([command, str(scenario), "--horizon", "0.2", *extra,
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: step size 0.5 is too large for horizon 0.2: no step would run\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path, value, message", [
    (("init", "x", 2, 0), math.inf, "init.x must be finite"),
    (("init", "lambda"), math.nan, "init.lambda must be finite"),
    (("candidate", 1), -math.inf, "candidate must be finite"),
], ids=["x-inf", "lambda-nan", "candidate-inf"])
def test_nonfinite_initial_state_or_point_exits_1(path, value, message, tmp_scenario_file,
                                                  capsys):
    # a run from it could only fail, after numpy warned on inf - inf
    assert main(["validate", str(tmp_scenario_file(_set(path, value)))]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _duplicate_agent_1_inequality(d):
    # both copies are active at the candidate [1, 2], so LICQ fails there
    agent = d["problem"]["agents"][0]
    agent["inequalities"] = agent["inequalities"] * 2


def test_kkt_without_a_candidate_exits_1(tmp_scenario_file, tmp_path, capsys):
    path = tmp_scenario_file(lambda d: d.pop("candidate"))
    assert main(["kkt", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: no candidate point (scenario has none; pass --x)\n"
    assert not (tmp_path / "out").exists()


def test_kkt_where_licq_fails_exits_1(tmp_scenario_file, tmp_path, capsys):
    path = tmp_scenario_file(_duplicate_agent_1_inequality)
    assert main(["kkt", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: LICQ fails at the candidate\n"
    assert not (tmp_path / "out").exists()


def test_validate_warns_where_licq_fails(tmp_scenario_file, capsys):
    assert main(["validate", str(tmp_scenario_file(_duplicate_agent_1_inequality))]) == 2
    out = capsys.readouterr().out.splitlines()
    assert "[WARN] licq_at_candidate: [1.0, 2.0]" in out
    assert out[-1] == "validate: 1 warning(s): licq_at_candidate"


def test_validate_warns_on_the_initial_conditions(tmp_scenario_file, capsys):
    def mutate(d):
        d["init"]["lambda"] = 0.0
        d["init"]["theta"] = 0.5

    assert main(["validate", str(tmp_scenario_file(mutate))]) == 2
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "[WARN] initial_multipliers_nonpositive: initial multiplier min 0 is not positive",
        "[WARN] initial_theta_sum_nonzero: initial theta blocks sum to 3.536e+00, not zero; "
        "the convergence guarantees assume a zero sum",
        "validate: 2 warning(s): initial_multipliers_nonpositive, initial_theta_sum_nonzero",
    ]


@pytest.mark.parametrize("command, flags", [
    ("simulate", []),
    ("compare", ["--alpha", "0.5", "--alpha", "1e-300", "--ensemble", "2"]),
])
def test_alpha_with_too_many_expected_jumps_exits_1(command, flags, switching_scenario,
                                                    tmp_path, capsys):
    # the chain path would hold about 3e298 jumps and never end
    data = json.loads(json.dumps(switching_scenario.raw))
    data["chain"]["alpha"] = 1e-300
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert main([command, str(path), "--horizon", "0.01", *flags,
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: the expected jump count over horizon 0.011 at alpha 1e-300, 3.3e+298, "
        "overflows the cap of 10000000\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["kkt"], ["simulate", "--horizon", "0.01"]],
                         ids=["kkt", "simulate"])
def test_commands_certify_with_one_evaluation_per_expression(argv, fixed_scenario_path,
                                                            tmp_path, monkeypatch,
                                                            evaluations):
    during = []
    certify = cli.certify

    def counting(*args):
        before = evaluations.copy()
        cert = certify(*args)
        during.append(evaluations - before)
        return cert

    monkeypatch.setattr(cli, "certify", counting)
    command, *flags = argv
    assert main([command, str(fixed_scenario_path), *flags, "--out-dir", str(tmp_path)]) == 0
    # 5 costs, 2 inequalities and 1 equality, each evaluated once, all in certify
    [calls] = during
    assert len(calls) == 8 and set(calls.values()) == {1}
    assert {name for name, _ in calls} == {"value_and_grad"}
    assert sum(n for (name, _), n in evaluations.items() if name == "value_and_grad") == 8


def test_validate_names_a_cost_outside_its_domain_at_the_candidate(tmp_scenario_file,
                                                                  capsys):
    # LICQ needs no cost, but certification evaluates every expression once,
    # so validate fails at such a candidate as kkt and simulate do
    path = tmp_scenario_file(_set(["problem", "agents", 2, "cost"], "ln(x1 - 2)"))
    for command in ("validate", "kkt"):
        assert main([command, str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: agent 3 cost 'ln(x1 - 2.0)': ln of nonpositive value -1.0\n")


def test_validate_warns_on_an_off_grid_horizon_that_strict_simulate_refuses(
        tmp_scenario_file, tmp_path, capsys):
    # validate passed it, and only simulate --strict refused it
    path = tmp_scenario_file(_set(("integrator", "horizon"), 0.0105))
    rule = "horizon 0.0105 is not a multiple of h=0.001; running 10 steps to t=0.01"
    assert main(["validate", str(path)]) == 2
    out = capsys.readouterr().out
    assert f"[WARN] horizon_off_grid: {rule}\n" in out
    assert out.endswith("validate: 1 warning(s): horizon_off_grid\n")
    assert main(["simulate", str(path), "--strict", "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {rule}\n"
    assert not (tmp_path / "out").exists()


def test_validate_prints_ten_lint_findings_and_their_count_and_exits_0(tmp_scenario_file,
                                                                      capsys):
    # a concave cost is advisory: the findings alone leave validate passing
    path = tmp_scenario_file(_set(("problem", "agents", 3, "cost"), "2*x2 - x1^2"))
    assert main(["validate", str(path)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("[lint]")]
    assert len(lines) == 11
    assert all(line.startswith("[lint] agent 4 cost '2.0*x2 - x1^2.0': curvature ")
               for line in lines[:10])
    assert lines[-1] == "[lint] 100 curvature finding(s); advisory only"


def test_kkt_prints_a_negative_multiplier_warning(tmp_scenario_file, capsys):
    # the first inequality negated: active at the candidate, with the wrong sign
    path = tmp_scenario_file(_set(("problem", "agents", 0, "inequalities"),
                                  ["x2 - 1 - (x1 - 2)^2"]))
    assert main(["kkt", str(path)]) == 0
    assert capsys.readouterr().out.endswith(
        "warning: negative inequality multiplier -194.516: candidate fails dual feasibility\n")


def test_load_scenario_refuses_a_path_it_cannot_read(tmp_path):
    path = tmp_path / "missing.json"
    with pytest.raises(ScenarioError, match="^cannot read scenario file " + re.escape(
            f"{path}: [Errno 2] No such file or directory: '{path}'") + "$"):
        load_scenario(path)
