"""Artifact bytes pinned by SHA-256.

Each digest covers the files one command writes (names and bytes, in name
order), so a rewrite of the integrator that keeps its arithmetic keeps
them.  A change that alters the arithmetic updates the digests and states
its tolerance.
"""

import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from switchopt import chain, cli, dynamics, schedule
from switchopt.expr import parse
from switchopt.graph import Graph, Network
from switchopt.problem import AgentSpec, Problem

from conftest import SCENARIO_DIR

# (mode, output stride) -> digest of `simulate --mode <mode> --horizon 0.5`;
# 500 steps: stride 7 ends off a sample, and samples fall on both sides of
# the chunk edge at step 256
SIMULATE = {
    ("fixed", 1): "79a34c93d70a98f2e01931c8c70876b497ce792e16ff512fffed9ecdfbd2bdfa",
    ("fixed", 7): "cb55c278f6d6462ae0dd1afee6272f0d1c508daa128ea8c308e8dd2241051899",
    ("switching", 1): "35416b0802d3a56bf9affc5d109549aabba7278e0585cfd1de2fc06c340670b1",
    ("switching", 7): "807f1abd7e7ea526c977028126e779a72bfa0228fc9e6f17ba5e4ca0c33bdc79",
    ("averaged", 1): "5085d10d67796e749a46d7043f30b8f756c53efd4e784bc3e99135e84854e89b",
    ("averaged", 7): "1f2d403917c0a86507a6d626cb46a46289795d5d6718e6fff65f7ce332de461e",
}
# `compare --ensemble 20 --horizon 0.05` at the default alphas: 80 members,
# numpy rounds and lone rounds
COMPARE = (
    "03219e337fc35adb36fc4d1c466c95879b70bd6dde46da056752663c9229628d")
# `kkt --out-dir` of each bundled scenario: the certificate's gradients
# stay out of kkt.json
KKT = {
    "fixed": "556292798c0718560d6dbb0ed752564f153dfbfb7299d10b5ff89691dbd73e10",
    "switching": "acec52956169c1b49a718535fd0e35b7a47032c1234832075ce6865009cce4ff",
}


def artifacts_digest(out_dir):
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def simulate_digest(tmp_path, mode, stride):
    source = "fixed" if mode == "fixed" else "switching"
    data = json.loads((SCENARIO_DIR / f"five_agent_{source}.json").read_text())
    data["integrator"]["output_stride"] = stride
    scenario = tmp_path / f"{mode}_{stride}.json"
    scenario.write_text(json.dumps(data))
    out = tmp_path / f"out_{mode}_{stride}"
    assert cli.main(["simulate", str(scenario), "--mode", mode, "--horizon", "0.5",
                     "--out-dir", str(out)]) == 0
    return artifacts_digest(out)


def compare_digest(tmp_path):
    out = tmp_path / "out_compare"
    assert cli.main(["compare", str(SCENARIO_DIR / "five_agent_switching.json"),
                     "--ensemble", "20", "--horizon", "0.05", "--out-dir", str(out)]) == 0
    return artifacts_digest(out)


@pytest.mark.parametrize("mode, stride", list(SIMULATE))
def test_simulate_artifacts_match_their_digest(mode, stride, tmp_path):
    assert simulate_digest(tmp_path, mode, stride) == SIMULATE[mode, stride]


def test_compare_report_matches_its_digest(tmp_path):
    assert compare_digest(tmp_path) == COMPARE


@pytest.mark.parametrize("name", list(KKT))
def test_kkt_artifacts_match_their_digest(name, tmp_path):
    out = tmp_path / "out_kkt"
    assert cli.main(["kkt", str(SCENARIO_DIR / f"five_agent_{name}.json"),
                     "--out-dir", str(out)]) == 0
    assert artifacts_digest(out) == KKT[name]


@pytest.mark.parametrize("command", ["fixed", "switching", "averaged", "compare"])
def test_one_step_chunks_give_the_same_bytes(command, monkeypatch, tmp_path):
    # a budget below one step's draws leaves one step per chunk: the noise
    # streams continue across every chunk edge, and every step starts a
    # new chunk of rounds
    monkeypatch.setattr(schedule, "CHUNK_BYTES", 1)
    assert schedule.chunk_steps(80, 5) == 1
    if command == "compare":
        assert compare_digest(tmp_path) == COMPARE
    else:
        assert simulate_digest(tmp_path, command, 7) == SIMULATE[command, 7]


def test_chunk_length_keeps_the_default_where_the_budget_allows():
    # the benchmark's batches (80 members of 5 agents) and a lone member
    assert schedule.chunk_steps(80, 5) == schedule.CHUNK_STEPS
    assert schedule.chunk_steps(1, 60) == schedule.CHUNK_STEPS
    assert schedule.chunk_steps(800, 60) == 1  # one step's draws exceed the budget
    per_step = 8 * 200 * 20 * 20
    assert schedule.chunk_steps(200, 20) == schedule.CHUNK_BYTES // per_step < 256


@pytest.mark.parametrize("M, N", [(200, 20), (40, 60)])
def test_chunk_peak_stays_under_the_byte_budget(M, N):
    # 256 steps of these draws would take 164 and 295 MB; fixed paths, so
    # no jump split adds a draw
    steps = schedule.chunk_steps(M, N)
    assert 8 * M * N * N * schedule.CHUNK_STEPS > schedule.CHUNK_BYTES
    rngs = [np.random.default_rng(m) for m in range(M)]
    tracemalloc.start()
    try:
        Z, rounds = schedule.chunk([None] * M, rngs, 0, steps, 1e-3, N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert Z.shape == (M * steps, N, N) and len(rounds) == steps
    assert peak <= schedule.CHUNK_BYTES + 8 * M * N * N


def test_chunk_peak_with_jump_cuts_stays_under_the_byte_budget(six_mode_generator):
    # at alpha 0.002 each member's path jumps about 1.4 times a step; each
    # jump cuts a substep, which takes one draw more than the budget counts
    M, N = 40, 60
    steps = schedule.chunk_steps(M, N)
    paths = [chain.sample_path(six_mode_generator, 0, 0.002, steps * 1e-3, m) for m in range(M)]
    rngs = [np.random.default_rng(m) for m in range(M)]
    tracemalloc.start()
    try:
        Z, rounds = schedule.chunk(paths, rngs, 0, steps, 1e-3, N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cuts = len(Z) - M * steps
    assert cuts == sum(p.n_jumps for p in paths) > M * steps
    assert peak <= schedule.CHUNK_BYTES + 8 * M * N * N + 8 * cuts * N * N


def test_lone_run_peak_stays_near_its_chunk():
    # a lone run steps on its chunk's numpy draws (one chunk of 64 steps,
    # 0.8 MB); a copy of them as Python floats would take about four times
    # that.  The traced steps run about 150 times slower, hence so few
    N, steps = 40, 64
    assert schedule.chunk_steps(1, N) > steps
    ring = Graph.from_edges(N, [(i, (i + 1) % N) for i in range(N)])
    # sigma <= kappa <= sqrt(lambda2)/2 = 0.078: the run warns of nothing
    network = Network(graphs=(ring,), sigma=0.05, coupling=1.0, kappa=0.05)
    problem = Problem(n=1, agents=tuple(AgentSpec(f=parse(f"0.5*(x1 - {i % 3})^2", 1))
                                        for i in range(N)))
    model = dynamics._Model(problem, network, 1.0)
    cfg = dynamics.IntegratorConfig(h=1e-3, horizon=steps * 1e-3, seed=1)
    init = dynamics.SystemState(np.zeros((N, 1)), np.zeros((N, 1)), [], [])
    report = dynamics.check_assumptions(problem, network)
    # one untraced step compiles model.lone and loads the modules numpy
    # imports on first use
    dynamics._integrate(model, None, dataclasses.replace(cfg, horizon=1e-3), init, report)
    tracemalloc.start()
    try:
        traj = dynamics._integrate(model, None, cfg, init, report)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.times) == steps + 1 and not traj.warnings
    assert peak < 2 * 8 * steps * N * N
