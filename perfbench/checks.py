"""Output checks run after every benchmark command.

A command passes when it exited 0 and wrote exactly the expected artifacts,
and each artifact parses, carries the scenario hash and seed, and holds
finite values.  Simulation artifacts must also keep every multiplier
positive and, when every step is recorded, satisfy the noise-free pair
update that the README promises.  Statistical verdicts of ``compare`` (for
example ``monotone_within_2sem``) are never gated on.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

# Steps of a stride-1 trajectory re-derived per command by the pair check.
PAIR_CHECK_STEPS = 32
# Relative tolerance of the pair check: far above the roundoff of
# reconstructing pair = x + theta from the CSV, far below one noise increment.
PAIR_CHECK_RTOL = 1e-9


class CheckError(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckError(msg)


def digest(out_dir: Path) -> str:
    """SHA-256 over the names and bytes of every artifact, in name order."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _read_csv(path: Path, header: str):
    lines = path.read_text().splitlines()
    _require(len(lines) >= 3, f"{path.name}: no data rows")
    _require(lines[0] == header.rstrip("\n"), f"{path.name}: bad meta header {lines[0]!r}")
    cols = lines[1].split(",")
    try:
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    except ValueError as exc:
        raise CheckError(f"{path.name}: unparsable row: {exc}") from exc
    _require(rows.ndim == 2 and rows.shape[1] == len(cols),
             f"{path.name}: ragged rows")
    _require(bool(np.isfinite(rows).all()), f"{path.name}: nonfinite value")
    return cols, rows


class SimulateCheck:
    """Checks one ``simulate`` command's artifacts against its scenario."""

    def __init__(self, scenario: dict, mode: str, seed: int):
        from switchopt.scenario import Scenario

        self.scn = Scenario.from_dict(scenario)
        self.problem = self.scn.build_problem()
        self.network = self.scn.build_network()
        self.mode = mode
        cfg = self.scn.build_config()
        self.h = cfg.h
        self.eta = cfg.eta
        self.n_steps = int(round(cfg.horizon / cfg.h))
        self.stride = cfg.output_stride
        self.times = np.arange(0, self.n_steps + 1, self.stride) * cfg.h
        self.rng = random.Random(seed)

    def __call__(self, out_dir: Path) -> str:
        scn, base = self.scn, f"{self.scn.name}.{self.mode}"
        names = {f"{base}.{k}" for k in
                 ("trajectory.csv", "multipliers.csv", "metrics.csv", "meta.json")}
        found = {p.name for p in out_dir.iterdir()}
        _require(found == names, f"artifacts {sorted(found)}, expected {sorted(names)}")
        header = f"# scenario_hash={scn.hash} root_seed={scn.root_seed()} mode={self.mode}"
        N, n, K = self.problem.n_agents, self.problem.n, len(self.times)

        _, traj = _read_csv(out_dir / f"{base}.trajectory.csv", header)
        _require(traj.shape == (K * N, 2 + 2 * n), f"trajectory has shape {traj.shape}")
        traj = traj.reshape(K, N, 2 + 2 * n)
        _require(np.allclose(traj[:, 0, 0], self.times, rtol=0, atol=1e-9),
                 "trajectory sample times differ from the plan")
        x, theta = traj[:, :, 2:2 + n], traj[:, :, 2 + n:]

        cols, mult = _read_csv(out_dir / f"{base}.multipliers.csv", header)
        _require(mult.shape[0] == K, f"multipliers has {mult.shape[0]} rows, expected {K}")
        lam_cols = [k for k, c in enumerate(cols) if c.startswith("lambda_")]
        _require(len(lam_cols) == self.problem.r, "multiplier columns do not match r")
        _require(bool((mult[:, lam_cols] > 0.0).all()), "a multiplier lambda left (0, inf)")

        _, metrics = _read_csv(out_dir / f"{base}.metrics.csv", header)
        _require(metrics.shape[0] == K, f"metrics has {metrics.shape[0]} rows, expected {K}")

        try:
            meta = json.loads((out_dir / f"{base}.meta.json").read_text())
        except json.JSONDecodeError as exc:
            raise CheckError(f"meta.json: {exc}") from exc
        _require(meta["scenario_hash"] == scn.hash and meta["root_seed"] == scn.root_seed(),
                 "meta.json names another scenario or seed")
        final_x = np.array(meta["final"]["x"], dtype=float)
        _require(bool(np.isfinite(final_x).all()) and np.array_equal(final_x, x[-1]),
                 "meta.json final state differs from the last trajectory sample")
        for key in ("opt_error", "consensus_error", "cost_gap"):
            _require(math.isfinite(meta["final"][key]), f"meta.json final.{key} not finite")

        if self.stride == 1 and self.mode == "fixed":
            self._check_pair_updates(x, theta, mult, len(lam_cols))
        return digest(out_dir)

    def _check_pair_updates(self, x, theta, mult, r):
        """pair = x + theta must advance by exactly h * (dx + dtheta), with no
        noise term, at a seeded sample of recorded steps (fixed network)."""
        from switchopt import dynamics

        pair = x + theta
        for k in self.rng.sample(range(self.n_steps), min(PAIR_CHECK_STEPS, self.n_steps)):
            state = dynamics.SystemState(x[k], theta[k], mult[k, 1:1 + r], mult[k, 1 + r:])
            dx, dtheta, _, _ = dynamics.drift(state, 0, self.problem, self.network, self.eta)
            err = np.abs(pair[k + 1] - pair[k] - self.h * (dx + dtheta)).max()
            scale = 1.0 + max(np.abs(pair[k]).max(), np.abs(pair[k + 1]).max())
            _require(err <= PAIR_CHECK_RTOL * scale,
                     f"pair update at step {k} is off by {err:.3e}: noise leaked "
                     "into x + theta")


class CompareCheck:
    """Checks one ``compare`` command's report."""

    def __init__(self, scenario: dict, alphas, ensemble: int):
        from switchopt.scenario import Scenario

        self.scn = Scenario.from_dict(scenario)
        self.alphas = [float(a) for a in alphas]
        self.ensemble = ensemble
        self.horizon = float(scenario["integrator"]["horizon"])

    def __call__(self, out_dir: Path) -> str:
        name = f"{self.scn.name}.compare.report.json"
        found = sorted(p.name for p in out_dir.iterdir())
        _require(found == [name], f"artifacts {found}, expected [{name!r}]")
        try:
            rep = json.loads((out_dir / name).read_text())
        except json.JSONDecodeError as exc:
            raise CheckError(f"{name}: {exc}") from exc
        _require(rep["scenario_hash"] == self.scn.hash
                 and rep["root_seed"] == self.scn.root_seed(),
                 "report names another scenario or seed")
        _require(rep["alphas"] == self.alphas and rep["ensemble"] == self.ensemble
                 and rep["horizon"] == self.horizon, "report describes another study")
        per_alpha = rep["per_alpha"]
        _require([e["alpha"] for e in per_alpha] == self.alphas,
                 "report needs one entry per alpha")
        for e in per_alpha:
            for key in ("err", "sem", "max_component_z"):
                _require(math.isfinite(e[key]) and e[key] >= 0.0,
                         f"alpha={e['alpha']}: {key}={e[key]!r}")
            _require(all(math.isfinite(v) for v in e["mean"]),
                     f"alpha={e['alpha']}: nonfinite ensemble mean")
        for key in ("averaged_mean", "averaged_sem"):
            _require(all(math.isfinite(v) for v in rep[key]), f"nonfinite {key}")
        return digest(out_dir)


def checker_for(workload, scenario: dict, seed: int):
    if workload.command == "compare":
        return CompareCheck(scenario, workload.alphas, workload.ensemble)
    return SimulateCheck(scenario, workload.mode, seed)
