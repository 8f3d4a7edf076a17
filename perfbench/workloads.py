"""Workload definitions and seeded scenario generation.

Each workload is one CLI command over a scenario generated from a bundled
one.  The seed fixes the integrator's root seed (and so every chain path and
noise stream) and a small jitter of the initial agent states; everything
else is the bundled scenario, so the program sees a valid scenario plus flags
and nothing that names the benchmark.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# Half-width of the uniform jitter added to each initial agent coordinate.
# Small enough that the exponential cost stays far from overflow.
INIT_JITTER = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    source: str             # bundled scenario file under scenarios/
    command: str            # "simulate" or "compare"
    mode: str               # integrator mode of the trajectories
    horizon: float
    output_stride: int
    ensemble: int = 1
    alphas: tuple = ()

    def scenario(self, root: Path, seed: int) -> dict:
        """The bundled scenario with a seeded root seed and initial state."""
        data = json.loads((root / "scenarios" / self.source).read_text())
        rng = random.Random(f"{self.name}:{seed}")
        data["integrator"]["seed"] = rng.randrange(2**31)
        data["integrator"]["horizon"] = self.horizon
        data["integrator"]["output_stride"] = self.output_stride
        data["init"]["x"] = [
            [round(float(v) + rng.uniform(-INIT_JITTER, INIT_JITTER), 6) for v in row]
            for row in data["init"]["x"]
        ]
        return data

    def argv(self, scenario_path: Path, out_dir: Path) -> list[str]:
        if self.command == "simulate":
            return ["simulate", str(scenario_path), "--mode", self.mode,
                    "--out-dir", str(out_dir)]
        alpha_flags = [arg for a in self.alphas for arg in ("--alpha", repr(a))]
        return ["compare", str(scenario_path), *alpha_flags,
                "--ensemble", str(self.ensemble), "--out-dir", str(out_dir)]

    def trajectories(self) -> int:
        """Trajectories integrated by one command: for compare, one averaged
        ensemble plus one switched ensemble per alpha."""
        if self.command == "simulate":
            return 1
        return self.ensemble * (1 + len(self.alphas))

    def planned_steps(self, h: float) -> int:
        """Planned Euler-Maruyama steps of all trajectories of one command
        (jump-split substeps not counted)."""
        return self.trajectories() * int(round(self.horizon / h))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="switching-long",
            why="one long switching trajectory; per-step cost dominates and "
                "batching across members cannot help",
            source="five_agent_switching.json", command="simulate",
            mode="switching", horizon=5.0, output_stride=100,
        ),
        Workload(
            name="compare-ensemble",
            why="many short switched and averaged trajectories; per-member "
                "fixed costs and the averaged PSD factor matter",
            source="five_agent_switching.json", command="compare",
            mode="switching", horizon=0.05, output_stride=100,
            ensemble=20, alphas=(0.5, 0.1, 0.02),
        ),
        Workload(
            name="fixed-dense",
            why="K5 fixed network recording every step; convergence metrics "
                "and the CSV writers dominate",
            source="five_agent_fixed.json", command="simulate",
            mode="fixed", horizon=2.0, output_stride=1,
        ),
    )
}
