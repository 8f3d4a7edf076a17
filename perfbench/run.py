"""switchopt benchmark: one workload of CLI commands in a closed loop.

Usage (from the repository root)::

    python3 perfbench/run.py --workload switching-long --seed 1 --seconds 25 --trace 0

The runner pins BLAS/OpenMP threads to 1, generates the workload's scenario
from ``--seed``, and calls ``switchopt.cli.main`` in this process, one
command at a time, for ``--seconds`` seconds after one warm-up command.
Every command's artifacts are checked (``checks.py``) and must be
byte-identical to the first command's, since all commands of a run share one
seed.  Set-up time is measured separately in fresh interpreters
(``setup_probe.py``).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced commands
alternate and it carries the per-layer metrics of ``tracer.py`` plus the
tracing overhead.  Readable lines before it and a full report under
``.perfbench_out/`` carry the environment, sample counts and digests.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
# The reference loop's iteration count, and the scale of normalized times:
# a normalized second is a wall second at the speed where the loop takes
# REF_NOMINAL_S, about its median on the 2-CPU x86-64 machine (Python 3.11,
# numpy 2.4) the benchmark was defined on, where it ranged 0.019-0.055 s.
REF_ITERATIONS = 2500
REF_NOMINAL_S = 0.030
# The same for set-up times and the numpy-import probe (0.07-0.12 s there).
SETUP_REF_NOMINAL_S = 0.100
SETUP_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "member_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_SPAN_METRICS = {
    "expr.value_and_grad": ("calls", "self_s"),
    "expr.value": ("calls", "self_s"),
    "dynamics.simulate": ("calls", "self_s"),
    "dynamics.step": ("calls", "self_s"),
    "dynamics.drift": ("calls", "self_s"),
    "dynamics.noise": ("self_s",),
    "dynamics.check_assumptions": ("calls", "self_s"),
    "averaging.simulate_averaged": ("calls", "self_s"),
    "averaging.diffusion_blocks": ("calls", "self_s"),
    "averaging.weak_convergence_experiment": ("self_s",),
    "chain.sample_path": ("calls", "self_s"),
    "chain.stationary": ("self_s",),
    "analysis.convergence_metrics": ("calls", "self_s"),
    "analysis.lyapunov": ("calls", "self_s"),
    "problem.total_cost": ("calls", "self_s"),
    "problem.derive_multipliers": ("self_s",),
    "scenario.load_scenario": ("self_s",),
    "cli.csv": ("self_s",),
    "cli.write": ("self_s",),
}
PER_LAYER = {
    **{f"{span}.{kind}": "count" if kind == "calls" else "s"
       for span, kinds in _SPAN_METRICS.items() for kind in kinds},
    "dynamics.model_builds": "count",
    "dynamics.jump_splits": "count",
    "dynamics.clamps": "count",
    "chain.jumps": "count",
    "cli.csv.bytes": "bytes",
    "dynamics.us_per_step": "us",
    "trace.overhead_frac": "ratio",
}
# Per-layer times, normalized like command times.
TIME_METRICS = {name for name, unit in PER_LAYER.items() if unit in ("s", "us")}


def _git_commit():
    """Commit of the checkout, or None outside a git checkout."""
    try:
        # The ceiling keeps git from reporting an enclosing repository's commit.
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _probe(arg) -> float:
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(arg)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def _setup_times(scenario_path: Path) -> dict:
    """SETUP_REPEATS set-up probes, each in a fresh interpreter, raw and
    normalized by the mean of the numpy-import probes run just before and
    after it (the command reference loop does not track start-up work)."""
    out = {"setup_s": [], "setup_norm_s": [], "setup_reference_s": [_probe("--reference")]}
    for _ in range(SETUP_REPEATS):
        out["setup_s"].append(_probe(scenario_path))
        out["setup_reference_s"].append(_probe("--reference"))
        ref = 0.5 * (out["setup_reference_s"][-2] + out["setup_reference_s"][-1])
        out["setup_norm_s"].append(out["setup_s"][-1] * SETUP_REF_NOMINAL_S / ref)
    return out


class Runner:
    """Runs and checks one workload's commands; counts what failed."""

    def __init__(self, workload, work: Path, seed: int):
        from checks import checker_for
        from switchopt import cli

        self.workload = workload
        self.main = cli.main
        self.scenario = workload.scenario(ROOT, seed)
        self.h = float(self.scenario["integrator"]["step"])
        self.scenario_path = work / "scenario.json"
        self.scenario_path.write_text(json.dumps(self.scenario, indent=2) + "\n")
        self.out_dir = work / "out"
        self.argv = workload.argv(self.scenario_path, self.out_dir)
        self.check = checker_for(workload, self.scenario, seed)
        self.attempted = 0
        self.failures: list[str] = []
        self.digest = None

    def run(self, tracer=None) -> float:
        """One command: wall time, artifacts written included."""
        from checks import CheckError

        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        self.attempted += 1
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            if tracer is not None:
                tracer.reset()
                tracer.install()
            t0 = time.perf_counter()
            try:
                rc = self.main(self.argv)
            except (Exception, SystemExit):  # the loop goes on; the failure is recorded
                rc = traceback.format_exc()
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        if rc != 0:
            self.failures.append(f"command {self.attempted}: exit {rc}; output:\n"
                                 f"{log.getvalue()[-2000:]}")
            return elapsed
        try:
            digest = self.check(self.out_dir)
        except (CheckError, KeyError, TypeError, ValueError, OSError) as exc:
            self.failures.append(f"command {self.attempted}: check failed: {exc!r}")
            return elapsed
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self.failures.append(f"command {self.attempted}: artifacts differ from "
                                 "the first command's under the same seed")
        return elapsed


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _reference_loop() -> float:
    """Wall time of a fixed loop of small numpy operations like those of one
    integrator step; it tracks the machine's current speed."""
    import numpy as np

    t0 = time.perf_counter()
    x = np.arange(10.0).reshape(5, 2)
    w = np.ones((5, 5))
    lap = 5.0 * np.eye(5) - w
    acc = 0.0
    for _ in range(REF_ITERATIONS):
        diffs = x[None, :, :] - x[:, None, :]
        y = lap @ x + np.einsum("ij,ijn->in", w, diffs)
        acc += float(y[0, 0]) + bool(np.isfinite(y).all())
    if not math.isfinite(acc):
        raise RuntimeError("reference loop diverged")
    return time.perf_counter() - t0


def _measure(runner, seconds: float, trace: bool) -> dict:
    """Closed loop of commands for ``seconds``, after one warm-up command.

    Each command's wall time is also divided by the mean of the reference
    loops run just before and just after it and scaled by REF_NOMINAL_S, which
    removes most of the machine's speed swings from the normalized samples;
    the per-layer times of a traced command are scaled by the same factor."""
    from tracer import Tracer

    runner.run()  # warm-up: checked and counted, not timed
    _reference_loop()
    tracer = Tracer() if trace else None
    out = {"plain_s": [], "plain_norm_s": [], "traced_s": [], "traced_norm_s": [],
           "reference_s": [_reference_loop()]}
    layers = []

    def timed(kind, tr=None):
        elapsed = runner.run(tr)
        out["reference_s"].append(_reference_loop())
        scale = REF_NOMINAL_S / (0.5 * (out["reference_s"][-2] + out["reference_s"][-1]))
        out[f"{kind}_s"].append(elapsed)
        out[f"{kind}_norm_s"].append(elapsed * scale)
        return scale

    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not out["plain_s"] or (
            trace and not out["traced_s"]):
        timed("plain")
        if trace:
            scale = timed("traced", tracer)
            layers.append({name: value * scale if name in TIME_METRICS else value
                           for name, value in tracer.metrics().items()})
    if trace:
        names = set().union(*layers)
        out["per_layer"] = {
            name: statistics.median(m[name] for m in layers)
            for name in names if all(name in m for m in layers)
        }
        out["per_layer"]["trace.overhead_frac"] = (
            statistics.median(out["traced_norm_s"])
            / statistics.median(out["plain_norm_s"]) - 1.0)
        tracer.write_spans(OUT / f"{runner.workload.name}.spans.csv")
    return out


def main(argv=None) -> int:
    for var in THREAD_VARS:  # before numpy is first imported, here or in a child
        os.environ[var] = "1"
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "switchopt" / "__init__.py").is_file():
        print(f"error: no switchopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import switchopt

    if Path(switchopt.__file__).resolve().parent != ROOT / "src" / "switchopt":
        print(f"error: imported switchopt from {switchopt.__file__}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = OUT / f"{workload.name}.{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(workload, work, args.seed)
        setup = {} if args.trace else _setup_times(runner.scenario_path)
        measured = _measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    env = _environment(args)
    report = {
        "env": env,
        "argv": [str(a).replace(str(ROOT) + os.sep, "") for a in runner.argv],
        "planned_member_steps": workload.planned_steps(runner.h),
        "attempted": runner.attempted,
        "failed": failed,
        "fail_frac": failed / runner.attempted,
        "failures": runner.failures,
        "artifact_sha256": runner.digest,
        **setup,
        **measured,
    }
    if args.trace:
        metrics = {name: {"value": measured["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER.items() if name in measured["per_layer"]}
        report["missing"] = sorted(set(PER_LAYER) - set(metrics))
        report["not_exercised"] = sorted(name for name, m in metrics.items() if m["value"] == 0)
    else:
        run_s = statistics.median(measured["plain_norm_s"])
        values = {
            "setup_s": statistics.median(setup["setup_norm_s"]),
            "run_s": run_s,
            "member_steps_per_s": workload.planned_steps(runner.h) / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    report["metrics"] = metrics
    (OUT / f"{workload.name}.seed{args.seed}.trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")

    for line in runner.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"env: {json.dumps(env)}")
    print(f"workload {workload.name}: {' '.join(report['argv'])}")
    print(f"fail_frac: {report['fail_frac']!r} ({failed} of {runner.attempted} commands)")
    print(f"artifact sha256: {runner.digest}")
    for key, samples in (("setup wall", setup.get("setup_s")),
                         ("setup_s (normalized)", setup.get("setup_norm_s")),
                         ("setup reference", setup.get("setup_reference_s")),
                         ("run wall", measured["plain_s"]),
                         ("run_s (normalized)", measured["plain_norm_s"]),
                         ("traced run wall", measured["traced_s"]),
                         ("traced run_s (normalized)", measured["traced_norm_s"]),
                         ("reference loop", measured["reference_s"])):
        if samples:
            q1, med, q3 = _quartiles(samples)
            print(f"{key}: median {med:.6f} s, quartiles {q1:.6f}..{q3:.6f}, "
                  f"max {max(samples):.6f}, n={len(samples)}")
    if report.get("missing"):
        print(f"missing metrics: {', '.join(report['missing'])}")
    if report.get("not_exercised"):
        print(f"not exercised (read 0): {', '.join(report['not_exercised'])}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
