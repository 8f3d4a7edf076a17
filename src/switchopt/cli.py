"""Command-line front end.

Subcommands::

    switchopt validate SCENARIO            gate checks; exit 0 ok / 2 warn / 1 error
    switchopt kkt SCENARIO [--x ...]       certify a candidate optimum
    switchopt simulate SCENARIO [...]      integrate and write artifacts
    switchopt compare SCENARIO [...]       switched-vs-averaged study

Every artifact embeds the scenario hash and the root seed; identical
(hash, seed) reruns produce byte-identical files.  Floats are written with
repr, the shortest round-trip representation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import analysis, averaging, chain, dynamics
from .problem import certify, check_licq, check_slater, convexity_lint, total_cost
from .scenario import load_scenario

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_WARN = 2


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    scn = load_scenario(args.scenario)
    problem = scn.build_problem()
    network = scn.build_network()
    pi = None if scn.mode == "fixed" else chain.stationary(scn.build_generator())

    warnings = []
    report = dynamics.check_assumptions(network, pi)
    for c in report.checks:
        tag = "ok " if c.passed else "WARN"
        print(f"[{tag}] {c.name}: {c.detail}")
        if not c.passed:
            warnings.append(c.name)

    cand = scn.candidate()
    if cand is not None:
        licq = check_licq(problem, cand)
        print(f"[{'ok ' if licq else 'WARN'}] licq_at_candidate: {cand.tolist()}")
        if not licq:
            warnings.append("licq_at_candidate")

    probe = scn.slater_probe()
    if probe is not None:
        slater = check_slater(problem, probe)
        print(f"[{'ok ' if slater else 'WARN'}] slater_probe: {probe.tolist()} "
              f"strictly feasible: {slater}")
        if not slater:
            warnings.append("slater_probe")

    lint = convexity_lint(problem, np.random.default_rng(0))
    for line in lint[:10]:
        print(f"[lint] {line}")
    if lint:
        print(f"[lint] {len(lint)} curvature finding(s); advisory only")

    init = scn.build_init(problem)
    for name, text in dynamics.start_warnings(init.x, init.pair, init.lam, scn.build_config()):
        warnings.append(name)
        print(f"[WARN] {name}: {text}")

    if warnings:
        print(f"validate: {len(warnings)} warning(s): {', '.join(warnings)}")
        return EXIT_WARN
    print("validate: all checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# kkt
# ---------------------------------------------------------------------------


def _x_entry(k: int, text: str) -> float:
    """Entry k (1-based) of the --x flag as a finite float."""
    try:
        v = float(text)
    except ValueError:
        raise ValueError(f"--x entry {k} must be a number, got {text!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"--x entry {k} must be finite, got {v!r}")
    return v


def cmd_kkt(args) -> int:
    scn = load_scenario(args.scenario)
    problem = scn.build_problem()
    if args.x is not None:
        cand = np.array([_x_entry(k, text) for k, text in enumerate(args.x.split(","), 1)])
        if len(cand) != problem.n:
            raise ValueError(f"--x must have {problem.n} entries, got {len(cand)}")
    else:
        cand = scn.candidate()
    if cand is None:
        raise ValueError("no candidate point (scenario has none; pass --x)")
    cert = certify(problem, cand)
    if cert is None:
        raise ValueError("LICQ fails at the candidate")
    cost = total_cost(problem, cand)
    print(f"candidate x*: {[float(v) for v in cand]}")
    print(f"total cost:   {cost!r}")
    print(f"lambda*:      {[float(v) for v in cert.lambda_star]}")
    print(f"nu*:          {[float(v) for v in cert.nu_star]}")
    for name, value in cert.residuals.items():
        print(f"residual {name}: {value!r}")
    for w in cert.warnings:
        print(f"warning: {w}")
    payload = {
        "scenario_hash": scn.hash,
        "root_seed": scn.root_seed(),
        "certificate": cert.as_dict(),
        "total_cost": cost,
    }
    if args.out_dir:
        out = Path(args.out_dir) / f"{scn.name}.kkt.json"
        _write_text(out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


CSV_BLOCK = 128  # samples formatted at a time: a writer's temporaries span one block


def _csv(header: str, cols, times, labels, values) -> str:
    """The CSV text: ``header``, the column names ``cols``, then per sample
    k one line per label j, ``repr(times[k]) + labels[j]`` and its cells.

    ``values`` are arrays with the samples on axis 0, whose entries fill a
    sample's lines in order, the same number on each.  Each label ends in
    the comma before the cells, dropped when there are none.  A block of
    CSV_BLOCK samples is formatted in one ``repr`` pass over its values.
    """
    parts = [header, ",".join(cols)]
    L = len(labels)
    widths = [math.prod(v.shape[1:]) // L for v in values]  # each array's cells per line
    C = sum(widths)
    if not C:
        labels = [label[:-1] for label in labels]
    for lo in range(0, len(times), CSV_BLOCK):
        ts = times[lo:lo + CSV_BLOCK].tolist()
        block = [np.reshape(v[lo:lo + CSV_BLOCK], (len(ts), L, w))
                 for v, w in zip(values, widths)]
        cells = list(map(repr, np.concatenate(block, axis=2).ravel().tolist()))
        heads = [t + label for t in map(repr, ts) for label in labels]
        parts.append("\n".join([head + ",".join(cells[i * C:i * C + C])
                                for i, head in enumerate(heads)]))
    return "\n".join(parts) + "\n"


def _trajectory_csv(header: str, traj: dynamics.Trajectory, n: int) -> str:
    cols = ["t", "agent"] + [f"x{k + 1}" for k in range(n)] + [
        f"theta{k + 1}" for k in range(n)
    ]
    labels = [f",{i + 1}," for i in range(traj.x.shape[1])]
    return _csv(header, cols, traj.times, labels, (traj.x, traj.theta))


def _multipliers_csv(header: str, traj: dynamics.Trajectory, lam_names, nu_names) -> str:
    return _csv(header, ["t", *lam_names, *nu_names], traj.times, [","], (traj.lam, traj.nu))


def _metrics_csv(header: str, metrics: dict) -> str:
    keys = ["t", "V", "V1", "V2", "V3", "V4", "consensus_error", "opt_error", "cost_gap"]
    return _csv(header, keys, metrics["t"], [","], [metrics[key] for key in keys[1:]])


def _root_seed(scn, seed) -> int:
    """The --seed flag, else the scenario's root seed."""
    if seed is not None and seed < 0:
        raise ValueError(f"--seed must be a nonnegative integer, got {seed}")
    return scn.root_seed() if seed is None else seed


def _horizon(value: float) -> float:
    """A given --horizon flag, positive and finite."""
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"--horizon must be positive and finite, got {value}")
    return value


def _multiplier_names(problem):
    lam_names = [f"lambda_{i + 1}_{j + 1}" for i, j, _ in problem.ineq_index()]
    nu_names = [f"nu_{i + 1}_{j + 1}" for i, j, _ in problem.eq_index()]
    return lam_names, nu_names


def cmd_simulate(args) -> int:
    scn = load_scenario(args.scenario)
    problem = scn.build_problem()
    network = scn.build_network()
    mode = args.mode or scn.mode
    if mode == "fixed" and network.n_modes > 1:
        raise ValueError(
            f"fixed mode runs one graph, but the network has {network.n_modes}; "
            "run it in switching or averaged mode"
        )
    root_seed = _root_seed(scn, args.seed)
    chain_ss, noise_ss = chain.trajectory_seeds(root_seed, 0)
    overrides = {"strict": True} if args.strict else {}
    if args.horizon is not None:
        overrides["horizon"] = _horizon(args.horizon)
    cfg = scn.build_config(seed=noise_ss, **overrides)
    init = scn.build_init(problem)
    gen = None if mode == "fixed" else scn.build_generator()
    pi = None if gen is None else chain.stationary(gen)

    # certify the candidate before integrating, so a wrong one writes nothing
    cand = scn.candidate()
    cert = None if cand is None else certify(problem, cand)
    if cert is not None:
        eq = dynamics.build_equilibrium(problem, cert)

    with warnings.catch_warnings():
        # each one is in traj.warnings too, printed once on stdout below
        warnings.simplefilter("ignore", dynamics.TrajectoryWarning)
        if mode == "averaged":
            traj = averaging.simulate_averaged(problem, network, pi, cfg, init)
        else:
            path = None if gen is None else chain.sample_path(
                gen, scn.initial_mode(), scn.alpha(), cfg.horizon + cfg.h, chain_ss
            )
            traj = dynamics.simulate(problem, network, path, cfg, init, pi=pi)

    out_dir = Path(args.out_dir)
    base = f"{scn.name}.{mode}"
    header = f"# scenario_hash={scn.hash} root_seed={root_seed} mode={mode}"
    final = traj.final_state
    meta = {
        "scenario_hash": scn.hash,
        "root_seed": root_seed,
        "mode": mode,
        "clamp_count": traj.clamp_count,
        "warnings": traj.warnings,
        "assumptions": traj.assumptions.as_dict(),
        "final": {
            "t": final.t,
            "x": [[float(v) for v in row] for row in final.x],
        },
    }

    written = ["trajectory.csv", "multipliers.csv", "meta.json"]
    if cert is not None:  # both metric passes precede the writes: a failing one writes nothing
        omega = analysis.omega_from_certificate(cert)
        metrics = end = analysis.convergence_metrics(traj, eq, problem, cfg.eta, omega)
        written.append("metrics.csv")
        if traj.times[-1] != final.t:
            # the horizon is not a multiple of the output stride: the last
            # sample is not the final state, so evaluate the final state alone
            last = dynamics.Trajectory(
                times=np.array([final.t]), x=final.x[None], theta=final.theta[None],
                lam=final.lam[None], nu=final.nu[None], clamp_count=final.clamp_count,
            )
            end = analysis.convergence_metrics(last, eq, problem, cfg.eta, omega)
        for key in ("opt_error", "consensus_error", "cost_gap"):
            meta["final"][key] = float(end[key][-1])
        meta["certificate_residuals"] = {
            k: float(v) for k, v in cert.residuals.items()
        }

    lam_names, nu_names = _multiplier_names(problem)
    _write_text(out_dir / f"{base}.trajectory.csv",
                _trajectory_csv(header, traj, problem.n))
    _write_text(out_dir / f"{base}.multipliers.csv",
                _multipliers_csv(header, traj, lam_names, nu_names))
    if cert is not None:
        _write_text(out_dir / f"{base}.metrics.csv", _metrics_csv(header, metrics))
    _write_text(out_dir / f"{base}.meta.json",
                json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_dir}/{base}." + ", .".join(written))
    for w in traj.warnings:
        print(f"warning: {w}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(args) -> int:
    scn = load_scenario(args.scenario)
    problem = scn.build_problem()
    cfg = scn.build_config()
    horizon = cfg.horizon if args.horizon is None else _horizon(args.horizon)
    seed = _root_seed(scn, args.seed)
    with warnings.catch_warnings():
        # each one is in report["warnings"] too, printed once on stdout below
        warnings.simplefilter("ignore", dynamics.TrajectoryWarning)
        report = averaging.weak_convergence_experiment(
            problem, scn.build_network(), scn.build_generator(),
            args.alpha or [0.5, 0.1, 0.02], args.ensemble, horizon, seed,
            scn.build_init(problem), cfg=cfg,
        )
    report["scenario_hash"] = scn.hash
    report["root_seed"] = seed
    for entry in report["per_alpha"]:
        print(f"alpha={entry['alpha']:<8g} err={entry['err']:.6f} sem={entry['sem']:.6f}")
    print(f"monotone within 2 sem: {report['monotone_within_2sem']}")
    print(f"separation {report['separation']:.6f} vs threshold "
          f"{report['separation_threshold_2sem']:.6f} -> separated={report['separated']}")

    out = Path(args.out_dir) / f"{scn.name}.compare.report.json"
    _write_text(out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    for w in report["warnings"]:
        print(f"warning: {w}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="switchopt", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check a scenario against the gates")
    v.add_argument("scenario")
    v.set_defaults(func=cmd_validate)

    k = sub.add_parser("kkt", help="certify a candidate optimum")
    k.add_argument("scenario")
    k.add_argument("--x", help="comma-separated candidate, overrides the file")
    k.add_argument("--out-dir", default=None)
    k.set_defaults(func=cmd_kkt)

    s = sub.add_parser("simulate", help="integrate one trajectory and write artifacts")
    s.add_argument("scenario")
    s.add_argument("--mode", choices=["fixed", "switching", "averaged"])
    s.add_argument("--seed", type=int)
    s.add_argument("--horizon", type=float)
    s.add_argument("--out-dir", default="out")
    s.add_argument("--strict", action="store_true")
    s.set_defaults(func=cmd_simulate)

    c = sub.add_parser("compare", help="switched vs averaged weak-convergence study")
    c.add_argument("scenario")
    c.add_argument("--alpha", action="append", type=float,
                   help="repeatable; decreasing time-scale ratios")
    c.add_argument("--ensemble", type=int, default=200)
    c.add_argument("--seed", type=int)
    c.add_argument("--horizon", type=float)
    c.add_argument("--out-dir", default="out")
    c.set_defaults(func=cmd_compare)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Every check on a scenario or a flag raises ValueError or a subclass
    # (ScenarioError, ChainError, ExprError), and IntegrationError is a run
    # that left its domain, went nonfinite or failed the --strict gate.
    # Anything else is a bug and keeps its traceback.
    try:
        return args.func(args)
    except (ValueError, dynamics.IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
