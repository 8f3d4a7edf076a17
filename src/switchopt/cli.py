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
import sys
from pathlib import Path

import numpy as np

from . import analysis, averaging, chain, dynamics
from .problem import check_licq, check_slater, convexity_lint, derive_multipliers, total_cost
from .scenario import Scenario, ScenarioError, load_scenario

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_WARN = 2


def _fmt(v) -> str:
    return repr(float(v))


def _stationary_or_none(scn: Scenario):
    if scn.mode == "fixed" or "chain" not in scn.raw:
        return None, None
    gen = scn.build_generator()
    return gen, chain.stationary(gen)


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _meta_header(scn: Scenario, mode: str) -> str:
    return f"# scenario_hash={scn.hash} root_seed={scn.root_seed()} mode={mode}\n"


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    try:
        scn = load_scenario(args.scenario)
        problem = scn.build_problem()
        network = scn.build_network()
        gen, pi = _stationary_or_none(scn)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except chain.ChainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    warnings = []
    report = dynamics.check_assumptions(problem, network, pi)
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
    if init.lam.size and init.lam.min() <= 0.0:
        warnings.append("initial_multipliers_nonpositive")
        print("[WARN] initial multipliers must be positive")
    theta_sum = float(np.linalg.norm(init.theta.sum(axis=0)))
    if theta_sum > 1e-9:
        warnings.append("initial_theta_sum_nonzero")
        print(f"[WARN] initial theta blocks sum to {theta_sum:.3e}, expected 0")

    if warnings:
        print(f"validate: {len(warnings)} warning(s): {', '.join(warnings)}")
        return EXIT_WARN
    print("validate: all checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# kkt
# ---------------------------------------------------------------------------


def cmd_kkt(args) -> int:
    try:
        scn = load_scenario(args.scenario)
        problem = scn.build_problem()
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.x is not None:
        cand = np.array([float(v) for v in args.x.split(",")])
    else:
        cand = scn.candidate()
    if cand is None:
        print("error: no candidate point (scenario has none; pass --x)", file=sys.stderr)
        return EXIT_ERROR
    if not check_licq(problem, cand):
        print("error: LICQ fails at the candidate", file=sys.stderr)
        return EXIT_ERROR
    cert = derive_multipliers(problem, cand)
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


def _trajectory_csv(scn: Scenario, mode: str, traj: dynamics.Trajectory, n: int) -> str:
    lines = [_meta_header(scn, mode).rstrip("\n")]
    cols = ["t", "agent"] + [f"x{k + 1}" for k in range(n)] + [
        f"theta{k + 1}" for k in range(n)
    ]
    lines.append(",".join(cols))
    n_agents = traj.x.shape[1]
    for k, t in enumerate(traj.times):
        for i in range(n_agents):
            row = [
                _fmt(t),
                str(i + 1),
                *(_fmt(v) for v in traj.x[k, i]),
                *(_fmt(v) for v in traj.theta[k, i]),
            ]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _multipliers_csv(scn: Scenario, mode: str, traj: dynamics.Trajectory,
                     lam_names, nu_names) -> str:
    lines = [_meta_header(scn, mode).rstrip("\n")]
    lines.append(",".join(["t", *lam_names, *nu_names]))
    for k, t in enumerate(traj.times):
        row = [_fmt(t), *(_fmt(v) for v in traj.lam[k]), *(_fmt(v) for v in traj.nu[k])]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _metrics_csv(scn: Scenario, mode: str, metrics: dict) -> str:
    lines = [_meta_header(scn, mode).rstrip("\n")]
    keys = ["t", "V", "V1", "V2", "V3", "V4", "consensus_error", "opt_error", "cost_gap"]
    lines.append(",".join(keys))
    K = len(metrics["t"])
    for k in range(K):
        lines.append(",".join(_fmt(metrics[key][k]) for key in keys))
    return "\n".join(lines) + "\n"


def _multiplier_names(problem):
    lam_names = [f"lambda_{i + 1}_{j + 1}" for i, j, _ in problem.ineq_index()]
    nu_names = [f"nu_{i + 1}_{j + 1}" for i, j, _ in problem.eq_index()]
    return lam_names, nu_names


def cmd_simulate(args) -> int:
    try:
        scn = load_scenario(args.scenario)
        problem = scn.build_problem()
        network = scn.build_network()
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    mode = args.mode or scn.mode
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
    if args.strict:
        overrides["strict"] = True
    cfg = scn.build_config(**overrides)
    init = scn.build_init(problem)
    root_seed = int(overrides.get("seed", scn.root_seed()))

    pi = None
    try:
        if mode == "fixed":
            noise_ss = chain.trajectory_seeds(root_seed, 0)[1]
            cfg.seed = noise_ss
            traj = dynamics.simulate(problem, network, None, cfg, init)
        elif mode == "switching":
            gen = scn.build_generator()
            pi = chain.stationary(gen)
            chain_ss, noise_ss = chain.trajectory_seeds(root_seed, 0)
            path = chain.sample_path(
                gen, scn.initial_mode(), scn.alpha(), cfg.horizon + cfg.h, chain_ss
            )
            cfg.seed = noise_ss
            traj = dynamics.simulate(problem, network, path, cfg, init, pi=pi)
        elif mode == "averaged":
            gen = scn.build_generator()
            pi = chain.stationary(gen)
            avg = averaging.average_laplacian(network, pi)
            cfg.seed = chain.trajectory_seeds(root_seed, 0)[1]
            traj = averaging.simulate_averaged(problem, avg, cfg, init)
        else:
            print(f"error: unknown mode {mode!r}", file=sys.stderr)
            return EXIT_ERROR
    except (dynamics.IntegrationError, chain.ChainError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    out_dir = Path(args.out_dir)
    base = f"{scn.name}.{mode}"
    lam_names, nu_names = _multiplier_names(problem)
    _write_text(out_dir / f"{base}.trajectory.csv",
                _trajectory_csv(scn, mode, traj, problem.n))
    _write_text(out_dir / f"{base}.multipliers.csv",
                _multipliers_csv(scn, mode, traj, lam_names, nu_names))

    final = traj.final_state
    meta = {
        "scenario_hash": scn.hash,
        "root_seed": root_seed,
        "mode": mode,
        "clamp_count": traj.clamp_count,
        "warnings": traj.warnings,
        "assumptions": dynamics.check_assumptions(problem, network, pi).as_dict(),
        "final": {
            "t": final.t,
            "x": [[float(v) for v in row] for row in final.x],
        },
    }

    cand = scn.candidate()
    if cand is not None and check_licq(problem, cand):
        cert = derive_multipliers(problem, cand)
        eq = dynamics.build_equilibrium(problem, cert)
        omega = analysis.omega_from_certificate(cert)
        eta = cfg.eta_vector(problem.r)
        metrics = analysis.convergence_metrics(traj, eq, problem, eta, omega)
        _write_text(out_dir / f"{base}.metrics.csv", _metrics_csv(scn, mode, metrics))
        if traj.times[-1] != final.t:
            # the horizon is not a multiple of the output stride: the last
            # sample is not the final state, so evaluate the final state alone
            last = dynamics.Trajectory(
                times=np.array([final.t]), x=final.x[None], theta=final.theta[None],
                lam=final.lam[None], nu=final.nu[None], clamp_count=final.clamp_count,
            )
            metrics = analysis.convergence_metrics(last, eq, problem, eta, omega)
        for key in ("opt_error", "consensus_error", "cost_gap"):
            meta["final"][key] = float(metrics[key][-1])
        meta["certificate_residuals"] = {
            k: float(v) for k, v in cert.residuals.items()
        }

    _write_text(out_dir / f"{base}.meta.json",
                json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_dir}/{base}.trajectory.csv, .multipliers.csv, .meta.json"
          + (", .metrics.csv" if cand is not None else ""))
    if traj.warnings:
        for w in traj.warnings:
            print(f"warning: {w}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(args) -> int:
    try:
        scn = load_scenario(args.scenario)
        problem = scn.build_problem()
        network = scn.build_network()
        gen = scn.build_generator()
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    alphas = [float(a) for a in args.alpha] if args.alpha else [0.5, 0.1, 0.02]
    cfg = scn.build_config()
    horizon = args.horizon if args.horizon is not None else cfg.horizon
    init = scn.build_init(problem)
    seed = args.seed if args.seed is not None else scn.root_seed()

    try:
        report = averaging.weak_convergence_experiment(
            problem, network, gen, alphas, args.ensemble, horizon, seed, init,
            cfg=dynamics.IntegratorConfig(
                h=cfg.h, horizon=horizon, eta=cfg.eta, lambda_floor=cfg.lambda_floor
            ),
        )
    except dynamics.IntegrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
