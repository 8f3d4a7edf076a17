"""Scenario files: one JSON document that pins an entire experiment.

A scenario bundles the agent expressions, the switching topology with its
noise model, the mode chain, integrator settings, initial conditions and an
optional candidate optimum.  Everything downstream (validation, simulation,
comparison) consumes a Scenario, and every output file embeds the scenario
hash plus the root seed so reruns are verifiably identical.

Schema (all node and mode indices in the file are 1-based)::

    {
      "name": "five_agent_fixed",
      "mode": "fixed" | "switching" | "averaged",
      "problem": {
        "dimension": 2,
        "agents": [
          {"cost": "4*x1^2 + 2*x2",
           "inequalities": ["(x1 - 2)^2 - x2 + 1"],
           "equalities": ["2*x1 - x2"]},
          ...
        ]
      },
      "network": {
        "nodes": 5,
        "graphs": [[[1,2],[2,3], ...], ...],   # edge lists per mode
        "sigma": 0.3,                           # scalar or NxN matrix
        "kappa": 0.5,
        "coupling": 1.0
      },
      "chain": {                                # required unless fixed mode, checked if given
        "generator": [[...], ...],              # S x S rate matrix
        "alpha": 0.01,
        "initial_mode": 1
      },
      "integrator": {
        "step": 0.001, "horizon": 50.0, "eta": 1.0,
        "lambda_floor": 0.0, "output_stride": 100, "seed": 20260801
      },
      "init": {
        "x": [[-2, 4], ...],                    # one row per agent
        "theta": 0.0,                           # scalar or rows
        "lambda": 3.0,                          # scalar or list
        "nu": 3.0
      },
      "candidate": [1.0, 2.0],                  # optional claimed optimum
      "slater_probe": [2.0, 4.0]                # optional strictly feasible point
    }
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chain import Generator, check_alpha, validate_generator
from .dynamics import IntegratorConfig, SystemState
from .expr import parse
from .graph import Graph, Network, is_integer
from .problem import AgentSpec, Problem

__all__ = ["Scenario", "ScenarioError", "load_scenario", "scenario_hash"]

MODES = ("fixed", "switching", "averaged")


class ScenarioError(ValueError):
    pass


def _require(cond, msg):
    if not cond:
        raise ScenarioError(msg)


def _integer(section: dict, name: str, key: str, default=None, nonnegative=False) -> int:
    """``section[key]`` (``default`` if absent), which must be an integer: a
    float or a bool would pass int() and run as another value."""
    value = section.get(key, default)
    kind = "a nonnegative integer" if nonnegative else "an integer"
    _require(is_integer(value) and not (nonnegative and value < 0),
             f"{name}: {key} must be {kind}, got {value!r}")
    return value


def _point(raw: dict, key: str):
    """The optional point ``raw[key]``, finite and of the problem's dimension."""
    value = raw.get(key)
    if value is None:
        return None
    value = np.asarray(value, dtype=float)
    _require(value.shape == (raw["problem"]["dimension"],),
             f"{key} dimension does not match the problem")
    _require(np.isfinite(value).all(), f"{key} must be finite")
    return value


def _section(name, build, *args):
    """Run one builder; a mistyped field surfaces as a TypeError or
    ValueError from numpy or a constructor, or as the OverflowError of
    ``int(inf)``, reported under its section."""
    try:
        return build(*args)
    except ScenarioError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{name}: {exc}") from exc


@dataclass
class Scenario:
    """One experiment file, each field read one way.  The settings' rules
    are ``IntegratorConfig``'s and the network's ``Network``'s, run under
    ``_section``, which names the section; the loader checks only what no
    constructor knows: integers, scalar init blocks and optional points."""

    name: str
    mode: str
    raw: dict

    def __post_init__(self):
        _require(self.mode in MODES, f"mode must be one of {MODES}, got {self.mode!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        _require(isinstance(data, dict), "scenario must be a JSON object")
        for key in ("name", "mode", "problem", "network", "integrator", "init"):
            _require(key in data, f"missing scenario field {key!r}")
        scn = cls(name=str(data["name"]), mode=str(data["mode"]), raw=data)
        # build everything once so malformed input fails at load time
        problem = _section("problem", scn.build_problem)
        network = _section("network", scn.build_network)
        _require(
            network.n_nodes == problem.n_agents,
            f"network nodes ({network.n_nodes}) != agents ({problem.n_agents})",
        )
        if scn.mode in ("switching", "averaged"):
            _require("chain" in data, f"{scn.mode} mode requires a chain section")
        if "chain" in data:  # checked in fixed mode too, which a --mode flag can override
            gen = _section("chain", scn.build_generator)
            _section("chain", scn.alpha)
            _section("chain", scn.initial_mode)
            _require(
                gen.n_modes == network.n_modes,
                f"generator has {gen.n_modes} modes, network {network.n_modes}",
            )
        # the file's seed is root_seed's to check, as one nonnegative integer
        _section("integrator", lambda: scn.build_config(seed=0).eta_vector(problem.r))
        _section("integrator", scn.root_seed)
        _section("init", scn.build_init, problem)
        _section("candidate", scn.candidate)
        _section("slater_probe", scn.slater_probe)
        return scn

    # -- builders ----------------------------------------------------------

    def build_problem(self) -> Problem:
        section = self.raw["problem"]
        _require("dimension" in section, "problem.dimension missing")
        _require("agents" in section and section["agents"], "problem.agents missing/empty")
        n = _integer(section, "problem", "dimension")
        agents = []
        for idx, a in enumerate(section["agents"]):
            _require("cost" in a, f"agent {idx + 1}: cost missing")
            try:
                f = parse(a["cost"], n)
                g = tuple(parse(s, n) for s in a.get("inequalities", []))
                h = tuple(parse(s, n) for s in a.get("equalities", []))
            except (TypeError, ValueError) as exc:
                raise ScenarioError(f"agent {idx + 1}: {exc}") from exc
            agents.append(AgentSpec(f=f, g=g, h=h))
        return Problem(n=n, agents=tuple(agents))

    def build_network(self) -> Network:
        section = self.raw["network"]
        for key in ("nodes", "graphs", "sigma", "kappa", "coupling"):
            _require(key in section, f"network.{key} missing")
        n_nodes = _integer(section, "network", "nodes")
        graphs = []
        for gi, pairs in enumerate(section["graphs"]):
            try:
                graphs.append(Graph.from_edges(n_nodes, pairs, one_based=True))
            except ValueError as exc:
                raise ScenarioError(f"network.graphs[{gi}]: {exc}") from exc
        return Network(
            graphs=tuple(graphs),
            sigma=section["sigma"],
            coupling=float(section["coupling"]),
            kappa=float(section["kappa"]),
        )

    def build_generator(self) -> Generator:
        section = self.raw.get("chain")
        _require(section is not None, "chain section missing")
        _require("generator" in section, "chain.generator missing")
        return validate_generator(np.asarray(section["generator"], dtype=float))

    def alpha(self) -> float:
        return check_alpha(self.raw.get("chain", {}).get("alpha", 1.0))

    def initial_mode(self) -> int:
        return _integer(self.raw.get("chain", {}), "chain", "initial_mode", 1) - 1

    def build_config(self, **overrides) -> IntegratorConfig:
        section = dict(self.raw["integrator"])
        section.update(overrides)
        for key in ("step", "horizon"):
            _require(key in section, f"integrator.{key} missing")
        return IntegratorConfig(
            h=float(section["step"]),
            horizon=float(section["horizon"]),
            eta=section.get("eta", 1.0),
            lambda_floor=float(section.get("lambda_floor", 1e-12)),
            seed=section.get("seed", 0),
            output_stride=section.get("output_stride", 1),
            strict=section.get("strict", False),
        )

    def build_init(self, problem: Problem) -> SystemState:
        section = self.raw["init"]
        _require("x" in section, "init.x missing")
        x = np.asarray(section["x"], dtype=float)
        _require(
            x.shape == (problem.n_agents, problem.n),
            f"init.x must be {problem.n_agents} rows of dimension {problem.n}",
        )

        def fill(key, default, shape, size):  # a scalar fills the block
            value = np.asarray(section.get(key, default), dtype=float)
            if value.ndim == 0:
                value = np.full(shape, float(value))
            _require(value.shape == shape, f"init.{key} must be scalar or {size}")
            return value
        theta = fill("theta", 0.0, x.shape, "match init.x")
        lam = fill("lambda", 1.0, (problem.r,), f"length {problem.r}")
        nu = fill("nu", 0.0, (problem.s,), f"length {problem.s}")
        for key, value in (("x", x), ("theta", theta), ("lambda", lam), ("nu", nu)):
            _require(np.isfinite(value).all(), f"init.{key} must be finite")
        return SystemState(x, theta, lam, nu)

    def candidate(self):
        return _point(self.raw, "candidate")

    def slater_probe(self):
        return _point(self.raw, "slater_probe")

    def root_seed(self) -> int:
        return _integer(self.raw["integrator"], "integrator", "seed", 0, nonnegative=True)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return json.loads(canonical_json(self.raw))

    def dumps(self) -> str:
        return canonical_json(self.raw)

    @property
    def hash(self) -> str:
        return scenario_hash(self.raw)


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)


def scenario_hash(data) -> str:
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()[:16]


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return Scenario.from_dict(data)
