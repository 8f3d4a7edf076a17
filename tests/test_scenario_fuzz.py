"""Wrong values put into the bundled scenarios, one field at a time: each
mutated scenario either loads or raises ``ScenarioError``, and
``validate`` and a short ``simulate`` of it exit 0, 1 or 2 without a
traceback (``cli.main`` lets only a bug escape as an exception).

The work of a run is bounded by its step count: ``simulate`` gets a horizon
of at most ``STEPS`` steps of the scenario's own step size, whatever that
size is.  No class of wrong value is left out to keep a run short.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from switchopt.cli import main
from switchopt.scenario import ScenarioError, load_scenario

from conftest import SCENARIO_DIR

STEPS = 20

WRONG = [
    None, "", "abc", [], [1], [[1, 2]], {}, True,
    0, -0.0, 0.0, 1.5, math.nan, math.inf, -math.inf, 1e-300, 1e-320, -1e-320, 2**70, -2**70,
    "x1 +", "ln(", "x3", "exp(x1", "x1^x2", "4*x1^2 ^ 2", "1e999", "2 * * x1",
    # past expr.MAX_DEPTH: refused by name, not a RecursionError
    " + ".join(["x1"] * 1000), "(" * 200 + "x1" + ")" * 200, "-" * 1000 + "x1",
]


def paths(node, path=()):
    """Every path into the JSON tree, the containers' own included."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from paths(value, (*path, key))


SCENARIOS = {name: json.loads((SCENARIO_DIR / name).read_text())
             for name in ("five_agent_fixed.json", "five_agent_switching.json")}
PATHS = {name: [p for p in paths(raw) if p] for name, raw in SCENARIOS.items()}


def mutated(name, path, value):
    """The scenario ``name`` with ``value`` put at ``path``."""
    data = json.loads(json.dumps(SCENARIOS[name]))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(sorted(SCENARIOS)))
    return name, draw(st.sampled_from(PATHS[name])), draw(st.sampled_from(WRONG))


def run(argv):
    """``cli.main(argv)`` with its output captured; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(derandomize=True, max_examples=500, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutations())
def test_wrong_values_load_or_exit_cleanly(case):
    name, field, value = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(json.dumps(mutated(name, field, value)))
        try:
            scn = load_scenario(path)
        except ScenarioError:
            scn = None
        assert run(["validate", str(path)]) in ((1,) if scn is None else (0, 1, 2))
        argv = ["simulate", str(path), "--out-dir", str(Path(tmp) / "out")]
        if scn is not None:
            cfg = scn.build_config()
            argv += ["--horizon", repr(min(cfg.horizon, STEPS * cfg.h))]
        assert run(argv) in ((1,) if scn is None else (0, 1))
