import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from switchopt import chain, dynamics
from switchopt.expr import Expr, parse
from switchopt.graph import Graph, Network
from switchopt.problem import AgentSpec, Problem, derive_multipliers
from switchopt.scenario import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

X_STAR = np.array([1.0, 2.0])
X_INIT = np.array([[-2.0, 4.0], [-3.0, 3.0], [1.0, -2.0], [4.0, 2.0], [-3.0, -4.0]])


def make_five_agent_problem() -> Problem:
    n = 2
    return Problem(
        n=n,
        agents=(
            AgentSpec(
                f=parse("4*x1^2 + 2*x2", n),
                g=(parse("(x1 - 2)^2 - x2 + 1", n),),
                h=(parse("2*x1 - x2", n),),
            ),
            AgentSpec(f=parse("2*x2^2", n), g=(parse("-x1 - 2", n),)),
            AgentSpec(f=parse("4*x1", n)),
            AgentSpec(f=parse("2*x2", n)),
            AgentSpec(f=parse("exp(3*x1 + x2)", n)),
        ),
    )


def drift_of_one(model, x, pair, lam, nu, mode):
    """``_Model.drift`` at one state (N, n), (N, n), (r,), (s,), on a lone
    member's flat float lists, as arrays of those shapes."""
    state = [np.asarray(a, dtype=float) for a in (x, pair, lam, nu)]
    blocks = model.drift(*(a.ravel().tolist() for a in state), mode)
    return [np.reshape(b, a.shape) for a, b in zip(state, blocks)]


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cubic_graph(rng, N):
    """A random degree-3 graph on an even N >= 4: a Moebius ladder (a cycle
    and its long diagonals) under a random relabelling."""
    label = rng.permutation(N).tolist()
    edges = [(i, (i + 1) % N) for i in range(N)] + [(i, i + N // 2) for i in range(N // 2)]
    return Graph.from_edges(N, [(label[i], label[j]) for i, j in edges])


SIX_GRAPHS = (
    Graph.from_edges(5, [(0, 1)]),
    Graph.from_edges(5, [(1, 2)]),
    Graph.from_edges(5, [(2, 3)]),
    Graph.from_edges(5, [(3, 4)]),
    Graph.from_edges(5, [(4, 0)]),
    Graph.from_edges(5, [(0, 2), (1, 3)]),
)

SIX_MODE_Q = np.array(
    [
        [-3, 1, 1, 0, 0, 1],
        [1, -2, 0, 1, 0, 0],
        [0, 1, -3, 1, 1, 0],
        [1, 0, 1, -3, 0, 1],
        [0, 1, 0, 1, -3, 1],
        [1, 0, 1, 0, 1, -3],
    ],
    dtype=float,
)


@pytest.fixture(scope="session")
def five_agent():
    return make_five_agent_problem()


@pytest.fixture(scope="session")
def k5_network():
    return Network(graphs=(complete_graph(5),), sigma=0.3, coupling=1.0, kappa=0.5)


@pytest.fixture(scope="session")
def six_mode_network():
    return Network(graphs=SIX_GRAPHS, sigma=0.15, coupling=1.0, kappa=0.5)


@pytest.fixture(scope="session")
def six_mode_generator():
    return chain.validate_generator(SIX_MODE_Q)


@pytest.fixture(scope="session")
def certificate(five_agent):
    return derive_multipliers(five_agent, X_STAR)


@pytest.fixture(scope="session")
def equilibrium(five_agent, certificate):
    return dynamics.build_equilibrium(five_agent, certificate)


@pytest.fixture(scope="session")
def reference_init(five_agent):
    return dynamics.SystemState(
        X_INIT, np.zeros_like(X_INIT), np.array([3.0, 3.0]), np.array([3.0])
    )


@pytest.fixture(scope="session")
def fixed_scenario_path():
    return SCENARIO_DIR / "five_agent_fixed.json"


@pytest.fixture(scope="session")
def switching_scenario_path():
    return SCENARIO_DIR / "five_agent_switching.json"


@pytest.fixture(scope="session")
def fixed_scenario(fixed_scenario_path):
    return load_scenario(fixed_scenario_path)


@pytest.fixture(scope="session")
def switching_scenario(switching_scenario_path):
    return load_scenario(switching_scenario_path)


@pytest.fixture()
def tmp_scenario_file(tmp_path, fixed_scenario):
    def write(mutate=None):
        data = json.loads(json.dumps(fixed_scenario.raw))
        if mutate:
            mutate(data)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        return path

    return write


@pytest.fixture()
def evaluations(monkeypatch):
    """Counts of the ``Expr.value`` and ``Expr.value_and_grad`` calls made
    from here on, keyed by (method name, id of the expression)."""
    counts = Counter()
    for name in ("value", "value_and_grad"):
        def counting(self, x, name=name, method=getattr(Expr, name)):
            counts[name, id(self)] += 1
            return method(self, x)
        monkeypatch.setattr(Expr, name, counting)
    return counts
