"""Generated code is compiled in one place: ``expr._code``, the bounded
per-process cache that ``Emitter.compile`` runs.  A call of the builtin
``compile`` or ``exec`` anywhere else in ``switchopt`` would bypass it.

The generated sources themselves are pinned by SHA-256, as the artifacts
are in ``test_artifact_digests.py``: a refactor of the expression layer
keeps them byte for byte, and a change that moves the pin says why in
CHANGES.md."""

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

import switchopt
from switchopt import chain, expr
from switchopt.dynamics import _Model
from switchopt.expr import parse

from test_expr import random_expr_text

SOURCES = sorted(Path(switchopt.__file__).parent.glob("*.py"))
# the calls allowed: (module, enclosing function, builtin called)
ALLOWED = {("expr.py", "_code", "compile"), ("expr.py", "compile", "exec")}


def builtin_compile_calls(source: str, module: str) -> list[str]:
    """The calls of the builtin ``compile`` or ``exec`` in ``source`` that
    the cache path does not make, as ``name (line n)``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id in ("compile", "exec")
                    and (module, function, child.func.id) not in ALLOWED):
                found.append(f"{child.func.id} (line {child.lineno})")
            visit(child, function)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_generated_code_compiles_only_through_the_cache(path):
    assert builtin_compile_calls(path.read_text(), path.name) == []


def test_a_call_that_bypasses_the_cache_is_caught():
    source = ("import re\nre.compile('x')\n"
              "def _code(source):\n    return compile(source, 'f', 'exec')\n"
              "def lone(source, ns):\n    exec(compile(source, 'f', 'exec'), ns)\n")
    assert builtin_compile_calls(source, "expr.py") == ["exec (line 6)", "compile (line 6)"]
    assert builtin_compile_calls(source, "dynamics.py") == [
        "compile (line 4)", "exec (line 6)", "compile (line 6)"]


def test_generated_sources_match_their_digest(monkeypatch, fixed_scenario, switching_scenario):
    """Every source ``Emitter.compile`` generates for the two bundled
    scenarios (each model's lone substep, with mode S on the switching one,
    its batch kernel and total cost, and each expression's value and
    value-and-gradient pass), the same passes of a seeded corpus of random
    expressions, and the corpus printed.  A source names its locals in
    emission order, so a digest that holds keeps every compiled bit."""
    recorded, code = [], expr._code

    def recording(source, filename):
        recorded.append(source)
        return code(source, filename)

    monkeypatch.setattr(expr, "_code", recording)

    def passes(e):
        for method in (e.value, e.value_and_grad):
            try:
                method([0.5] * e.n)
            except expr.DomainError:
                pass

    for scenario in (fixed_scenario, switching_scenario):
        problem = scenario.build_problem()
        network = scenario.build_network()
        pi = chain.stationary(scenario.build_generator()) if network.n_modes > 1 else None
        _Model(problem, network, scenario.build_config(seed=0).eta, pi).lone
        problem.batch_kernel
        problem.cost
        for agent in problem.agents:
            for e in (agent.f, *agent.g, *agent.h):
                passes(e)
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(1, 4))
        e = parse(random_expr_text(rng, n), n)
        passes(e)
        recorded.append(str(e))
    assert len(recorded) == 940  # 2 x 20 scenario sources, 300 x 3 from the corpus
    assert hashlib.sha256("\0".join(recorded).encode()).hexdigest() == (
        "5f0b3f2ac09f1ca7c7c6b3e70b0a795d24ba46da329c1e3135a4d5733188f40b")
