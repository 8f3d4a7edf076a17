"""Generated code is compiled in one place: ``expr._code``, the bounded
per-process cache that ``Emitter.compile`` runs.  A call of the builtin
``compile`` or ``exec`` anywhere else in ``switchopt`` would bypass it."""

import ast
from pathlib import Path

import pytest

import switchopt

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
