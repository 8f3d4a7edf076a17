"""Every module-level private function, class and constant of ``switchopt``
is read somewhere in the package outside its own definition."""

import ast
from pathlib import Path

import switchopt

SOURCES = sorted(Path(switchopt.__file__).parent.glob("*.py"))


def _private(node) -> list[str]:
    """The private (``_x``, not ``__x__``) names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.endswith("__")]


def _reads(node) -> set[str]:
    """The names ``node`` reads: loaded names and attribute names."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """The module-level private names of ``sources`` (module name -> source)
    that no top-level statement of any of them but their own reads."""
    statements = [(module, node) for module, source in sources.items()
                  for node in ast.parse(source).body]
    reads = [_reads(node) for _, node in statements]
    return [f"{module}.{name} (line {node.lineno})"
            for k, (module, node) in enumerate(statements) for name in _private(node)
            if not any(name in r for j, r in enumerate(reads) if j != k)]


def test_every_private_helper_is_read():
    assert dead_helpers({p.stem: p.read_text() for p in SOURCES}) == []


def test_a_dead_helper_is_caught():
    sources = {
        "a": ("_LIMIT = 3\n_SPARE: int = 4\n__all__ = ['run']\n"
              "def _helper(v):\n    return _helper(v - 1) if v else _LIMIT\n"
              "class _Used:\n    pass\n"
              "def _row(v):\n    return v\n"
              "def run():\n    return _helper(1)\n"),
        "b": "from . import a\nx = a._Used()\n",
    }
    assert dead_helpers(sources) == ["a._SPARE (line 2)", "a._row (line 8)"]


def test_a_helper_read_only_by_itself_is_caught():
    assert dead_helpers({"a": "def _loop(v):\n    return _loop(v)\n"}) == ["a._loop (line 1)"]
