"""Every module-level private function, class and constant of ``switchopt``
is read somewhere in the package outside its own definition, and so is
every private method of its classes and every private attribute their
methods set on ``self``."""

import ast
from pathlib import Path

import switchopt

SOURCES = sorted(Path(switchopt.__file__).parent.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _defines(node) -> list[str]:
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _private(node) -> list[str]:
    """The private (``_x``, not ``__x__``) names a top-level statement defines."""
    return [name for name in _defines(node) if _is_private(name)]


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


def private_members(trees: dict[str, ast.Module]):
    """``(label, name, node)`` for each private method of each class of
    ``trees`` (module name -> parsed source) and each private attribute its
    methods set on ``self`` (at its first assignment), labelled
    ``module.Class``."""
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            seen = set()
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                found = [(node.name, node)] + [
                    (n.attr, n) for n in ast.walk(node) if isinstance(n, ast.Attribute)
                    and isinstance(n.ctx, ast.Store) and isinstance(n.value, ast.Name)
                    and n.value.id == "self"]
                for name, at in found:
                    if _is_private(name) and name not in seen:
                        seen.add(name)
                        yield f"{module}.{cls.name}", name, at


def dead_members(sources: dict[str, str]) -> list[str]:
    """The private members (see ``private_members``) of ``sources`` that no
    attribute read in any of them loads, outside a method's own body."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loads = [(n.attr, n) for tree in trees.values() for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]
    dead = []
    for label, name, node in private_members(trees):
        own = {id(n) for n in ast.walk(node)} if isinstance(node, ast.FunctionDef) else set()
        if not any(attr == name and id(n) not in own for attr, n in loads):
            dead.append(f"{label}.{name} (line {node.lineno})")
    return dead


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


def test_every_private_member_is_read():
    sources = {p.stem: p.read_text() for p in SOURCES}
    trees = {module: ast.parse(source) for module, source in sources.items()}
    # the scan sees the package's private members, so an empty result says something
    assert {name for _, name, _ in private_members(trees)} == {
        "_from_pair", "_each", "_count", "_compile", "_text", "_value", "_value_and_grad",
        "_emit", "_apply", "_render"}
    assert dead_members(sources) == []


def test_a_dead_member_is_caught():
    sources = {
        "a": ("class Box:\n"
              "    def __init__(self):\n"
              "        self._size = 1\n"
              "        self._spare = 2\n"
              "        self._count = 0\n"
              "    def bump(self):\n"
              "        self._count += 1\n"
              "    def _grow(self):\n"
              "        return self._grow()\n"
              "    def _used(self):\n"
              "        return self._size\n"
              "    def run(self):\n"
              "        return self._used()\n"),
        "b": "from . import a\nbox = a.Box()\nsize = box._size\n",
    }
    # written but never read, or read only by itself
    assert dead_members(sources) == ["a.Box._spare (line 4)", "a.Box._count (line 5)",
                                     "a.Box._grow (line 8)"]
