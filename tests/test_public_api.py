"""Every name a module lists in ``__all__`` resolves, so a deleted name
cannot stay listed, and has a reader: the package itself, the acceptance
criteria, the benchmark, or a README line that documents it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import switchopt
from test_dead_helpers import _defines, _reads

MODULES = sorted(m.name for m in pkgutil.iter_modules(switchopt.__path__))
ROOT = Path(__file__).resolve().parent.parent

# public names that no statement of the package, no acceptance criterion and
# no benchmark file reads: each with the README text that documents it and
# why it stays
DOCUMENTED = {
    "averaging.averaged_diffusion_factor": (
        "`averaging.averaged_diffusion_factor` stays the square `nN x nN` factor",
        "the benchmark times its `_diffusion_blocks` as the PSD factor layer"),
    "analysis.lyapunov": (
        "`lyapunov` is the one-sample view of the same code",
        "the benchmark hooks it by name as `analysis.lyapunov`"),
}


@pytest.mark.parametrize("name", ["switchopt"] + [f"switchopt.{m}" for m in MODULES])
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    listed = getattr(module, "__all__", ())
    assert len(set(listed)) == len(listed), f"{name}.__all__ repeats a name"
    assert [n for n in listed if not hasattr(module, n)] == []


def unread_public(sources: dict[str, str], outside: set[str]) -> list[str]:
    """The ``__all__`` names of ``sources`` (module name -> source, the
    package's ``__init__`` left out, so a re-export is no reader) that no
    top-level statement of theirs but the name's own definition reads, and
    that are not in ``outside``, the names read elsewhere."""
    trees = {module: ast.parse(source).body for module, source in sources.items()}
    reads = [(module, node, _reads(node)) for module, body in trees.items() for node in body]
    unread = []
    for module, body in trees.items():
        listed = [ast.literal_eval(node.value) for node in body if isinstance(node, ast.Assign)
                  and "__all__" in _defines(node)]
        for name in (listed[0] if listed else []):
            if name not in outside and not any(
                    name in r for m, node, r in reads
                    if not (m == module and name in _defines(node))):
                unread.append(f"{module}.{name}")
    return unread


def test_every_public_name_has_a_reader():
    sources = {m: (ROOT / "src" / "switchopt" / f"{m}.py").read_text() for m in MODULES}
    outside = set()
    for path in [ROOT / "tests" / "test_acceptance.py", *sorted(ROOT.glob("perfbench/**/*.py"))]:
        outside |= _reads(ast.parse(path.read_text()))
    readme = (ROOT / "README.md").read_text()
    assert [name for name, (line, _) in DOCUMENTED.items() if line not in readme] == []
    unread = unread_public(sources, outside)
    assert [name for name in unread if name not in DOCUMENTED] == []
    # an entry whose name has gained a reader, or has gone, is stale
    assert sorted(DOCUMENTED) == sorted(unread)


def test_an_unread_public_name_is_caught():
    sources = {
        "a": ("__all__ = ['run', 'spare', 'loop', 'LIMIT', 'used']\n"
              "LIMIT = 3\n"
              "def run():\n    return LIMIT\n"
              "def spare():\n    return 1\n"
              "def loop(v):\n    return loop(v)\n"
              "def used():\n    return 2\n"),
        "b": "from . import a\nx = a.run()\n",
    }
    # read by another module, by another statement of its own, from outside,
    # or by no one (itself alone counts as no one)
    assert unread_public(sources, outside={"used"}) == ["a.spare", "a.loop"]
