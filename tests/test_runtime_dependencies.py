"""``numpy`` stays the only runtime dependency: every module of ``switchopt``
imports from the standard library, from ``numpy`` or from the package itself."""

import ast
import sys
from pathlib import Path

import pytest

import switchopt

SOURCES = sorted(Path(switchopt.__file__).parent.glob("*.py"))
ALLOWED = sys.stdlib_module_names | {"numpy", "switchopt"}


def foreign_imports(source: str) -> list[str]:
    """The top-level packages ``source`` imports from outside ``ALLOWED``;
    a relative import is the package's own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [f"{m} (line {node.lineno})" for m in modules
                  if m.partition(".")[0] not in ALLOWED]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_imports_only_numpy_and_the_standard_library(path):
    assert foreign_imports(path.read_text()) == []


def test_a_foreign_import_is_caught():
    source = ("from __future__ import annotations\nimport math, scipy.linalg\n"
              "import numpy as np\nfrom hypothesis import given\nfrom .expr import parse\n"
              "from switchopt.graph import Graph\ndef f():\n    import pandas\n")
    assert foreign_imports(source) == [
        "scipy.linalg (line 2)", "hypothesis (line 4)", "pandas (line 8)"]
