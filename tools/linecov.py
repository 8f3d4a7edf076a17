"""Line coverage of ``switchopt`` under its test suite, with no coverage package.

Runs pytest in this process under a ``sys.settrace`` and
``threading.settrace`` line tracer that follows only frames whose code
lies under ``src/switchopt``, then prints, per module, each executable line
that no test ran, with its source.  The executable lines of a module are
those of its code objects, nested ones included (``co_lines``).  Code that
``expr.Emitter`` generates has its own file name and is not counted, nor is
anything a test runs in a subprocess.

Run from the repository root::

    python3 tools/linecov.py                 # the tier-1 suite, quiet
    python3 tools/linecov.py tests/test_graph.py -k network

Arguments, if any, replace the default pytest arguments (``-q tests``).  The
exit code is pytest's.  The executable lines are read from the sources once
the suite ends, so edit none while it runs.  On a 2-CPU x86-64 machine the
tier-1 suite took 201-224 s under it, against about 90 s plain.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "switchopt"


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that carry bytecode, in any of its code objects
    (line 0, or None, marks code that belongs to no line)."""
    stack, lines = [compile(path.read_text(), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def trace(argv: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """Run pytest with ``argv`` under the tracer; its exit code and, per
    module of the package, the lines that ran."""
    ran: dict[Path, set[int]] = {path: set() for path in PACKAGE.glob("*.py")}
    owner: dict[str, set[int] | None] = {}  # code file name -> its module's lines, or None

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in owner:
            owner[name] = ran.get(Path(name).resolve())
        lines = owner[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local(frame, event, arg)

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    code, ran = trace(argv or ["-q", str(ROOT / "tests")])
    total = 0
    for path in sorted(ran):
        missed = sorted(executable_lines(path) - ran[path])
        if not missed:
            continue
        total += len(missed)
        source = path.read_text().splitlines()
        print(f"{path.relative_to(ROOT)}: {len(missed)} line(s) not run")
        for line in missed:
            print(f"  {line:5d}  {source[line - 1].strip()}")
    print(f"linecov: {total} executable line(s) of src/switchopt not run")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
