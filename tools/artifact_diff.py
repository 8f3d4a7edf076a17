"""Byte-identity check of the command line against a git revision.

Exports ``REV`` with ``git archive`` into a temporary directory, then runs
one fixed set of ``switchopt`` commands in that tree and in the working
tree, each under ``PYTHONPATH=<tree>/src`` and from a fresh temporary
working directory that holds a copy of the tree's ``scenarios/``, with
``--out-dir out``, so both sides see the same argv text.  Compares the exit
codes, stdout, stderr and every file under the working directory byte for
byte, prints one line per difference, and exits 1 if there is any, else 0.

Run from anywhere inside the repository::

    python3 tools/artifact_diff.py HEAD

The command set: ``simulate`` in fixed, switching and averaged mode with
seeds 1-3 and ``--horizon 5`` on both bundled scenarios (fixed mode on the
switching one is a refusal, compared as well), the README's ``kkt``,
``simulate`` and ``compare`` commands, and ``validate`` and ``kkt`` on both
bundled scenarios.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXED = "scenarios/five_agent_fixed.json"
SWITCHING = "scenarios/five_agent_switching.json"

COMMANDS = [
    *(["simulate", scenario, "--mode", mode, "--seed", str(seed), "--horizon", "5",
       "--out-dir", "out"]
      for scenario in (FIXED, SWITCHING)
      for mode in ("fixed", "switching", "averaged")
      for seed in (1, 2, 3)),
    ["kkt", FIXED, "--out-dir", "out"],
    ["simulate", FIXED, "--out-dir", "out"],
    ["simulate", SWITCHING, "--mode", "averaged", "--out-dir", "out"],
    ["compare", SWITCHING, "--alpha", "0.5", "--alpha", "0.1", "--alpha", "0.02",
     "--ensemble", "200", "--horizon", "1.0", "--out-dir", "out"],
    ["validate", FIXED],
    ["validate", SWITCHING],
    ["kkt", SWITCHING, "--out-dir", "out"],
]


def run(tree: Path, argv: list[str]) -> dict:
    """Exit code, stdout, stderr and the files written by ``switchopt argv``
    run on ``tree``'s package from a fresh working directory, keyed by name."""
    with tempfile.TemporaryDirectory() as cwd:
        shutil.copytree(tree / "scenarios", Path(cwd) / "scenarios")
        proc = subprocess.run([sys.executable, "-m", "switchopt.cli", *argv], cwd=cwd,
                              env={**os.environ, "PYTHONPATH": str(tree / "src")},
                              capture_output=True)
        result = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout,
                  "stderr": proc.stderr}
        for path in sorted(Path(cwd).rglob("*")):
            if path.is_file():
                result[str(path.relative_to(cwd))] = path.read_bytes()
    return result


def differences(argv: list[str], old: dict, new: dict, rev: str) -> list[str]:
    """One line per output of ``argv`` that differs between the two runs."""
    command = " ".join(argv)
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            lines.append(f"{command}: {key} only at {rev}")
        elif key not in old:
            lines.append(f"{command}: {key} only in the working tree")
        elif old[key] != new[key]:
            a, b = old[key].splitlines(), new[key].splitlines()
            k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            first = (a[k:k + 1] or [b""])[0], (b[k:k + 1] or [b""])[0]
            lines.append(f"{command}: {key} differs at line {k + 1}: "
                         f"{first[0].decode(errors='replace')!r} at {rev}, "
                         f"{first[1].decode(errors='replace')!r} in the working tree")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: python3 tools/artifact_diff.py REV", file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                                 capture_output=True)
        if archive.returncode:
            print(archive.stderr.decode(errors="replace"), end="", file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        found = []
        for command in COMMANDS:
            found += differences(command, run(Path(tmp), command), run(ROOT, command), rev)
    for line in found:
        print(line)
    print(f"{len(found)} difference(s) in {len(COMMANDS)} commands against {rev}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
