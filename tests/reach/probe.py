"""Reach probe: which functions of ``src/repro`` does the running system call?

Runs what the project runs — the five benchmark workloads (one traced second
each), the paper's figures at quick scale and every example — with the
recorder in ``hook/`` on every Python process they start (main, threads,
forked lanes), then compares the functions they entered with
every ``def`` under ``src/repro``.  A function none of them reaches must be
listed in ``allowlist.py`` with its caller or its reason; one that is not
fails the probe.  So does a listed function that is reached now: its entry
must leave the list, which stays exactly the unreached functions.

    python tests/reach/probe.py

Takes about a minute and a half on a 2-CPU host, so it runs in CI, not in
tier-1.  Exit status: 0 when the listed functions are exactly the unreached
ones, 1 otherwise.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Set, Tuple

from allowlist import ALLOWED

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
PACKAGE = SRC / "repro"

WORKLOADS = ("fleet_read", "fleet_write", "lanes_read", "churn_lanes", "door_open")


class Function(NamedTuple):
    """One ``def`` in ``src/repro``: where it is and how long it is."""

    path: str  # relative to src/repro, with forward slashes
    qualname: str
    first_line: int  # the first decorator's line, as the code object has it
    lines: int

    @property
    def name(self) -> str:
        return f"{self.path}::{self.qualname}"


def inventory(package: Path = PACKAGE) -> List[Function]:
    """Every function and method defined under ``package``, nested ones
    included (``outer.<locals>.inner``), named as their code objects are."""
    functions: List[Function] = []
    for file in sorted(package.rglob("*.py")):
        relative = file.relative_to(package).as_posix()
        tree = ast.parse(file.read_text(), filename=str(file))

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    functions.append(
                        Function(relative, qualname, first, child.end_lineno - first + 1)
                    )
                    visit(child, f"{qualname}.<locals>.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return functions


def targets() -> List[Tuple[str, List[str]]]:
    """``(label, argv)`` of every run the probe records."""
    python = sys.executable
    runs = [
        (
            f"run.py {name}",
            [python, str(REPO / "benchmarks/suite/run.py"), "--workload", name,
             "--seconds", "1", "--trace", "1", "--seed", "1"],
        )
        for name in WORKLOADS
    ]
    runs.append(("repro.analysis", [python, "-m", "repro.analysis", "--scale", "quick"]))
    runs.extend(
        (f"examples/{example.name}", [python, str(example)])
        for example in sorted((REPO / "examples").glob("*.py"))
    )
    return runs


def record(records: Path) -> None:
    """Run every target with the recorder on; fail loudly if one fails."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(HERE / "hook"), str(SRC)]),
        REPRO_REACH_OUT=str(records),
    )
    with tempfile.TemporaryDirectory() as cwd:
        for label, argv in targets():
            started = time.perf_counter()
            completed = subprocess.run(
                argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True,
            )
            print(f"  {label:<44} {time.perf_counter() - started:6.1f} s", flush=True)
            if completed.returncode != 0:
                sys.stderr.write(completed.stderr)
                raise SystemExit(f"{label} exited {completed.returncode}")


def reached(records: Path) -> Set[Tuple[str, str, int]]:
    """``(path, qualname, first line)`` of every ``repro`` function entered."""
    seen: Set[Tuple[str, str, int]] = set()
    for file in records.glob("*.json"):
        for filename, qualname, first_line in json.loads(file.read_text()):
            try:
                relative = Path(filename).resolve().relative_to(PACKAGE).as_posix()
            except ValueError:  # another checkout's repro
                continue
            seen.add((relative, qualname, first_line))
    return seen


def own_lines(functions: List[Function]) -> int:
    """Lines of ``functions``, a nested one counted inside its parent only."""
    spans: Dict[str, List[Tuple[int, int]]] = {}
    for function in functions:
        spans.setdefault(function.path, []).append(
            (function.first_line, function.first_line + function.lines - 1)
        )
    total = 0
    for ranges in spans.values():
        end = 0
        for first, last in sorted(ranges):
            if last > end:
                total += last - max(first, end + 1) + 1
                end = last
    return total


def report(functions: List[Function], missing: List[Function], allowed: Dict[str, str]) -> int:
    listed = {f.name for f in missing} & set(allowed)
    unlisted = [f for f in missing if f.name not in allowed]
    now_reached = sorted(set(allowed) - {f.name for f in missing})
    print(
        f"\n{len(missing)} of {len(functions)} functions unreached "
        f"({own_lines(missing)} of {own_lines(functions)} lines); "
        f"{len(listed)} listed, {len(unlisted)} not"
    )
    for name in now_reached:
        print(f"REACHED, must leave the allow-list: {name}")
    for function in unlisted:
        print(f"UNREACHED, not on the allow-list: {function.name} ({function.lines} lines)")
    return 1 if unlisted or now_reached else 0


def main() -> int:
    with tempfile.TemporaryDirectory() as records:
        record(Path(records))
        seen = reached(Path(records))
    functions = inventory()
    missing = [f for f in functions if (f.path, f.qualname, f.first_line) not in seen]
    return report(functions, missing, ALLOWED)


if __name__ == "__main__":
    sys.exit(main())
