"""List every function in ``src/repro`` that the product's entry points never call.

Run from anywhere: ``python3 tools/reachability/report.py``.  It runs each
entry point below with this directory first on ``PYTHONPATH`` (so
``sitecustomize.py`` traces it and every Python child it starts, such as the
bench server), unions the per-process dumps, and prints each top-level
function and method that no process called, grouped by module with its line
count.  Nested functions are not listed on their own.  The exit code is 1
when an entry point failed (its output tail goes to stderr): the list may
then name functions a complete run reaches.  The whole run takes 10 to 20 minutes on a 2-core
machine.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
WORKLOADS = (
    "hit_replay", "warm_miss", "cold_miss", "shared_frontier", "hybrid_search", "update_churn",
)


def entry_points() -> list[list[str]]:
    bench = [sys.executable, "bench/run.py", "--seconds", "2", "--workload"]
    runs = [bench + [name, "--trace", "0"] for name in WORKLOADS]
    # The per-layer probes run only in traced mode.
    runs.append(bench + ["hit_replay", "--trace", "1"])
    runs += [[sys.executable, str(p)] for p in sorted((ROOT / "examples").glob("*.py"))]
    # pytest-benchmark clears the profiler inside timed bodies unless disabled.
    runs.append([sys.executable, "-m", "pytest", "benchmarks", "-q", "--benchmark-disable"])
    return runs


def definitions(root: Path) -> dict[tuple[str, int, str], tuple[str, int]]:
    """``(module, first line, name) -> (qualified name, line count)`` for every
    top-level function and method under ``root``.

    The first line is the first decorator's, as ``co_firstlineno`` reports it.
    """
    found = {}
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(), str(path))
        scopes = [("", tree.body)] + [
            (n.name + ".", n.body) for n in tree.body if isinstance(n, ast.ClassDef)
        ]
        for prefix, body in scopes:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    found[(module, first, node.name)] = (
                        prefix + node.name, node.end_lineno - first + 1
                    )
    return found


def called(dumps: Path, root: Path) -> set[tuple[str, int, str]]:
    """The ``(module, first line, name)`` keys the dumps under ``dumps`` record."""
    base = os.path.realpath(root) + os.sep
    keys = set()
    for dump in dumps.glob("*.json"):
        for filename, first, name in json.loads(dump.read_text()):
            if filename.startswith(base):
                keys.add((filename[len(base):].replace(os.sep, "/"), first, name))
    return keys


def unreached(dumps: Path, root: Path) -> dict[str, list[tuple[int, str, int]]]:
    """Per module, ``(first line, qualified name, lines)`` of each definition never called."""
    seen = called(dumps, root)
    report: dict[str, list[tuple[int, str, int]]] = {}
    for key, (name, lines) in definitions(root).items():
        if key not in seen:
            report.setdefault(key[0], []).append((key[1], name, lines))
    return report


def main() -> int:
    src = ROOT / "src"
    with tempfile.TemporaryDirectory() as out:
        env = dict(os.environ, REACH_OUT=out)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(HERE), str(src), str(ROOT), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        failed = 0
        for command in entry_points():
            print("$", " ".join(command[1:]), file=sys.stderr, flush=True)
            done = subprocess.run(
                command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True,
            )
            if done.returncode:
                failed += 1
                print(f"  exit {done.returncode}: {done.stdout[-3000:]}", file=sys.stderr)
        report = unreached(Path(out), src / "repro")
    total = 0
    for module in sorted(report):
        rows = sorted(report[module])
        lines = sum(row[2] for row in rows)
        total += lines
        print(f"{module}  ({len(rows)} unreached, {lines} lines)")
        for first, name, count in rows:
            print(f"  {first:5d}  {name}  {count}")
    print(f"total: {sum(map(len, report.values()))} unreached, {total} lines")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
