"""List every function in ``src/repro`` that the product's entry points never
call, and fail on any that ``keep.txt`` does not account for.

Run from anywhere: ``python3 tools/reachability/report.py``.  It runs each
entry point below with this directory first on ``PYTHONPATH`` (so
``sitecustomize.py`` traces it and every Python child it starts, such as the
bench server), unions the per-process dumps, and prints each top-level
function and method that no process called, grouped by module with its line
count and its ``keep.txt`` rule.  Nested functions are not listed on their
own.

``keep.txt`` is a ratchet: one ``module:qualname  rule  reason`` row for each
function that stays unreached.  The exit code is 1 when

* an unreached function has no row (new code nothing calls, or a deletion
  that stranded its last caller), or
* a row is stale: its function is now reached or no longer defined;

and also when an entry point failed (its output tail goes to stderr): the
list may then name functions a complete run reaches.  The tracer slows every
call, so a pytest entry point whose tests fail traced runs those test ids
again untraced and fails only if they fail there too; a crash, or pytest
exiting with 2 or more, fails at once.  The whole run takes 10 to 20 minutes
on a 2-core machine.
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
KEEP = HERE / "keep.txt"
#: Why a function may stay unreached: it reads or writes a document (codec),
#: is an oracle tests compare served answers against (reference), runs only
#: on an error or fault (error), is called by Python or a subclass contract
#: (protocol), or is a public accessor tests read served answers through
#: (instrument).
RULES = ("codec", "reference", "error", "protocol", "instrument")


def entry_points() -> list[list[str]]:
    """Every workload ``BENCHMARK.json`` names, one traced run, the examples
    and the benchmark suite."""
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    bench = [sys.executable, "bench/run.py", "--seconds", "2", "--workload"]
    runs = [bench + [w["name"], "--trace", "0"] for w in workloads]
    # The per-layer probes run only in traced mode.
    runs.append(bench + ["hit_replay", "--trace", "1"])
    runs += [[sys.executable, str(p)] for p in sorted((ROOT / "examples").glob("*.py"))]
    # pytest-benchmark clears the profiler inside timed bodies unless disabled.
    # A pytest entry point ends with its test path (see ``outcome``).
    runs.append([sys.executable, "-m", "pytest", "-q", "--benchmark-disable", "benchmarks"])
    return runs


def failed_tests(output: str) -> list[str]:
    """The test ids of pytest's ``FAILED`` / ``ERROR`` summary lines."""
    ids = []
    for line in output.splitlines():
        kind, _, rest = line.partition(" ")
        if kind in ("FAILED", "ERROR") and rest:
            ids.append(rest.split(" - ", 1)[0])
    return ids


def outcome(command: list[str], env: dict[str, str]) -> str | None:
    """Run one entry point traced; ``None`` if it passed, else its output tail.

    A pytest run whose only fault is failed tests (exit 1) runs those ids
    again with ``REACH_OUT`` unset, which turns the tracer off, in place of
    its test path; it passes if they do.
    """
    def run(argv, environment):
        return subprocess.run(
            argv, cwd=ROOT, env=environment, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )

    done = run(command, env)
    if done.returncode == 0:
        return None
    ids = failed_tests(done.stdout) if done.returncode == 1 and "pytest" in command else []
    if not ids:
        return f"exit {done.returncode}: {done.stdout[-3000:]}"
    untraced = {k: v for k, v in env.items() if k != "REACH_OUT"}
    again = run(command[:-1] + ids, untraced)
    if again.returncode == 0:
        print(f"  failed only traced, passed untraced: {' '.join(ids)}", file=sys.stderr)
        return None
    return f"exit {again.returncode} untraced: {again.stdout[-3000:]}"


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


def keep_rows(path: Path) -> list[tuple[str, str, str]]:
    """``(module:qualname, rule, reason)`` per row of ``path``; blank lines
    and ``#`` comments are skipped, a missing field reads as ``""``."""
    rows = []
    for line in path.read_text().splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            key, rule, reason = (line.split(None, 2) + ["", ""])[:3]
            rows.append((key, rule, reason.strip()))
    return rows


def qualnames(root: Path) -> set[str]:
    """``module:qualname`` of every top-level function and method under ``root``."""
    return {f"{module}:{name}" for (module, _, _), (name, _) in definitions(root).items()}


def unkept(
    report: dict[str, list[tuple[int, str, int]]], root: Path, rows: list[tuple[str, str, str]]
) -> list[str]:
    """One complaint per function in ``report`` (unreached under ``root``)
    without a row, and one per stale row."""
    defined = qualnames(root)
    missed = {f"{module}:{name}" for module, entries in report.items() for _, name, _ in entries}
    listed = {key for key, _, _ in rows}
    complaints = [f"unreached, no keep.txt row: {key}" for key in sorted(missed - listed)]
    for key in sorted(listed - missed):
        why = "is reached" if key in defined else "is not defined"
        complaints.append(f"stale keep.txt row: {key} {why}")
    return complaints


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
            failure = outcome(command, env)
            if failure is not None:
                failed += 1
                print(f"  {failure}", file=sys.stderr)
        report = unreached(Path(out), src / "repro")
    rows = keep_rows(KEEP)
    rules = {key: rule for key, rule, _ in rows}
    total = 0
    for module in sorted(report):
        entries = sorted(report[module])
        lines = sum(entry[2] for entry in entries)
        total += lines
        print(f"{module}  ({len(entries)} unreached, {lines} lines)")
        for first, name, count in entries:
            print(f"  {first:5d}  {name}  {count}  {rules.get(f'{module}:{name}', '-')}")
    print(f"total: {sum(map(len, report.values()))} unreached, {total} lines")
    complaints = unkept(report, src / "repro", rows)
    for complaint in complaints:
        print(complaint)
    return 1 if failed or complaints else 0


if __name__ == "__main__":
    sys.exit(main())
