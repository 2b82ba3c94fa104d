"""Run the benchmark: ``python3 bench/run.py [--workload NAME] [--seed N] ...``.

With no ``--workload`` every workload runs, untraced then traced, and every
metric is printed by name with its unit.  ``--out FILE`` appends the runs to
a result file that ``bench/compare.py`` reads.  With exactly one workload
and one ``--trace`` mode the last line of standard output is the one-object
summary the benchmark driver parses (see ``BENCHMARK.json``).

The exit code is non-zero when any answer was wrong or any request failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    # Run as a script: make ``bench`` and the program under test importable.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy  # noqa: E402

from bench import layers, measure  # noqa: E402
from bench.metrics import END_TO_END  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

RESULTS = ROOT / "bench" / "results"
SCHEMA = 1


def benchmark_contract() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def commit() -> str | None:
    """The checkout's commit, or ``None`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            # Do not look for a repository above the checkout.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict[str, Any]:
    return {
        "commit": commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def print_record(record: dict[str, Any]) -> None:
    mode = "traced" if "per_layer" in record else "untraced"
    print(f"== {record['workload']} ({mode}, seed {record['seed']}, "
          f"{record['seconds']:g} s) ==")
    if mode == "untraced":
        print(f"   attempted {record['attempted']}  failed {record['failed']}  "
              f"samples {record['samples']}  sizes {json.dumps(record['sizes'])}")
        for reason in record["wrong_reasons"]:
            print(f"   WRONG: {reason}")
    sections = ("end_to_end", "informational") if mode == "untraced" else ("per_layer",)
    for section in sections:
        for name, value in record[section].items():
            unit = END_TO_END.get(name, layers.PER_LAYER.get(name, ("", "")))[0]
            shown = "null" if value is None else (
                f"{value:.6g}" if isinstance(value, float) else json.dumps(value)
            )
            print(f"   {name:44s} {shown} {unit}")


def contract_line(record: dict[str, Any], contract: dict[str, Any]) -> str:
    """The driver's summary: exactly the metrics ``BENCHMARK.json`` lists."""
    traced = "per_layer" in record
    listed = contract["per_layer" if traced else "end_to_end"]
    values = record["per_layer" if traced else "end_to_end"]
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in listed
            },
        }
    )


def append_runs(path: Path, records: list[dict[str, Any]]) -> None:
    """Add this launch's records to a result file, creating it if needed."""
    if path.exists():
        document = json.loads(path.read_text())
        if document.get("schema") != SCHEMA:
            raise SystemExit(f"{path}: not a schema-{SCHEMA} result file")
    else:
        document = {"schema": SCHEMA, "environment": environment(), "runs": []}
    document["runs"] += records
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    contract = benchmark_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="drives request generation only")
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"],
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), action="append",
                        help="0 = end-to-end run, 1 = per-layer run (default: both)")
    parser.add_argument("--out", type=Path,
                        help="result file to append this launch's runs to")
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    modes = args.trace or [0, 1]

    records = []
    spans: list[dict[str, Any]] = []
    for name in names:
        for mode in modes:
            if mode == 0:
                record = measure.run_untraced(name, args.seed, args.seconds)
            else:
                record = layers.run_traced(name, args.seed, args.seconds, spans)
            print_record(record)
            records.append(record)
    if spans:
        layers.write_trace(RESULTS / "trace.jsonl", spans)
    if args.out is not None:
        append_runs(args.out, records)
    if len(records) == 1:
        print(contract_line(records[0], contract))
    ok = all(r["correct"] and r["failed"] == 0 for r in records)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
