"""Compare two result files: ``python3 bench/compare.py BASE.json NEW.json``.

A result file is what ``bench/run.py --out FILE`` writes: one or more runs
of each workload.  For every (end-to-end metric, workload) pair this prints
both medians, the relative change with its base, the metric's bound and a
verdict:

``improved``    better than the base by more than the bound
``unchanged``   within the bound either way
``regressed``   worse than the base by more than the bound
``unresolved``  the run-to-run spread of either side (distance between its
                quartiles as a share of its median, from four runs up) is
                wider than the bound, so the pair cannot tell; or one side
                reports the metric and the other does not

A metric that neither side reports on a workload (``null``: a percentile
without enough samples behind it, the update ack on a read-only workload)
has no row.  The exit code is 1 if any row is ``regressed`` or
``unresolved``, which makes the command the "two sets of runs of one commit
agree" check as well.  ``--layers`` adds the per-layer medians of the traced
runs, for reading only: they carry no bound and no verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from bench.metrics import END_TO_END  # noqa: E402

MIN_RUNS_FOR_SPREAD = 4


def load(path: Path) -> dict[tuple[str, str, str], list[float]]:
    """``(section, workload, metric) -> values`` over a result file's runs."""
    document = json.loads(path.read_text())
    if document.get("schema") != 1:
        raise SystemExit(f"{path}: not a schema-1 result file")
    values: dict[tuple[str, str, str], list[float]] = {}
    for run in document["runs"]:
        for section in ("end_to_end", "per_layer"):
            for metric, value in run.get(section, {}).items():
                if value is not None:
                    values.setdefault((section, run["workload"], metric), []).append(value)
    return values


def spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median; ``None`` if too few runs."""
    if len(values) < MIN_RUNS_FOR_SPREAD:
        return None
    low, middle, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(middle) if middle else (0.0 if high == low else float("inf"))


def verdict(
    base: list[float], new: list[float], better: str, bound: float
) -> tuple[str, float | None]:
    """The verdict and how much worse ``new`` is, as a share of the base median."""
    if not base or not new:
        return "unresolved", None
    base_median, new_median = statistics.median(base), statistics.median(new)
    worse_by = new_median - base_median if better == "lower" else base_median - new_median
    if base_median:
        worse_by /= abs(base_median)
    elif worse_by:
        worse_by = float("inf") if worse_by > 0 else float("-inf")
    widest = max((s for s in (spread(base), spread(new)) if s is not None), default=0.0)
    if widest > bound and bound > 0:
        return "unresolved", worse_by
    if worse_by > bound:
        return "regressed", worse_by
    if worse_by < -bound:
        return "improved", worse_by
    return "unchanged", worse_by


def compare(
    base: dict[tuple[str, str, str], list[float]],
    new: dict[tuple[str, str, str], list[float]],
) -> list[dict[str, Any]]:
    rows = []
    workloads = sorted({key[1] for key in (*base, *new) if key[0] == "end_to_end"})
    for metric, (unit, better, bound) in END_TO_END.items():
        for workload in workloads:
            key = ("end_to_end", workload, metric)
            if key not in base and key not in new:
                continue
            outcome, worse_by = verdict(base.get(key, []), new.get(key, []), better, bound)
            rows.append(
                {
                    "metric": metric,
                    "workload": workload,
                    "unit": unit,
                    "base": statistics.median(base[key]) if key in base else None,
                    "new": statistics.median(new[key]) if key in new else None,
                    "runs": (len(base.get(key, [])), len(new.get(key, []))),
                    "worse_by": worse_by,
                    "bound": bound,
                    "verdict": outcome,
                }
            )
    return rows


def _number(value: float | None) -> str:
    return "null" if value is None else f"{value:.5g}"


def render(rows: list[dict[str, Any]]) -> str:
    lines = [
        f"{'metric':20s} {'workload':16s} {'base':>10s} {'new':>10s} {'unit':5s} "
        f"{'runs':>7s} {'worse by (of base)':>19s} {'bound':>6s}  verdict"
    ]
    for row in rows:
        change = "n/a" if row["worse_by"] is None else (
            f"{row['worse_by']:+.1%} of {_number(row['base'])}"
        )
        lines.append(
            f"{row['metric']:20s} {row['workload']:16s} {_number(row['base']):>10s} "
            f"{_number(row['new']):>10s} {row['unit']:5s} "
            f"{row['runs'][0]:>3d}/{row['runs'][1]:<3d} {change:>19s} "
            f"{row['bound']:>6.0%}  {row['verdict']}"
        )
    return "\n".join(lines)


def render_layers(
    base: dict[tuple[str, str, str], list[float]],
    new: dict[tuple[str, str, str], list[float]],
) -> str:
    lines = [f"{'per-layer metric':44s} {'workload':16s} {'base':>10s} {'new':>10s} {'change':>8s}"]
    for key in sorted(k for k in base if k[0] == "per_layer" and k in new):
        old, now = statistics.median(base[key]), statistics.median(new[key])
        change = f"{(now - old) / abs(old):+.1%}" if old else "n/a"
        lines.append(
            f"{key[2]:44s} {key[1]:16s} {_number(old):>10s} {_number(now):>10s} {change:>8s}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--layers", action="store_true",
                        help="also print the per-layer medians (no verdicts)")
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    rows = compare(base, new)
    print(render(rows))
    if args.layers:
        print()
        print(render_layers(base, new))
    bad = [row for row in rows if row["verdict"] in ("regressed", "unresolved")]
    print(f"\n{len(rows)} rows, {len(bad)} regressed or unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
