"""The ten end-to-end metrics: names, units, directions, regression bounds.

Kept free of any import of the program under test so that ``compare.py``
can judge two result files on a machine that cannot run the benchmark.
"""

from __future__ import annotations

#: name -> (unit, better, bound).  ``bound`` is the share of the base value
#: by which the metric may get worse before a change counts as a regression;
#: 0 means it may not get worse at all.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "throughput_rps": ("1/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_p95_ms": ("ms", "lower", 0.25),
    "latency_p99_ms": ("ms", "lower", 0.25),
    "slo_met_share": ("ratio", "higher", 0.25),
    "failed_share": ("ratio", "lower", 0.0),
    "wrong_answers": ("count", "lower", 0.0),
    "peak_rss_mb": ("MiB", "lower", 0.20),
    "update_ack_p50_ms": ("ms", "lower", 0.25),
}
