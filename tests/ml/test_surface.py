"""``repro.ml`` exports only what something outside it uses.

The package once carried a second classifier family, a regression family
and spare optimizers and metrics that only their own unit tests reached.
This guard keeps it from growing them back: every exported name must be
referenced by the library outside ``ml/`` or by the benchmark harness, the
benchmarks or an example.  Internals the exported learners need (losses,
the optimizer) stay importable from their modules without being exported.
"""

import re
from pathlib import Path

import repro.ml

ROOT = Path(__file__).resolve().parents[2]
ML = ROOT / "src" / "repro" / "ml"


def consumer_sources():
    for folder in ("src", "bench", "benchmarks", "examples"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if ML not in path.parents:
                yield path.read_text(encoding="utf-8")


def test_every_export_has_a_consumer_outside_ml():
    text = "\n".join(consumer_sources())
    unused = [name for name in repro.ml.__all__ if not re.search(rf"\b{name}\b", text)]
    assert unused == [], f"exported from repro.ml but used nowhere outside it: {unused}"
