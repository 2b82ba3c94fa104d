"""Every option a public constructor takes has a caller or a stated reason.

An option that no product caller sets to anything but its default doubles
the configurations the tests must cover and guards code that only its own
unit tests run.  The rule: a keyword parameter or config field stays only
if a call sets it by name (``name=``) in ``src/`` outside the defining
module, or in ``bench/`` or ``benchmarks/`` — directly or through a helper
that forwards ``**kwargs`` to the constructor — or if ``KEEP`` keeps it
with its reason: a deployment setting, a test seam that substitutes a
fake, a value persisted in a snapshot document, or a value the tests force
to reach a path.  Passing an unset option on
(``failure_threshold=self._breaker_failure_threshold``) sets nothing.
Anything else is a module or class constant.
"""

import ast
import dataclasses
import functools
import inspect
from pathlib import Path

import pytest

from repro.histograms import ParetoFrontier
from repro.learning import (
    EstimationConfig,
    GateConfig,
    IngestConfig,
    PipelineConfig,
    pooled_fallbacks,
)
from repro.routing import PruningConfig
from repro.service import (
    AsyncFrontend,
    CacheWarmer,
    CircuitBreaker,
    RetryPolicy,
    RoutingService,
    ScheduledIncident,
    ThreadedFrontend,
)

ROOT = Path(__file__).resolve().parents[1]
SEAM = "test seam: substitutes a fake"
WIRING = "deployment setting: wires the demand census and the cache warmer in"
PENDING = "deployment setting: bounds memory under overload; frontend contract races use it"
SCHEDULE = "persisted: snapshot documents carry the schedule"

#: constructor -> {option: why it stays without a caller}.
KEEP = {
    RoutingService: {
        "slice_name": "persisted: snapshot documents name their slices",
        "schedule": SCHEDULE,
        "clock": SEAM,
        "cache_ttl_seconds": "service-wide default of the TTL bench_temporal sets per request",
    },
    RoutingService.from_time_slices: {"schedule": SCHEDULE},
    ThreadedFrontend: {"max_pending": PENDING, "clock": SEAM, "sleep": SEAM},
    AsyncFrontend: {
        "max_pending": PENDING, "demand": WIRING, "warmer": WIRING, "clock": SEAM,
        "host": "deployment setting",
    },
    CacheWarmer: {},
    CircuitBreaker: {"clock": SEAM},
    RetryPolicy: {},
    PruningConfig: {},
    EstimationConfig: {},
    GateConfig: {"min_improvement": "tests force the gate's refusal through it", "seed": SEAM},
    IngestConfig: {"max_cached_routes": "tests force the route-cache eviction through it"},
    PipelineConfig: {"ingest": "carries IngestConfig.max_cached_routes, kept as above"},
    ParetoFrontier: {},
    ScheduledIncident.closure: {},
    pooled_fallbacks: {},
}

#: Calls that reach a constructor under another name.
ALIASES = {RoutingService: {"from_time_slices", "from_temporal_profile"}}


def options(constructor):
    if dataclasses.is_dataclass(constructor):
        return [field.name for field in dataclasses.fields(constructor)]
    parameters = inspect.signature(constructor).parameters.values()
    return [p.name for p in parameters if p.default is not inspect.Parameter.empty]


def callee(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


@functools.cache
def calls():
    """``(file, callee, call, enclosing function names)`` for every call the rule reads."""
    found = []
    for folder in ("src", "bench", "benchmarks"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            functions = {}  # call node -> the functions it sits in
            for function in ast.walk(tree):
                if isinstance(function, ast.FunctionDef):
                    for node in ast.walk(function):
                        functions.setdefault(node, []).append(function.name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    found.append((path.resolve(), callee(node), node, functions.get(node, [])))
    return found


def settings_by_callers(constructor):
    """``{option: what each setting call passes}``: the option a name or
    attribute value forwards (``self._breaker_cooldown_seconds``), else None."""
    defining = Path(inspect.getsourcefile(constructor)).resolve()
    outside = [(name, call, within) for path, name, call, within in calls() if path != defining]
    names = {constructor.__name__} | ALIASES.get(constructor, set())
    for name, call, within in outside:
        if name in names and any(keyword.arg is None for keyword in call.keywords):
            names = names | set(within)  # a helper forwarding **kwargs to it
    found = {}
    for name, call, _ in outside:
        if name in names:
            for keyword in call.keywords:
                value = keyword.value
                forwarded = getattr(value, "attr", getattr(value, "id", "_")).lstrip("_")
                found.setdefault(keyword.arg, []).append(forwarded or None)
    return found


@functools.cache
def orphans():
    """Options no caller sets, to a fixpoint: forwarding an orphan sets nothing."""
    found = {constructor: settings_by_callers(constructor) for constructor in KEEP}
    orphaned = {}
    while True:
        dead = {name for names in orphaned.values() for name in names}
        update = {
            constructor: [
                name
                for name in options(constructor)
                if name not in keep and all(s in dead for s in found[constructor].get(name, ()))
            ]
            for constructor, keep in KEEP.items()
        }
        if update == orphaned:
            return orphaned
        orphaned = update


@pytest.mark.parametrize("constructor", list(KEEP), ids=lambda c: c.__qualname__)
def test_every_option_has_a_caller_or_a_reason(constructor):
    assert orphans()[constructor] == [], f"{constructor.__qualname__}: make these constants"
    assert set(KEEP[constructor]) <= set(options(constructor)), "KEEP names a gone option"
