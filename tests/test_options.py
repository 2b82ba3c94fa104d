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

The rule covers every public function, method and dataclass in ``src/``,
not only the constructors ``KEEP`` names: ``KEEP_ELSEWHERE`` holds the
rest of the reasons, keyed by qualified name (a function that moves
between modules keeps its row).
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
FORCED = "forced path: tests set it to reach the path it selects"
REFERENCE = "reference path: the tests compare the default against it"
INDIRECT = "set positionally through run_in_executor"
TUNING = "deployment setting: tuned to the data a deployment feeds it"

#: constructor -> {option: why it stays without a caller}.
KEEP = {
    RoutingService: {
        "slice_name": "persisted: snapshot documents name their slices",
        "schedule": SCHEDULE,
        "clock": SEAM,
    },
    RoutingService.from_time_slices: {"schedule": SCHEDULE},
    ThreadedFrontend: {"max_pending": PENDING, "clock": SEAM, "sleep": SEAM},
    AsyncFrontend: {
        "max_pending": PENDING, "demand": WIRING, "warmer": WIRING, "clock": SEAM,
        "host": "deployment setting: the address the listener binds",
    },
    CacheWarmer: {},
    CircuitBreaker: {"clock": SEAM},
    RetryPolicy: {},
    PruningConfig: {},
    EstimationConfig: {},
    GateConfig: {"seed": SEAM},
    IngestConfig: {},
    PipelineConfig: {"ingest": "deployment setting: carries the dedup cell, sized to the feed's GPS noise"},
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


#: Options of every other public function, method and dataclass that stay
#: without a caller: qualified name -> {option: why}.
KEEP_ELSEWHERE = {
    "DiscreteDistribution.from_samples": {"resolution": FORCED},
    "DiscreteDistribution.sample": {"size": FORCED},
    "JointDistribution.from_samples": {"resolution": FORCED},
    "TripIngestor": {"store": FORCED},
    "MlpConfig": {
        "batch_size": TUNING,
        "early_stopping_patience": TUNING,
        "l2": TUNING,
        "validation_fraction": TUNING,
    },
    "grid_network": {"bidirectional": FORCED},
    "RoadNetwork.add_edge": {
        "length": "persisted: the golden world's network file carries each edge's length; "
        "hand-built test graphs set lengths apart from their coordinates",
    },
    "reverse_dijkstra": {"weight": REFERENCE},
    "all_simple_paths": {"max_paths": FORCED},
    "_BudgetSearch": {"clip_distributions": REFERENCE},
    "RoutingEngine.route_depart_when": {"budget": FORCED},
    "require_number": {"error": FORCED},
    "FaultInjector": {"clock": SEAM, "sleep": SEAM, "clock_skew_seconds": FORCED, "poison_rate": FORCED},
    "ThreadedFrontend.close": {"drain": FORCED},
    "TemporalCostProfile": {
        "interpolation_points": TUNING,
        "transition_seconds": TUNING,
        "time_plans": "deployment setting: a city's signal plans",
    },
    "CostUpdate.from_congestion": {"slice_name": "deployment setting: the slice a feed targets"},
    "ScheduledIncident.capacity_drop": {"slices": "deployment setting: the regimes an incident hits"},
    "CacheWarmer.notify_update": {"slice_name": INDIRECT},
    "time_sliced_cost_tables": {"weights": "deployment setting: a city's per-slice congestion mix"},
    "CongestionConfig": {
        "multipliers": FORCED,
        "relative_spread": FORCED,
        "rho_range": FORCED,
        "stationary": FORCED,
    },
    "TripConfig": {"min_edges": FORCED},
    "emit_gps": {"interval": TUNING},
    "HmmMapMatcher": {"index": "deployment setting: one spatial index shared by matchers"},
    "MatcherConfig": {"beta": TUNING, "gps_noise_std": TUNING, "max_candidates": TUNING},
    "TrajectoryStore.edge_histogram": {"min_samples": FORCED},
}


def decorated(node, name):
    targets = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(getattr(t, "attr", getattr(t, "id", None)) == name for t in targets)


def keyword_options(function, bound):
    """``[(option, position or None)]``: the parameters that have a default."""
    args = function.args
    positional = (args.posonlyargs + args.args)[1 if bound else 0 :]
    first = len(positional) - len(args.defaults)
    found = [(p.arg, i) for i, p in enumerate(positional) if i >= first]
    return found + [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d]


def field_options(cls):
    """A dataclass's fields with a default, ``field(...)`` without one excluded."""
    found, position = [], 0
    for item in cls.body:
        if not isinstance(item, ast.AnnAssign) or "ClassVar" in ast.unparse(item.annotation):
            continue
        value = item.value
        required = value is None or (
            isinstance(value, ast.Call)
            and getattr(value.func, "id", None) == "field"
            and not {"default", "default_factory"} & {k.arg for k in value.keywords}
        )
        if not required:
            found.append((item.target.id, position))
        position += 1
    return found


@functools.cache
def definitions():
    """``{(path, qualname): (callee name, options, is a dataclass, node)}`` over
    every public function, method and dataclass in ``src/``; a class's
    ``__init__`` is the class, and so is a private class's constructor."""
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found[path, node.name] = (node.name, keyword_options(node, False), False, node)
            if not isinstance(node, ast.ClassDef):
                continue
            if decorated(node, "dataclass"):
                found[path, node.name] = (node.name, field_options(node), True, node)
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                bound = not decorated(item, "staticmethod")
                if item.name == "__init__":
                    found[path, node.name] = (node.name, keyword_options(item, True), False, item)
                elif not (item.name.startswith("_") or node.name.startswith("_")):
                    qualname = f"{node.name}.{item.name}"
                    found[path, qualname] = (item.name, keyword_options(item, bound), False, item)
    return found


@functools.cache
def scoped_calls():
    """``(path, callee, call, enclosing class name, enclosing function)`` for every
    call in ``src/``, ``bench/`` and ``benchmarks/``, with ``cls(...)`` and
    ``super().__init__(...)`` resolved to the class they construct; and the
    attribute names ``src/`` writes (a dataclass field written is state)."""
    found, written = [], set()
    for folder in ("src", "bench", "benchmarks"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            scope = {}
            for top in tree.body:
                members = top.body if isinstance(top, ast.ClassDef) else [top]
                for function in members:
                    if isinstance(function, ast.FunctionDef):
                        for node in ast.walk(function):
                            scope[node] = (top if top is not function else None, function)
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    cls, function = scope.get(node, (None, None))
                    name = callee(node)
                    if cls is not None and name == "cls":
                        name = cls.name
                    elif cls is not None and name == "__init__" and cls.bases:
                        name = getattr(cls.bases[0], "id", None)
                    found.append((path.resolve(), name, node, cls and cls.name, function))
                elif folder == "src" and isinstance(node, (ast.Assign, ast.AugAssign)):
                    for target in getattr(node, "targets", [getattr(node, "target", None)]):
                        target = target.value if isinstance(target, ast.Subscript) else target
                        if isinstance(target, ast.Attribute):
                            written.add(target.attr)
    return found, written


def kept():
    """``{qualname: options}`` that ``KEEP`` and ``KEEP_ELSEWHERE`` keep."""
    rows = {getattr(c, "__qualname__", c.__name__): set(keep) for c, keep in KEEP.items()}
    for name, keep in KEEP_ELSEWHERE.items():
        rows.setdefault(name, set()).update(keep)
    return rows


def unset_options():
    """Every keyword option no call sets, to a fixpoint: passing an unset
    option on (``clock=clock``, ``clock=self._clock``) sets nothing."""
    calls, written = scoped_calls()
    keep = kept()
    unset = set()
    while True:
        found = set()
        for (path, qualname), (name, options, is_dataclass, node) in definitions().items():
            relevant = [
                (cls, function, call)
                for where, called, call, cls, function in calls
                if called == name and not (where == path.resolve() and function is node)
            ]
            for option, position in options:
                if option in keep.get(qualname, ()) or (is_dataclass and option in written):
                    continue
                if not any(
                    sets(call, option, position, unset, cls, function)
                    for cls, function, call in relevant
                ):
                    found.add((qualname, option))
        if found == unset:
            return sorted(f"{q}.{o}" for q, o in unset)
        unset = found


def sets(call, option, position, unset, cls, function):
    """Whether ``call`` sets ``option`` by name, by position or through ``**``."""
    if any(keyword.arg is None for keyword in call.keywords):
        return True
    if position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)
    ):
        return True
    for keyword in call.keywords:
        if keyword.arg == option:
            value = keyword.value
            forwarded = getattr(value, "id", getattr(value, "attr", "_")).lstrip("_")
            enclosing = {cls, function and function.name, function and f"{cls}.{function.name}"}
            return not any((q, forwarded) in unset for q in enclosing if q)
    return False


def test_every_public_option_has_a_caller_or_a_reason():
    assert unset_options() == [], "make these constants, or keep them with a reason"


def test_every_kept_option_exists():
    options = {}
    for (_, qualname), (_, found, _, _) in definitions().items():
        options.setdefault(qualname, set()).update(name for name, _ in found)
    for qualname, keep in KEEP_ELSEWHERE.items():
        assert set(keep) <= options.get(qualname, set()), f"{qualname}: KEEP_ELSEWHERE names a gone option"


@functools.cache
def every_call():
    """Every call in the repository's Python, tests and examples included."""
    return [
        node
        for folder in ("src", "bench", "benchmarks", "tests", "examples")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
    ]


def test_every_kept_option_is_set_somewhere():
    """A keep reason needs a call that sets the option, a test's at least:
    an option nothing sets is a constant, whatever reason it could be given."""
    keep, unset = kept(), []
    for (_, qualname), (name, found, _, _) in definitions().items():
        for option, position in found:
            if option not in keep.get(qualname, ()):
                continue
            if KEEP_ELSEWHERE.get(qualname, {}).get(option) == INDIRECT:
                continue
            if not any(
                callee(call) == name and sets(call, option, position, set(), None, None)
                for call in every_call()
            ):
                unset.append(f"{qualname}.{option}")
    assert unset == [], "make these constants"


# ----------------------------------------------------------------------
# Decoders: a document keeps one only if the product reads it back
# ----------------------------------------------------------------------

DECODERS = ("from_dict", "from_payload")
WIRE = "wire guardrail: kind-tagged served envelopes keep parsing"

#: Decoders that stay though nothing in ``src/`` or ``bench/`` calls them: class -> why.
DECODER_KEEP = {"ServedResult": WIRE, "ServedBatch": WIRE}


@functools.cache
def decoders():
    """``{(class, name)}`` for every ``from_dict`` / ``from_payload`` classmethod in ``src/``."""
    return {
        (node.name, item.name)
        for path in sorted((ROOT / "src").rglob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
        and item.name in DECODERS
        and decorated(item, "classmethod")
    }


def unread_decoders():
    """Decoders no ``<Class>.from_dict(...)`` call in ``src/`` or ``bench/``
    reaches from outside its own body, to a fixpoint: a call inside a
    decoder counts only once that decoder is reached itself."""
    found = decoders()
    product = [
        (call.func.value.id, call.func.attr, (cls, function and function.name))
        for path, _, call, cls, function in scoped_calls()[0]
        if not path.is_relative_to(ROOT / "benchmarks")
        and isinstance(call.func, ast.Attribute)
        and call.func.attr in DECODERS
        and isinstance(call.func.value, ast.Name)
    ]
    reached = {decoder for decoder in found if decoder[0] in DECODER_KEEP}
    while True:
        more = reached | {
            (target, name)
            for target, name, within in product
            if (target, name) in found
            and within != (target, name)
            and (within not in found or within in reached)
        }
        if more == reached:
            return sorted(f"{cls}.{name}" for cls, name in found - reached)
        reached = more


def test_every_decoder_is_read_by_the_product_or_kept():
    assert unread_decoders() == [], "delete these decoders, or keep them with a reason"
    assert set(DECODER_KEEP) <= {cls for cls, _ in decoders()}, "DECODER_KEEP names a gone decoder"
