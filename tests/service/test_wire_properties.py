"""Property tests: every kind-tagged document the product reads round-trips exactly.

The serving layer promises ``from_dict(to_dict(x)) == x`` — through a real
``json.dumps``/``json.loads`` pass, because documents cross a wire, not a
function call — for every document kind it reads back: ``route``,
``multi_budget``, ``kbest``, ``batch`` (including ``None`` unanswered
members), ``served``, ``served_batch``, ``cost_update`` and ``schedule``.
The documents it only writes (``service_stats``, ``learning_stats``) have
no decoder; they must survive JSON unchanged.  Hypothesis generates the
documents; the deterministic profile in ``tests/conftest.py`` keeps
failures reproducible.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.network import grid_network
from repro.routing import (
    BatchResult,
    KBestResult,
    MultiBudgetResult,
    RoutingQuery,
    RoutingResult,
    SearchStats,
    result_from_dict,
)
from repro.service import (
    DAY_SECONDS,
    CostUpdate,
    ScenarioSchedule,
    ServedBatch,
    ServedResult,
    ServiceStats,
    StrategyLatency,
    TimeSlice,
)
from repro.histograms import DiscreteDistribution

NETWORK = grid_network(4, 4, seed=1)
NUM_EDGES = len(NETWORK.edges)


def json_round_trip(document: dict) -> dict:
    """Force the document through actual JSON text."""
    return json.loads(json.dumps(document))


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

vertex_ids = st.integers(min_value=0, max_value=15)
edge_ids = st.integers(min_value=0, max_value=NUM_EDGES - 1)
probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def queries(draw):
    source = draw(vertex_ids)
    target = draw(vertex_ids.filter(lambda v: v != source))
    budget = draw(st.integers(min_value=1, max_value=10_000))
    return RoutingQuery(source, target, budget)


@st.composite
def distributions(draw):
    offset = draw(st.integers(min_value=0, max_value=50))
    probs = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=6,
        )
    )
    return DiscreteDistribution(offset, probs)


@st.composite
def search_stats(draw):
    counter = st.integers(min_value=0, max_value=10**6)
    return SearchStats(
        labels_generated=draw(counter),
        labels_expanded=draw(counter),
        pruned_by_bound=draw(counter),
        pruned_by_dominance=draw(counter),
        pruned_unreachable=draw(counter),
        pivot_updates=draw(counter),
        runtime_seconds=draw(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
        ),
        completed=draw(st.booleans()),
    )


@st.composite
def routing_results(draw, query=None):
    if query is None:
        query = draw(queries())
    path = tuple(
        NETWORK.edge(edge_id)
        for edge_id in draw(st.lists(edge_ids, min_size=0, max_size=6))
    )
    return RoutingResult(
        query=query,
        path=path,
        distribution=draw(st.none() | distributions()),
        probability=draw(probabilities),
        stats=draw(search_stats()),
    )


@st.composite
def multi_budget_results(draw):
    budgets = tuple(
        sorted(
            draw(
                st.sets(
                    st.integers(min_value=1, max_value=10_000),
                    min_size=1,
                    max_size=4,
                )
            )
        )
    )
    source = draw(vertex_ids)
    target = draw(vertex_ids.filter(lambda v: v != source))
    query = RoutingQuery(source, target, budgets[-1])
    results = tuple(
        draw(routing_results(query=RoutingQuery(source, target, budget)))
        for budget in budgets
    )
    return MultiBudgetResult(
        query=query, budgets=budgets, results=results, stats=draw(search_stats())
    )


@st.composite
def kbest_results(draw):
    query = draw(queries())
    routes = tuple(
        draw(st.lists(routing_results(query=query), min_size=0, max_size=3))
    )
    k = draw(st.integers(min_value=max(1, len(routes)), max_value=5))
    return KBestResult(query=query, k=k, routes=routes, stats=draw(search_stats()))


any_answer = st.one_of(routing_results(), multi_budget_results(), kbest_results())


@st.composite
def batch_results(draw):
    members = tuple(
        draw(st.lists(st.none() | any_answer, min_size=0, max_size=4))
    )
    return BatchResult(results=members, stats=draw(search_stats()))


@st.composite
def service_stats(draw):
    counter = st.integers(min_value=0, max_value=10**6)
    strategies = draw(
        st.dictionaries(
            st.sampled_from(["pbr", "kbest", "multi_budget", "oracle"]),
            st.builds(
                StrategyLatency,
                requests=counter,
                total_seconds=st.floats(
                    min_value=0.0, max_value=1e6, allow_nan=False
                ),
            ),
            max_size=3,
        )
    )
    breakers = draw(
        st.dictionaries(
            st.sampled_from(["pbr", "kbest", "multi_budget"]),
            st.sampled_from(["closed", "open", "half_open"]),
            max_size=3,
        )
    )
    return ServiceStats(
        requests=draw(counter),
        cache_hits=draw(counter),
        cache_misses=draw(counter),
        cache_evictions=draw(counter),
        cache_expirations=draw(counter),
        cache_entries=draw(counter),
        updates_applied=draw(counter),
        deadline_misses=draw(counter),
        served_degraded=draw(counter),
        served_stale=draw(counter),
        coalesced=draw(counter),
        breaker_trips=draw(counter),
        breakers=breakers,
        strategies=strategies,
    )


@st.composite
def schedules(draw):
    names = ["peak", "off_peak", "night", "weekend"]
    breakpoints = sorted(
        draw(
            st.sets(
                st.integers(min_value=1, max_value=DAY_SECONDS - 1),
                min_size=0,
                max_size=5,
            )
        )
    )
    bounds = [0, *breakpoints, DAY_SECONDS]
    slices = [
        TimeSlice(draw(st.sampled_from(names)), float(lo), float(hi))
        for lo, hi in zip(bounds, bounds[1:])
    ]
    return ScenarioSchedule(slices)


@st.composite
def cost_updates(draw):
    ids = draw(st.sets(edge_ids, min_size=1, max_size=5))
    return CostUpdate(
        costs={edge_id: draw(distributions()) for edge_id in ids},
        slice_name=draw(st.none() | st.sampled_from(["peak", "night"])),
        source=draw(st.sampled_from(["feed", "congestion:state=2", "manual"])),
        sequence=draw(st.none() | st.integers(min_value=0, max_value=10**9)),
    )


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------


class TestKindTaggedRoundTrips:
    @given(queries())
    def test_query(self, query):
        assert RoutingQuery.from_dict(json_round_trip(query.to_dict())) == query

    @given(search_stats())
    def test_search_stats(self, stats):
        assert SearchStats.from_dict(json_round_trip(stats.to_dict())) == stats

    @given(routing_results())
    def test_route(self, result):
        document = json_round_trip(result.to_dict())
        assert document["kind"] == "route"
        assert result_from_dict(document, NETWORK) == result

    @given(multi_budget_results())
    def test_multi_budget(self, result):
        document = json_round_trip(result.to_dict())
        assert document["kind"] == "multi_budget"
        assert result_from_dict(document, NETWORK) == result

    @given(kbest_results())
    def test_kbest(self, result):
        document = json_round_trip(result.to_dict())
        assert document["kind"] == "kbest"
        assert result_from_dict(document, NETWORK) == result

    @given(batch_results())
    def test_batch_including_none_members(self, batch):
        document = json_round_trip(batch.to_dict())
        assert document["kind"] == "batch"
        restored = BatchResult.from_dict(document, NETWORK)
        assert restored == batch
        # The module-level dispatcher must accept every kind the package
        # emits — batch documents included.
        assert result_from_dict(document, NETWORK) == batch
        # The outcome counters are derived, so they survive for free — but
        # they are the serving contract, so pin them explicitly.
        assert restored.num_found == batch.num_found
        assert restored.num_no_route == batch.num_no_route
        assert restored.num_unanswered == batch.num_unanswered

    @given(
        st.none() | any_answer,
        st.booleans(),
        st.none() | st.sampled_from(["anytime", "expected_time", "stale_cache"]),
        st.booleans(),
    )
    def test_served(self, answer, cache_hit, fallback, coalesced):
        served = ServedResult(
            result=answer,
            cache_hit=cache_hit,
            cost_version=7,
            slice_name="peak",
            strategy="pbr",
            degraded=fallback is not None,
            fallback_strategy=fallback,
            coalesced=coalesced,
        )
        document = json_round_trip(served.to_dict())
        assert document["kind"] == "served"
        assert ServedResult.from_dict(document, NETWORK) == served

    @given(st.none() | any_answer)
    def test_served_pre_resilience_documents_still_parse(self, answer):
        """Documents recorded before the degradation ladder existed must
        keep deserialising as non-degraded answers."""
        served = ServedResult(
            result=answer,
            cache_hit=False,
            cost_version=1,
            slice_name="default",
            strategy="pbr",
        )
        document = json_round_trip(served.to_dict())
        del document["degraded"]
        del document["fallback_strategy"]
        restored = ServedResult.from_dict(document, NETWORK)
        assert restored.degraded is False
        assert restored.fallback_strategy is None

    @given(st.none() | any_answer)
    def test_served_pre_scaleout_documents_still_parse(self, answer):
        """Documents recorded before single-flight coalescing existed must
        keep deserialising as non-coalesced answers."""
        served = ServedResult(
            result=answer,
            cache_hit=False,
            cost_version=1,
            slice_name="default",
            strategy="pbr",
        )
        document = json_round_trip(served.to_dict())
        del document["coalesced"]
        restored = ServedResult.from_dict(document, NETWORK)
        assert restored.coalesced is False

    @given(batch_results(), st.booleans())
    def test_served_batch(self, batch, degraded):
        served = ServedBatch(
            batch=batch,
            cache_hits=3,
            cache_misses=len(batch),
            cost_version=2,
            slice_name="default",
            strategy="kbest",
            degraded=degraded,
        )
        document = json_round_trip(served.to_dict())
        assert document["kind"] == "served_batch"
        assert ServedBatch.from_dict(document, NETWORK) == served

    @given(cost_updates())
    def test_cost_update(self, update):
        document = json_round_trip(update.to_dict())
        assert document["kind"] == "cost_update"
        assert CostUpdate.from_dict(document) == update

    @given(service_stats())
    def test_service_stats(self, stats):
        document = json_round_trip(stats.to_dict())
        assert document["kind"] == "service_stats"
        assert document == stats.to_dict()
        assert document["requests"] == stats.requests
        assert document["breakers"] == stats.breakers
        assert {name: latency["requests"] for name, latency in document["strategies"].items()} == {
            name: latency.requests for name, latency in stats.strategies.items()
        }

    def test_service_stats_key_order(self):
        """The wire order of every key is the order before ``admission_skips``
        was retired, with only that key gone."""
        assert list(ServiceStats().to_dict()) == [
            "kind", "requests", "cache_hits", "cache_misses", "cache_evictions",
            "cache_expirations", "cache_entries", "updates_applied",
            "deadline_misses", "served_degraded", "served_stale", "coalesced",
            "breaker_trips", "incidents_activated", "incidents_cleared",
            "incidents_pending", "incidents_active", "breakers", "hit_rate",
            "strategies",
        ]

    @given(schedules())
    def test_schedule(self, schedule):
        document = json_round_trip(schedule.to_dict())
        assert document["kind"] == "schedule"
        assert ScenarioSchedule.from_dict(document) == schedule


class TestDocumentHygiene:
    """Wire documents must be plain JSON types all the way down."""

    @given(batch_results())
    def test_batch_document_is_json_serialisable(self, batch):
        text = json.dumps(batch.to_dict())
        assert isinstance(text, str)

    @given(queries())
    def test_unknown_kind_rejected(self, query):
        document = {"kind": "mystery", "query": query.to_dict()}
        with pytest.raises(ValueError, match="kind"):
            result_from_dict(document, NETWORK)


# ----------------------------------------------------------------------
# Learning-loop documents (PR 7): the pipeline's wire surface
# ----------------------------------------------------------------------

from repro.learning import LearningStats  # noqa: E402

counts = st.integers(min_value=0, max_value=1_000_000)
seconds = st.floats(min_value=0.0, max_value=3600.0, allow_nan=False)


@st.composite
def learning_stats(draw):
    return LearningStats(
        trips_ingested=draw(counts),
        trips_matched=draw(counts),
        trips_deduped=draw(counts),
        trips_rejected=draw(counts),
        batches_ingested=draw(counts),
        estimations_run=draw(counts),
        edges_estimated=draw(counts),
        gate_passes=draw(counts),
        gate_failures=draw(counts),
        updates_published=draw(counts),
        edges_published=draw(counts),
        last_sequence=draw(st.none() | st.integers(min_value=1, max_value=10**9)),
        ingest_seconds=draw(seconds),
        estimation_seconds=draw(seconds),
        publish_seconds=draw(seconds),
    )


class TestLearningDocumentRoundTrips:
    """The ``learning_stats`` op's document: written, never read back."""

    @given(learning_stats())
    def test_learning_stats(self, stats):
        document = json_round_trip(stats.to_dict())
        assert document["kind"] == "learning_stats"
        assert document == stats.to_dict()

    def test_learning_stats_key_order(self):
        assert list(LearningStats().to_dict()) == [
            "kind", "trips_ingested", "trips_matched", "trips_deduped",
            "trips_rejected", "batches_ingested", "estimations_run",
            "edges_estimated", "gate_passes", "gate_failures",
            "updates_published", "edges_published", "last_sequence",
            "ingest_seconds", "estimation_seconds", "publish_seconds",
            "dedup_rate", "gate_pass_rate", "mean_publish_seconds",
        ]

    @given(learning_stats())
    def test_learning_stats_derived_rates_match(self, stats):
        document = json_round_trip(stats.to_dict())
        assert document["dedup_rate"] == stats.dedup_rate
        assert document["gate_pass_rate"] == stats.gate_pass_rate
        assert document["mean_publish_seconds"] == stats.mean_publish_seconds
