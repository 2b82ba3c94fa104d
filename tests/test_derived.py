"""Derived state lives and dies with the version it was computed from.

Unit tests of the one holder (:class:`repro.derived.Memo`) and of the
lifetime rule its two owners implement: an owner's memo belongs to one
version, a new version — whatever its *number* — starts empty, and nothing
derived from the previous one stays reachable from the owner.
"""

import gc
import pickle
import threading
import time
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.core import (
    ConvolutionModel,
    DependenceClassifier,
    DistributionEstimator,
    EdgeCostTable,
    EstimatorConfig,
    HybridModel,
    HybridStats,
    IntersectionStats,
    PairFeatureExtractor,
)
from repro.derived import Memo, clear_bounded
from repro.histograms import DiscreteDistribution
from repro.ml import MlpConfig
from repro.network import grid_network
from repro.routing import OptimisticHeuristic, RoutingQuery
from repro.routing.budget import _BudgetSearch
from repro.routing.columnar import _csr_for, _kernels_for
from repro.routing.heuristics import min_tick_bounds, vertex_indexing
from repro.routing.landmarks import LandmarkTable


def in_thread(fn, watchdog_seconds=10.0):
    """Run ``fn`` off-thread: a deadlock fails the test instead of hanging it."""
    outcome = []
    thread = threading.Thread(target=lambda: outcome.append(fn()), daemon=True)
    thread.start()
    thread.join(watchdog_seconds)
    assert not thread.is_alive(), "deadlock: the call never returned"
    return outcome[0]


def built_world(rows=6, cols=6):
    network = grid_network(rows, cols, seed=1)
    costs = EdgeCostTable(network, resolution=1.0)
    for edge in network.edges:
        costs.set_cost(edge.id, DiscreteDistribution(2 + edge.id % 3, [0.5, 0.5]))
    return network, costs


def min_tick_graphs(network, costs):
    """The resident per-cell min-tick graph; asking for it must not build one."""
    return costs.derived(network).get(
        "min_tick_graphs", lambda: pytest.fail("no min-tick graph on this cell")
    )


def learned(network, costs):
    """A Hybrid Model with untrained-but-fitted parts (both decisions occur)."""
    extractor = PairFeatureExtractor(network)
    width = extractor.num_features
    estimator = DistributionEstimator(
        EstimatorConfig(num_bins=4, mlp=MlpConfig(hidden_sizes=(4,), max_epochs=2))
    )
    estimator.fit(np.zeros((10, width)), np.full((10, 4), 0.25))
    rows = np.random.default_rng(0).normal(size=(8, width))
    classifier = DependenceClassifier().fit(rows, (rows[:, 0] > 0).astype(int))
    return HybridModel(costs, estimator, classifier, extractor)


def refit(estimator, classifier, width, seed):
    """Fit both stages on random rows of ``seed``; returns them."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(16, width))
    estimator.fit(rows, rng.dirichlet(np.ones(estimator.config.num_bins), size=16))
    classifier.fit(rows, (rows[:, 0] < 0.5).astype(int))
    return estimator, classifier


def edge_rows(network, hybrid):
    """The resident edge-row store of ``hybrid``'s extractor; asking must not
    build one."""
    key = ("edge_rows", hybrid.features.token)
    return hybrid.costs.derived(network).get(key, lambda: pytest.fail("no edge-row store"))


def warm(network, costs):
    """Build every kind of table-derived state; weakrefs to each, by name."""
    search = _BudgetSearch(network, ConvolutionModel(costs), backend="columnar")
    target = network.num_vertices - 1
    assert search.route(RoutingQuery(0, target, 60)).found
    hybrid = learned(network, costs)
    assert len(hybrid.combine_edges(costs.cost(network.edges[0]), network.out_edges(1))) > 0
    return {
        "edge_rows": weakref.ref(edge_rows(network, hybrid)),
        "heuristic": weakref.ref(OptimisticHeuristic.shared(network, costs, target)),
        "landmarks": weakref.ref(LandmarkTable.shared(network, costs, k=2)),
        # ``_EdgeKernels`` is slotted (no weakrefs); its arrays live exactly as long.
        "kernels": weakref.ref(_kernels_for(network, search.combiner).probs),
        # The heuristic's build left it; scipy matrices take no weakrefs.
        "graph": weakref.ref(min_tick_graphs(network, costs)[0].data),
    }


class TestMemo:
    def test_builds_once_and_returns_the_resident_value(self):
        memo, builds = Memo(), []
        first = memo.get("k", lambda: builds.append(1) or object())
        assert memo.get("k", lambda: builds.append(1) or object()) is first
        assert builds == [1]

    def test_falsy_and_none_values_are_entries_too(self):
        memo, builds = Memo(), []
        for _ in range(2):
            assert memo.get("none", lambda: builds.append(1)) is None
            assert memo.get("zero", lambda: builds.append(1) or 0) == 0
        assert len(builds) == 2

    def test_a_build_may_ask_for_another_key(self):
        memo = Memo()
        value = in_thread(lambda: memo.get("outer", lambda: memo.get("inner", lambda: 20) + 1))
        assert value == 21 and memo.get("inner", lambda: None) == 20

    def test_distinct_keys_build_in_parallel(self):
        """Each build waits for the *other* to have started: serialising
        builds behind one lock would deadlock here (the watchdog fails it)."""
        memo = Memo()
        started = {"a": threading.Event(), "b": threading.Event()}

        def build(mine, other):
            started[mine].set()
            assert started[other].wait(10.0)
            return mine

        second = threading.Thread(
            target=lambda: memo.get("b", lambda: build("b", "a")), daemon=True
        )
        second.start()
        assert in_thread(lambda: memo.get("a", lambda: build("a", "b"))) == "a"
        second.join(10.0)
        assert not second.is_alive()

    def test_failed_build_leaves_no_entry(self):
        memo = Memo()
        with pytest.raises(ZeroDivisionError):
            memo.get("k", lambda: 1 // 0)
        assert in_thread(lambda: memo.get("k", lambda: "rebuilt")) == "rebuilt"

    def test_bounded_memo_is_an_lru_with_a_live_bound(self):
        bound = [2]
        memo = Memo(bound=lambda: bound[0])
        for key in "abc":
            memo.get(key, key.upper)
        assert memo.get("c", lambda: "rebuilt") == "C"  # resident
        assert memo.get("a", lambda: "rebuilt") == "rebuilt"  # evicted: now {c, a}
        bound[0] = 3  # read at every insert, never captured
        memo.get("d", lambda: "D")
        assert memo.get("c", lambda: "rebuilt") == "C"

    def test_clear_bounded_spares_unbounded_memos(self):
        bounded, unbounded = Memo(bound=lambda: 8), Memo()
        bounded.get("k", lambda: 1)
        unbounded.get("k", lambda: 1)
        clear_bounded()
        assert bounded.get("k", lambda: 2) == 2
        assert unbounded.get("k", lambda: 2) == 1


class CountingLock:
    """A lock that counts how often it is taken."""

    def __init__(self):
        self._lock, self.rounds = threading.Lock(), 0

    def __enter__(self):
        self._lock.acquire()
        self.rounds += 1

    def __exit__(self, *exc):
        self._lock.release()


class TestMemoLockRounds:
    """A miss inserts, trims the LRU and releases its flight in the round
    after the build: the lock is taken once for a hit and twice for a miss,
    a build that raises included."""

    @staticmethod
    def counted(memo):
        memo._lock = CountingLock()
        return memo._lock

    @pytest.mark.parametrize("bound", [None, lambda: 2], ids=["unbounded", "bounded"])
    def test_a_hit_takes_one_round_and_a_miss_two(self, bound):
        memo = Memo(bound=bound)
        lock = self.counted(memo)
        assert memo.get("k", lambda: 1) == 1
        assert lock.rounds == 2
        assert memo.get("k", lambda: 2) == 1
        assert lock.rounds == 3
        assert memo._flights == {}

    def test_a_miss_that_evicts_still_takes_two_rounds(self):
        memo = Memo(bound=lambda: 1)
        memo.get("a", lambda: "A")
        lock = self.counted(memo)
        assert memo.get("b", lambda: "B") == "B"
        assert lock.rounds == 2 and list(memo._entries) == ["b"]

    def test_a_raising_build_takes_two_rounds_and_leaves_nothing(self):
        memo = Memo(bound=lambda: 4)
        lock = self.counted(memo)
        with pytest.raises(ZeroDivisionError):
            memo.get("k", lambda: 1 // 0)
        assert lock.rounds == 2
        assert dict(memo._entries) == {} and memo._flights == {}
        assert memo.get("k", lambda: "rebuilt") == "rebuilt"


class TestLifetime:
    """After any publication or topology edit, nothing derived from the
    previous version is reachable from its owner — no request needed."""

    @staticmethod
    def _alive(refs):
        gc.collect()
        return sorted(name for name, ref in refs.items() if ref() is not None)

    @pytest.mark.parametrize("publication", ["set_cost", "apply_deltas", "publish"])
    def test_every_publication_drops_the_tables_derived_state(self, publication):
        network, costs = built_world()
        refs = warm(network, costs)
        assert self._alive(refs) == ["edge_rows", "graph", "heuristic", "kernels", "landmarks"]
        dump = costs.to_dict()  # the same histograms under the same number
        if publication == "set_cost":
            costs.set_cost(0, DiscreteDistribution.point(7))
        elif publication == "apply_deltas":
            costs.apply_deltas({0: DiscreteDistribution.point(7)})
        else:
            costs.publish(costs.decode(dump))
        assert self._alive(refs) == []

    def test_clear_heuristic_cache_drops_bounds_and_keeps_blocks(self):
        from repro.routing import clear_heuristic_cache

        network, costs = built_world()
        refs = warm(network, costs)
        csr = _csr_for(network)
        clear_heuristic_cache()
        assert self._alive(refs) == ["edge_rows", "graph", "kernels"]
        assert _csr_for(network) is csr

    def test_topology_edit_drops_the_networks_derived_state(self):
        network, costs = built_world()
        table_refs = warm(network, costs)
        # ``_Csr`` is slotted (no weakrefs); its arrays live exactly as long.
        refs = {"csr": weakref.ref(_csr_for(network).indptr)}
        order, index_of = vertex_indexing(network)
        stale_size = len(order)
        del order, index_of
        network.add_vertex(10_000, 1.0, 1.0)
        assert self._alive(refs) == []
        assert len(vertex_indexing(network)[0]) == stale_size + 1
        # Table-owned state was built for the old topology: the table cannot
        # see the edit, so it is dropped the next time anything asks.
        fresh = OptimisticHeuristic.shared(network, costs, network.num_vertices - 2)
        assert len(fresh.bounds) == stale_size + 1
        assert self._alive(table_refs) == []

    def test_add_edge_strands_the_min_tick_graph(self):
        network, costs = built_world()
        refs = warm(network, costs)
        far = network.num_vertices - 1
        before = min_tick_bounds(network, costs, far)[0]
        shortcut = network.add_edge(0, far, length=1.0)  # free flow: one tick
        assert costs.min_ticks(shortcut) == 1 < before
        # The table cannot see the edit; the next ask does, and rebuilds.
        assert min_tick_bounds(network, costs, far)[0] == 1.0
        assert self._alive(refs) == []

    def test_a_foreign_network_gets_blocks_built_for_itself(self):
        network, costs = built_world()
        bigger = grid_network(7, 7, seed=1)
        own = _kernels_for(network, ConvolutionModel(costs))
        foreign = _kernels_for(bigger, ConvolutionModel(costs))
        assert len(own.offsets) == network.num_edges
        assert len(foreign.offsets) == bigger.num_edges


class TestEdgeRowStore:
    """The learned combiners' per-edge feature halves: built once per
    published cell and per extractor state, on the table's holder."""

    def test_racing_threads_build_each_row_once(self):
        network, costs = built_world()
        hybrid = learned(network, costs)
        builds, build = Counter(), hybrid.features.edge_features

        def slow_build(edge, cost):
            builds[edge.id] += 1
            time.sleep(0.002)  # every racer arrives while the first builds
            return build(edge, cost)

        hybrid.features.edge_features = slow_build
        edges, pre = network.edges[:12], costs.cost(network.edges[0])
        barrier = threading.Barrier(4)

        def race():
            barrier.wait()
            return hybrid.combine_edges(pre, edges)

        racers = [threading.Thread(target=race, daemon=True) for _ in range(4)]
        for racer in racers:
            racer.start()
        for racer in racers:
            racer.join(10.0)
            assert not racer.is_alive(), "deadlock: a racer never returned"
        assert builds == {edge.id: 1 for edge in edges}

    def test_new_intersection_stats_are_never_served_from_old_rows(self):
        network, costs = built_world()
        hybrid = learned(network, costs)
        vertex = 7
        edges, pre = network.out_edges(vertex), costs.cost(network.in_edges(vertex)[0])

        def fresh():
            return np.vstack([hybrid.features.edge_features(e, costs.cost(e)) for e in edges])

        def served():
            """Combine the block, then read back the rows it was served from."""
            hybrid.combine_edges(pre, edges)
            store = edge_rows(network, hybrid)
            return np.vstack([store.get(e.id, lambda: pytest.fail("not built")) for e in edges])

        before = fresh()
        assert np.array_equal(served(), before)
        old = edge_rows(network, hybrid)
        hybrid.features.set_intersection_stats({vertex: IntersectionStats(0.9, 4, 300)})
        after = fresh()
        assert not np.array_equal(after, before)
        assert np.array_equal(served(), after)
        assert edge_rows(network, hybrid) is not old

    def test_each_set_of_trained_stages_is_served_its_own_terms(self):
        """A refinement round's shape: two models over one cell and one
        extractor with different trained stages, sharing the edge halves.
        Each must be served the blocks of its own stages, and a stage
        refitted in place never its old ones: every block equals a cold
        model's built from the same parts."""
        network, costs = built_world()
        first = learned(network, costs)
        second = HybridModel(costs, *refit(DistributionEstimator(
            EstimatorConfig(num_bins=4, mlp=MlpConfig(hidden_sizes=(4,), max_epochs=2))
        ), DependenceClassifier(), first.features.num_features, seed=1), first.features)

        def assert_served_like_cold(model):
            cold_costs = EdgeCostTable.from_dict(network, costs.to_dict())
            cold = HybridModel(cold_costs, model.estimator, model.classifier, model.features)
            model.stats = HybridStats()
            for vertex in (7, 14, 21, 28):
                pre, edges = costs.cost(network.in_edges(vertex)[0]), network.out_edges(vertex)
                for mine, theirs in zip(model.combine_edges(pre, edges), cold.combine_edges(pre, edges)):
                    assert mine.offset == theirs.offset, vertex
                    assert np.array_equal(mine.probs, theirs.probs), vertex
            assert model.stats.estimations > 0

        for model in (first, second, first):
            assert_served_like_cold(model)
        refit(second.estimator, second.classifier, first.features.num_features, seed=2)
        assert_served_like_cold(second)

    @pytest.mark.parametrize("stage", ["classifier", "estimator"])
    def test_a_refitted_stage_reuses_the_edge_halves_and_misses_the_block_memo(self, stage):
        network, costs = built_world()
        hybrid = learned(network, costs)
        vertex = 7
        pre, edges = costs.cost(network.in_edges(vertex)[0]), network.out_edges(vertex)
        hybrid.combine_edges(pre, edges)
        store = edge_rows(network, hybrid)
        halves = [store.get(e.id, lambda: pytest.fail("not built")) for e in edges]
        width = hybrid.features.num_features
        builds, block = [], hybrid._block
        hybrid._block = lambda *args: builds.append(args) or block(*args)
        hybrid.features.edge_features = lambda *args: pytest.fail("an edge half was rebuilt")
        hybrid.combine_edges(pre, edges)
        assert builds == []  # the block memo answers the repeated block
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(16, width))
        if stage == "classifier":
            hybrid.classifier.fit(rows, (rows[:, 1] > 0).astype(int))
        else:
            hybrid.estimator.fit(rows, rng.dirichlet(np.ones(4), size=16))
        served = hybrid.combine_edges(pre, edges)
        assert len(builds) == 1  # new stage tokens: the block memo misses
        assert edge_rows(network, hybrid) is store
        for edge, half in zip(edges, halves):
            assert store.get(edge.id, lambda: pytest.fail("not built")) is half
        cold = HybridModel(
            EdgeCostTable.from_dict(network, costs.to_dict()),
            hybrid.estimator, hybrid.classifier, PairFeatureExtractor(network),
        )
        for mine, theirs in zip(served, cold.combine_edges(pre, edges)):
            assert mine.offset == theirs.offset
            assert np.array_equal(mine.probs, theirs.probs)


class TestOwnersPickleWithoutDerivedState:
    def test_warm_owners_pickle_no_larger_than_cold_ones(self):
        network, costs = built_world()
        for edge in network.edges:
            costs.cost(edge).cdf()  # a distribution's own CDF memo does pickle
        cold_network, cold_costs = len(pickle.dumps(network)), len(pickle.dumps(costs))
        warm(network, costs)
        assert len(pickle.dumps(network)) <= cold_network
        assert len(pickle.dumps(costs)) <= cold_costs

    def test_an_unpickled_table_rebuilds_its_own_state(self):
        network, costs = built_world()
        warm(network, costs)
        twin_network, twin_costs = pickle.loads(pickle.dumps((network, costs)))
        assert twin_costs.network is twin_network
        target = network.num_vertices - 1
        mine = OptimisticHeuristic.shared(network, costs, target)
        twin = OptimisticHeuristic.shared(twin_network, twin_costs, target)
        assert twin is not mine and twin.table == mine.table
