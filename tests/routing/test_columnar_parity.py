"""Scalar vs columnar search-core parity (hypothesis).

The columnar core (:mod:`repro.routing.columnar`) must be an observational
no-op relative to the scalar reference loop: same found flag, probabilities
within 2e-12, and a route of identical probability (exploration order may
legitimately differ only across exact-probability ties, which the dominance
tolerance already treats as equal).  This suite forces ``backend="columnar"``
on worlds far below the auto-dispatch threshold so every parity case runs
both cores, across **all twelve valid pruning-flag combinations** and both
lower-bound tiers (per-target optimistic heuristic and shared ALT landmark
table).

Also covered here: the backend dispatch contract (``"columnar"`` raises on
incapable configurations, ``"auto"`` stays scalar below the edge-count
threshold) and unit tests for the batched histogram kernels the columnar
core is built from.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import ConvolutionModel, EdgeCostTable
from repro.core.models import CostCombiner
from repro.histograms import (
    DiscreteDistribution,
    batched_window_convolve,
    cdf_dominance_matrix,
    trim_window_rows,
)
from repro.network import RoadNetwork
from repro.routing import PruningConfig, RoutingEngine, RoutingQuery, SearchStats
from repro.routing.budget import _columnar_applicable
from repro.routing.columnar import COLUMNAR_AUTO_MIN_EDGES
from repro.routing.heuristics import OptimisticHeuristic
from repro.routing.landmarks import LandmarkTable
from repro.service import CostUpdate

#: Every valid flag combination (cost shifting requires the heuristic).
ALL_PRUNINGS = [
    PruningConfig(
        use_heuristic=h,
        use_pivot=p,
        use_cost_shifting=c,
        use_dominance=d,
    )
    for h in (True, False)
    for p in (True, False)
    for c in (True, False)
    for d in (True, False)
    if h or not c
]


@st.composite
def worlds(draw):
    """A small routable network plus its cost table (spine + random extras)."""
    n = draw(st.integers(min_value=5, max_value=8))
    network = RoadNetwork()
    for i in range(n):
        network.add_vertex(i, float(i) * 100.0, 0.0)
    pairs = {(i, i + 1) for i in range(n - 1)}
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=2 * n,
        )
    )
    for u, v in extra:
        if u != v:
            pairs.add((u, v))
    costs = EdgeCostTable(network, resolution=1.0)
    for u, v in sorted(pairs):
        edge = network.add_edge(u, v, length=100.0)
        # Offset 0 is legal: zero-tick edges reach the convolution's t = 0
        # column and the descent's zero-tick-cycle guard.
        offset = draw(st.integers(min_value=0, max_value=5))
        size = draw(st.integers(min_value=1, max_value=4))
        weights = draw(
            st.lists(
                st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
                min_size=size,
                max_size=size,
            )
        )
        costs.set_cost(edge.id, DiscreteDistribution(offset, np.asarray(weights)))
    return network, costs, n


def _assert_parity(scalar_result, columnar_result, budget):
    assert columnar_result.found == scalar_result.found
    assert abs(columnar_result.probability - scalar_result.probability) <= 2e-12
    if scalar_result.found:
        # The columnar route's own distribution must reproduce its reported
        # probability — it is a real path, not a stitched artifact.
        assert columnar_result.probability == pytest.approx(
            columnar_result.distribution.prob_within(budget), abs=1e-12
        )
        path = columnar_result.path
        assert all(a.target == b.source for a, b in zip(path, path[1:]))
        vertices = columnar_result.path_vertices()
        assert vertices[0] == scalar_result.query.source
        assert vertices[-1] == scalar_result.query.target
        assert len(set(vertices)) == len(vertices)  # simple


@settings(max_examples=25, deadline=None)
@given(
    worlds(),
    st.sampled_from(ALL_PRUNINGS),
    st.integers(min_value=2, max_value=45),
)
def test_columnar_matches_scalar_all_prunings(world, pruning, budget):
    network, costs, n = world
    combiner = ConvolutionModel(costs)
    scalar = RoutingEngine(network, combiner, pruning=pruning, backend="scalar")
    columnar = RoutingEngine(network, combiner, pruning=pruning, backend="columnar")
    for source, target in [(0, n - 1), (0, n - 2), (1, n - 1)]:
        query = RoutingQuery(source, target, budget)
        _assert_parity(scalar.route(query), columnar.route(query), budget)


budget_vectors = st.lists(
    st.integers(min_value=2, max_value=45), min_size=1, max_size=4, unique=True
).map(lambda budgets: tuple(sorted(budgets)))


@settings(max_examples=25, deadline=None)
@given(worlds(), st.sampled_from(ALL_PRUNINGS), budget_vectors)
def test_columnar_budget_vector_matches_scalar_all_prunings(world, pruning, budgets):
    """One columnar search over the vector == one scalar search, budget by
    budget: found flags, |dP| <= 2e-12, real simple source -> target paths."""
    network, costs, n = world
    combiner = ConvolutionModel(costs)
    scalar = RoutingEngine(network, combiner, pruning=pruning, backend="scalar")
    columnar = RoutingEngine(network, combiner, pruning=pruning, backend="columnar")
    for source, target in [(0, n - 1), (0, n - 2), (1, n - 1)]:
        query = RoutingQuery(source, target, budgets[-1])
        reference = scalar.route_multi_budget(query.source, query.target, budgets)
        answer = columnar.route_multi_budget(query.source, query.target, budgets)
        assert answer.budgets == budgets
        for budget, mine, theirs in zip(budgets, answer.results, reference.results):
            assert mine.query == theirs.query == RoutingQuery(source, target, budget)
            assert mine.stats == SearchStats()  # the one search's stats are shared
            _assert_parity(theirs, mine, budget)


@settings(max_examples=20, deadline=None)
@given(
    worlds(),
    st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=7, unique=True),
    st.integers(min_value=8, max_value=50),
)
def test_columnar_depart_when_matches_scalar(world, departures, arrive_by):
    assume(min(departures) < arrive_by)  # at least one feasible departure
    network, costs, n = world
    combiner = ConvolutionModel(costs)
    answers = [
        RoutingEngine(network, combiner, backend=backend).route_depart_when(
            0, n - 1, [float(d) for d in departures], arrive_by_seconds=float(arrive_by)
        )
        for backend in ("scalar", "columnar")
    ]
    reference, answer = answers
    assert answer.budgets == reference.budgets
    for mine, theirs in zip(answer.probabilities, reference.probabilities):
        assert abs(mine - theirs) <= 2e-12
    assert answer.best_departure == reference.best_departure


def test_zero_tick_descent_cycle_matches_scalar():
    """A zero-tick 2-cycle on the min-tick descent (1 -> 2 -> 1 -> ...) stalls
    the dive oracle at the ``len(chain) > num_vertices`` guard; the search
    still answers as the scalar loop does."""
    network = RoadNetwork()
    for i in range(4):
        network.add_vertex(i, float(i) * 100.0, 0.0)
    costs = EdgeCostTable(network, resolution=1.0)
    # Vertex 2 lists 2 -> 1 before 2 -> 3, so the descent picks the cycle.
    for u, v, offset in [(0, 1, 1), (1, 2, 0), (2, 1, 0), (2, 3, 1), (0, 3, 4)]:
        edge = network.add_edge(u, v, length=100.0)
        costs.set_cost(edge.id, DiscreteDistribution(offset, np.array([0.6, 0.4])))
    combiner = ConvolutionModel(costs)
    for budget in range(2, 9):
        query = RoutingQuery(0, 3, budget)
        scalar = RoutingEngine(network, combiner, backend="scalar").route(query)
        columnar = RoutingEngine(network, combiner, backend="columnar").route(query)
        _assert_parity(scalar, columnar, budget)


@settings(max_examples=20, deadline=None)
@given(worlds(), st.integers(min_value=1, max_value=4), st.integers(min_value=3, max_value=40))
def test_columnar_landmark_mode_matches_scalar(world, k, budget):
    """ALT bounds are weaker but sound: identical answers, any k."""
    network, costs, n = world
    combiner = ConvolutionModel(costs)
    scalar = RoutingEngine(network, combiner, backend="scalar")
    columnar = RoutingEngine(network, combiner, backend="columnar", landmarks=k)
    query = RoutingQuery(0, n - 1, budget)
    _assert_parity(scalar.route(query), columnar.route(query), budget)


@settings(max_examples=20, deadline=None)
@given(worlds(), st.integers(min_value=1, max_value=4))
def test_landmark_bounds_are_admissible(world, k):
    """Triangle-inequality bounds never exceed the exact reverse Dijkstra."""
    network, costs, n = world
    table = LandmarkTable(network, costs, k=k)
    for target in range(n):
        exact = OptimisticHeuristic(network, costs, target).table
        bounds = table.bounds_to(target)
        for i, vertex in enumerate(table.vertex_order):
            true_dist = exact.get(vertex)
            if true_dist is None:
                continue  # unreachable: any bound (even inf) is admissible
            assert bounds[i] <= true_dist + 1e-9


def _tiny_world():
    network = RoadNetwork()
    for i in range(3):
        network.add_vertex(i, float(i), 0.0)
    costs = EdgeCostTable(network, resolution=1.0)
    for u, v in [(0, 1), (1, 2), (0, 2)]:
        edge = network.add_edge(u, v, length=10.0)
        costs.set_cost(edge.id, DiscreteDistribution(1, np.array([0.5, 0.5])))
    return network, costs


class _OpaqueCombiner(CostCombiner):
    """Convolution-shaped combiner that does not declare vectorizability."""

    exact_under_truncation = True  # vectorized_convolution stays False

    def combine(self, pre, edge):
        return pre.convolve(self.edge_cost(edge))


class TestBackendDispatch:
    def test_forced_columnar_rejects_non_vectorized_combiner(self):
        network, costs = _tiny_world()
        search = RoutingEngine(network, _OpaqueCombiner(costs), backend="columnar")
        with pytest.raises(ValueError, match="vectorized-convolution"):
            search.route(RoutingQuery(0, 2, 10))

    def test_forced_columnar_rejects_unclipped_search(self):
        network, costs = _tiny_world()
        search = RoutingEngine(
            network,
            ConvolutionModel(costs),
            backend="columnar",
            clip_distributions=False,
        )
        with pytest.raises(ValueError, match="clipping"):
            search.route(RoutingQuery(0, 2, 10))

    def test_forced_columnar_rejects_oversized_window(self):
        network, costs = _tiny_world()
        search = RoutingEngine(network, ConvolutionModel(costs), backend="columnar")
        with pytest.raises(ValueError, match="budget"):
            search.route(RoutingQuery(0, 2, 1 << 20))

    def test_forced_columnar_budget_vector_rejects_like_route(self):
        network, costs = _tiny_world()
        incapable = [
            (_OpaqueCombiner(costs), {}, 10),
            (ConvolutionModel(costs), dict(clip_distributions=False), 10),
            (ConvolutionModel(costs), {}, 1 << 20),  # oversized window
        ]
        for combiner, options, budget in incapable:
            search = RoutingEngine(network, combiner, backend="columnar", **options)
            query = RoutingQuery(0, 2, budget)
            with pytest.raises(ValueError) as single:
                search.route(query)
            with pytest.raises(ValueError) as vector:
                search.route_multi_budget(query.source, query.target, (budget // 2, budget))
            assert str(vector.value) == str(single.value), options

    def test_kbest_on_a_forced_columnar_search_runs_the_scalar_loop(self, monkeypatch):
        from repro.routing import columnar

        network, costs = _tiny_world()
        combiner = ConvolutionModel(costs)
        query = RoutingQuery(0, 2, 10)
        reference = RoutingEngine(network, combiner, backend="scalar").route_kbest(query, 2)

        def unreachable(*args, **kwargs):
            raise AssertionError("kbest must not reach the columnar core")

        monkeypatch.setattr(columnar, "columnar_route", unreachable)
        answer = RoutingEngine(network, combiner, backend="columnar").route_kbest(query, 2)
        assert answer.found
        assert [r.probability for r in answer.routes] == [
            r.probability for r in reference.routes
        ]
        assert [r.path for r in answer.routes] == [r.path for r in reference.routes]
        with pytest.raises(AssertionError, match="columnar core"):
            RoutingEngine(network, combiner, backend="columnar").route_multi_budget(
                query.source, query.target, (5, 10)
            )

    def test_auto_stays_scalar_below_edge_threshold(self):
        network, costs = _tiny_world()
        search = RoutingEngine(network, ConvolutionModel(costs), backend="auto")
        assert network.num_edges < COLUMNAR_AUTO_MIN_EDGES
        assert not _columnar_applicable(search, RoutingQuery(0, 2, 10))

    def test_unknown_backend_rejected_eagerly(self):
        network, costs = _tiny_world()
        with pytest.raises(ValueError, match="backend"):
            RoutingEngine(network, ConvolutionModel(costs), backend="gpu")


class TestWindowKernels:
    def test_window_row_head_exact_fold_conserves_mass(self):
        dist = DiscreteDistribution(2, np.array([0.2, 0.3, 0.1, 0.4]))
        row = dist.window_row(5)
        # Ticks 2 and 3 are head columns; mass at ticks >= 4 folds into the
        # last cell.
        assert row == pytest.approx([0.0, 0.0, 0.2, 0.3, 0.5], abs=1e-15)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)

    def test_window_row_fully_beyond_window(self):
        dist = DiscreteDistribution(10, np.array([1.0]))
        row = dist.window_row(4)
        assert row == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=1e-15)

    def test_batched_window_convolve_matches_scalar_convolve(self):
        rng = np.random.default_rng(7)
        width = 16
        parents = np.zeros((3, width))
        dists = []
        for i in range(3):
            offset = int(rng.integers(0, 4))
            probs = rng.random(int(rng.integers(1, 5)))
            probs /= probs.sum()
            dist = DiscreteDistribution(offset, probs)
            dists.append(dist)
            parents[i] = dist.window_row(width)
        kernel_offsets = np.array([1, 2, 1], dtype=np.int64)
        kernel_probs = np.zeros((3, 3))
        kernels = []
        for i, off in enumerate(kernel_offsets):
            probs = rng.random(int(rng.integers(1, 4)))
            probs /= probs.sum()
            kernels.append(DiscreteDistribution(int(off), probs))
            kernel_probs[i, : probs.size] = probs
        totals = kernel_probs.sum(axis=1)
        out = batched_window_convolve(parents, kernel_offsets, kernel_probs, totals)
        for i in range(3):
            expected = dists[i].convolve(kernels[i]).window_row(width)
            assert out[i] == pytest.approx(expected, abs=1e-12)

    def test_trim_window_rows_mirrors_scalar_trim(self):
        rows = np.array(
            [
                [1e-18, 0.5, 0.5, 1e-18, 0.0],
                [0.0, 0.0, 1.0, 0.0, 0.0],
            ]
        )
        trim_window_rows(rows)
        assert rows[0] == pytest.approx([0.0, 0.5, 0.5, 0.0, 0.0], abs=0)
        assert rows[1] == pytest.approx([0.0, 0.0, 1.0, 0.0, 0.0], abs=0)

    def test_cdf_dominance_matrix_agrees_with_pairwise(self):
        rng = np.random.default_rng(11)
        a = rng.random((5, 8)).cumsum(axis=1)
        b = rng.random((4, 8)).cumsum(axis=1)
        out = cdf_dominance_matrix(a, b)
        assert out.shape == (5, 4)
        for i in range(5):
            for j in range(4):
                assert out[i, j] == bool(np.all(a[i] >= b[j] - 1e-12))


class TestKernelCells:
    """One kernel block per live cost table, however many tables take turns."""

    @staticmethod
    def _count_builds(monkeypatch):
        from repro.routing import columnar

        builds = []

        class Counting(columnar._EdgeKernels):
            __slots__ = ()

            def __init__(self, network, combiner):
                builds.append(combiner.costs)
                super().__init__(network, combiner)

        monkeypatch.setattr(columnar, "_EdgeKernels", Counting)
        return builds

    @staticmethod
    def _tables(network, count):
        tables = []
        for shift in range(count):
            costs = EdgeCostTable(network, resolution=1.0)
            for edge in network.edges:
                costs.set_cost(edge.id, DiscreteDistribution(1 + shift, [0.5, 0.5]))
            tables.append(costs)
        return tables

    def test_round_robin_over_six_slices_builds_each_block_once(self, monkeypatch):
        """Regression: a 4-entry LRU rebuilt the block on *every* request
        once six slices took turns (18 builds for 18 requests)."""
        from repro.network import grid_network
        from repro.service import RoutingService, ScenarioSchedule, TimeSlice

        network = grid_network(24, 24, seed=1)
        assert network.num_edges >= COLUMNAR_AUTO_MIN_EDGES  # columnar under "auto"
        names = [f"s{i}" for i in range(6)]
        service = RoutingService.from_time_slices(
            network,
            dict(zip(names, self._tables(network, 6))),
            schedule=ScenarioSchedule(
                [TimeSlice(n, i * 14400.0, (i + 1) * 14400.0) for i, n in enumerate(names)]
            ),
        )
        builds = self._count_builds(monkeypatch)
        for turn in range(18):
            served = service.route(
                RoutingQuery(0, 3, 40 + turn // 6), slice_name=names[turn % 6]
            )
            assert served.result.found and not served.cache_hit
        assert len(builds) == 6
        # A version bump replaces that table's block; the others stay.
        service.apply_cost_update(
            CostUpdate(costs={0: DiscreteDistribution(2, [1.0])}), slice_name="s0"
        )
        for name in names:
            service.route(RoutingQuery(0, 3, 50), slice_name=name)
        assert len(builds) == 7

    def test_blocks_survive_heuristic_clears_and_die_with_their_table(self, monkeypatch):
        import gc
        import weakref

        from repro.routing import columnar
        from repro.routing.heuristics import clear_heuristic_cache

        network, _ = _tiny_world()
        (costs,) = self._tables(network, 1)
        builds = self._count_builds(monkeypatch)
        search = RoutingEngine(network, ConvolutionModel(costs), backend="columnar")
        search.route(RoutingQuery(0, 2, 20))
        # Blocks are slotted (no weakrefs); their arrays live exactly as long.
        block = weakref.ref(columnar._kernels_for(network, search.combiner).probs)
        clear_heuristic_cache()
        search.route(RoutingQuery(0, 2, 21))
        assert len(builds) == 1
        assert block() is not None
        del search, costs, builds[:]
        gc.collect()
        assert block() is None  # a dead table pins nothing

    def test_two_threads_over_more_than_four_tables(self, monkeypatch):
        """The old LRU's unlocked ``get`` → ``move_to_end`` could lose its
        key to an eviction in between (``KeyError``, served as internal)."""
        import sys
        import threading

        network, _ = _tiny_world()
        tables = self._tables(network, 6)
        searches = [
            RoutingEngine(network, ConvolutionModel(costs), backend="columnar")
            for costs in tables
        ]
        expected = [s.route(RoutingQuery(0, 2, 20)).probability for s in searches]
        builds = self._count_builds(monkeypatch)
        for shift, costs in enumerate(tables):  # a bump each: racing first builds
            costs.set_cost(0, DiscreteDistribution(1 + shift, [0.5, 0.5]))
        errors = []

        def hammer(offset):
            try:
                for turn in range(300):
                    index = (turn + offset) % len(searches)
                    result = searches[index].route(RoutingQuery(0, 2, 20))
                    assert result.probability == expected[index]
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer, args=(k,)) for k in (0, 3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # Racing first builds may both build; after that, never again.
        assert len(tables) <= len(builds) <= 2 * len(tables)


def test_landmark_bounds_memo_is_safe_under_threads():
    """``bounds_to`` is a bounded LRU on a table shared process-wide: its
    ``get`` → ``move_to_end`` used to race a concurrent ``popitem`` with no
    lock.  More targets than it holds, four threads, a short switch
    interval: no exception, and every vector equals the single-threaded one."""
    import sys
    import threading

    from repro.network import grid_network
    from repro.routing import landmarks

    network = grid_network(9, 9, seed=4)
    assert network.num_vertices > landmarks._BOUNDS_CACHE_SIZE
    costs = EdgeCostTable(network, resolution=1.0)
    for edge in network.edges:
        costs.set_cost(edge.id, DiscreteDistribution(1 + edge.id % 3, [0.5, 0.5]))
    reference = LandmarkTable(network, costs, k=4)
    expected = {t: reference.bounds_to(t).copy() for t in reference.vertex_order}
    table = LandmarkTable.shared(network, costs, k=4)
    targets = list(expected)
    errors = []

    def hammer(offset):
        try:
            for turn in range(4 * len(targets)):
                target = targets[(turn * 7 + offset) % len(targets)]
                assert np.array_equal(table.bounds_to(target), expected[target])
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=hammer, args=(k,), daemon=True) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
