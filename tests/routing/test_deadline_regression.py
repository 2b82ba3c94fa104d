"""Anytime-deadline overrun bounds and the termination-counter split.

Regression lock for two correctness sweeps of the label-search hot path:

* The wall clock is re-checked **inside** ``consider`` every
  ``_DEADLINE_CHECK_INTERVAL`` generated labels, so a single adversarial
  high-out-degree vertex (a "star") cannot blow ``time_limit_seconds`` by a
  whole expansion.  The worst-case overrun is bounded by the interval, and
  an expired search always reports ``completed=False`` while still
  returning a usable (fallback/pivot) result.

* ``bound_terminations`` (whole-search best-first early exits: the queue
  head provably cannot beat the pivot) is a separate counter from
  ``pruned_by_bound`` (individual label rejections).  They aggregate
  differently — rates vs at-most-one-per-search events — and an earlier
  revision conflated them, overstating pruning rates in batch telemetry.
"""

import numpy as np
import pytest

from repro.core import ConvolutionModel, EdgeCostTable
from repro.histograms import DiscreteDistribution
from repro.network import RoadNetwork
from repro.routing import RoutingQuery
from repro.routing.budget import _DEADLINE_CHECK_INTERVAL, _BudgetSearch
from repro.routing.query import SearchStats


def _star_world(num_spokes: int):
    """source -> hub -> {spoke_i} -> target, hub out-degree = num_spokes."""
    network = RoadNetwork()
    network.add_vertex(0, 0.0, 0.0)  # source
    network.add_vertex(1, 1.0, 0.0)  # hub
    target = 2 + num_spokes
    for i in range(num_spokes):
        network.add_vertex(2 + i, 2.0, float(i))
    network.add_vertex(target, 3.0, 0.0)
    costs = EdgeCostTable(network, resolution=1.0)
    dist = DiscreteDistribution(1, np.array([0.5, 0.5]))
    edge = network.add_edge(0, 1, length=10.0)
    costs.set_cost(edge.id, dist)
    for i in range(num_spokes):
        edge = network.add_edge(1, 2 + i, length=10.0)
        costs.set_cost(edge.id, dist)
        edge = network.add_edge(2 + i, target, length=10.0)
        costs.set_cost(edge.id, dist)
    return network, costs, target


def _expired_search(search, entry_point, query):
    """Run one entry point past its deadline -> (stats, the route it offers)."""
    if entry_point == "route":
        result = search.route(query, time_limit_seconds=0.0)
        return result.stats, result
    if entry_point == "route_multi_budget":
        answer = search.route_multi_budget(
            query, (query.budget // 2, query.budget), time_limit_seconds=0.0
        )
        return answer.stats, answer.results[-1]
    answer = search.route_kbest(query, 2, time_limit_seconds=0.0)
    return answer.stats, answer.best


# Every public search is the one loop under a different pivot policy, so the
# in-``consider`` clock check is pinned for each of them.
@pytest.mark.parametrize(
    "entry_point", ["route", "route_multi_budget", "route_kbest"]
)
def test_star_vertex_deadline_overrun_is_bounded(entry_point):
    """An already-expired deadline stops mid-expansion, not after it."""
    num_spokes = 4 * _DEADLINE_CHECK_INTERVAL  # hub expansion alone is 4 windows
    network, costs, target = _star_world(num_spokes)
    search = _BudgetSearch(network, ConvolutionModel(costs), backend="scalar")
    stats, result = _expired_search(
        search, entry_point, RoutingQuery(0, target, 100)
    )
    assert not stats.completed
    # The clock fires at the first interval boundary; without the in-loop
    # check the hub expansion would generate all num_spokes labels.
    assert stats.labels_generated <= _DEADLINE_CHECK_INTERVAL
    assert stats.labels_generated < num_spokes
    # Expired searches still answer: the optimistic fallback path.
    assert result.found
    assert result.path_vertices()[0] == 0
    assert result.path_vertices()[-1] == target


def test_star_vertex_deadline_overrun_is_bounded_columnar():
    """The columnar core honours the same deadline contract per chunk."""
    num_spokes = 4 * _DEADLINE_CHECK_INTERVAL
    network, costs, target = _star_world(num_spokes)
    search = _BudgetSearch(network, ConvolutionModel(costs), backend="columnar")
    # Budget 4 keeps the seeded incumbent below certainty (three {1,2}-tick
    # edges: P(<=4) = 0.5) so the hub label survives the pivot screen and
    # the spoke fan-out is genuinely pending when the clock fires.  A loose
    # budget would let the seed prune the whole frontier instantly — a
    # legitimately *completed* search, which is not what this test is for.
    result = search.route(
        RoutingQuery(0, target, 4), time_limit_seconds=0.0
    )
    stats = result.stats
    assert not stats.completed
    # Generation granularity: the seed generation (1 label) may land before
    # the first clock check, but the hub's spoke fan-out must not complete.
    assert stats.labels_generated < num_spokes
    assert result.found


def test_unlimited_search_completes_star():
    network, costs, target = _star_world(_DEADLINE_CHECK_INTERVAL)
    for backend in ("scalar", "columnar"):
        search = _BudgetSearch(network, ConvolutionModel(costs), backend=backend)
        result = search.route(RoutingQuery(0, target, 100))
        assert result.stats.completed
        assert result.found
        assert result.probability == pytest.approx(1.0, abs=1e-12)


def _chain_world(n: int):
    """A fast chain plus a risky shortcut whose mass straddles the budget."""
    network = RoadNetwork()
    for i in range(n):
        network.add_vertex(i, float(i), 0.0)
    costs = EdgeCostTable(network, resolution=1.0)
    fast = DiscreteDistribution(1, np.array([1.0]))
    for i in range(n - 1):
        edge = network.add_edge(i, i + 1, length=10.0)
        costs.set_cost(edge.id, fast)
    # 0 -> 2 shortcut: cost 2 w.p. 0.5, cost 6 w.p. 0.5.  Its admission
    # bound is positive but below 1.0, so it waits in the heap behind every
    # certain fast-path label and is still queued when the pivot reaches
    # probability 1.0 — forcing the best-first early exit.
    edge = network.add_edge(0, 2, length=10.0)
    costs.set_cost(
        edge.id, DiscreteDistribution(2, np.array([0.5, 0.0, 0.0, 0.0, 0.5]))
    )
    return network, costs


def test_bound_termination_counted_once_not_as_label_prune():
    """A best-first early exit increments bound_terminations exactly once."""
    network, costs = _chain_world(8)
    search = _BudgetSearch(network, ConvolutionModel(costs), backend="scalar")
    result = search.route(RoutingQuery(0, 7, 7))
    stats = result.stats
    assert result.found
    assert result.probability == pytest.approx(1.0, abs=1e-12)
    # The all-fast path is certain within the budget, so once it becomes the
    # pivot the queue head (the risky-shortcut label, bound 0.5) can never
    # beat it and the search exits early — exactly once.
    assert stats.bound_terminations == 1
    # The early exit must not be folded into the per-label prune counter:
    # conflating them would overstate pruning rates in batch telemetry.
    pruned_before = stats.pruned_by_bound
    assert pruned_before + stats.bound_terminations > pruned_before
    assert stats.completed


def test_bound_terminations_aggregate_as_sum_and_complete_as_conjunction():
    a = SearchStats(bound_terminations=1, pruned_by_bound=10, completed=True)
    b = SearchStats(bound_terminations=0, pruned_by_bound=3, completed=False)
    c = SearchStats(bound_terminations=1, pruned_by_bound=0, completed=True)
    total = SearchStats.aggregate([a, b, c])
    assert total.bound_terminations == 2
    assert total.pruned_by_bound == 13
    assert not total.completed
    assert total.pruned_total == 13  # terminations stay out of prune totals


def test_bound_terminations_round_trips_to_dict():
    stats = SearchStats(bound_terminations=3, pruned_by_bound=5)
    data = stats.to_dict()
    assert data["bound_terminations"] == 3
    assert data["pruned_by_bound"] == 5
    assert data["pruned_total"] == 5
    assert SearchStats.from_dict(data).bound_terminations == 3
