"""Property-based tests for the PBR search core (hypothesis).

Random small networks with random edge-cost distributions, asserting the
invariants future hot-path work must not break:

* ``multi_budget`` answers match independent per-budget ``pbr`` runs
  (probabilities to 1e-9; identical routes whenever the optimum is unique);
* ``kbest`` heads the frontier with the ``pbr`` argmax probability, ranks
  routes by descending probability, and returns an antichain under
  dominance;
* batch answers equal individual answers, and reported probabilities are
  consistent with the returned path distributions;
* ``pbr`` *is* the one-element budget vector — same route, same
  probability bit for bit, same search counters — under every pruning
  combination and on both search cores (the identity that lets one loop,
  and one columnar kernel, serve both).

The graphs always contain a 0 -> .. -> n-1 spine, so the main query pair is
reachable by construction; extra random edges create the alternative-route
structure the search has to rank.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConvolutionModel, EdgeCostTable
from repro.histograms import DiscreteDistribution, dominates
from repro.network import RoadNetwork
from repro.routing import RoutingEngine, RoutingQuery
from repro.routing.budget import PruningConfig, _BudgetSearch

#: Every valid flag combination (cost shifting requires the heuristic).
ALL_PRUNINGS = [
    PruningConfig(
        use_heuristic=h, use_pivot=p, use_cost_shifting=c, use_dominance=d
    )
    for h in (True, False)
    for p in (True, False)
    for c in (True, False)
    for d in (True, False)
    if h or not c
]


@st.composite
def worlds(draw):
    """A small strongly-routable network plus a convolution engine."""
    n = draw(st.integers(min_value=5, max_value=8))
    network = RoadNetwork()
    for i in range(n):
        network.add_vertex(i, float(i) * 100.0, 0.0)
    pairs = {(i, i + 1) for i in range(n - 1)}  # the reachability spine
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
        offset = draw(st.integers(min_value=1, max_value=5))
        size = draw(st.integers(min_value=1, max_value=4))
        weights = draw(
            st.lists(
                st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
                min_size=size,
                max_size=size,
            )
        )
        costs.set_cost(edge.id, DiscreteDistribution(offset, np.asarray(weights)))
    return RoutingEngine(network, ConvolutionModel(costs)), n


@st.composite
def worlds_with_budgets(draw):
    engine, n = draw(worlds())
    budgets = draw(
        st.lists(
            st.integers(min_value=2, max_value=6 * n),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    return engine, n, tuple(sorted(budgets))


@settings(max_examples=30, deadline=None)
@given(worlds_with_budgets())
def test_multi_budget_matches_per_budget_pbr(world):
    """One vector search == B independent pbr runs, budget by budget."""
    engine, n, budgets = world
    answer = engine.route_multi_budget(0, n - 1, budgets)
    assert answer.budgets == budgets
    for budget, member in answer.items():
        reference = engine.route(RoutingQuery(0, n - 1, budget))
        assert member.found == reference.found
        assert member.probability == pytest.approx(
            reference.probability, abs=1e-9
        )
        if member.found:
            # The reported probability must be the returned route's own
            # probability — not a stale pivot from another budget.
            assert member.probability == pytest.approx(
                member.distribution.prob_within(budget), abs=1e-12
            )


@settings(max_examples=30, deadline=None)
@given(worlds_with_budgets())
def test_multi_budget_probabilities_monotone_in_budget(world):
    """More time can never hurt: P is non-decreasing along the vector."""
    engine, n, budgets = world
    probs = engine.route_multi_budget(0, n - 1, budgets).probabilities
    assert all(b >= a - 1e-12 for a, b in zip(probs, probs[1:]))


@settings(max_examples=30, deadline=None)
@given(worlds(), st.integers(min_value=1, max_value=4), st.integers(min_value=3, max_value=30))
def test_kbest_head_matches_pbr_argmax(world, k, budget):
    engine, n = world
    query = RoutingQuery(0, n - 1, budget)
    answer = engine.route_kbest(query, k)
    reference = engine.route(query)
    assert answer.found == reference.found
    if reference.found:
        assert answer.best.probability == pytest.approx(
            reference.probability, abs=1e-9
        )


@settings(max_examples=30, deadline=None)
@given(worlds(), st.integers(min_value=2, max_value=4), st.integers(min_value=3, max_value=30))
def test_kbest_is_a_ranked_antichain(world, k, budget):
    engine, n = world
    answer = engine.route_kbest(RoutingQuery(0, n - 1, budget), k)
    routes = answer.routes
    assert len(routes) <= k
    probs = [route.probability for route in routes]
    assert all(a >= b - 1e-12 for a, b in zip(probs, probs[1:]))
    paths = [tuple(e.id for e in route.path) for route in routes]
    assert len(set(paths)) == len(paths), "k-best routes must be distinct"
    for i, p in enumerate(routes):
        for j, q in enumerate(routes):
            if i != j:
                assert not dominates(
                    q.distribution, p.distribution
                ), "a reported route must not be strictly dominated by another"


@settings(max_examples=20, deadline=None)
@given(worlds_with_budgets())
def test_route_many_serial_equals_individual_routes(world):
    engine, n, budgets = world
    queries = [RoutingQuery(0, n - 1, b) for b in budgets]
    if n > 2:
        queries.append(RoutingQuery(0, n - 2, budgets[-1]))
    batch = engine.route_many(queries)
    assert len(batch) == len(queries)
    for query, result in zip(queries, batch):
        alone = engine.route(query)
        assert result.path == alone.path
        assert result.probability == alone.probability
    assert batch.num_found + batch.num_no_route == len(queries)
    assert batch.num_unanswered == 0


@settings(max_examples=20, deadline=None)
@given(worlds())
def test_found_probability_is_distribution_consistent(world):
    engine, n = world
    for budget in (5, 12, 25):
        result = engine.route(RoutingQuery(0, n - 1, budget))
        if result.found:
            assert result.probability == pytest.approx(
                result.distribution.prob_within(budget), abs=1e-12
            )
            # A returned route is connected source -> target.
            vertices = result.path_vertices()
            assert vertices[0] == 0 and vertices[-1] == n - 1


@settings(max_examples=30, deadline=None)
@given(worlds(), st.integers(min_value=3, max_value=30))
def test_pbr_is_the_one_element_budget_vector(world, budget):
    """route(q) == route_multi_budget(q, (q.budget,)), counters included,
    on either search core."""
    engine, n = world
    query = RoutingQuery(0, n - 1, budget)
    for backend, pruning in itertools.product(("scalar", "columnar"), ALL_PRUNINGS):
        where = (backend, pruning)
        search = _BudgetSearch(
            engine.network, engine.combiner, pruning=pruning, backend=backend
        )
        single = search.route(query)
        vector = search.route_multi_budget(query, (budget,))
        member = vector.results[0]
        assert member.path == single.path, where
        assert member.probability == single.probability, where  # bit for bit
        assert member.distribution == single.distribution, where
        counters = single.stats.to_dict()
        shared = vector.stats.to_dict()
        del counters["runtime_seconds"], shared["runtime_seconds"]
        assert shared == counters, where
