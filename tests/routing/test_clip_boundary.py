"""`_clip` boundary audit: clipped vs unclipped search equivalence.

``routing.budget._clip`` folds all probability mass beyond ``budget + 1``
ticks into a single cell.  That is exact for the search objective under
convolution — mass above the budget contributes nothing to
``P(cost <= budget)`` wherever it sits, and folding both operands of a
dominance comparison at the same boundary preserves the CDF ordering below
it.  This suite locks the claim empirically: with the
``clip_distributions=False`` reference knob of ``RoutingEngine`` the search runs on full, unfolded
distributions, and every mode must report the same probabilities.

The strategy deliberately concentrates edge offsets and budgets so queries
land *exactly* at the clip boundary (``offset == budget``,
``offset == budget + 1``) and well beyond it (single edges whose entire
support exceeds the budget), the regimes where an off-by-one in the fold
index would flip an answer.

k-best runs **fully unclipped** by design (see the docstring in
``repro/routing/budget.py``): its antichain frontier must rank members by
their whole distributions, and window-folded dominance is strictly stronger
than full-axis dominance — clipping there would over-evict routes whose
advantage lies beyond the smallest budget seen.  The kbest cases below pin
the route *sets*, not just the head probability.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConvolutionModel, EdgeCostTable
from repro.histograms import DiscreteDistribution
from repro.network import RoadNetwork
from repro.routing import PruningConfig, RoutingEngine, RoutingQuery

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
def boundary_worlds(draw):
    """Small worlds with offsets chosen to straddle the clip boundary."""
    n = draw(st.integers(min_value=4, max_value=7))
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
            max_size=n,
        )
    )
    for u, v in extra:
        if u != v:
            pairs.add((u, v))
    budget = draw(st.integers(min_value=3, max_value=12))
    costs = EdgeCostTable(network, resolution=1.0)
    for u, v in sorted(pairs):
        edge = network.add_edge(u, v, length=100.0)
        # Bias supports onto the boundary: offsets at exactly the budget,
        # one past it, or entirely beyond, alongside ordinary short edges.
        offset = draw(
            st.sampled_from(
                [1, 2, 3, budget - 1, budget, budget + 1, budget + 3]
            )
        )
        offset = max(1, offset)
        size = draw(st.integers(min_value=1, max_value=3))
        weights = draw(
            st.lists(
                st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
                min_size=size,
                max_size=size,
            )
        )
        costs.set_cost(edge.id, DiscreteDistribution(offset, np.asarray(weights)))
    return network, costs, n, budget


@settings(max_examples=30, deadline=None)
@given(boundary_worlds(), st.sampled_from(ALL_PRUNINGS))
def test_pbr_clip_is_observationally_exact(world, pruning):
    network, costs, n, budget = world
    combiner = ConvolutionModel(costs)
    clipped = RoutingEngine(network, combiner, pruning=pruning, backend="scalar")
    unclipped = RoutingEngine(
        network,
        combiner,
        pruning=pruning,
        backend="scalar",
        clip_distributions=False,
    )
    for b in (budget, budget + 1, max(1, budget - 1)):
        query = RoutingQuery(0, n - 1, b)
        a = clipped.route(query)
        u = unclipped.route(query)
        assert a.found == u.found
        assert a.probability == pytest.approx(u.probability, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(boundary_worlds())
def test_multi_budget_clip_is_observationally_exact(world):
    network, costs, n, budget = world
    combiner = ConvolutionModel(costs)
    clipped = RoutingEngine(network, combiner, backend="scalar")
    unclipped = RoutingEngine(
        network, combiner, backend="scalar", clip_distributions=False
    )
    budgets = tuple(sorted({max(1, budget - 1), budget, budget + 1, budget + 4}))
    query = RoutingQuery(0, n - 1, budgets[-1])
    a = clipped.route_multi_budget(query.source, query.target, budgets)
    u = unclipped.route_multi_budget(query.source, query.target, budgets)
    for (b, member_a), (_, member_u) in zip(a.items(), u.items()):
        assert member_a.found == member_u.found
        assert member_a.probability == pytest.approx(member_u.probability, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(boundary_worlds(), st.integers(min_value=1, max_value=4))
def test_kbest_route_sets_survive_clip_knob(world, k):
    """kbest ignores the knob entirely — it already runs unclipped."""
    network, costs, n, budget = world
    combiner = ConvolutionModel(costs)
    default = RoutingEngine(network, combiner, backend="scalar")
    knob_off = RoutingEngine(
        network, combiner, backend="scalar", clip_distributions=False
    )
    query = RoutingQuery(0, n - 1, budget)
    a = default.route_kbest(query, k)
    u = knob_off.route_kbest(query, k)
    assert [tuple(e.id for e in r.path) for r in a.routes] == [
        tuple(e.id for e in r.path) for r in u.routes
    ]
    assert [r.probability for r in a.routes] == pytest.approx(
        [r.probability for r in u.routes], abs=1e-12
    )


def test_single_edge_support_entirely_beyond_budget():
    """An edge whose whole support exceeds the budget yields P = 0, found."""
    network = RoadNetwork()
    network.add_vertex(0, 0.0, 0.0)
    network.add_vertex(1, 1.0, 0.0)
    edge = network.add_edge(0, 1, length=10.0)
    costs = EdgeCostTable(network, resolution=1.0)
    costs.set_cost(edge.id, DiscreteDistribution(9, np.array([0.5, 0.5])))
    combiner = ConvolutionModel(costs)
    for clip in (True, False):
        search = RoutingEngine(
            network, combiner, backend="scalar", clip_distributions=clip
        )
        result = search.route(RoutingQuery(0, 1, 5))
        assert result.found
        assert result.probability == pytest.approx(0.0, abs=1e-15)


def test_support_edge_exactly_at_budget():
    """Mass at tick == budget counts; at budget + 1 it does not."""
    network = RoadNetwork()
    network.add_vertex(0, 0.0, 0.0)
    network.add_vertex(1, 1.0, 0.0)
    edge = network.add_edge(0, 1, length=10.0)
    costs = EdgeCostTable(network, resolution=1.0)
    costs.set_cost(edge.id, DiscreteDistribution(4, np.array([0.25, 0.75])))
    combiner = ConvolutionModel(costs)
    for clip in (True, False):
        search = RoutingEngine(
            network, combiner, backend="scalar", clip_distributions=clip
        )
        at_lower = search.route(RoutingQuery(0, 1, 4)).probability
        at_upper = search.route(RoutingQuery(0, 1, 5)).probability
        assert at_lower == pytest.approx(0.25, abs=1e-15)
        assert at_upper == pytest.approx(1.0, abs=1e-15)
