"""A digest pin for the columnar search core.

Thirty queries forced onto the columnar core (``backend="columnar"``) over a
fixed 40x40 grid world — ten ``pbr``, ten ``multi_budget`` and ten
``depart_when`` — hash to one sha256 over every answer's path (edge ids),
its probabilities rounded to 12 decimals and every ``SearchStats`` counter.
The parity suites allow a route to change across equal-probability ties and
never look at the work counters; this pin does not: a kernel rewrite that
is meant to leave the core bit-identical must leave this digest unchanged.

The expected value is regenerated only on purpose, the same rule as the
golden route fixtures: a change that moves it changes what the core
explores or answers, and says so.
"""

import hashlib
import json

import numpy as np

from repro.core import ConvolutionModel, EdgeCostTable
from repro.histograms import DiscreteDistribution
from repro.network import grid_network
from repro.routing import RoutingEngine, RoutingQuery

EXPECTED = "3795024dcf81822b8c2de10e2dc9c7cd6dba7e075cd56651e7f0f77e58eaf66f"

COUNTERS = (
    "labels_generated",
    "labels_expanded",
    "pruned_by_bound",
    "pruned_by_dominance",
    "pruned_unreachable",
    "pivot_updates",
    "bound_terminations",
    "completed",
)


def _world() -> tuple:
    """40x40 grid; 70 % point masses at 1-3 ticks, the rest spread over
    2-3 ticks, and one edge in 40 starting at tick 0 (zero-tick edges)."""
    network = grid_network(40, 40, jitter=0.2, seed=5)
    rng = np.random.default_rng(29)
    costs = EdgeCostTable(network, resolution=1.0)
    for edge in network.edges:
        offset = 0 if rng.random() < 0.025 else int(rng.integers(1, 4))
        if rng.random() < 0.7 and offset > 0:
            costs.set_cost(edge.id, DiscreteDistribution.point(offset))
        else:
            weights = rng.random(int(rng.integers(2, 4))) + 0.1
            costs.set_cost(edge.id, DiscreteDistribution(offset, weights / weights.sum()))
    return network, costs


def _record(kind: str, stats, results) -> list:
    return [
        kind,
        [getattr(stats, name) for name in COUNTERS],
        [
            None
            if result is None
            else [[edge.id for edge in result.path], round(result.probability, 12)]
            for result in results
        ],
    ]


def _records() -> list:
    network, costs = _world()
    engine = RoutingEngine(network, ConvolutionModel(costs), backend="columnar")
    rng = np.random.default_rng(7)
    records = []
    for i in range(30):
        while True:
            source, target = (int(v) for v in rng.integers(network.num_vertices, size=2))
            floor = engine.heuristic_for(target).remaining_ticks(source)
            if source != target and 12 <= floor <= 40:
                break
        if i % 3 == 0:
            result = engine.route(RoutingQuery(source, target, floor + 5))
            records.append(_record("pbr", result.stats, [result]))
        elif i % 3 == 1:
            budgets = (floor + 1, floor + 3, floor + 6)
            answer = engine.route_multi_budget(source, target, budgets)
            records.append(_record("multi_budget", answer.stats, answer.results))
        else:
            answer = engine.route_depart_when(
                source,
                target,
                [float(d) for d in range(5)],
                arrive_by_seconds=float(floor + 6),
            )
            records.append(_record("depart_when", answer.stats, answer.results))
    return records


def test_columnar_core_digest_is_pinned():
    records = _records()
    # Every strategy found routes, so the pin covers real answers.
    assert all(any(r is not None and r[0] for r in rec[2]) for rec in records)
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == EXPECTED
