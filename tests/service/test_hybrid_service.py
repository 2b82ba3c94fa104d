"""A service serving the paper's Hybrid Model, not convolution.

Every other serving-layer suite routes over ``ConvolutionModel``.  The
learned combiner brings derived state of its own — the per-edge feature
rows it builds once per published cost cell — so the answer contract is
re-checked here over it: every served answer equals a cold engine's over a
fresh copy of the table at the answer's ``cost_version``, across a live
update and a ``restore`` into a history whose version number repeats over
different histograms.
"""

import dataclasses
import json

import pytest

from repro.core import EdgeCostTable, PairFeatureExtractor
from repro.histograms import DiscreteDistribution
from repro.routing import RoutingEngine, RoutingQuery
from repro.service import CostUpdate, RoutingService


@pytest.fixture(scope="module")
def world(trained_world):
    network, _, _, trained = trained_world
    return network, trained


def serving(trained) -> RoutingService:
    """A service over a private copy of the trained table."""
    return RoutingService(
        trained.network, dataclasses.replace(trained, costs=trained.costs.copy()).hybrid_model()
    )


def cold_answer(trained, service, query):
    """A cold Hybrid engine: a from-scratch copy of the installed table and a
    fresh extractor, so no derived state at all is shared with the service."""
    installed = service.engine().combiner.costs
    table = EdgeCostTable.from_dict(trained.network, json.loads(json.dumps(installed.to_dict())))
    network, learned = trained.network, trained.features
    features = PairFeatureExtractor(
        network,
        config=learned.config,
        intersection_stats={v: learned.intersection_stats(v) for v in network.vertex_ids()},
    )
    combiner = dataclasses.replace(trained, costs=table, features=features).hybrid_model()
    return installed.version, RoutingEngine(network, combiner).route(query)


def assert_same_answer(mine, reference, where=""):
    assert [e.id for e in mine.path] == [e.id for e in reference.path], where
    assert mine.probability == reference.probability, where
    assert mine.distribution == reference.distribution, where
    assert mine.stats.labels_generated == reference.stats.labels_generated, where


def feed(trained, shape):
    """Every edge re-shaped to ``shape`` at its old minimum: the bounds stay,
    every cost and every edge's feature row changes."""
    costs = trained.costs
    return CostUpdate(
        {edge.id: DiscreteDistribution(costs.min_ticks(edge), shape)
         for edge in trained.network.edges}
    )


QUERIES = [RoutingQuery(0, 48, 60), RoutingQuery(8, 40, 45), RoutingQuery(6, 42, 55)]


def check_all(trained, service, where):
    for query in QUERIES:
        version, cold = cold_answer(trained, service, query)
        served = service.route(query)
        assert served.cost_version == version, where
        assert not served.cache_hit, where
        assert_same_answer(served.result, cold, f"{where}: {query}")


def test_answers_equal_a_cold_engine_across_an_update_and_a_diverged_restore(world):
    _, trained = world
    service = serving(trained)
    hybrid = service.engine().combiner
    check_all(trained, service, "initial")
    assert hybrid.stats.estimations > 0 and hybrid.stats.convolutions > 0
    before = json.loads(json.dumps(service.snapshot()))

    update = feed(trained, [0.2, 0.5, 0.3]).to_dict()
    reply = service.handle_request({"op": "apply_update", "update": update})
    assert reply["ok"], reply
    slowed = service.cost_version()
    check_all(trained, service, "after apply_update")

    service.restore(before)
    diverged = feed(trained, [0.6, 0.1, 0.3])
    assert service.apply_cost_update(diverged) == slowed  # the number repeats
    check_all(trained, service, "after restore into a diverged history")
