"""Golden serving-trace regression: cache behaviour is pinned, not just answers.

The fixture (``tests/fixtures/golden_service.json``) holds a wire-protocol
request sequence — repeated queries, one embedded cost update, a stats
read — plus the expected response skeletons.  Replaying it against a fresh
:class:`RoutingService` over the golden world pins three things at once:

* the **answers** (paths and probabilities, like the golden routes);
* the **hit/miss pattern** (a cache that stops hitting, or hits when it
  must not — e.g. across a cost update — fails here);
* the **cost-version tags** on every response.

Regenerate only after an intentional behaviour change::

    PYTHONPATH=src python tests/fixtures/make_golden_routes.py
"""

import json
from pathlib import Path

import pytest

from repro.core import ConvolutionModel, EdgeCostTable
from repro.histograms import DiscreteDistribution
from fixtures.network_codec import network_from_dict
from repro.service import RoutingService

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

#: Probability/rate drift tolerated before the trace fails.  Paths, hit
#: bits and version tags are compared exactly.
TOL = 1e-9


@pytest.fixture(scope="module")
def trace():
    return json.loads((FIXTURE_DIR / "golden_service.json").read_text())


@pytest.fixture()
def service():
    world = json.loads((FIXTURE_DIR / "golden_world.json").read_text())
    network = network_from_dict(world["network"])
    costs = EdgeCostTable(network, resolution=world["resolution"])
    for edge_id, payload in world["costs"].items():
        costs.set_cost(
            int(edge_id),
            DiscreteDistribution(
                payload["offset"], payload["probs"], normalize=False
            ),
        )
    return RoutingService(network, ConvolutionModel(costs))


class TestGoldenServiceTrace:
    def test_replay_matches_every_expectation(self, service, trace):
        assert len(trace["requests"]) == len(trace["expect"])
        for step, (request, expected) in enumerate(
            zip(trace["requests"], trace["expect"])
        ):
            response = service.handle_request(request)
            where = f"step {step}: {request.get('op')}"
            assert response["ok"], where
            if expected["op"] == "route":
                assert response["cache_hit"] == expected["cache_hit"], where
                assert response["cost_version"] == expected["cost_version"], where
                assert response["result"]["found"] == expected["found"], where
                assert response["result"]["path"] == expected["path"], where
                assert response["result"]["probability"] == pytest.approx(
                    expected["probability"], abs=TOL
                ), where
            elif expected["op"] == "apply_update":
                assert response["cost_version"] == expected["cost_version"], where
                assert response["num_edges"] == expected["num_edges"], where
            elif expected["op"] == "stats":
                assert response["cache_hits"] == expected["cache_hits"], where
                assert response["cache_misses"] == expected["cache_misses"], where
                assert response["hit_rate"] == pytest.approx(
                    expected["hit_rate"], abs=TOL
                ), where
            else:  # pragma: no cover - fixture hygiene
                raise AssertionError(f"unknown expectation op at {where}")

    def test_trace_exercises_the_serving_contract(self, trace):
        """Fixture hygiene: the trace must contain hits, misses, an update
        and post-update misses — otherwise it pins nothing interesting."""
        route_expectations = [e for e in trace["expect"] if e["op"] == "route"]
        update_positions = [
            index
            for index, e in enumerate(trace["expect"])
            if e["op"] == "apply_update"
        ]
        assert update_positions, "trace must apply at least one cost update"
        assert any(e["cache_hit"] for e in route_expectations)
        assert any(not e["cache_hit"] for e in route_expectations)
        first_update = update_positions[0]
        post_update_routes = [
            e
            for e in trace["expect"][first_update + 1 :]
            if e["op"] == "route"
        ]
        assert post_update_routes, "trace must route after the update"
        # The very first post-update repeat must miss (version moved) …
        assert not post_update_routes[0]["cache_hit"]
        # … and versions must be strictly newer than every pre-update tag.
        pre_versions = {
            e["cost_version"]
            for e in trace["expect"][:first_update]
            if e["op"] == "route"
        }
        assert all(
            e["cost_version"] > max(pre_versions) for e in post_update_routes
        )
