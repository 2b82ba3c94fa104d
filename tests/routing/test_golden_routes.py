"""Golden-route regression tests: any answer drift fails here.

The fixtures pin exact routes and probabilities for the deterministic world
in ``tests/fixtures/golden_world.json``.  The world is rebuilt from the
fixture file itself (not from the generators), so these tests move only
when *routing behaviour* moves — pruning, dominance, convolution,
tie-breaking.  If a change is intentional, regenerate with::

    PYTHONPATH=src python tests/fixtures/make_golden_routes.py

and review the fixture diff route by route (see that script's docstring).
"""

import json
from pathlib import Path

import pytest

from repro.core import ConvolutionModel, EdgeCostTable
from repro.histograms import DiscreteDistribution
from fixtures.network_codec import network_from_dict, network_to_dict
from repro.routing import RoutingEngine, RoutingQuery

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

#: Probability drift tolerated before a golden test fails.  Routes are
#: compared exactly.
TOL = 1e-9


@pytest.fixture(scope="module")
def golden():
    return json.loads((FIXTURE_DIR / "golden_routes.json").read_text())


@pytest.fixture(scope="module")
def engine():
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
    return RoutingEngine(network, ConvolutionModel(costs))


def _assert_matches(result, expected, where):
    assert result.found == expected["found"], where
    assert [e.id for e in result.path] == expected["path"], where
    assert result.probability == pytest.approx(
        expected["probability"], abs=TOL
    ), where


class TestGoldenPBR:
    def test_every_pbr_case(self, engine, golden):
        for case in golden["pbr"]:
            query = RoutingQuery.from_dict(case["query"])
            result = engine.route(query)
            _assert_matches(result, case, f"pbr {case['query']}")


class TestGoldenMultiBudget:
    def test_every_vector_case(self, engine, golden):
        for case in golden["multi_budget"]:
            answer = engine.route_multi_budget(
                case["source"], case["target"], case["budgets"]
            )
            assert list(answer.budgets) == sorted(set(case["budgets"]))
            for expected in case["results"]:
                member = answer.best_for(expected["budget"])
                _assert_matches(
                    member,
                    expected,
                    f"multi_budget {case['source']}->{case['target']} "
                    f"@ {expected['budget']}",
                )

    def test_vector_members_match_independent_pbr_runs(self, engine, golden):
        """The acceptance contract: one search == B independent pbr runs."""
        for case in golden["multi_budget"]:
            answer = engine.route_multi_budget(
                case["source"], case["target"], case["budgets"]
            )
            for budget, member in answer.items():
                reference = engine.route(
                    RoutingQuery(case["source"], case["target"], budget)
                )
                assert [e.id for e in member.path] == [
                    e.id for e in reference.path
                ]
                assert member.probability == pytest.approx(
                    reference.probability, abs=TOL
                )


class TestGoldenKBest:
    def test_every_kbest_case(self, engine, golden):
        for case in golden["kbest"]:
            query = RoutingQuery.from_dict(case["query"])
            answer = engine.route_kbest(query, case["k"])
            assert len(answer.routes) == len(case["routes"]), case["query"]
            for rank, expected in enumerate(case["routes"]):
                _assert_matches(
                    answer.routes[rank],
                    expected,
                    f"kbest {case['query']} rank {rank}",
                )

    def test_kbest_head_matches_pbr(self, engine, golden):
        for case in golden["kbest"]:
            query = RoutingQuery.from_dict(case["query"])
            best = engine.route_kbest(query, case["k"]).best
            reference = engine.route(query)
            assert best.probability == pytest.approx(
                reference.probability, abs=TOL
            )


class TestFixtureHygiene:
    def test_fixtures_exist_and_are_nonempty(self, golden):
        assert golden["pbr"] and golden["multi_budget"] and golden["kbest"]

    def test_kbest_fixture_exercises_a_real_frontier(self, golden):
        """At least one golden case must pin more than the argmax."""
        assert any(len(case["routes"]) > 1 for case in golden["kbest"])

    def test_world_network_round_trips_through_the_codec(self):
        """The codec rebuilds the committed network and writes it back
        unchanged, so the goldens run on exactly the recorded graph."""
        world = json.loads((FIXTURE_DIR / "golden_world.json").read_text())
        network = network_from_dict(world["network"])
        assert [e.id for e in network.edges] == list(range(network.num_edges))
        assert network_to_dict(network) == world["network"]


@pytest.fixture(scope="module")
def rendered():
    """The generator's three fixture texts, rendered in memory (it imports
    its sibling codec the way a script run does)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(FIXTURE_DIR))
        import make_golden_routes

        return make_golden_routes.render()


class TestTheGeneratorReproducesTheFixtures:
    """Run by its documented procedure on an unchanged tree, the generator
    writes every committed fixture back byte for byte."""

    @pytest.mark.parametrize(
        "name", ["golden_world.json", "golden_routes.json", "golden_service.json"]
    )
    def test_rendered_text_equals_the_committed_file(self, rendered, name):
        assert rendered[name] == (FIXTURE_DIR / name).read_text()

    def test_it_renders_exactly_the_three_fixtures(self, rendered):
        assert sorted(rendered) == sorted(p.name for p in FIXTURE_DIR.glob("golden_*.json"))
