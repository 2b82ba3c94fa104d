"""Strategy kwargs are wire input: a hostile one is a ``bad_request`` or an answer.

A request's ``kwargs`` object reaches the registered strategy function
unchanged, so every name a strategy takes — and the names of its own
positional parameters, and names no strategy takes — can arrive with any
JSON value.  Whatever arrives, the service must answer with a document
whose ``error_kind`` is never ``internal`` (that code means a bug on the
server's side), and the cache books must still balance: ``hits + misses +
coalesced`` equals the lookups that served an answer.
"""

import inspect
import json

import pytest

from repro.core import ConvolutionModel, EdgeCostTable
from repro.network import grid_network
from repro.routing import RoutingQuery, available_strategies
from repro.routing import engine as engine_module
from repro.service import RoutingService
from repro.trajectories import CongestionModel

HOSTILE = (1, True, "x", [], None, 10**30, 1e300)
#: Names no strategy may take from the wire, beside each strategy's own.
FOREIGN = ("heuristic", "engine", "query")
QUERIES = (RoutingQuery(0, 15, 30), RoutingQuery(1, 14, 28))

#: Built-in strategy -> (top-level request fields, kwargs) a valid request carries.
VALID = {
    "pbr": ({}, {}),
    "anytime": ({"time_limit_seconds": 0.5}, {}),
    "expected_time": ({}, {}),
    "oracle": ({}, {"max_edges": 8}),
    "kbest": ({}, {"k": 2}),
    "multi_budget": ({}, {"budgets": [20, 30]}),
    "depart_when": ({}, {"departure_times": [0.0, 60.0]}),
}


def fresh_service():
    network = grid_network(4, 4, seed=2)
    model = CongestionModel(network, seed=3)
    costs = EdgeCostTable(network, resolution=5.0)
    for edge in network.edges:
        costs.set_cost(edge.id, model.edge_marginal(edge))
    return RoutingService(network, ConvolutionModel(costs))


@pytest.fixture(scope="module")
def service():
    return fresh_service()


def kwarg_names(strategy):
    """The strategy function's parameter names plus the foreign ones."""
    parameters = inspect.signature(getattr(engine_module, strategy)).parameters
    return sorted(set(parameters) | set(FOREIGN))


def requests(strategy):
    """``(name, request)`` for every hostile value of every name, both ops."""
    fields, valid = VALID[strategy]
    for name in kwarg_names(strategy):
        for value in HOSTILE:
            kwargs = {**valid, name: value}
            yield name, {
                "op": "route", "query": QUERIES[0].to_dict(),
                "strategy": strategy, "kwargs": kwargs, **fields,
            }
            yield name, {
                "op": "route_many", "queries": [q.to_dict() for q in QUERIES],
                "strategy": strategy, "kwargs": kwargs, **fields,
            }


def served_lookups(request, response):
    if not response["ok"]:
        return 0
    return len(request["queries"]) if request["op"] == "route_many" else 1


def test_every_built_in_strategy_is_covered():
    assert set(VALID) <= set(available_strategies())


@pytest.mark.parametrize("strategy", sorted(VALID))
def test_hostile_kwargs_are_never_internal_and_keep_the_books(service, strategy):
    fields, valid = VALID[strategy]
    valid_request = {"op": "route", "query": QUERIES[0].to_dict(), "strategy": strategy,
                     "kwargs": valid, **fields}
    assert json.loads(service.handle_json(json.dumps(valid_request)))["ok"]

    before = service.stats()
    lookups = 0
    for name, request in requests(strategy):
        response = json.loads(service.handle_json(json.dumps(request)))
        assert response.get("error_kind") != "internal", (request, response)
        if name in FOREIGN:
            assert response["error_kind"] == "bad_request", (request, response)
        lookups += served_lookups(request, response)
    after = service.stats()

    def books(stats):
        return stats.cache_hits + stats.cache_misses + stats.coalesced

    assert books(after) - books(before) == lookups


def test_a_null_heuristic_is_refused_not_cached_apart(service):
    """``heuristic`` is no strategy option: even ``null`` is a client error."""
    request = {"op": "route", "query": QUERIES[0].to_dict(), "kwargs": {"heuristic": None}}
    response = service.handle_request(request)
    assert response["ok"] is False and response["error_kind"] == "bad_request"


@pytest.mark.parametrize("max_edges", [-1, 0, 2.5, True, "x"])
def test_oracle_max_edges_is_checked_on_the_wire(max_edges):
    """A fresh service: a cached ``max_edges: 1`` answer would be served to
    ``true``, since the cache key compares kwargs values by ``==``."""
    service = fresh_service()
    request = {"op": "route", "query": QUERIES[0].to_dict(), "strategy": "oracle",
               "kwargs": {"max_edges": max_edges}}
    response = json.loads(service.handle_json(json.dumps(request)))
    assert response["ok"] is False and response["error_kind"] == "bad_request"
    assert "max_edges must be a positive integer" in response["error"]
