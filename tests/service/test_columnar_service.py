"""Budget vectors served on the columnar core.

On a network of at least ``COLUMNAR_AUTO_MIN_EDGES`` edges, ``backend="auto"``
answers ``multi_budget`` — and so ``depart_when``, which is ``multi_budget``
underneath — on the columnar core, like ``pbr``.  The answer contract is
re-checked there: every served ``multi_budget``, ``depart_when`` and
``route_at`` answer equals a cold engine's over a fresh copy of the table at
the answer's ``cost_version``, across a live update and a ``restore`` into a
history whose version number repeats over different histograms — so the
kernel block the search convolves with must be the published cell's own.
"""

import json

import pytest

from repro.core import ConvolutionModel, EdgeCostTable
from repro.histograms import DiscreteDistribution
from repro.network import grid_network
from repro.routing import DepartWhenResult, RoutingEngine, RoutingQuery
from repro.routing.columnar import COLUMNAR_AUTO_MIN_EDGES
from repro.service import CostUpdate, RoutingService, ScenarioSchedule, TimeSlice

NETWORK = grid_network(24, 24, seed=1)
#: The same grid built again: cold engines share no object with the service,
#: not even the network a derived-state key could hang on.
COLD_NETWORK = grid_network(24, 24, seed=1)
NOON = 43200.0
SOURCE, TARGET = 0, 5 * 24 + 6


def table(shift: int) -> EdgeCostTable:
    costs = EdgeCostTable(NETWORK, resolution=1.0)
    for edge in NETWORK.edges:
        offset = 1 + (edge.id + shift) % 3
        costs.set_cost(edge.id, DiscreteDistribution(offset, [0.5, 0.3, 0.2]))
    return costs


def serving() -> RoutingService:
    return RoutingService.from_time_slices(
        NETWORK,
        {"am": table(0), "pm": table(1)},
        schedule=ScenarioSchedule(
            [TimeSlice("am", 0.0, NOON), TimeSlice("pm", NOON, 2 * NOON)]
        ),
    )


def cold_engine(
    service: RoutingService, name: str, backend: str = "auto"
) -> tuple[int, RoutingEngine]:
    """The installed table's version, and an engine over a fresh copy
    of it: no derived state at all is shared with the service."""
    installed = service.engine(name).combiner.costs
    copy = EdgeCostTable.from_dict(COLD_NETWORK, json.loads(json.dumps(installed.to_dict())))
    return installed.version, RoutingEngine(COLD_NETWORK, ConvolutionModel(copy), backend=backend)


def document(answer) -> dict:
    """The wire document without its search counters (they carry a clock)."""

    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k != "stats"}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    return strip(json.loads(json.dumps(answer.to_dict())))


def floor_ticks(service: RoutingService, name: str) -> int:
    return service.engine(name).heuristic_for(TARGET).remaining_ticks(SOURCE)


def check_all(service: RoutingService, where: str) -> None:
    for name in ("am", "pm"):
        h = floor_ticks(service, name)
        query = RoutingQuery(SOURCE, TARGET, h + 8)
        assert service.engine(name)._search._columnar_applicable(query)
        budgets = [h + 2, h + 4, h + 6, h + 8]
        version, cold = cold_engine(service, name)
        served = service.route(query, strategy="multi_budget", slice_name=name, budgets=budgets)
        assert served.cost_version == version, where
        # Every step republishes "am"; "pm" may answer from its cache.
        assert not (name == "am" and served.cache_hit), where
        reference = cold.route_multi_budget(SOURCE, TARGET, budgets)
        assert document(served.result) == document(reference), f"{where}: {name}"
        assert served.result.probabilities[0] < served.result.probabilities[-1]
        # The scalar loop never reads a kernel block: a block that outlived
        # its cell (or was keyed on a version number, which both slices and
        # both histories share) moves these.
        scalar = cold_engine(service, name, "scalar")[1]
        for mine, theirs in zip(
            served.result.probabilities,
            scalar.route_multi_budget(SOURCE, TARGET, budgets).probabilities,
        ):
            assert abs(mine - theirs) <= 2e-12, f"{where}: {name}"

        departure = 3600.0 if name == "am" else NOON + 3600.0
        served = service.route_at(RoutingQuery(SOURCE, TARGET, h + 3), departure)
        assert (served.slice_name, served.cost_version) == (name, version), where
        assert document(served.result) == document(cold.route(RoutingQuery(SOURCE, TARGET, h + 3)))

    # One window per regime, and one straddling noon: per-regime fragments
    # merged, each the cold engine's own answer for its table.
    for start in (3600.0, NOON + 3600.0, NOON - 3.0):
        departures = [start + d for d in range(7)]
        arrive_by = start + floor_ticks(service, "am") + 8
        served = service.depart_when(SOURCE, TARGET, departures, arrive_by_seconds=arrive_by)
        parts = []
        for name in ("am", "pm"):
            mine = [d for d in departures if service.schedule.slice_at(d) == name]
            if mine:
                parts.append(
                    cold_engine(service, name)[1].route_depart_when(
                        SOURCE, TARGET, mine, arrive_by_seconds=arrive_by
                    )
                )
        reference = DepartWhenResult.merge(parts)
        assert document(served.result) == document(reference), f"{where}: depart {start}"
        assert served.result.found


def slowdown(ticks: int, probs) -> CostUpdate:
    return CostUpdate({e: DiscreteDistribution(ticks, probs) for e in range(0, 2000, 3)})


def test_budget_vectors_equal_a_cold_engine_across_an_update_and_a_diverged_restore():
    assert NETWORK.num_edges >= COLUMNAR_AUTO_MIN_EDGES  # columnar under "auto"
    service = serving()
    check_all(service, "initial")
    before = json.loads(json.dumps(service.snapshot()))

    reply = service.handle_request(
        {"op": "apply_update", "slice": "am", "update": slowdown(3, [0.5, 0.5]).to_dict()}
    )
    assert reply["ok"], reply
    slowed = service.cost_version("am")
    check_all(service, "after apply_update")

    service.restore(before)
    assert service.apply_cost_update(slowdown(2, [0.2, 0.8]), slice_name="am") == slowed
    check_all(service, "after restore into a diverged history")


def test_a_tiny_time_limit_still_answers_every_budget():
    service = serving()
    h = floor_ticks(service, "am")
    budgets = [h + 2, h + 4, h + 6, h + 8]
    served = service.route(
        RoutingQuery(SOURCE, TARGET, h + 8),
        strategy="multi_budget",
        budgets=budgets,
        time_limit_seconds=1e-9,
    )
    assert served.result.budgets == tuple(budgets)
    assert len(served.result.results) == len(budgets)
    assert not served.result.stats.completed
    assert all(result.found for result in served.result.results)


@pytest.mark.parametrize("deadline_ms", [0.5, 5.0, 5000.0])
def test_the_deadline_ladder_serves_budget_vectors(deadline_ms):
    service = serving()
    h = floor_ticks(service, "am")
    reply = service.handle_request(
        {
            "op": "route",
            "query": {"source": SOURCE, "target": TARGET, "budget": h + 8},
            "strategy": "multi_budget",
            "kwargs": {"budgets": [h + 2, h + 4, h + 6, h + 8]},
            "deadline_ms": deadline_ms,
        }
    )
    assert reply.get("error_kind") != "internal", reply
    assert reply["ok"] or reply["error_kind"] == "deadline_exceeded", reply
    if reply["ok"] and reply.get("degraded"):
        assert reply["fallback_strategy"] in ("anytime", "expected_time")
    if deadline_ms >= 5000.0:  # ample: the search completes undegraded
        assert reply["ok"] and not reply.get("degraded"), reply
        assert len(reply["result"]["results"]) == 4
