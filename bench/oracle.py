"""The answer oracle: a cold engine per cost version, never the service.

``expected_answers`` runs in a *spare* server process (one of the repeated
set-ups, which has built the same world and served nothing): for every
sampled request it answers through a fresh ``RoutingEngine`` over a copy of
the cost table, replaying the workload's ``CostUpdate`` documents onto that
copy to reach the cost version the served answer was tagged with.

``mismatch`` runs in the benchmark process and compares a served wire
document with the oracle's, bit for bit, ignoring only the search counters
(``stats`` carries a wall-clock runtime).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.routing import RoutingEngine, RoutingQuery
from repro.service import CostUpdate

from .worlds import World


def expected_answers(
    world: World,
    requests: Sequence[Mapping[str, Any]],
    updates: Sequence[Mapping[str, Any]],
) -> list[dict[str, Any] | None]:
    """Oracle result documents for ``requests`` (``{"epoch", "doc"}`` items).

    ``epoch`` is how many of ``updates`` had been applied when the request
    was served; requests are answered in epoch order on one table that the
    updates are replayed onto, and returned in input order.
    """
    costs = world.costs.copy()
    engine = RoutingEngine(world.network, world.combiner_for(costs))
    answers: list[dict[str, Any] | None] = [None] * len(requests)
    order = sorted(range(len(requests)), key=lambda i: requests[i]["epoch"])
    applied = 0
    for index in order:
        epoch = requests[index]["epoch"]
        if not 0 <= epoch <= len(updates):
            raise ValueError(f"epoch {epoch} outside the {len(updates)} updates sent")
        while applied < epoch:
            costs.apply_deltas(CostUpdate.from_dict(updates[applied]["update"]).costs)
            applied += 1
        doc = requests[index]["doc"]
        result = engine.route(
            RoutingQuery.from_dict(doc["query"]),
            strategy=doc.get("strategy", "pbr"),
            **doc.get("kwargs", {}),
        )
        answers[index] = None if result is None else result.to_dict()
    return answers


def without_stats(document: Any) -> Any:
    """``document`` with every ``stats`` member dropped, at any depth."""
    if isinstance(document, dict):
        return {
            key: without_stats(value)
            for key, value in document.items()
            if key != "stats"
        }
    if isinstance(document, list):
        return [without_stats(item) for item in document]
    return document


def mismatch(
    served: Mapping[str, Any],
    expected: Mapping[str, Any] | None,
    *,
    expected_version: int,
) -> str | None:
    """Why a served document is wrong, or ``None`` when it is right.

    Floats survive the JSON round trip exactly (``repr`` is shortest
    round-trip), so ``==`` on the decoded documents is a bit-for-bit
    comparison of probability, path and distribution.
    """
    if served.get("ok") is not True:
        return f"not ok: {served.get('error')}"
    if served.get("cost_version") != expected_version:
        return (
            f"cost_version {served.get('cost_version')} != {expected_version}"
        )
    if served.get("degraded") or served.get("fallback_strategy"):
        return "degraded answer"
    if without_stats(served.get("result")) != without_stats(expected):
        return "result differs from the cold engine"
    return None
