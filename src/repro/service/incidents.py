"""The incident controller: scheduled closures and capacity drops on a clock.

A :class:`~repro.service.updates.ScheduledIncident` is declared ahead of
time; the controller turns it into plain cost-table swaps when its window
opens and re-applies the displaced histograms when it closes, so the rest
of the serving stack sees nothing but ordinary version bumps.  It owns
everything that is *about incidents* — the clock, the pending and active
incidents, the preimages, the lifecycle counts and the lock serialising
them — and nothing about cost tables.  The service hands it two callables:

* ``resolve(incident)`` — the slices the incident lands on, raising for
  anything activation could trip over (unknown slice, unknown edge id);
* ``swap(slice_name, deltas_from)`` — the service's one hot-swap site:
  under the slice's write lock it calls ``deltas_from(table)`` and
  installs what that returns under one version bump.

So the controller never takes a slice lock and never mutates a table.
Lock order is incident lock → slice write lock (inside ``swap``) → stats,
and nothing calls into the controller while holding either inner lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping

from ..core.costs import EdgeCostTable
from ..histograms import DiscreteDistribution
from ..scalars import require_edge_key, require_number
from .updates import ScheduledIncident

__all__ = ["ActiveIncident", "IncidentController", "IncidentState"]

Deltas = Mapping[int, DiscreteDistribution]


@dataclass(frozen=True)
class ActiveIncident:
    """One activated incident: where it landed and what it displaced.

    ``preimages[slice][edge_id]`` is the histogram the edge carried on that
    slice when the incident activated; clearing re-applies exactly those,
    which is what makes activate → clear an identity.
    """

    incident: ScheduledIncident
    targets: tuple[str, ...]
    preimages: Mapping[str, Deltas]


@dataclass
class IncidentState:
    """Clock, pending and active incidents: a snapshot's ``temporal`` section."""

    clock: float = 0.0
    pending: dict[str, ScheduledIncident] = field(default_factory=dict)
    active: dict[str, ActiveIncident] = field(default_factory=dict)


class IncidentController:
    """Schedule, activate and clear incidents against an injected swap site."""

    def __init__(
        self,
        resolve: Callable[[ScheduledIncident], tuple[str, ...]],
        swap: Callable[[str, Callable[[EdgeCostTable], Deltas]], int],
    ) -> None:
        self._resolve = resolve
        self._swap = swap
        self._lock = threading.Lock()
        self._state = IncidentState()
        self._activated = 0
        self._cleared = 0

    @property
    def clock(self) -> float:
        with self._lock:
            return self._state.clock

    def schedule(self, incident: ScheduledIncident) -> None:
        """Register an incident (see :meth:`RoutingService.schedule_incident`)."""
        if not isinstance(incident, ScheduledIncident):
            raise TypeError(
                f"expected a ScheduledIncident, got {type(incident).__name__}"
            )
        # Everything activation will need is checked now, while this is
        # still the request that can be refused: `advance` must never fail
        # half-way through a batch of transitions on an incident's content.
        self._resolve(incident)
        with self._lock:
            state = self._state
            iid = incident.incident_id
            if iid in state.pending or iid in state.active:
                raise ValueError(f"incident {iid!r} is already scheduled")
            if incident.end_time <= state.clock:
                raise ValueError(
                    f"incident {iid!r} ends at {incident.end_time}, at or "
                    f"before the current clock {state.clock}"
                )
            state.pending[iid] = incident

    def advance(self, now_seconds: float) -> list[dict[str, Any]]:
        """Move the clock (see :meth:`RoutingService.advance_clock`)."""
        now = require_number(now_seconds, "now_seconds must be a finite number")
        events: list[dict[str, Any]] = []
        with self._lock:
            state = self._state
            if now < state.clock:
                raise ValueError(
                    f"the incident clock is monotone: {now} < current {state.clock}"
                )
            for iid in sorted(state.active):
                entry = state.active[iid]
                if entry.incident.end_time <= now:
                    for name, preimage in entry.preimages.items():
                        self._swap(name, lambda table, preimage=preimage: preimage)
                    del state.active[iid]
                    self._cleared += 1
                    events.append(
                        {"incident_id": iid, "event": "cleared", "slices": list(entry.targets)}
                    )
            for iid in sorted(state.pending):
                incident = state.pending[iid]
                if incident.end_time <= now:
                    # The clock jumped past the whole window: the incident
                    # never touched a table, so there is nothing to revert.
                    del state.pending[iid]
                    events.append({"incident_id": iid, "event": "expired"})
                elif incident.start_time <= now:
                    state.active[iid] = entry = self._activate(incident)
                    del state.pending[iid]
                    self._activated += 1
                    events.append(
                        {"incident_id": iid, "event": "activated", "slices": list(entry.targets)}
                    )
            state.clock = now
        return events

    def _activate(self, incident: ScheduledIncident) -> ActiveIncident:
        """Apply the incident to each target slice, capturing what it displaces."""
        targets = self._resolve(incident)
        preimages: dict[str, Deltas] = {}
        for name in targets:

            def displace(table: EdgeCostTable, name: str = name) -> Deltas:
                # Read at swap time, under the slice's write lock.  cost()
                # falls back to the free-flow point mass for edges never
                # observed, so the preimage is cost()-identical to the
                # pre-incident table even where it materialises an
                # implicit default.
                preimages[name] = current = {
                    edge_id: table.cost(table.network.edge(edge_id))
                    for edge_id in incident.affected_edge_ids
                }
                return incident.effective_costs(current)

            self._swap(name, displace)
        return ActiveIncident(incident, targets, preimages)

    def gauges(self) -> dict[str, int]:
        """The four ``incidents_*`` figures of ``ServiceStats``, read coherently."""
        with self._lock:
            return {
                "incidents_activated": self._activated,
                "incidents_cleared": self._cleared,
                "incidents_pending": len(self._state.pending),
                "incidents_active": len(self._state.active),
            }

    def to_dict(self, *, durable: bool = False) -> dict[str, Any]:
        """The scheduler's state, JSON-ready — the one encoder of it.

        By default the ``incidents`` op's view (active entries name their
        ``slices``).  ``durable`` gives the snapshot's ``temporal`` section:
        active entries name their ``targets`` and carry the preimages, so
        a restored successor can still clear them bit-identically.
        """
        with self._lock:
            state = self._state
            active = []
            for _, entry in sorted(state.active.items()):
                document: dict[str, Any] = {"incident": entry.incident.to_dict()}
                if durable:
                    document["targets"] = list(entry.targets)
                    document["preimages"] = {
                        name: {
                            str(edge_id): dist.to_payload()
                            for edge_id, dist in sorted(preimage.items())
                        }
                        for name, preimage in sorted(entry.preimages.items())
                    }
                else:
                    document["slices"] = list(entry.targets)
                active.append(document)
            return {
                "clock": state.clock,
                "pending": [state.pending[iid].to_dict() for iid in sorted(state.pending)],
                "active": active,
            }

    def decode(self, temporal: Mapping[str, Any] | None) -> IncidentState:
        """The state a ``temporal`` section describes, fully validated.

        Adopts nothing (:meth:`adopt` does, and cannot fail).  ``None`` — a
        format-1 document, which predates incidents — is the reset state.
        The dumped cost tables already include every active incident's
        effect, so only the bookkeeping is rebuilt: clock, pending windows,
        and the preimages clearing will need.
        """
        if temporal is None:
            return IncidentState()
        clock = require_number(
            temporal["clock"], "snapshot incident clock must be a finite number >= 0", low=0
        )
        state = IncidentState(clock=clock)
        for payload in temporal.get("pending", ()):
            incident = ScheduledIncident.from_dict(payload)
            self._resolve(incident)  # the same check scheduling it ran
            state.pending[incident.incident_id] = incident
        for entry in temporal.get("active", ()):
            incident = ScheduledIncident.from_dict(entry["incident"])
            iid = incident.incident_id
            # Resolved as if it named its recorded targets, which runs the
            # slice and edge checks on exactly what clearing will touch.
            targets = self._resolve(replace(incident, slices=tuple(entry["targets"])))
            preimages = {
                name: {
                    require_edge_key(edge_id): DiscreteDistribution.from_payload(
                        payload, f"incident {iid!r} preimage for edge {edge_id}"
                    )
                    for edge_id, payload in mapping.items()
                }
                for name, mapping in entry["preimages"].items()
            }
            if set(preimages) != set(targets):
                raise ValueError(
                    f"incident {iid!r} preimages do not cover its target slices"
                )
            edges = set(incident.affected_edge_ids)
            if any(set(preimage) != edges for preimage in preimages.values()):
                raise ValueError(
                    f"incident {iid!r} preimages do not cover its affected edges"
                )
            state.active[iid] = ActiveIncident(incident, targets, preimages)
        return state

    def adopt(self, state: IncidentState) -> None:
        """Replace clock, pending and active with a :meth:`decode`-built state.

        The lifecycle counts are this process's own history and stay.
        """
        with self._lock:
            self._state = state
