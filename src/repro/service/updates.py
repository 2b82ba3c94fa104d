"""Live cost-table updates: the hot-swap ingestion side of the service.

A :class:`CostUpdate` is one feed event — a batch of per-edge histogram
replacements bound for one named slice.  Applying it
(:meth:`repro.service.RoutingService.apply_cost_update`) installs every
histogram under a single cost-table version bump, which is what makes
invalidation free: cached answers are keyed by version, so the bump strands
them without any scanning, while in-flight and already-cached responses
remain valid *as of the version they are tagged with*.

:meth:`CostUpdate.from_congestion` adapts the trajectory-side congestion
model (:meth:`~repro.trajectories.CongestionModel.cost_update`) into an
update — e.g. "this corridor just went to the heavy state".

A :class:`ScheduledIncident` is the *temporal* form of the same mechanism:
a closure or capacity drop declared ahead of time, with an activation
window on the service clock.  The service's incident scheduler
(:meth:`repro.service.RoutingService.advance_clock`) turns it into plain
``CostUpdate`` applications when its window opens and reverts the affected
edges to their captured pre-incident histograms when it closes — so the
whole serving stack (versioned caches, snapshots, learning feeds) sees
nothing but ordinary cost updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..histograms import DiscreteDistribution
from ..network import Edge
from ..trajectories import CongestionModel
from ..scalars import require_edge_key, require_integer, require_number

__all__ = ["CostUpdate", "ScheduledIncident"]

#: Tick count a closed edge is priced at: effectively untraversable inside
#: any sane budget (``RoutingQuery`` caps budgets at ``10**9`` ticks) while
#: staying finite so convolution arithmetic keeps working.
CLOSURE_TICKS = 10**6


@dataclass(frozen=True)
class CostUpdate:
    """A batch of per-edge cost histograms from a live feed.

    ``slice_name`` targets one of the service's named slices (``None`` means
    the service's default slice); ``source`` is a free-form provenance label
    for observability.  ``sequence`` is the update's position in its feed
    (``None`` for feeds that do not number events): a service records the
    highest sequence applied, snapshots it as the feed position, and skips
    already-applied sequences on replay — which is what makes blue/green
    handover (restore a snapshot, replay the whole feed) idempotent.
    """

    costs: Mapping[int, DiscreteDistribution]
    slice_name: str | None = None
    source: str = "feed"
    sequence: int | None = None

    def __post_init__(self) -> None:
        if not self.costs:
            raise ValueError("a cost update needs at least one edge")
        if self.sequence is not None:
            sequence = require_integer(
                self.sequence, "sequence must be a non-negative integer or None", low=0
            )
            object.__setattr__(self, "sequence", sequence)
        validated: dict[int, DiscreteDistribution] = {}
        for edge_id, distribution in self.costs.items():
            # Negative ids would wrap onto real edges at apply time
            # (list indexing); reject them here, at the feed boundary.
            # Numpy integers are fine and normalise to plain ints.
            edge_id = require_integer(
                edge_id, "edge id must be a non-negative integer", low=0, error=TypeError
            )
            if not isinstance(distribution, DiscreteDistribution):
                raise TypeError(
                    f"edge {edge_id}: expected a DiscreteDistribution, got "
                    f"{type(distribution).__name__}"
                )
            # The search's simple-path pruning is only sound for
            # non-negative travel times; a negative support would corrupt
            # every route over the edge, so it never enters an update.
            if distribution.min_value < 0:
                raise ValueError(
                    f"edge {edge_id}: cost histograms must not contain "
                    f"negative travel times (min {distribution.min_value})"
                )
            validated[edge_id] = distribution
        object.__setattr__(self, "costs", validated)

    def __len__(self) -> int:
        return len(self.costs)

    @classmethod
    def from_congestion(
        cls,
        model: CongestionModel,
        edges: Sequence[Edge],
        state: int,
        *,
        slice_name: str | None = None,
    ) -> "CostUpdate":
        """Adapt a congestion feed event into an update.

        The listed ``edges`` were observed in latent congestion ``state``;
        their histograms become the state-conditioned distributions the
        ground-truth model assigns (see
        :meth:`~repro.trajectories.CongestionModel.cost_update`).
        """
        return cls(
            costs=model.cost_update(edges, state),
            slice_name=slice_name,
            source=f"congestion:state={state}",
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (exact :meth:`from_dict` round-trip)."""
        return {
            "kind": "cost_update",
            "slice": self.slice_name,
            "source": self.source,
            "sequence": self.sequence,
            "costs": {
                str(edge_id): dist.to_payload()
                for edge_id, dist in sorted(self.costs.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CostUpdate":
        """Rebuild an update from its wire document, *validating* histograms.

        Unlike internally produced result documents, update feeds cross a
        trust boundary: a histogram whose mass is not 1 (a truncated or
        hand-built payload) would be hot-swapped into the live table and
        silently deflate every probability routed over that edge.  Such
        payloads are rejected (:meth:`DiscreteDistribution.from_payload`),
        not repaired.
        """
        raw = data["costs"]
        if not isinstance(raw, Mapping):
            raise ValueError("update 'costs' must be a mapping")
        return cls(
            costs={
                require_edge_key(edge_id): DiscreteDistribution.from_payload(payload, f"edge {edge_id}")
                for edge_id, payload in raw.items()
            },
            slice_name=data.get("slice"),
            source=data.get("source", "feed"),
            # Absent in pre-resilience documents: default to unnumbered.
            sequence=data.get("sequence"),
        )


@dataclass(frozen=True)
class ScheduledIncident:
    """A closure or capacity drop with a service-clock activation window.

    ``start_time`` / ``end_time`` are seconds on the service's incident
    clock (not seconds of day): start inclusive, end exclusive, with
    ``math.inf`` allowed for open-ended incidents.  ``slices`` names the
    slice tables the incident hits when it activates; ``None`` fans it
    across every slice of the service's schedule that the active window
    can resolve to (see
    :meth:`~repro.service.scenarios.ScenarioSchedule.slices_in_window`),
    or the default slice on a service without a schedule.

    Exactly one effect form must be given:

    - ``costs`` — absolute replacement histograms per edge (a closure is a
      point mass at :data:`CLOSURE_TICKS`, see :meth:`closure`);
    - ``scale`` + ``edge_ids`` — a multiplicative slowdown applied to each
      edge's *live* histogram at activation time (a capacity drop, see
      :meth:`capacity_drop`): travel-time values are scaled by the factor,
      so the effect composes with whatever the feed has published since the
      incident was scheduled.
    """

    incident_id: str
    start_time: float
    end_time: float
    costs: Mapping[int, DiscreteDistribution] | None = None
    scale: float | None = None
    edge_ids: tuple[int, ...] | None = None
    slices: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.incident_id, str) or not self.incident_id:
            raise ValueError(
                f"incident_id must be a non-empty string, got {self.incident_id!r}"
            )
        start = require_number(self.start_time, "start_time must be finite and >= 0", low=0)
        end = require_number(
            self.end_time, "end_time must exceed start_time", low=start, open_low=True, finite=False
        )
        object.__setattr__(self, "start_time", start)
        object.__setattr__(self, "end_time", end)
        if (self.costs is None) == (self.scale is None):
            raise ValueError(
                "an incident needs exactly one effect: absolute 'costs' or "
                "a 'scale' factor with 'edge_ids'"
            )
        if self.costs is not None:
            if self.edge_ids is not None:
                raise ValueError("'edge_ids' only pairs with 'scale'")
            # Reuse CostUpdate's edge-id/histogram validation verbatim.
            validated = CostUpdate(costs=self.costs).costs
            object.__setattr__(self, "costs", validated)
        else:
            scale = require_number(
                self.scale, "scale must be a positive finite number", low=0, open_low=True
            )
            object.__setattr__(self, "scale", scale)
            if not self.edge_ids:
                raise ValueError("a scaled incident needs at least one edge id")
            ids = [
                require_integer(edge_id, "edge id must be a non-negative integer", low=0)
                for edge_id in self.edge_ids
            ]
            object.__setattr__(self, "edge_ids", tuple(dict.fromkeys(ids)))
        if self.slices is not None:
            names = tuple(self.slices)
            if not names or not all(isinstance(n, str) and n for n in names):
                raise ValueError(
                    "slices must be a non-empty sequence of slice names or None"
                )
            object.__setattr__(self, "slices", names)

    @property
    def affected_edge_ids(self) -> tuple[int, ...]:
        """The edges the incident touches, ascending."""
        if self.costs is not None:
            return tuple(sorted(self.costs))
        return tuple(sorted(self.edge_ids or ()))

    def effective_costs(
        self, current: Mapping[int, DiscreteDistribution]
    ) -> dict[int, DiscreteDistribution]:
        """The histograms to install, given the edges' current live costs.

        Absolute incidents ignore ``current``; scaled incidents stretch
        each current histogram's travel-time axis by the factor.
        """
        if self.costs is not None:
            return dict(self.costs)
        from ..histograms.operations import scale_values

        missing = [e for e in self.edge_ids or () if e not in current]
        if missing:
            raise KeyError(
                f"incident {self.incident_id!r}: no current cost for edges {missing}"
            )
        return {
            edge_id: scale_values(current[edge_id], self.scale)
            for edge_id in self.edge_ids or ()
        }

    @classmethod
    def closure(
        cls,
        incident_id: str,
        edge_ids: Sequence[int],
        start_time: float,
        end_time: float,
        *,
        slices: Sequence[str] | None = None,
    ) -> "ScheduledIncident":
        """A full closure: every listed edge priced at ``CLOSURE_TICKS``."""
        blocked = DiscreteDistribution.point(CLOSURE_TICKS)
        return cls(
            incident_id=incident_id,
            start_time=start_time,
            end_time=end_time,
            costs={int(edge_id): blocked for edge_id in edge_ids},
            slices=tuple(slices) if slices is not None else None,
        )

    @classmethod
    def capacity_drop(
        cls,
        incident_id: str,
        edge_ids: Sequence[int],
        factor: float,
        start_time: float,
        end_time: float,
        *,
        slices: Sequence[str] | None = None,
    ) -> "ScheduledIncident":
        """A slowdown: listed edges' travel times stretched by ``factor``."""
        factor = require_number(
            factor,
            "a capacity drop needs a slowdown factor > 1",
            low=1,
            open_low=True,
            finite=False,
        )
        return cls(
            incident_id=incident_id,
            start_time=start_time,
            end_time=end_time,
            scale=factor,
            edge_ids=tuple(edge_ids),
            slices=tuple(slices) if slices is not None else None,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (exact :meth:`from_dict` round-trip).

        Open-ended incidents serialise ``end_time`` as the string
        ``"inf"`` (JSON has no infinity literal).
        """
        document: dict[str, Any] = {
            "kind": "scheduled_incident",
            "incident_id": self.incident_id,
            "start_time": self.start_time,
            "end_time": "inf" if math.isinf(self.end_time) else self.end_time,
            "slices": list(self.slices) if self.slices is not None else None,
        }
        if self.costs is not None:
            document["costs"] = {
                str(edge_id): dist.to_payload()
                for edge_id, dist in sorted(self.costs.items())
            }
        else:
            document["scale"] = self.scale
            document["edge_ids"] = list(self.edge_ids or ())
        return document

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScheduledIncident":
        """Rebuild an incident from its wire document, validating everything.

        Crosses the same trust boundary as :meth:`CostUpdate.from_dict`;
        malformed payloads raise ``ValueError`` (``bad_request`` on the
        wire), never an opaque ``KeyError``.
        """
        if not isinstance(data, Mapping):
            raise ValueError(
                f"incident document must be a mapping, got {type(data).__name__}"
            )
        if data.get("kind", "scheduled_incident") != "scheduled_incident":
            raise ValueError(
                f"expected a scheduled_incident document, got kind={data.get('kind')!r}"
            )
        end_time = data.get("end_time")
        if end_time == "inf":
            end_time = math.inf
        costs = None
        if data.get("costs") is not None:
            raw = data["costs"]
            if not isinstance(raw, Mapping):
                raise ValueError("incident 'costs' must be a mapping")
            # Route through CostUpdate's wire validation (mass, offsets).
            costs = CostUpdate.from_dict({"costs": raw}).costs
        slices = data.get("slices")
        if slices is not None:
            if isinstance(slices, str) or not isinstance(slices, Sequence):
                raise ValueError("incident 'slices' must be a list of names or null")
            slices = tuple(slices)
        return cls(
            incident_id=data.get("incident_id"),
            start_time=data.get("start_time"),
            end_time=end_time,
            costs=costs,
            scale=data.get("scale"),
            edge_ids=tuple(data["edge_ids"]) if data.get("edge_ids") is not None else None,
            slices=slices,
        )
