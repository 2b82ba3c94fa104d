"""Edge cost tables: the per-edge travel-time histograms routing consumes.

The paper's road-network model annotates each edge with a histogram learned
from trajectories.  :class:`EdgeCostTable` holds those histograms, with a
free-flow fallback for edges the corpus never covered (a real deployment
routes over the full network, not just the observed edges).
"""

from __future__ import annotations

from typing import Any, Mapping

from ..derived import Memo, rebind
from ..histograms import DiscreteDistribution
from ..network import Edge, RoadNetwork
from ..scalars import require_edge_key, require_integer, require_number
from ..trajectories import TrajectoryStore

__all__ = ["EdgeCostTable"]


class EdgeCostTable:
    """Per-edge marginal cost histograms with free-flow fallback.

    Parameters
    ----------
    network:
        The covered road network.
    resolution:
        Seconds per grid tick (must match the corpus the histograms came
        from).
    """

    def __init__(self, network: RoadNetwork, *, resolution: float) -> None:
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self.network = network
        self.resolution = float(resolution)
        # The (table, version) pair lives in ONE reference so concurrent
        # readers can never observe a torn pair — new histograms tagged with
        # the old version, or a half-applied batch.  `apply_deltas` publishes
        # a brand-new pair in a single assignment (atomic under the GIL);
        # readers that need coherence read the cell once, as `derived` does.
        self._versioned: tuple[dict[int, DiscreteDistribution], int] = ({}, 0)
        self._free_flow: dict[int, DiscreteDistribution] = {}
        self._derived: tuple | None = None  # (cell, network, topology, memo)

    @property
    def _table(self) -> dict[int, DiscreteDistribution]:
        return self._versioned[0]

    @property
    def version(self) -> int:
        """Mutation counter; bumped by :meth:`set_cost` / :meth:`apply_deltas`.

        It names an answer's snapshot (the serving layer tags and keys its
        results with it), but :meth:`publish` may re-install a number the
        table has carried before, so it never decides whether *derived*
        state is fresh — the identity of the cell does (:meth:`derived`).
        """
        return self._versioned[1]

    def derived(self, network: RoadNetwork) -> Memo:
        """The holder of everything computed from the current publication cell.

        Bound (lazily, so publishing stays O(1)) to the *identity* of the
        ``(histograms, version)`` cell — every publication creates a new
        tuple, so a re-installed version number is never mistaken for the
        state it numbered before — and to the searched ``network`` (normally
        this table's own) at its topology version.  Publishing to a live
        table also drops the binding, so the previous version's derived
        state is unreachable at once (:mod:`repro.derived`).
        """
        cell, topology = self._versioned, network.version
        bound = self._derived
        while bound is None or not (
            bound[0] is cell and bound[1] is network and bound[2] == topology
        ):
            bound = rebind(self, bound, (cell, network, topology))
        return bound[3]

    def __getstate__(self) -> dict[str, Any]:
        return {**self.__dict__, "_derived": None}  # derived state never pickles

    @classmethod
    def from_store(
        cls,
        network: RoadNetwork,
        store: TrajectoryStore,
        *,
        resolution: float,
        min_samples: int = 10,
    ) -> "EdgeCostTable":
        """Build from empirical per-edge histograms (>= ``min_samples``)."""
        table = cls(network, resolution=resolution)
        for edge_id in store.edge_ids_with_data(min_samples=min_samples):
            table.set_cost(edge_id, store.edge_histogram(edge_id))
        return table

    def _check_edge_id(self, edge_id: int) -> None:
        """Reject unknown edge ids (numpy integers are fine).

        ``network.edge`` indexes a list, so a bare call would *accept*
        negative ids (Python indexing wraps them onto real edges) and a
        feed typo would silently install histograms under keys routing
        never reads.
        """
        require_integer(edge_id, "unknown edge id", low=0, error=IndexError)
        self.network.edge(int(edge_id))  # raises IndexError beyond the edge list

    def set_cost(self, edge_id: int, distribution: DiscreteDistribution) -> None:
        """Install or overwrite one edge's histogram.

        Construction-time API: it mutates the live table in place (no
        copy-on-write), so it is *not* safe against concurrent readers.
        Live serving updates go through :meth:`apply_deltas`.
        """
        self._check_edge_id(edge_id)
        table, version = self._versioned
        table[edge_id] = distribution
        self._versioned = (table, version + 1)
        self._derived = None

    def apply_deltas(self, updates: Mapping[int, DiscreteDistribution]) -> int:
        """Install a batch of edge histograms under a *single* version bump.

        This is the hot-swap entry point for live cost feeds (see
        :mod:`repro.service`): one publication per feed batch drops derived
        state (:meth:`derived`) and strands answers cached under the old
        :attr:`version` once, not per edge.  The batch is validated up front and
        applied atomically from the caller's perspective — either every edge
        in ``updates`` is installed and the version moves by one, or the
        table is untouched (unknown edges / non-distribution values raise
        before anything is written).  The batch is also atomic against
        concurrent *readers*: the new histograms and the new version are
        published together as one new ``(table, version)`` cell, so a reader
        can never see updated costs under the old version (it would cache a
        fresh answer under a stale key) nor a partially-installed batch.
        This is copy-on-write — the whole mapping is copied per batch — which
        is what lets readers holding the old cell keep an immutable snapshot;
        the cost is O(observed edges) per *feed batch* (not per edge), paid
        off the request path while the serving layer's write lock already
        holds readers out.  Returns the new version.
        """
        if not updates:
            raise ValueError("apply_deltas requires at least one edge update")
        for edge_id, distribution in updates.items():
            self._check_edge_id(edge_id)
            if not isinstance(distribution, DiscreteDistribution):
                raise TypeError(
                    f"edge {edge_id}: cost update must be a "
                    f"DiscreteDistribution, got {type(distribution).__name__}"
                )
        table, version = self._versioned
        self._versioned = ({**table, **updates}, version + 1)
        self._derived = None
        return self.version

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot of the observed histograms *and* the version.

        This is the serving layer's durable-state format
        (:meth:`repro.service.RoutingService.snapshot`): the version is
        serialised so a restored table reproduces the exact cache keys and
        answer tags of the table it was dumped from — a successor service
        restored from the snapshot is bit-identical, not merely equivalent.
        The table and version are read from the single publication cell
        once, so the pair is coherent even against a concurrent
        :meth:`apply_deltas`.
        """
        table, version = self._versioned
        return {
            "kind": "cost_table",
            "resolution": self.resolution,
            "version": version,
            "costs": {
                str(edge_id): dist.to_payload()
                for edge_id, dist in sorted(table.items())
            },
        }

    @classmethod
    def from_dict(
        cls, network: RoadNetwork, data: Mapping[str, Any]
    ) -> "EdgeCostTable":
        """Rebuild a table dumped by :meth:`to_dict` onto ``network``.

        Each histogram passes :meth:`DiscreteDistribution.from_payload`
        (floats round-trip exactly through JSON, so a dump restores bit for
        bit) and the dumped version is restored as-is, unlike :meth:`copy`
        which deliberately restarts at zero.
        """
        if data.get("kind") != "cost_table":
            raise ValueError(
                f"expected a cost_table document, got kind={data.get('kind')!r}"
            )
        resolution = require_number(
            data["resolution"], "cost_table resolution must be a positive finite number",
            low=0, open_low=True,
        )
        table = cls(network, resolution=resolution)
        costs: dict[int, DiscreteDistribution] = {}
        for raw_id, payload in data["costs"].items():
            edge_id = require_edge_key(raw_id)
            table._check_edge_id(edge_id)
            costs[edge_id] = DiscreteDistribution.from_payload(payload, f"edge {raw_id}")
        version = require_integer(data["version"], "cost_table version must be an integer")
        table._versioned = (costs, version)
        return table

    def decode(
        self, data: Mapping[str, Any]
    ) -> tuple[dict[int, DiscreteDistribution], int]:
        """Validate a :meth:`to_dict` dump against this table, touching nothing.

        Returns the cell :meth:`publish` installs.  The dump's resolution
        must match this table's.
        """
        dumped = EdgeCostTable.from_dict(self.network, data)
        if dumped.resolution != self.resolution:
            raise ValueError(
                f"cost_table dump has resolution {data['resolution']!r}, "
                f"this table serves {self.resolution!r}"
            )
        return dumped._versioned

    def publish(self, cell: tuple[dict[int, DiscreteDistribution], int]) -> int:
        """Install a cell :meth:`decode` returned; cannot fail.  Returns its version."""
        self._versioned = cell
        self._derived = None
        return self.version

    def copy(self) -> "EdgeCostTable":
        """An independent table with the same observed histograms.

        Distributions are immutable and therefore shared; the copy starts
        its own mutation version (and free-flow memo), so edits to either
        table never touch the other's consumers or cache keys.  This is the
        building block for hot-swap comparisons — serve on one table,
        verify against a cold copy with the same deltas applied.
        """
        clone = EdgeCostTable(self.network, resolution=self.resolution)
        clone._versioned = (dict(self._table), 0)
        return clone

    @classmethod
    def interpolate(
        cls, left: "EdgeCostTable", right: "EdgeCostTable", weight: float
    ) -> "EdgeCostTable":
        """A table blending two anchors: ``(1 - weight)·left + weight·right``.

        This is the temporal-profile building block: a departure inside a
        transition band between two time-of-day slices routes over a
        *mixture* of the adjacent anchor histograms rather than jumping
        discontinuously at the boundary second.  Only edges observed in at
        least one anchor get a mixed histogram — an edge unobserved in both
        falls back to the same free-flow point mass in every table, so
        mixing it would change nothing but memory.  The blend is installed
        through one :meth:`apply_deltas` batch, so the result starts at
        version 1 like a freshly built slice table.
        """
        from ..histograms.operations import mixture

        if left.network is not right.network:
            raise ValueError("anchor tables must share one network")
        if left.resolution != right.resolution:
            raise ValueError(
                f"anchor resolutions differ: {left.resolution} vs {right.resolution}"
            )
        w = require_number(weight, "interpolation weight must be in [0, 1]", low=0, high=1)
        table = cls(left.network, resolution=left.resolution)
        edge_ids = set(left._table) | set(right._table)
        if not edge_ids:
            return table
        blended: dict[int, DiscreteDistribution] = {}
        for edge_id in edge_ids:
            edge = left.network.edge(edge_id)
            a, b = left.cost(edge), right.cost(edge)
            if a is b:
                blended[edge_id] = a
            else:
                blended[edge_id] = mixture((a, b), (1.0 - w, w))
        table.apply_deltas(blended)
        return table

    def with_delays(
        self, delays: Mapping[int, DiscreteDistribution]
    ) -> "EdgeCostTable":
        """A new table whose listed edges carry an extra additive delay.

        Each ``delays[edge_id]`` distribution is convolved onto the edge's
        current cost (observed or free-flow fallback) — the shape signal
        time plans need: the edge's travel time plus an independent wait at
        the downstream intersection.  Delay supports must be non-negative
        (a "delay" that sped an edge up would break the optimistic
        heuristic's lower bounds).  The result is an independent table at
        version 1; ``self`` is untouched.
        """
        table = EdgeCostTable(self.network, resolution=self.resolution)
        table._versioned = (dict(self._table), 0)
        if not delays:
            table._versioned = (table._table, 1)
            return table
        delayed: dict[int, DiscreteDistribution] = {}
        for edge_id, delay in delays.items():
            self._check_edge_id(edge_id)
            if not isinstance(delay, DiscreteDistribution):
                raise TypeError(
                    f"edge {edge_id}: delay must be a DiscreteDistribution, "
                    f"got {type(delay).__name__}"
                )
            if delay.min_value < 0:
                raise ValueError(
                    f"edge {edge_id}: delay support must be non-negative, "
                    f"min is {delay.min_value}"
                )
            delayed[int(edge_id)] = self.cost(self.network.edge(int(edge_id))).convolve(
                delay
            )
        table.apply_deltas(delayed)
        return table

    def has_observed_cost(self, edge_id: int) -> bool:
        """True when the edge has a corpus-derived histogram."""
        return edge_id in self._table

    def free_flow_cost(self, edge: Edge) -> DiscreteDistribution:
        """Deterministic fallback: a point mass at the free-flow tick count.

        Memoised per edge — distributions are immutable and the fallback
        depends only on static edge attributes, so routing never rebuilds
        the same point mass twice.
        """
        cached = self._free_flow.get(edge.id)
        if cached is None:
            ticks = max(1, int(round(edge.free_flow_time / self.resolution)))
            cached = DiscreteDistribution.point(ticks)
            self._free_flow[edge.id] = cached
        return cached

    def cost(self, edge: Edge) -> DiscreteDistribution:
        """The edge's marginal cost histogram (observed or fallback)."""
        observed = self._table.get(edge.id)
        if observed is not None:
            return observed
        return self.free_flow_cost(edge)

    def min_ticks(self, edge: Edge) -> int:
        """Minimum possible travel time of the edge in ticks.

        This feeds the optimistic remaining-cost heuristic (pruning rule (a)):
        the heuristic must lower-bound any achievable cost, so it uses the
        histogram's minimum when observed and the free-flow time otherwise.
        """
        return self.cost(edge).min_value
