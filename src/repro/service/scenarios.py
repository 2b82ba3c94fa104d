"""Departure-time scenarios: time-of-day cost slices and temporal profiles.

Travel-time distributions are not stationary over the day — the paper's
corpus is Danish rush-hour GPS data for a reason.  The serving layer models
this with *slices*: named cost tables (``"peak"`` / ``"off_peak"`` /
``"night"`` by default) plus a :class:`ScenarioSchedule` that maps a
departure time (seconds of day) onto the slice whose table should answer.
Each slice is a full :class:`~repro.core.costs.EdgeCostTable` with its own
mutation version, so per-slice heuristic tables and cached answers are
reused independently and a live update to one slice never invalidates the
others.

:class:`TemporalCostProfile` lifts the static slices into a first-class
temporal layer: the anchor tables stay exactly as configured, while the
boundaries between differently named slices grow *transition bands* whose
departures route over interpolated (mixture) tables, and
:class:`TimePlan` windows add signalized-intersection approach delays per
time-of-day window.  A profile compiles down to the same primitives the
serving layer already knows — more named slices plus an expanded
:class:`ScenarioSchedule` — so cache keys, per-slice locks, live updates
and snapshot/restore all keep working unchanged.  With no interpolation
points and no time plans the compilation is the identity: the exact input
tables and schedule come back out, preserving static-slice behavior
bit-for-bit.

:func:`time_sliced_cost_tables` builds the anchor slices from the
congestion ground truth: the same per-state conditional distributions mixed
with a slice-specific state weighting
(:meth:`~repro.trajectories.CongestionModel.slice_marginal`).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..core.costs import EdgeCostTable
from ..histograms import DiscreteDistribution
from ..network import RoadNetwork
from ..trajectories import CongestionModel
from ..scalars import is_real, require_integer, require_number

__all__ = [
    "DAY_SECONDS",
    "DEFAULT_SLICE_WEIGHTS",
    "ScenarioSchedule",
    "TemporalCostProfile",
    "TimePlan",
    "TimeSlice",
    "time_sliced_cost_tables",
]

#: Seconds in one scheduling day.
DAY_SECONDS = 86_400

#: Default congestion-state weightings per slice (free / moderate / heavy).
#: ``off_peak`` is the stationary mix the marginal tables use; ``peak``
#: loads the congested states, ``night`` collapses onto free flow.
DEFAULT_SLICE_WEIGHTS: Mapping[str, tuple[float, ...]] = {
    "peak": (0.25, 0.45, 0.30),
    "off_peak": (0.6, 0.3, 0.1),
    "night": (0.92, 0.07, 0.01),
}


@dataclass(frozen=True)
class TimeSlice:
    """One contiguous interval of the day served by a named slice.

    ``start`` is inclusive, ``end`` exclusive, both in seconds of day.  A
    slice name may appear in several intervals (morning and evening peak).
    """

    name: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("slice name must be non-empty")
        if not 0 <= self.start < self.end <= DAY_SECONDS:
            raise ValueError(
                f"slice {self.name!r}: need 0 <= start < end <= {DAY_SECONDS}, "
                f"got [{self.start}, {self.end})"
            )


class ScenarioSchedule:
    """A total map from departure time (seconds of day) to a slice name.

    The intervals must tile the whole day — contiguous, non-overlapping,
    starting at 0 and ending at :data:`DAY_SECONDS` — so every conceivable
    departure resolves to exactly one slice.  Departure times outside
    ``[0, DAY_SECONDS)`` (epoch-style timestamps, multi-day horizons) wrap
    modulo the day.

    Boundary semantics (see :meth:`slice_at`): an interval owns its *start*
    second and excludes its *end* second, so a departure at an exact
    boundary belongs to the slice **starting** there.  Midnight wraps: a
    departure at exactly :data:`DAY_SECONDS` (or any multiple) is second 0
    of the next day and belongs to the first slice.
    """

    def __init__(self, slices: Sequence[TimeSlice]) -> None:
        ordered = sorted(slices, key=lambda s: (s.start, s.end))
        if not ordered:
            raise ValueError("a schedule needs at least one time slice")
        if ordered[0].start != 0 or ordered[-1].end != DAY_SECONDS:
            raise ValueError(
                "schedule must cover the whole day: first slice starts at 0, "
                f"last ends at {DAY_SECONDS}"
            )
        for before, after in zip(ordered, ordered[1:]):
            if before.end < after.start:
                raise ValueError(
                    f"schedule has a gap: {before.name!r} ends at {before.end} "
                    f"but {after.name!r} only starts at {after.start} — "
                    f"departures in [{before.end}, {after.start}) would have "
                    "no slice"
                )
            if before.end > after.start:
                raise ValueError(
                    f"schedule has an overlap: {before.name!r} runs until "
                    f"{before.end} but {after.name!r} already starts at "
                    f"{after.start} — departures in "
                    f"[{after.start}, {min(before.end, after.end)}) would "
                    "match two slices"
                )
        self.slices = tuple(ordered)
        self._starts = [s.start for s in ordered]

    @classmethod
    def default(cls) -> "ScenarioSchedule":
        """The stock weekday: night / commuter peaks / off-peak in between."""
        hours = [
            ("night", 0, 6),
            ("off_peak", 6, 7),
            ("peak", 7, 9),
            ("off_peak", 9, 16),
            ("peak", 16, 18),
            ("off_peak", 18, 22),
            ("night", 22, 24),
        ]
        return cls(
            [TimeSlice(name, lo * 3600.0, hi * 3600.0) for name, lo, hi in hours]
        )

    @property
    def slice_names(self) -> tuple[str, ...]:
        """Distinct slice names, in first-appearance order over the day."""
        seen: dict[str, None] = {}
        for member in self.slices:
            seen.setdefault(member.name, None)
        return tuple(seen)

    def slice_at(self, departure_time_seconds: float) -> str:
        """The slice name serving a departure at ``departure_time_seconds``.

        Boundary ownership: interval starts are inclusive and ends
        exclusive, so a departure at an exact boundary second resolves to
        the slice *starting* there — ``slice_at(7 * 3600)`` under the
        default schedule is ``"peak"``, not the ``"off_peak"`` interval
        ending at that second.  Departures wrap modulo the day, which makes
        midnight a boundary like any other: ``slice_at(DAY_SECONDS)``
        equals ``slice_at(0)`` (the first slice owns it), and negative
        times count back from midnight (``slice_at(-1)`` lands in the last
        interval).
        """
        # NaN/inf must fail loudly: ``nan % DAY_SECONDS`` is ``nan`` and
        # ``bisect_right`` would then resolve it to an arbitrary slice — a
        # garbage departure time silently served from the wrong cost table.
        # Non-numbers stay a ``TypeError``, as the bare ``float()`` here
        # used to raise for ``None`` — but ``True`` and ``"900"``, which
        # that ``float()`` coerced to 1 s and 900 s, are rejected with it.
        if not is_real(departure_time_seconds):
            raise TypeError(
                f"departure time must be a number, got {departure_time_seconds!r}"
            )
        t = require_number(departure_time_seconds, "departure time must be finite")
        t %= DAY_SECONDS
        return self.slices[bisect_right(self._starts, t) - 1].name

    def slices_in_window(self, start: float, end: float) -> tuple[str, ...]:
        """Slice names serving any departure in ``[start, end)``.

        Wrap-aware: the window is on the service-clock axis (it may span
        midnight or several days) while slices repeat daily.  This is the
        fan-out helper scheduled incidents use to hit every table a
        departure inside their active window could resolve to.
        """
        start = require_number(start, "window start must be a finite number")
        end = require_number(
            end, "window end must exceed start", low=start, open_low=True, finite=False
        )
        if end - start >= DAY_SECONDS:
            return self.slice_names
        lo = start % DAY_SECONDS
        span = end - start
        names: dict[str, None] = {}
        for member in self.slices:
            for shift in (0.0, float(DAY_SECONDS)):
                if member.start + shift < lo + span and member.end + shift > lo:
                    names.setdefault(member.name, None)
                    break
        return tuple(names)

    def to_dict(self) -> dict:
        """JSON-ready representation (exact :meth:`from_dict` round-trip)."""
        return {
            "kind": "schedule",
            "slices": [
                {"name": s.name, "start": s.start, "end": s.end}
                for s in self.slices
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioSchedule":
        """Rebuild a schedule from a :meth:`to_dict` document.

        Wire-facing: every field is validated with a descriptive
        ``ValueError`` (mapped to ``bad_request`` by the service) instead
        of letting a malformed document surface as an opaque ``KeyError``
        or ``TypeError`` deep inside slice resolution.
        """
        if not isinstance(data, Mapping):
            raise ValueError(
                f"schedule document must be a mapping, got {type(data).__name__}"
            )
        kind = data.get("kind", "schedule")
        if kind != "schedule":
            raise ValueError(f"expected a schedule document, got kind={kind!r}")
        raw_slices = data.get("slices")
        if not isinstance(raw_slices, Sequence) or isinstance(
            raw_slices, (str, bytes)
        ):
            raise ValueError(
                "schedule document needs a 'slices' list of "
                "{name, start, end} entries"
            )
        members = []
        for index, item in enumerate(raw_slices):
            if not isinstance(item, Mapping):
                raise ValueError(
                    f"slices[{index}] must be a mapping with name/start/end, "
                    f"got {type(item).__name__}"
                )
            name = item.get("name")
            if not isinstance(name, str) or not name:
                raise ValueError(
                    f"slices[{index}]: 'name' must be a non-empty string, "
                    f"got {name!r}"
                )
            start = require_number(item.get("start"), f"slices[{index}].start must be a finite number")
            end = require_number(item.get("end"), f"slices[{index}].end must be a finite number")
            members.append(TimeSlice(name, start, end))
        return cls(members)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScenarioSchedule):
            return NotImplemented
        return self.slices == other.slices

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{s.name}[{s.start / 3600:g}h,{s.end / 3600:g}h)" for s in self.slices
        )
        return f"ScenarioSchedule({parts})"


@dataclass(frozen=True)
class TimePlan:
    """A signal/turn delay plan active over one time-of-day window.

    The shape follows sf-dta's signal import (``importExcelSignals.py`` →
    ``dta.TimePlan``): per intersection, per time-of-day window, each
    *approach* (an incoming edge) gets a delay describing the wait the
    signal phase imposes.  Here the delay is a full distribution in cost
    ticks, convolved onto the approach edge's travel-time histogram for
    departures inside ``[start, end)`` seconds of day.  A window that
    crosses midnight is expressed as two plans (``[start, DAY)`` and
    ``[0, end)``).

    Attributes
    ----------
    node:
        The intersection (vertex id) the plan controls.
    start, end:
        The active window in seconds of day, start inclusive / end
        exclusive, within ``[0, DAY_SECONDS]``.
    approach_delays:
        ``{incoming_edge_id: delay distribution}`` — delays must have
        non-negative support (a "delay" that sped an approach up would
        break the search's optimistic lower bounds).
    """

    node: int
    start: float
    end: float
    approach_delays: Mapping[int, DiscreteDistribution] = field(hash=False)

    def __post_init__(self) -> None:
        node = require_integer(self.node, "time plan node must be an integer")
        object.__setattr__(self, "node", node)
        start = require_number(self.start, "time plan start must be a finite number")
        end = require_number(self.end, "time plan end must be a finite number")
        if not 0 <= start < end <= DAY_SECONDS:
            raise ValueError(
                f"time plan window must satisfy 0 <= start < end <= "
                f"{DAY_SECONDS}, got [{start}, {end})"
            )
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        if not isinstance(self.approach_delays, Mapping) or not self.approach_delays:
            raise ValueError(
                "time plan needs a non-empty {edge_id: delay distribution} mapping"
            )
        checked: dict[int, DiscreteDistribution] = {}
        for edge_id, delay in self.approach_delays.items():
            edge_id = require_integer(
                edge_id, "time plan approach edge id is invalid", low=0
            )
            if not isinstance(delay, DiscreteDistribution):
                raise ValueError(
                    f"approach {edge_id}: delay must be a DiscreteDistribution, "
                    f"got {type(delay).__name__}"
                )
            if delay.min_value < 0:
                raise ValueError(
                    f"approach {edge_id}: delay support must be non-negative, "
                    f"min is {delay.min_value}"
                )
            checked[edge_id] = delay
        object.__setattr__(self, "approach_delays", checked)

    @classmethod
    def from_phase_times(
        cls,
        node: int,
        start: float,
        end: float,
        phase_times: Mapping[int, tuple[float, float]],
        *,
        resolution: float,
    ) -> "TimePlan":
        """Build a plan from ``{approach_edge: (green_seconds, cycle_seconds)}``.

        The classic uniform-delay shape for an unsynchronised arrival: with
        probability ``green / cycle`` the approach hits green and waits
        zero ticks; otherwise the wait is uniform over the red remainder,
        discretised to ``resolution`` seconds per tick.
        """
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        delays: dict[int, DiscreteDistribution] = {}
        for edge_id, phase in phase_times.items():
            try:
                green, cycle = (float(phase[0]), float(phase[1]))
            except (TypeError, IndexError, ValueError) as exc:
                raise ValueError(
                    f"approach {edge_id}: phase times must be "
                    f"(green_seconds, cycle_seconds), got {phase!r}"
                ) from exc
            if not (0 < green <= cycle) or not math.isfinite(cycle):
                raise ValueError(
                    f"approach {edge_id}: need 0 < green <= cycle, "
                    f"got green={green}, cycle={cycle}"
                )
            if green == cycle:
                delays[edge_id] = DiscreteDistribution.point(0)
                continue
            p_green = green / cycle
            red_ticks = max(1, int(round((cycle - green) / resolution)))
            per_tick = (1.0 - p_green) / red_ticks
            mapping = {0: p_green}
            for tick in range(1, red_ticks + 1):
                mapping[tick] = per_tick
            delays[edge_id] = DiscreteDistribution.from_mapping(mapping)
        return cls(node, start, end, delays)

    def to_dict(self) -> dict:
        return {
            "kind": "time_plan",
            "node": self.node,
            "start": self.start,
            "end": self.end,
            "approach_delays": {
                str(edge_id): delay.to_payload()
                for edge_id, delay in sorted(self.approach_delays.items())
            },
        }


@dataclass(frozen=True)
class _TransitionBand:
    """One boundary's transition band in circular day coordinates."""

    boundary: float  # the boundary second (0 for the midnight wrap)
    half: float  # band half-width; the band is [boundary-half, boundary+half)
    left: str  # anchor name before the boundary
    right: str  # anchor name after the boundary

    def locate(self, t: float, points: int) -> tuple[int, float] | None:
        """``(bin index, weight toward right)`` if ``t`` is inside the band."""
        offset = (t - (self.boundary - self.half)) % DAY_SECONDS
        width = 2.0 * self.half
        if not 0 <= offset < width:
            return None
        index = min(points - 1, int(offset / width * points))
        return index, (index + 0.5) / points


class TemporalCostProfile:
    """First-class temporal layer over named slice tables.

    A profile owns the *anchor* tables (today's static slices) plus two
    kinds of temporal structure:

    - **Transition bands** — with ``interpolation_points = n >= 1``, every
      boundary between differently named slices grows a band of total
      width ``transition_seconds`` (clamped so it never covers more than
      half of either adjacent interval), split into ``n`` equal bins.  Bin
      ``j`` routes over :meth:`EdgeCostTable.interpolate` of the two
      anchors with weight ``(j + 0.5) / n`` toward the later slice — the
      midpoint rule, so the blend is symmetric and approaches each anchor
      at the band's edges.  Midnight is a boundary like any other.
    - **Time plans** — each :class:`TimePlan` window convolves its
      approach delays onto the underlying (anchor or interpolated) table
      for departures inside the window.

    The profile *compiles* to plain serving primitives: :meth:`tables`
    returns one :class:`EdgeCostTable` per resolved temporal regime (the
    anchor tables themselves — the very same objects — plus derived
    mixture/delay tables), and :meth:`expanded_schedule` returns a
    :class:`ScenarioSchedule` mapping every departure second to the right
    regime name.  ``RoutingService.from_temporal_profile`` feeds both into
    the existing slice machinery, so resolved cache keys carry the exact
    per-regime cost version and nothing downstream changes.  The default
    profile (no interpolation, no plans) compiles to the identity:
    the input tables and schedule come back untouched, bit-for-bit.
    """

    def __init__(
        self,
        schedule: ScenarioSchedule,
        anchor_tables: Mapping[str, EdgeCostTable],
        *,
        interpolation_points: int = 0,
        transition_seconds: float = 1800.0,
        time_plans: Sequence[TimePlan] = (),
    ) -> None:
        if not isinstance(schedule, ScenarioSchedule):
            raise TypeError("schedule must be a ScenarioSchedule")
        missing = set(schedule.slice_names) - set(anchor_tables)
        if missing:
            raise ValueError(
                f"schedule references slices with no anchor table: {sorted(missing)}"
            )
        interpolation_points = require_integer(
            interpolation_points, "interpolation_points must be an integer"
        )
        if interpolation_points < 0:
            raise ValueError("interpolation_points must be >= 0")
        transition = require_number(
            transition_seconds, "transition_seconds must be a finite number"
        )
        if transition <= 0:
            raise ValueError("transition_seconds must be positive")
        tables = dict(anchor_tables)
        networks = {id(t.network) for t in tables.values()}
        if len(networks) > 1:
            raise ValueError("anchor tables must share one network")
        resolutions = {t.resolution for t in tables.values()}
        if len(resolutions) > 1:
            raise ValueError(
                f"anchor tables must share one resolution, got {sorted(resolutions)}"
            )
        self.schedule = schedule
        self.anchor_tables = tables
        self.interpolation_points = interpolation_points
        self.transition_seconds = transition
        self.time_plans = tuple(time_plans)
        self.network: RoadNetwork = next(iter(tables.values())).network
        self.resolution: float = next(iter(tables.values())).resolution
        for plan in self.time_plans:
            if not isinstance(plan, TimePlan):
                raise TypeError("time_plans entries must be TimePlan instances")
            for edge_id in plan.approach_delays:
                edge = self.network.edge(edge_id)
                if edge.target != plan.node:
                    raise ValueError(
                        f"time plan at node {plan.node}: edge {edge_id} is not "
                        f"an approach (it ends at node {edge.target})"
                    )
        self._tables: dict[str, EdgeCostTable] = {}
        self._expanded: ScenarioSchedule = schedule
        self._compile()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def _bands(self) -> list[_TransitionBand]:
        if self.interpolation_points == 0:
            return []
        slices = self.schedule.slices
        bands: list[_TransitionBand] = []
        count = len(slices)
        for index in range(count):
            before = slices[index]
            after = slices[(index + 1) % count]
            if before.name == after.name:
                continue
            boundary = before.end % DAY_SECONDS  # DAY_SECONDS wraps to 0
            before_len = before.end - before.start
            after_len = after.end - after.start
            half = min(self.transition_seconds / 2.0, before_len / 2.0, after_len / 2.0)
            if half <= 0:
                continue
            bands.append(
                _TransitionBand(boundary, half, before.name, after.name)
            )
        return bands

    @staticmethod
    def _bin_name(left: str, right: str, index: int, points: int) -> str:
        return f"{left}->{right}#{index + 1}/{points}"

    def _regime_at(
        self, t: float, bands: Sequence[_TransitionBand]
    ) -> tuple[str | None, tuple[str, str, int] | None, tuple[int, ...]]:
        """Resolve time-of-day ``t`` to ``(anchor, mixture key, plan indices)``.

        Exactly one of ``anchor`` / ``mixture key`` is set; the mixture key
        is ``(left, right, bin index)``.
        """
        mixture_key = None
        for band in bands:
            located = band.locate(t, self.interpolation_points)
            if located is not None:
                mixture_key = (band.left, band.right, located[0])
                break
        anchor = None if mixture_key else self.schedule.slice_at(t)
        plans = tuple(
            index
            for index, plan in enumerate(self.time_plans)
            if plan.start <= t < plan.end
        )
        return anchor, mixture_key, plans

    def _compile(self) -> None:
        bands = self._bands()
        if not bands and not self.time_plans:
            # Degenerate profile: static slices, bit-for-bit.  The anchor
            # tables and schedule pass through as the same objects.
            self._tables = dict(self.anchor_tables)
            self._expanded = self.schedule
            return

        points: set[float] = {0.0, float(DAY_SECONDS)}
        for member in self.schedule.slices:
            points.add(member.start)
            points.add(member.end)
        n = self.interpolation_points
        for band in bands:
            width = 2.0 * band.half
            for j in range(n + 1):
                points.add((band.boundary - band.half + j * width / n) % DAY_SECONDS)
        for plan in self.time_plans:
            points.add(plan.start)
            points.add(plan.end)
        cut = sorted(p for p in points if 0.0 <= p <= DAY_SECONDS)

        # Classify each elementary interval by its midpoint, then merge
        # adjacent intervals resolving to the same regime.
        merged: list[tuple[tuple, float, float]] = []
        for lo, hi in zip(cut, cut[1:]):
            if hi <= lo:
                continue
            anchor, mixture_key, plan_ids = self._regime_at((lo + hi) / 2.0, bands)
            key = (anchor, mixture_key, plan_ids)
            if merged and merged[-1][0] == key and merged[-1][2] == lo:
                merged[-1] = (key, merged[-1][1], hi)
            else:
                merged.append((key, lo, hi))

        mixtures: dict[tuple[str, str, int], EdgeCostTable] = {}

        def mixture_table(key: tuple[str, str, int]) -> EdgeCostTable:
            cached = mixtures.get(key)
            if cached is None:
                left, right, index = key
                weight = (index + 0.5) / n
                cached = EdgeCostTable.interpolate(
                    self.anchor_tables[left], self.anchor_tables[right], weight
                )
                mixtures[key] = cached
            return cached

        tables: dict[str, EdgeCostTable] = dict(self.anchor_tables)
        expanded: list[TimeSlice] = []
        for (anchor, mixture_key, plan_ids), lo, hi in merged:
            if mixture_key is None:
                base_name, base_table = anchor, self.anchor_tables[anchor]
            else:
                base_name = self._bin_name(
                    mixture_key[0], mixture_key[1], mixture_key[2], n
                )
                base_table = mixture_table(mixture_key)
            if plan_ids:
                name = base_name + "".join(f"+plan{i}" for i in plan_ids)
                if name not in tables:
                    combined: dict[int, DiscreteDistribution] = {}
                    for i in plan_ids:
                        for edge_id, delay in self.time_plans[i].approach_delays.items():
                            existing = combined.get(edge_id)
                            combined[edge_id] = (
                                delay if existing is None else existing.convolve(delay)
                            )
                    tables[name] = base_table.with_delays(combined)
            else:
                name = base_name
                tables.setdefault(name, base_table)
            expanded.append(TimeSlice(name, lo, hi))

        self._tables = tables
        self._expanded = ScenarioSchedule(expanded)

    # ------------------------------------------------------------------
    # Resolution API
    # ------------------------------------------------------------------

    @property
    def slice_names(self) -> tuple[str, ...]:
        """Every resolved regime name (anchors first, derived after)."""
        return tuple(self._tables)

    def tables(self) -> dict[str, EdgeCostTable]:
        """All resolved tables by regime name.

        Anchor entries are the *same objects* passed to the constructor —
        live updates to an anchor slice keep flowing through — while
        derived entries (transition bins, plan windows) are materialised
        once at construction.
        """
        return dict(self._tables)

    def expanded_schedule(self) -> ScenarioSchedule:
        """Departure second → resolved regime name, as a plain schedule."""
        return self._expanded

    # ------------------------------------------------------------------
    # Snapshot spec
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """The profile *specification* (no cost tables), JSON-ready.

        Snapshots carry this next to the per-slice table dumps the service
        already serialises — the tables section holds every materialised
        regime at its exact version, so the spec only needs to pin the
        temporal structure for the restore-side compatibility check.
        """
        return {
            "kind": "temporal_profile",
            "schedule": self.schedule.to_dict(),
            "anchors": sorted(self.anchor_tables),
            "interpolation_points": self.interpolation_points,
            "transition_seconds": self.transition_seconds,
            "time_plans": [plan.to_dict() for plan in self.time_plans],
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalCostProfile):
            return NotImplemented
        return self.to_dict() == other.to_dict()


def time_sliced_cost_tables(
    network: RoadNetwork,
    model: CongestionModel,
    weights: Mapping[str, Sequence[float]] | None = None,
) -> dict[str, EdgeCostTable]:
    """Build one :class:`EdgeCostTable` per named slice from ground truth.

    Every edge of ``network`` gets its
    :meth:`~repro.trajectories.CongestionModel.slice_marginal` under that
    slice's state weighting; the default weightings pair with
    :meth:`ScenarioSchedule.default`.  Each table is populated through one
    :meth:`~repro.core.costs.EdgeCostTable.apply_deltas` batch, so a fresh
    slice starts at version 1.
    """
    chosen = dict(weights if weights is not None else DEFAULT_SLICE_WEIGHTS)
    if not chosen:
        raise ValueError("need at least one slice weighting")
    tables: dict[str, EdgeCostTable] = {}
    for name, state_weights in chosen.items():
        table = EdgeCostTable(network, resolution=model.config.resolution)
        table.apply_deltas(
            {
                edge.id: model.slice_marginal(edge, state_weights)
                for edge in network.edges
            }
        )
        tables[name] = table
    return tables
