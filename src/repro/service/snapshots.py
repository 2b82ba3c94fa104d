"""The service-snapshot codec: the one owner of snapshot formats 1 and 2.

What :meth:`RoutingService.snapshot` writes is read back here and nowhere
else: the format numbers, the envelope check, the cache-key part codec and
the per-section decoding.  Decoding is all-or-nothing:
:func:`decode_snapshot` returns a fully built, fully validated
:class:`DecodedSnapshot` — or raises — *before* the service touches any of
its state, so :meth:`RoutingService.restore` is "decode, then commit" and
a rejected document leaves nothing behind.

Format 2 added the ``temporal`` section (incident clock, pending and
active incidents) and the temporal-profile spec; format-1 documents are
still accepted, with temporal state reset.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Callable

from ..core.costs import EdgeCostTable
from ..histograms import DiscreteDistribution
from ..routing import result_from_dict
from ..scalars import require_integer
from .incidents import IncidentState
from .scenarios import ScenarioSchedule, TemporalCostProfile

__all__ = [
    "ACCEPTED_SNAPSHOT_FORMATS",
    "SERVICE_SNAPSHOT_FORMAT",
    "DecodedSnapshot",
    "check_envelope",
    "decode_snapshot",
]

#: Format version stamped into :meth:`RoutingService.snapshot` documents.
SERVICE_SNAPSHOT_FORMAT = 2

#: Snapshot format versions :meth:`RoutingService.restore` accepts.
ACCEPTED_SNAPSHOT_FORMATS = frozenset({1, 2})


def _encode_key_part(value: Any) -> dict[str, Any]:
    """JSON-encode one cache-key component, structure-preserving.

    JSON has no tuples or frozensets, but cache keys are built from both
    (:func:`~repro.service.cache.freeze_kwargs`), so each node is tagged:
    ``{"t": [...]}`` tuple, ``{"f": [...]}`` frozenset, ``{"v": leaf}``
    scalar.  Frozenset members are sorted by their encoded form purely for
    a deterministic dump (sets are unordered on decode anyway).
    """
    if isinstance(value, tuple):
        return {"t": [_encode_key_part(item) for item in value]}
    if isinstance(value, frozenset):
        return {"f": sorted((_encode_key_part(item) for item in value), key=repr)}
    return {"v": value}


def _decode_key_part(payload: Mapping[str, Any]) -> Any:
    """Invert :func:`_encode_key_part` (exact round-trip)."""
    if "t" in payload:
        return tuple(_decode_key_part(item) for item in payload["t"])
    if "f" in payload:
        return frozenset(_decode_key_part(item) for item in payload["f"])
    return payload["v"]


def check_envelope(document: Mapping[str, Any]) -> None:
    """Reject anything that is not a readable-format service snapshot."""
    if not isinstance(document, Mapping):
        raise ValueError("a service snapshot must be a JSON object")
    if document.get("kind") != "service_snapshot":
        raise ValueError(
            f"expected a service_snapshot document, got kind={document.get('kind')!r}"
        )
    if document.get("format_version") not in ACCEPTED_SNAPSHOT_FORMATS:
        raise ValueError(
            "unsupported service snapshot format: "
            f"{document.get('format_version')!r} (this build reads "
            f"formats {sorted(ACCEPTED_SNAPSHOT_FORMATS)})"
        )


@dataclass(frozen=True)
class DecodedSnapshot:
    """Everything :meth:`RoutingService.restore` commits, already validated.

    ``cells`` holds one :meth:`EdgeCostTable.publish`-ready cell per slice;
    ``cache`` the decoded ``(key, answer)`` entries, keys hashable non-empty
    tuples (their last component is the cost version).
    """

    cells: dict[str, tuple[dict[int, DiscreteDistribution], int]]
    feed_position: int | None
    incidents: IncidentState
    cache: list[tuple[tuple, Any]]


def decode_snapshot(
    document: Mapping[str, Any],
    *,
    tables: Mapping[str, EdgeCostTable],
    default_slice: str,
    schedule: ScenarioSchedule | None,
    profile: TemporalCostProfile | None,
    decode_incidents: Callable[[Mapping[str, Any] | None], IncidentState],
) -> DecodedSnapshot:
    """Decode a format-1 or -2 document against the restoring service's shape.

    ``tables`` are the service's live tables by slice (each dump is
    validated against its own); see :meth:`RoutingService.restore` for what
    must match.  Pure: nothing is modified, whatever is raised.
    """
    check_envelope(document)
    slices = document["slices"]
    if set(slices) != set(tables):
        raise ValueError(
            f"snapshot covers slices {sorted(slices)}, this service "
            f"has {sorted(tables)}; construct the successor "
            "with the same slices before restoring"
        )
    if document.get("default_slice") != default_slice:
        raise ValueError(
            f"snapshot default slice {document.get('default_slice')!r} "
            f"!= this service's {default_slice!r}"
        )
    dumped_schedule = document.get("schedule")
    if dumped_schedule is not None:
        dumped_schedule = ScenarioSchedule.from_dict(dumped_schedule)
    if dumped_schedule != schedule:
        raise ValueError("snapshot schedule differs from this service's")
    own_profile = None if profile is None else profile.to_dict()
    if "profile" in document and document["profile"] != own_profile:
        raise ValueError(
            "snapshot temporal profile differs from this service's; "
            "construct the successor from the same profile"
        )
    cells = {
        name: tables[name].decode(payload["cost_table"])
        for name, payload in slices.items()
    }
    feed_position = document.get("feed_position")
    if feed_position is not None:
        feed_position = require_integer(
            feed_position, "snapshot feed_position must be a non-negative integer or null", low=0
        )
    incidents = decode_incidents(document.get("temporal"))
    network = tables[default_slice].network
    cache: list[tuple[tuple, Any]] = []
    for entry in document.get("cache", ()):
        key = _decode_key_part(entry["key"])
        if not isinstance(key, tuple) or not key:
            raise ValueError(f"cache entry key must be a non-empty tuple, got {key!r}")
        hash(key)  # a JSON list or object as a leaf is a TypeError here, not at commit
        cache.append((key, result_from_dict(entry["result"], network)))
    return DecodedSnapshot(cells, feed_position, incidents, cache)
