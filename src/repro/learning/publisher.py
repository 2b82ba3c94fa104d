"""Publishing: accepted estimates become live, sequenced cost updates.

The last hop of the learning loop: a batch of per-edge histograms that
cleared the quality gate is wrapped into a versioned
:class:`~repro.service.CostUpdate` and pushed into a running
:class:`~repro.service.RoutingService` — one update per configured scenario
slice, each landing under a single cost-table version bump so every cached
answer for that slice strands at once (the service's invalidation
contract).

Updates carry **monotonically increasing sequence numbers** from one
counter, which makes the learning feed compatible with the service's
idempotent replay protocol (PR 6): snapshot a service mid-loop, restore it,
replay the publisher's updates, and already-applied batches skip instead of
double-bumping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..histograms import DiscreteDistribution
from ..service import CostUpdate, RoutingService

__all__ = ["PublishResult", "CostPublisher"]


@dataclass(frozen=True)
class PublishResult:
    """One applied update: where it landed and what it cost."""

    slice_name: str
    sequence: int
    cost_version: int
    num_edges: int
    elapsed_seconds: float


class CostPublisher:
    """Sequenced :class:`CostUpdate` feed into one live routing service.

    ``slice_names`` lists the scenario slices every accepted batch is
    pushed to (``None`` = the service's default slice).  ``start_sequence``
    seeds the feed counter — a publisher resumed over a restored snapshot
    should start *past* the snapshot's feed position so its updates apply
    rather than skip.
    """

    def __init__(
        self,
        service: RoutingService,
        *,
        slice_names: Sequence[str] | None = None,
        source: str = "learning",
        start_sequence: int = 1,
    ) -> None:
        if start_sequence < 0:
            raise ValueError("start_sequence must be >= 0")
        names = (
            (service.default_slice,)
            if slice_names is None
            else tuple(slice_names)
        )
        if not names:
            raise ValueError("need at least one slice to publish to")
        unknown = set(names) - set(service.slice_names)
        if unknown:
            raise ValueError(
                f"unknown slices {sorted(unknown)}; service has "
                f"{list(service.slice_names)}"
            )
        self.service = service
        self.slice_names = names
        self.source = source
        self._next_sequence = int(start_sequence)

    def publish(
        self, histograms: Mapping[int, DiscreteDistribution]
    ) -> list[PublishResult]:
        """Push one accepted batch to every configured slice.

        Each slice gets its own :class:`CostUpdate` under the next feed
        sequence number; the per-update latency covers building the update
        (validation included) plus the service's hot-swap.
        """
        if not histograms:
            raise ValueError("a publish batch needs at least one edge")
        results: list[PublishResult] = []
        for name in self.slice_names:
            begin = time.perf_counter()
            update = CostUpdate(
                costs=dict(histograms),
                slice_name=name,
                source=self.source,
                sequence=self._next_sequence,
            )
            version = self.service.apply_cost_update(update)
            results.append(
                PublishResult(
                    slice_name=name,
                    sequence=self._next_sequence,
                    cost_version=version,
                    num_edges=len(update),
                    elapsed_seconds=time.perf_counter() - begin,
                )
            )
            self._next_sequence += 1
        return results
