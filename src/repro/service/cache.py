"""Versioned, bounded, thread-safe LRU result cache for the serving layer.

Production routing services answer a heavily repeated query stream — the
same popular OD pairs at the same budgets, request after request.  The
cache makes those repeats O(1): a key is the full identity of an answer,

    (slice, strategy, source, target, budget, frozen kwargs, cost version)

where the trailing component is the serving cost table's mutation
:attr:`~repro.core.costs.EdgeCostTable.version`.  A live cost update bumps
the version, so every previously cached answer becomes unreachable *by
construction* — no scanning, no invalidation lists — and simply ages out
of the bounded LRU as fresh-version entries displace it.

Concurrency: every operation (lookup + LRU re-insert + counter update,
insert + eviction sweep, refunds) runs under one internal lock, so the
cache is safe to hammer from a thread-pool frontend — the LRU dict cannot
be corrupted mid-reorder and ``hits + misses`` equals the number of
lookups *exactly*, never approximately.

Entries may carry a TTL (time-to-live), given per entry at
:meth:`ResultCache.put` time; without one an entry never expires.  An
expired entry behaves exactly like an absent one (the lookup is a miss,
counted under ``expirations`` as well), which keeps answers computed under
slow-drifting assumptions — a cost table nobody has updated in hours —
from being served forever.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Hashable, Mapping

from ..scalars import require_integer, require_number

__all__ = ["ResultCache", "check_ttl_seconds", "freeze_kwargs"]


def check_ttl_seconds(
    ttl_seconds: float | None, *, name: str = "ttl_seconds"
) -> float | None:
    """Validate a TTL (``None`` = no expiry): positive and finite, or raise.

    The one definition of a valid TTL, shared by the cache itself and the
    service's per-request ``cache_ttl_seconds`` knob — which arrives over
    the wire, so a JSON ``true`` or ``"900"`` is rejected, not coerced.
    """
    if ttl_seconds is None:
        return None
    return require_number(
        ttl_seconds, f"{name} must be positive and finite", low=0, open_low=True
    )


def _mapping_item_order(item: tuple) -> tuple[str, str]:
    """Deterministic sort key for frozen mapping items of mixed key types.

    Python 3 cannot order ``1`` against ``"1"`` directly; ordering by
    ``(type name, repr)`` is total, deterministic within a process, and a
    pure function of the key itself, so a given mapping always freezes the
    same way — two different payloads can never collide.  The converse is
    not perfect: exotic equal-but-differently-typed keys (``True`` vs
    ``1`` mixed with other int keys, or keys whose ``repr`` embeds a
    memory address) may freeze equal mappings to distinct forms.  That
    costs a duplicate cache entry — a false miss, never a wrong answer.
    """
    key = item[0]
    return (type(key).__name__, repr(key))


def freeze_kwargs(kwargs: Mapping[str, Any]) -> tuple:
    """Canonicalise strategy kwargs into a hashable cache-key component.

    Mappings become sorted item tuples, sequences become tuples and sets
    become frozensets, recursively, so wire-deserialised kwargs (lists) and
    native ones (tuples) produce the same key.  Mapping keys are preserved
    *as they are* — stringifying them would collapse distinct keys (``1``
    vs ``"1"``) into one frozen form and let two different kwarg payloads
    alias each other's cache entries.  A value that cannot be made hashable
    raises ``TypeError`` — the caller treats that request as uncacheable
    rather than guessing at its identity.
    """

    def freeze(value: Any) -> Hashable:
        if isinstance(value, Mapping):
            return tuple(
                sorted(
                    ((k, freeze(v)) for k, v in value.items()),
                    key=_mapping_item_order,
                )
            )
        if isinstance(value, (list, tuple)):
            return tuple(freeze(v) for v in value)
        if isinstance(value, (set, frozenset)):
            return frozenset(freeze(v) for v in value)
        hash(value)  # raises TypeError for unhashable leaves
        return value

    return tuple(
        sorted(((k, freeze(v)) for k, v in kwargs.items()), key=_mapping_item_order)
    )


class ResultCache:
    """A bounded, thread-safe LRU mapping of cache keys to routing answers.

    ``max_entries`` bounds memory; the eviction policy is plain LRU, which
    under version-keyed invalidation doubles as garbage collection — stale
    -version entries are never touched again, so they are exactly the
    least-recently-used ones.  A per-entry TTL (:meth:`put`) ages entries
    out by wall clock as well; ``clock`` is injectable for deterministic tests.
    ``hits`` / ``misses`` / ``evictions`` / ``expirations`` are cumulative
    counters surfaced through :meth:`repro.service.RoutingService.stats`.
    """

    def __init__(
        self,
        max_entries: int = 4096,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.max_entries = require_integer(
            max_entries, "max_entries must be a positive integer", low=1
        )
        self._clock = clock
        self._lock = threading.Lock()
        #: key -> (value, expiry deadline on the clock, or None = immortal)
        self._entries: dict[Hashable, tuple[Any, float | None]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Live-entry membership (expired entries count as absent).

        A read-only peek: no counters move and no LRU reordering happens.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            value, deadline = entry
            return deadline is None or self._clock() < deadline

    def get(self, key: Hashable) -> Any | None:
        """The cached answer for ``key``, or ``None`` (counted as a miss).

        An entry past its TTL deadline is dropped and counted as both an
        expiration and a miss — exactly as if it had never been cached.
        """
        with self._lock:
            value = self._hit(key)
            if value is None:
                if self._entries.pop(key, None) is not None:  # present, expired
                    self.expirations += 1
                self.misses += 1
            return value

    def get_hit(self, key: Hashable) -> Any | None:
        """:meth:`get` counting only a hit: otherwise ``None``, nothing moved
        or dropped, for a caller whose fallback :meth:`get` counts the miss."""
        with self._lock:
            return self._hit(key)

    def _hit(self, key: Hashable) -> Any | None:  # lock held
        entry = self._entries.get(key)
        if entry is None or (entry[1] is not None and self._clock() >= entry[1]):
            return None
        # dicts preserve insertion order; re-inserting implements LRU
        # recency without an OrderedDict dependency.
        del self._entries[key]
        self._entries[key] = entry
        self.hits += 1
        return entry[0]

    def put(
        self,
        key: Hashable,
        value: Any,
        *,
        ttl_seconds: float | None = None,
    ) -> None:
        """Insert ``value``, evicting least-recently-used entries if full.

        ``ttl_seconds`` is this entry's time to live (``None`` = never expires).
        """
        if value is None:
            raise ValueError("None is the miss sentinel and cannot be cached")
        ttl = check_ttl_seconds(ttl_seconds)
        deadline = None if ttl is None else self._clock() + ttl
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = (value, deadline)
            if len(self._entries) > self.max_entries:
                # Dead entries first: an expired entry still occupying a slot
                # must never displace a live one, and dropping it is an
                # expiration, not an eviction — the counters alarm on
                # different things (TTL churn vs capacity pressure).
                now = self._clock()
                expired = [
                    k
                    for k, (_, entry_deadline) in self._entries.items()
                    if entry_deadline is not None and now >= entry_deadline
                ]
                for k in expired:
                    del self._entries[k]
                    self.expirations += 1
            while len(self._entries) > self.max_entries:
                self._entries.pop(next(iter(self._entries)))
                self.evictions += 1

    def refund_miss(self, count: int = 1) -> None:
        """Un-count miss lookups whose request subsequently failed.

        A request that errors after its lookup (unknown strategy, invalid
        kwargs) was never cache traffic — leaving its miss counted would
        let a client retrying bad requests deflate the hit rate an
        operator alarms on.  Refunding more misses than were ever counted
        is an accounting bug in the *caller* (a double refund), and raises
        instead of silently clamping to zero — a clamp would hide exactly
        the class of concurrency bug this counter exists to surface.
        """
        self._refund("misses", count)

    def refund_hit(self, count: int = 1) -> None:
        """Un-count hit lookups whose request subsequently failed.

        The mirror of :meth:`refund_miss`: when a batch fails after some
        members were served from cache, the caller receives nothing — a
        retried failing batch must not pump the hit rate either.  Raises on
        over-refund, like :meth:`refund_miss`.
        """
        self._refund("hits", count)

    def _refund(self, counter: str, count: int) -> None:
        count = require_integer(
            count, "refund count must be a non-negative integer", low=0
        )
        with self._lock:
            current = getattr(self, counter)
            if count > current:
                raise ValueError(
                    f"refund of {count} {counter} exceeds the {current} "
                    f"recorded — double refund (caller accounting bug)"
                )
            setattr(self, counter, current - count)

    def items(self) -> list[tuple[Hashable, Any]]:
        """A point-in-time list of live ``(key, value)`` pairs, LRU order.

        Oldest first, expired entries omitted.  A read-only snapshot for
        :meth:`repro.service.RoutingService.snapshot`'s cache dump: no
        counters move and no recency reordering happens.
        """
        with self._lock:
            now = self._clock()
            return [
                (key, value)
                for key, (value, deadline) in self._entries.items()
                if deadline is None or now < deadline
            ]

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def counters(self) -> tuple[int, int, int, int, int]:
        """One atomic ``(hits, misses, evictions, expirations, entries)``
        snapshot — the five values are mutually consistent, which separate
        attribute reads under concurrent traffic are not."""
        with self._lock:
            return (
                self.hits,
                self.misses,
                self.evictions,
                self.expirations,
                len(self._entries),
            )
