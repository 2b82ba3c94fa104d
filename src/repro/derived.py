"""Derived state lives and dies with the version it was computed from.

Everything the search precomputes — vertex indexing, CSR arrays, kernel
blocks, lower-bound vectors, landmark tables — is a pure function of one
version of its owner (a :class:`~repro.network.RoadNetwork` topology, an
:class:`~repro.core.costs.EdgeCostTable` publication cell).  There is one
holder for all of it, :class:`Memo`, and one lifetime rule: ``owner.derived()``
hands out the memo bound to the owner's *current* version, and a new version
gets a new, empty memo — the old one, with everything in it, is unreachable
from that moment.  Nothing under ``repro.routing`` or ``repro.core`` keeps a
version-keyed cache of its own; new precomputations hang off the holder.

Values must not reference their owner: a dropped owner then frees its
derived state by reference count alone.  Owners pickle without it.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Any, Callable, Hashable

__all__ = ["Memo", "rebind", "clear_bounded"]

#: Guards what cannot live behind a memo's own lock: binding a memo to an
#: owner, and the registry of bounded memos.  Never held during a build.
_LOCK = threading.Lock()
_BOUNDED: "weakref.WeakSet[Memo]" = weakref.WeakSet()


class Memo:
    """A locked ``key -> value`` memo with single-flight builds.

    ``get(key, build)`` returns the resident value or runs ``build()`` once
    per missing key: concurrent callers for that key wait for the first
    builder instead of duplicating its work, while distinct keys build in
    parallel (``build`` runs outside the lock).  A build that raises
    propagates to its own caller only, leaves no entry behind and releases
    its waiters; the next of them builds again.  The one restriction: a
    build never asks this memo for its *own* key (it would wait for itself).

    With ``bound`` — a callable giving the current capacity, read at every
    insert — the memo is an LRU, and :func:`clear_bounded` empties it.
    """

    def __init__(self, bound: Callable[[], int] | None = None) -> None:
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._flights: dict[Hashable, threading.Event] = {}
        self._bound = bound
        if bound is not None:
            with _LOCK:
                _BOUNDED.add(self)

    def get(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The value under ``key``, built by ``build()`` if missing."""
        while True:
            with self._lock:
                if key in self._entries:
                    if self._bound is not None:
                        self._entries.move_to_end(key)
                    return self._entries[key]
                flight = self._flights.get(key)
                if flight is None:
                    flight = self._flights[key] = threading.Event()
                    break
            # Another caller is building this key: wait, then look again (the
            # entry is there, or the build failed and this caller may lead).
            flight.wait()
        value = flight  # stays the flight when build() raises: no entry
        try:
            value = build()
        finally:
            with self._lock:  # one round: insert, trim, release the flight
                if value is not flight:
                    self._entries[key] = value
                    while self._bound is not None and len(self._entries) > self._bound():
                        self._entries.popitem(last=False)
                self._flights.pop(key).set()
        return value


def rebind(owner: Any, seen: tuple | None, tag: tuple) -> tuple:
    """Bind a fresh :class:`Memo` to ``owner`` for ``tag``; returns the binding.

    ``owner._derived`` is ``None`` or ``(*tag, memo)``.  The caller found the
    binding ``seen`` not to match its ``tag``; ``(*tag, Memo())`` replaces it
    unless another thread got there first — then *that* binding comes back
    for the caller to check.  The compare-and-swap is what lets N threads
    arriving after a version bump share one memo, hence one build.
    """
    with _LOCK:
        if owner._derived is seen:
            owner._derived = (*tag, Memo())
        return owner._derived


def clear_bounded() -> None:
    """Empty every bounded memo in the process; unbounded ones are untouched."""
    with _LOCK:
        memos = list(_BOUNDED)
    for memo in memos:
        with memo._lock:
            memo._entries.clear()
