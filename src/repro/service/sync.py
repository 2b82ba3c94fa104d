"""Synchronisation primitives for the serving layer.

Two primitives live here: :class:`Counters`, the one way the layer keeps
cumulative counts under threads, and a writer-preferring
:class:`ReadWriteLock`.  The serving layer's traffic is overwhelmingly reads (route requests) with rare
writes (live cost updates), and the correctness contract is *snapshot
consistency*: a request reads the cost-table version once, computes
against that table, and caches/tags under that version — so no update may
land between the version read and the answer.  Mutual exclusion between
readers is unnecessary (requests never mutate the table) and would
serialise the whole service; a read-write lock gives exactly the needed
shape: any number of concurrent requests, or one update, never both.

Writer preference matters operationally: under sustained request traffic a
fairness-free lock would starve the cost feed, and a service slowly serving
ever-staler congestion data looks healthy on every latency dashboard.
Arriving writers therefore block *new* readers; in-flight readers drain,
the writer runs, then readers resume against the bumped version.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = ["Counters", "ReadWriteLock"]


class Counters:
    """Cumulative counters behind one lock (atomic snapshot via ``read``);
    a subclass names them in ``FIELDS``, in the order ``read`` reports them."""

    FIELDS: tuple[str, ...] = ()

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for field in self.FIELDS:
            setattr(self, field, 0)

    def _bump(self, field: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + by)

    def read(self) -> dict[str, int]:
        with self._lock:
            return {field: getattr(self, field) for field in self.FIELDS}


class ReadWriteLock:
    """Many concurrent readers or one exclusive writer (writer-preferring).

    Not reentrant: a thread holding the read side must not re-acquire it
    (a writer queued in between would deadlock both), and a writer must not
    re-acquire anything.  The serving layer's lock hold sites are leaves —
    they never call back into locked service methods — which is the
    discipline that keeps this safe (see PERFORMANCE.md, "Concurrent
    serving").
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            # Waiting writers bar *new* readers (writer preference); readers
            # already inside drain first.
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._active_readers += 1

    def try_acquire_read(self) -> bool:
        """:meth:`acquire_read` that never waits: ``False`` when a writer
        holds or awaits the lock, or another thread is inside it right now."""
        if not self._cond.acquire(blocking=False):
            return False
        acquired = not (self._writer_active or self._writers_waiting)
        self._active_readers += acquired
        self._cond.release()
        return acquired

    def release_read(self) -> None:
        with self._cond:
            if self._active_readers <= 0:
                raise RuntimeError("release_read without a matching acquire_read")
            self._active_readers -= 1
            if self._active_readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._active_readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._cond:
            if not self._writer_active:
                raise RuntimeError("release_write without a matching acquire_write")
            self._writer_active = False
            self._cond.notify_all()

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        """``with lock.read_locked():`` — shared (request-side) access."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        """``with lock.write_locked():`` — exclusive (update-side) access."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()
