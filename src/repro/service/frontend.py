"""A threaded serving frontend: a worker pool over one request queue.

:class:`RoutingService` is thread-safe but passive — something must pump
requests into it.  :class:`ThreadedFrontend` is that something for a
multi-client deployment: callers :meth:`~ThreadedFrontend.submit` wire
request documents (the same JSON-ready shapes
:meth:`~repro.service.RoutingService.handle_request` speaks) and get a
:class:`~concurrent.futures.Future` back; N worker threads drain the
queue, drive the shared service, and deliver each response.

What the pool buys under CPython's GIL is *overlap*, not parallel search:
while one worker waits on response delivery (the ``deliver`` hook — a
socket write in a real deployment), or inside native code that releases
the GIL, the others keep serving.  Cache hits — the dominant outcome on
production OD traffic — are near-free either way, so a small pool
sustains a large client count.  The service below it guarantees the rest:
per-slice read-write locks keep every answer snapshot-consistent with the
cost-table version it is tagged with, however many workers are in flight.

The frontend inherits the service's always-answer contract and hardens
it: a worker never dies on a bad request — malformed documents come back
as ``{"ok": false, ...}`` error documents through the future, a failing
``deliver`` hook marks only that one future, and an exception that
escapes the service anyway (in practice only an injected fault from a
:class:`~repro.service.faults.FaultInjector`) is retried under the
frontend's :class:`~repro.service.faults.RetryPolicy` before it becomes
an ``error_kind: "internal"`` document.  A request's ``deadline_ms`` is
charged for its queue wait: the service sees only the budget that is
actually left, so a request that aged out in the queue degrades
immediately instead of burning a worker on a search it cannot finish in
time.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Iterable, Mapping, Sequence

from .errors import FrontendClosedError, error_document, is_real, require_integer
from .faults import FaultInjector, RetryPolicy
from .service import RoutingService

__all__ = ["FrontendStats", "ThreadedFrontend", "charge_queue_wait"]


def charge_queue_wait(
    request: Mapping[str, Any],
    arrival: float,
    clock: Callable[[], float],
) -> Mapping[str, Any]:
    """Charge the time since ``arrival`` against the request's ``deadline_ms``.

    The client's deadline started ticking at submission, not when a worker
    (or executor slot) finally picked the request up — so the service must
    receive the budget that is actually left.  The adjusted budget may be
    negative: the service treats an expired budget as a valid request that
    goes straight to the stale rung.  Requests without a numeric deadline
    pass through untouched (a malformed one fails validation at the
    service, as it would have anyway).  Shared by every frontend so the
    queue-wait semantics cannot drift between the threaded and async paths.
    """
    raw = request.get("deadline_ms")
    if raw is None or not is_real(raw):
        return request
    waited_ms = (clock() - arrival) * 1000.0
    adjusted = dict(request)
    adjusted["deadline_ms"] = float(raw) - waited_ms
    return adjusted


class FrontendStats:
    """Cumulative counters for one frontend (atomic snapshot via ``read``)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.submitted = 0
        self.completed = 0
        self.delivery_failures = 0
        self.cancelled = 0
        self.retries = 0

    def _bump(self, field: str) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + 1)

    def _retract(self, field: str) -> None:
        """Un-count one event (the rare "counted, then never happened" path).

        Only :meth:`ThreadedFrontend.submit` uses it, for a request that was
        counted as submitted and then withdrawn before any worker could see
        it — the request never existed as far as every other counter is
        concerned, so the submission must not stay on the books.
        """
        with self._lock:
            setattr(self, field, getattr(self, field) - 1)

    def read(self) -> dict[str, int]:
        with self._lock:
            return {
                "submitted": self.submitted,
                "completed": self.completed,
                "delivery_failures": self.delivery_failures,
                "cancelled": self.cancelled,
                "retries": self.retries,
            }


class ThreadedFrontend:
    """Drive one :class:`RoutingService` from a pool of worker threads.

    Parameters
    ----------
    service:
        The (thread-safe) service every worker serves from.
    num_workers:
        Pool size.  Sized for overlap, not CPU count: 4–8 covers a
        deployment where delivery latency dominates per-request compute.
    max_pending:
        Bound on queued-but-unserved requests (0 = unbounded).  When the
        queue is full, :meth:`submit` blocks — backpressure, not an error —
        so a burst cannot grow memory without bound.
    deliver:
        Optional hook called by the worker with ``(request, response)``
        after computing each response — the "write it back to the client"
        step.  A raising hook fails that request's future only.
    faults:
        Optional :class:`~repro.service.faults.FaultInjector` every request
        passes through before the service sees it — the test harness for
        the resilience machinery.  ``None`` (production) injects nothing.
    retry:
        The :class:`~repro.service.faults.RetryPolicy` wrapped around each
        request for exceptions that escape the service (injected crashes;
        the service itself answers everything else as a document).
    clock:
        Monotonic time source for deadline/queue-wait arithmetic.  Defaults
        to the injector's (possibly skewed) clock when ``faults`` is set,
        else ``time.monotonic``.
    sleep:
        How retry backoff waits; injectable so retry tests take no wall
        time.

    Use as a context manager (``with ThreadedFrontend(service) as fe:``)
    or call :meth:`start` / :meth:`close` explicitly.  ``close`` drains by
    default: every accepted request is served before the workers exit.
    """

    _STOP = object()  # queue sentinel, one per worker at shutdown

    def __init__(
        self,
        service: RoutingService,
        *,
        num_workers: int = 4,
        max_pending: int = 0,
        deliver: Callable[[Mapping[str, Any], dict[str, Any]], None] | None = None,
        faults: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        clock: Callable[[], float] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.service = service
        self.num_workers = require_integer(
            num_workers, "num_workers must be a positive integer", low=1
        )
        max_pending = require_integer(
            max_pending, "max_pending must be a non-negative integer", low=0
        )
        self.deliver = deliver
        self.faults = faults
        self.retry = RetryPolicy() if retry is None else retry
        if not isinstance(self.retry, RetryPolicy):
            raise TypeError(
                f"retry must be a RetryPolicy, got {type(self.retry).__name__}"
            )
        if clock is None:
            # Under injected clock skew the frontend must *feel* the skew,
            # or the deadline arithmetic under test would read true time.
            clock = faults.now if faults is not None else time.monotonic
        self._clock = clock
        self._sleep = sleep
        self.stats = FrontendStats()
        self._queue: "queue.Queue[Any]" = queue.Queue(maxsize=max_pending)
        self._workers: list[threading.Thread] = []
        self._state_lock = threading.Lock()
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ThreadedFrontend":
        """Spawn the worker pool (idempotent until :meth:`close`)."""
        with self._state_lock:
            if self._closed:
                raise FrontendClosedError("frontend is closed and cannot restart")
            if self._started:
                return self
            self._started = True
            for index in range(self.num_workers):
                worker = threading.Thread(
                    target=self._worker_loop,
                    name=f"routing-frontend-{index}",
                    daemon=True,
                )
                worker.start()
                self._workers.append(worker)
        return self

    def close(self, *, drain: bool = True) -> None:
        """Stop the pool.

        ``drain=True`` (default) serves everything already accepted, then
        stops.  ``drain=False`` cancels queued-but-unstarted requests
        (their futures report cancelled) and stops as soon as each worker
        finishes its current request.  Either way, :meth:`submit` rejects
        new work the moment close begins, and close is idempotent.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
        if not started:
            return
        if not drain:
            # Pull pending work off the queue and cancel it; workers may
            # race us for items — both outcomes (served or cancelled) are
            # valid under drain=False.
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is not self._STOP:
                    # We are this item's only consumer (we popped it), so we
                    # count the cancellation even when the future was already
                    # cancelled by someone who did not own the item (e.g.
                    # map_requests' prefix cleanup) — exactly-once per item.
                    _, future, _ = item
                    future.cancel()
                    self.stats._bump("cancelled")
        for _ in self._workers:
            self._queue.put(self._STOP)
        for worker in self._workers:
            worker.join()
        self._workers.clear()

    def __enter__(self) -> "ThreadedFrontend":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------

    def submit(self, request: Mapping[str, Any]) -> "Future[dict[str, Any]]":
        """Enqueue one wire request; the future resolves to its response.

        Blocks only when ``max_pending`` is set and the queue is full
        (backpressure).  Raises :class:`FrontendClosedError` if the
        frontend was never started or is closing — a dropped-on-the-floor
        request must be loud, not a forever-pending future.
        """
        with self._state_lock:
            if not self._started or self._closed:
                raise FrontendClosedError(
                    "frontend is not accepting requests (start() it first; "
                    "closed frontends stay closed)"
                )
        future: "Future[dict[str, Any]]" = Future()
        item = (request, future, self._clock())
        # Count the submission *before* the put: the moment the item is on
        # the queue a fast worker can complete it, and a stats snapshot
        # taken in that window must never show completed > submitted.
        self.stats._bump("submitted")
        self._queue.put(item)
        # close() may have begun between the check above and the put.  If it
        # did, our item either (a) landed before close's sentinels/drain and
        # a worker will still serve it, or (b) will never be picked up.  For
        # (b) we withdraw our exact item, un-count the submission (it never
        # existed as far as any worker is concerned), and fail loudly
        # instead of handing back a forever-pending future.
        with self._state_lock:
            closed_underfoot = self._closed
        if closed_underfoot:
            with self._queue.mutex:
                try:
                    self._queue.queue.remove(item)
                    withdrawn = True
                    self._queue.not_full.notify()
                except ValueError:
                    withdrawn = False
            if withdrawn:
                future.cancel()
                self.stats._retract("submitted")
                raise FrontendClosedError(
                    "frontend closed while the request was queued"
                )
            if future.cancelled():
                # close(drain=False)'s sweep beat us to the item and already
                # counted the cancellation — the submission stands, the
                # request just reports cancelled like any other swept one.
                raise FrontendClosedError(
                    "frontend closed while the request was queued"
                )
            # Otherwise a worker owns the item and will serve it.
        return future

    def request(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """Synchronous convenience: :meth:`submit` and wait for the answer."""
        return self.submit(request).result()

    def map_requests(
        self, requests: Iterable[Mapping[str, Any]]
    ) -> list[dict[str, Any]]:
        """Submit a request sequence, then gather responses in input order.

        All requests enter the queue before the first wait, so the pool
        overlaps them; the returned list preserves input order regardless
        of completion order.  If a mid-list :meth:`submit` raises (the
        frontend closed underfoot), the already-submitted prefix is
        cancelled or awaited before the error propagates — the caller must
        never be left with in-flight futures it cannot collect.
        """
        futures: list[Future] = []
        try:
            for request in list(requests):
                futures.append(self.submit(request))
        except FrontendClosedError:
            for future in futures:
                if not future.cancel():
                    try:
                        future.result()
                    except Exception:
                        pass  # settled is all we need; the caller sees the close
            raise
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def _against_queue_wait(
        self, request: Mapping[str, Any], arrival: float
    ) -> Mapping[str, Any]:
        """Charge the time spent queued against the request's deadline.

        Delegates to the module-level :func:`charge_queue_wait` — one
        definition of queue-wait charging shared with the async frontend.
        """
        return charge_queue_wait(request, arrival, self._clock)

    def _serve(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """One request through fault injection and retry-with-backoff.

        The service's own ``handle_request`` already answers every failure
        as a document, so the only exceptions this loop sees escape
        *around* the service — injected crashes from the fault harness (or
        a genuine frontend bug).  Each attempt rolls fresh fault dice;
        exhausted retries become an ``error_kind: "internal"`` document,
        honouring the always-answer contract end to end.
        """
        last_error: Exception | None = None
        for attempt in range(self.retry.max_attempts):
            if attempt:
                self.stats._bump("retries")
                delay = self.retry.delay_before_retry(attempt - 1)
                if delay > 0:
                    self._sleep(delay)
            try:
                to_serve = request
                if self.faults is not None:
                    to_serve = self.faults.before_request(request)
                return self.service.handle_request(to_serve)
            except Exception as exc:
                last_error = exc
        return error_document(last_error)

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is self._STOP:
                return
            request, future, arrival = item
            if not future.set_running_or_notify_cancel():
                # Cancelled while queued (a caller cancelled the future
                # directly — close(drain=False)'s sweep counts the items it
                # pops itself and we never see those).  We are the only
                # consumer of this item, so counting here is exactly-once.
                self.stats._bump("cancelled")
                continue
            try:
                response = self._serve(self._against_queue_wait(request, arrival))
            except BaseException as exc:  # pragma: no cover - _serve answers
                # every Exception; this is belt-and-braces so a worker can
                # never die and silently shrink the pool...
                future.set_exception(exc)
                if not isinstance(exc, Exception):
                    # ...but KeyboardInterrupt / SystemExit must still
                    # unwind the thread, never be swallowed into a zombie
                    # worker that looks alive and serves nothing.
                    raise
                continue
            if self.deliver is not None:
                try:
                    self.deliver(request, response)
                except BaseException as exc:
                    self.stats._bump("delivery_failures")
                    future.set_exception(exc)
                    if not isinstance(exc, Exception):
                        raise
                    continue
            future.set_result(response)
            self.stats._bump("completed")
