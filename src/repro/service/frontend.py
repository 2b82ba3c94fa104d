"""The frontend core and its threaded transport: one worker pool, one serve step.

:class:`RoutingService` is thread-safe but passive — something must pump
requests into it.  :class:`FrontendCore` is that something, once: it owns
the worker pool (a stdlib :class:`~concurrent.futures.ThreadPoolExecutor`)
and its lifecycle, the :class:`FrontendStats` accounting, the clock, and
the one serve step every request goes through.  The two frontends are
transports over it: :class:`ThreadedFrontend` (here) hands callers a
:class:`~concurrent.futures.Future` per wire request document, and
:class:`~repro.service.scaleout.AsyncFrontend` hands them a coroutine and
a TCP listener.

What the pool buys under CPython's GIL is *overlap*, not parallel search:
while one worker waits on response delivery (the ``deliver`` hook — a
socket write in a real deployment), or inside native code that releases
the GIL, the others keep serving.  Cache hits — the dominant outcome on
production OD traffic — are near-free either way, so a small pool
sustains a large client count.  The service below it guarantees the rest:
per-slice read-write locks keep every answer snapshot-consistent with the
cost-table version it is tagged with, however many workers are in flight.

The core inherits the service's always-answer contract and hardens it
(:meth:`FrontendCore._serve`): whatever is submitted — a request that is
not even an object included — comes back as a document, and a request's
``deadline_ms`` is charged for its queue wait, so one that aged out in
the queue degrades immediately instead of burning a worker on a search it
cannot finish in time.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Iterable, Mapping
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Any

from ..scalars import require_integer, require_number
from .errors import FrontendClosedError, error_document
from .faults import FaultInjector, RetryPolicy
from .service import RoutingService
from .sync import Counters

__all__ = ["FrontendCore", "FrontendStats", "ThreadedFrontend", "charge_queue_wait"]


def charge_queue_wait(
    request: Mapping[str, Any],
    arrival: float,
    clock: Callable[[], float],
) -> Mapping[str, Any]:
    """Charge the time since ``arrival`` against the request's ``deadline_ms``.

    The client's deadline started ticking at submission, not when a worker
    finally picked the request up — so the service must receive the budget
    that is actually left.  The adjusted budget may be negative: the
    service treats an expired budget as a valid request that goes straight
    to the stale rung.  Only a deadline the service would accept is
    charged; anything else passes through untouched (a malformed one — not
    a number, too large for a float, or not even an object — fails
    validation at the service, as it would have anyway).
    """
    raw = request.get("deadline_ms") if isinstance(request, Mapping) else None
    if raw is None:
        return request
    try:
        deadline_ms = require_number(raw, "deadline_ms", finite=False)
    except ValueError:
        return request
    adjusted = dict(request)
    adjusted["deadline_ms"] = deadline_ms - (clock() - arrival) * 1000.0
    return adjusted


class FrontendStats(Counters):
    """One frontend's counters.  At quiescence ``submitted == completed +
    cancelled + delivery_failures``; no snapshot shows more outcomes than
    submissions."""

    FIELDS = ("submitted", "completed", "delivery_failures", "cancelled", "retries")


class FrontendCore:
    """The request pump both frontends stand on.

    Not a frontend by itself: a transport subclasses it, adds its own
    ``start`` / ``close`` / ``submit`` shapes (blocking or coroutine) and its
    own backpressure, and calls :meth:`_admit` → :meth:`_dispatch` →
    :meth:`_serve`.  The parameters are documented on
    :class:`ThreadedFrontend`, which exposes all of them.
    """

    def __init__(
        self,
        service: RoutingService,
        *,
        num_workers: int,
        max_pending: int,
        faults: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        clock: Callable[[], float] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.service = service
        self.num_workers = require_integer(
            num_workers, "num_workers must be a positive integer", low=1
        )
        self.max_pending = require_integer(
            max_pending, "max_pending must be a non-negative integer", low=0
        )
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
        self._pool: ThreadPoolExecutor | None = None
        self._state_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------

    def _open(self) -> bool:
        """Construct the pool; ``False`` when it is already running."""
        with self._state_lock:
            if self._closed:
                raise FrontendClosedError("frontend is closed and cannot restart")
            if self._pool is not None:
                return False
            self._pool = ThreadPoolExecutor(
                max_workers=self.num_workers, thread_name_prefix="routing-frontend"
            )
            return True

    def _stop_accepting(self) -> bool:
        """Begin close: from here the pool refuses every hand-off.  ``False``
        when there is nothing to shut down (closed already, never started)."""
        with self._state_lock:
            if self._closed:
                return False
            self._closed = True
            if self._pool is None:
                return False
            self._pool.shutdown(wait=False)
            return True

    def _join(self, drain: bool) -> None:
        """Finish close: serve (``drain``) or cancel what is queued, then
        wait for every worker to exit."""
        self._pool.shutdown(wait=True, cancel_futures=not drain)

    # ------------------------------------------------------------------
    # Intake and hand-off
    # ------------------------------------------------------------------

    def _admit(self) -> float:
        """Refuse unless running; count the submission and stamp its arrival."""
        if self._pool is None or self._closed:
            raise FrontendClosedError(
                "frontend is not accepting requests (start() it first; "
                "closed frontends stay closed)"
            )
        # Counted *before* the hand-off: the moment the pool has the request
        # a fast worker can complete it, and a stats snapshot taken in that
        # window must never show completed > submitted.
        self.stats._bump("submitted")
        return self._clock()

    def _dispatch(
        self,
        work: Callable[[Mapping[str, Any], float], dict[str, Any]],
        request: Mapping[str, Any],
        arrival: float,
    ) -> "Future[dict[str, Any]]":
        """Hand one admitted request to the pool.  If close() began since
        :meth:`_admit`, the executor settles the race atomically: the request
        either landed before shutdown (and will be served, or cancelled by
        ``close(drain=False)``) or is refused here — loudly, never as a
        forever-pending future."""
        try:
            return self._pool.submit(work, request, arrival)
        except RuntimeError:
            if not self._closed:
                raise  # not the shutdown refusal (e.g. no thread to start)
            raise FrontendClosedError(
                "frontend closed while the request was queued"
            ) from None

    def _serve(self, request: Mapping[str, Any], arrival: float) -> dict[str, Any]:
        """The serve step: one request through queue-wait charging, fault
        injection and retry-with-backoff, answered as a document.

        The service's own ``handle_request`` already answers every failure
        as a document, so the only exceptions this loop sees escape
        *around* the service — injected crashes from the fault harness (or
        a genuine frontend bug).  Each attempt is charged the wait since
        ``arrival`` and rolls fresh fault dice; exhausted retries become an
        ``error_kind: "internal"`` document, honouring the always-answer
        contract end to end.  ``KeyboardInterrupt`` / ``SystemExit`` are
        not ``Exception`` and pass through: an operator's ^C must never
        become an error document.
        """
        last_error: Exception | None = None
        for attempt in range(self.retry.max_attempts):
            if attempt:
                self.stats._bump("retries")
                delay = self.retry.delay_before_retry(attempt - 1)
                if delay > 0:
                    self._sleep(delay)
            try:
                to_serve = charge_queue_wait(request, arrival, self._clock)
                if self.faults is not None:
                    to_serve = self.faults.before_request(to_serve)
                return self.service.handle_request(to_serve)
            except Exception as exc:
                last_error = exc
        return error_document(last_error)


class ThreadedFrontend(FrontendCore):
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
        super().__init__(
            service,
            num_workers=num_workers,
            max_pending=max_pending,
            faults=faults,
            retry=retry,
            clock=clock,
            sleep=sleep,
        )
        self.deliver = deliver
        # Requests handed to the pool that no worker has picked up yet;
        # guarded by ``_room``, which only a bounded frontend ever touches.
        self._queued = 0
        self._room = threading.Condition() if self.max_pending else None

    def start(self) -> "ThreadedFrontend":
        """Start the worker pool (idempotent until :meth:`close`)."""
        self._open()
        return self

    def close(self, *, drain: bool = True) -> None:
        """Stop the pool.

        ``drain=True`` (default) serves everything already accepted, then
        stops.  ``drain=False`` cancels queued-but-unstarted requests
        (their futures report cancelled) and stops as soon as each worker
        finishes its current request.  Either way, :meth:`submit` rejects
        new work the moment close begins — a submitter blocked on
        backpressure included — and close is idempotent.
        """
        if not self._stop_accepting():
            return
        if self._room is not None:
            with self._room:
                self._room.notify_all()
        self._join(drain)

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
        arrival = self._admit()
        try:
            if self._room is not None:
                with self._room:
                    # close() wakes us too; the pool then refuses the hand-off.
                    while self._queued >= self.max_pending and not self._closed:
                        self._room.wait()
                    self._queued += 1
            future = self._dispatch(self._work, request, arrival)
        except FrontendClosedError:
            # Refused after it was counted: no worker will ever see it, so
            # the submission must not stay on the books.
            self.stats._bump("submitted", -1)
            raise
        future.add_done_callback(self._count_if_cancelled)
        return future

    def _count_if_cancelled(self, future: Future) -> None:
        # A cancelled future never reaches a worker, whoever cancelled it
        # (close(drain=False), or a caller holding the future).  The
        # executor settles run-or-cancel atomically, so this and the pickup
        # in _work see each request exactly once between them.
        if future.cancelled():
            self._left_queue()
            self.stats._bump("cancelled")

    def _left_queue(self) -> None:
        if self._room is not None:
            with self._room:  # one more request may queue
                self._queued -= 1
                self._room.notify()

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
            # Settled is all we need; the caller sees the close.
            wait([future for future in futures if not future.cancel()])
            raise
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def _work(self, request: Mapping[str, Any], arrival: float) -> dict[str, Any]:
        self._left_queue()
        response = self._serve(request, arrival)
        if self.deliver is not None:
            try:
                self.deliver(request, response)
            except BaseException:
                # The executor stores what we raise in this request's
                # future and the worker lives on.
                self.stats._bump("delivery_failures")
                raise
        self.stats._bump("completed")
        return response
