"""Scale-out serving: async frontend, demand tracking, cache warming.

Three pieces that turn one :class:`~repro.service.RoutingService` into a
frontend that holds up under production-shaped load:

* :class:`AsyncFrontend` — an asyncio frontend speaking the existing JSON
  wire protocol (newline-delimited JSON over TCP): fresh cache hits are
  answered on the event loop, searches on a thread-pool executor.  Thousands of
  idle client connections cost coroutines, not threads; the pool, the
  accounting and the serve step are the
  :class:`~repro.service.frontend.FrontendCore` it shares with
  :class:`~repro.service.frontend.ThreadedFrontend`.
* :class:`DemandMatrix` — a bounded top-K census of the OD pairs actually
  being served, buildable live from traffic (the frontend feeds it) or
  offline from a recorded workload.
* :class:`CacheWarmer` — replays the demand matrix's hottest pairs against
  the service after each cost hot-swap, so a version bump (which strands
  every cached answer by construction) does not crater the hit rate for
  the next thousand live requests.  Warming runs at background priority:
  one replay at a time, and an immediate abort when yet another version
  bump lands mid-warm.

Everything here *wires into* the existing stack — the service's
``handle_request`` contract, ``FrontendStats``, the coalescing and
degradation machinery — rather than standing beside it.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from ..routing import RoutingQuery
from ..scalars import require_integer
from .errors import (
    FrontendClosedError,
    decode_request,
    error_document,
)
from .frontend import FrontendCore
from .service import RoutingService
from .sync import Counters

__all__ = [
    "AsyncFrontend",
    "CacheWarmer",
    "DemandEntry",
    "DemandMatrix",
    "WarmerStats",
]


# ----------------------------------------------------------------------
# Demand tracking
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DemandEntry:
    """One observed request shape and how often it was served."""

    source: int
    target: int
    budget: int
    strategy: str
    slice_name: str | None
    count: int


class DemandMatrix:
    """A bounded, thread-safe census of served OD-pair demand.

    Keys are the *cacheable request shape* —
    ``(slice, strategy, source, target, budget)`` — which is exactly the
    cache key minus kwargs and version, so replaying a hot entry produces
    the cache entry live traffic will hit.  :attr:`MAX_PAIRS` bounds memory:
    at the cap, recording a new shape evicts the lowest-count one
    (ties broken against the most recently first-seen shape, so
    long-standing demand survives churn).

    Feed it live via :meth:`record_response` (the shape of a frontend
    deliver hook) or offline via :meth:`record`; read it via :meth:`top`.
    """

    #: The most request shapes the census tracks at once.
    MAX_PAIRS = 4096

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: key -> [count, first-seen sequence number]
        self._pairs: dict[tuple, list[int]] = {}
        self._seq = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._pairs)

    @property
    def total(self) -> int:
        """Total recordings across every tracked pair (evictions excluded)."""
        with self._lock:
            return sum(entry[0] for entry in self._pairs.values())

    def record(
        self,
        source: int,
        target: int,
        budget: int,
        *,
        strategy: str = "pbr",
        slice_name: str | None = None,
        count: int = 1,
    ) -> None:
        """Count one (or ``count``) served requests for a request shape."""
        count = require_integer(count, "count must be a positive integer", low=1)
        key = (slice_name, strategy, int(source), int(target), int(budget))
        with self._lock:
            entry = self._pairs.get(key)
            if entry is None:
                self._pairs[key] = [count, self._seq]
                self._seq += 1
                while len(self._pairs) > self.MAX_PAIRS:
                    coldest = min(
                        self._pairs,
                        key=lambda k: (self._pairs[k][0], -self._pairs[k][1]),
                    )
                    del self._pairs[coldest]
            else:
                entry[0] += count

    def record_response(
        self, request: Mapping[str, Any], response: Mapping[str, Any]
    ) -> None:
        """Record one served wire exchange (deliver-hook shaped).

        Only successful single-route responses count — demand is what the
        service actually served, so errors and batch/admin ops are
        ignored.  Requests carrying ``time_limit_seconds`` or strategy
        kwargs are skipped too: their cache keys differ from what a warm
        replay would produce, so warming them cannot help live traffic.
        """
        if not isinstance(request, Mapping) or not isinstance(response, Mapping):
            return
        if request.get("op") not in ("route", "route_at"):
            return
        if not response.get("ok") or response.get("kind") != "served":
            return
        if request.get("time_limit_seconds") is not None or request.get("kwargs"):
            return
        query = request.get("query")
        if not isinstance(query, Mapping):
            return
        try:
            self.record(
                int(query["source"]),
                int(query["target"]),
                int(query["budget"]),
                strategy=str(response.get("strategy", "pbr")),
                # The response names the slice route_at resolved to.
                slice_name=response.get("slice"),
            )
        except (KeyError, TypeError, ValueError):
            return  # malformed-but-ok document: not worth recording

    def top(self, k: int | None = None) -> list[DemandEntry]:
        """The hottest pairs, highest count first (ties: first seen first)."""
        with self._lock:
            ranked = sorted(
                self._pairs.items(), key=lambda item: (-item[1][0], item[1][1])
            )
        if k is not None:
            ranked = ranked[:k]
        return [
            DemandEntry(
                source=key[2],
                target=key[3],
                budget=key[4],
                strategy=key[1],
                slice_name=key[0],
                count=entry[0],
            )
            for key, entry in ranked
        ]


# ----------------------------------------------------------------------
# Demand-driven cache warming
# ----------------------------------------------------------------------


class WarmerStats(Counters):
    """Cumulative warmer counters (atomic snapshot via ``read``)."""

    FIELDS = ("runs", "warmed", "warm_hits", "warm_errors", "aborted")


class CacheWarmer:
    """Replay the hottest demand against the service after a hot-swap.

    A cost-version bump strands every cached answer for its slice, so the
    next request for each hot OD pair pays a full search at live-traffic
    latency.  The warmer pays those searches *off* the request path
    instead: :meth:`warm` replays the demand matrix's top ``TOP_K`` pairs
    through the ordinary :meth:`RoutingService.route` path (same cache,
    same coalescing — a live request arriving mid-warm simply coalesces
    onto the warm search).

    Background priority, by construction: the replays run one at a time
    on the calling thread, and the run aborts as soon as the slice's
    version moves again mid-warm — the freshly warmed entries would be
    stranded anyway, and the warm for the *new* version is about to be
    scheduled.

    Counters (:attr:`stats`): ``warmed`` replays that really searched,
    ``warm_hits`` replays that found the entry already present (live
    traffic beat us to it, or a previous warm did), ``warm_errors``
    replays that failed, ``aborted`` warms cut short by a version change.
    """

    #: How many of the hottest demand entries one warm replays.
    TOP_K = 256

    def __init__(self, service: RoutingService, demand: DemandMatrix) -> None:
        self.service = service
        self.demand = demand
        self.stats = WarmerStats()
        self._warm_lock = threading.Lock()  # one warm run at a time
        self._state_lock = threading.Lock()
        self._last_warmed: dict[str, int] = {}

    def notify_update(self, slice_name: str | None = None) -> bool:
        """Warm one slice iff its cost version moved since the last warm.

        The hook a frontend calls after applying a cost update; returns
        whether a warm actually ran.  Idempotent per version: replayed or
        duplicate notifications are no-ops.
        """
        name = self.service._resolve_slice(slice_name)
        current = self.service.cost_version(name)
        with self._state_lock:
            if self._last_warmed.get(name) == current:
                return False
        self.warm(slice_name=name)
        return True

    def warm(self, slice_name: str | None = None) -> int:
        """Replay the top-K demand for one slice; returns replays attempted.

        Entries recorded without an explicit slice belong to the service's
        default slice.  The slice's cost version is read once up front;
        if it moves mid-warm the run aborts (counted under ``aborted``) —
        the remaining replays would warm a version already stranded.
        """
        name = self.service._resolve_slice(slice_name)
        with self._warm_lock:
            target_version = self.service.cost_version(name)
            entries = [
                entry
                for entry in self.demand.top(self.TOP_K)
                if (
                    entry.slice_name
                    if entry.slice_name is not None
                    else self.service.default_slice
                )
                == name
            ]
            self.stats._bump("runs")
            attempted = 0
            aborted = False
            for entry in entries:
                if self.service.cost_version(name) != target_version:
                    aborted = True
                    break
                self._replay(entry, name, target_version)
                attempted += 1
            if aborted:
                self.stats._bump("aborted")
            else:
                with self._state_lock:
                    self._last_warmed[name] = target_version
            return attempted

    def _replay(self, entry: DemandEntry, name: str, target_version: int) -> None:
        try:
            served = self.service.route(
                RoutingQuery(entry.source, entry.target, entry.budget),
                strategy=entry.strategy,
                slice_name=name,
            )
        except Exception:
            self.stats._bump("warm_errors")
            return
        if served.cost_version != target_version:
            # A bump landed while this replay ran; the answer is tagged
            # with a version live lookups will never ask for again.
            self.stats._bump("warm_errors")
        elif served.cache_hit or served.coalesced:
            self.stats._bump("warm_hits")
        else:
            self.stats._bump("warmed")


# ----------------------------------------------------------------------
# Async frontend
# ----------------------------------------------------------------------


class AsyncFrontend(FrontendCore):
    """An asyncio frontend over one :class:`RoutingService`.

    The async transport over :class:`~repro.service.frontend.FrontendCore`
    (same pool, serve step and :class:`~repro.service.frontend.FrontendStats`
    as :class:`~repro.service.frontend.ThreadedFrontend`), built for
    connection scale: clients are coroutines (or TCP connections), and
    only the searches themselves occupy the ``num_workers`` executor
    threads.

    ``max_pending`` (0 = unbounded) bounds submitted-but-unfinished
    requests with an :class:`asyncio.Semaphore` — backpressure, not an
    error, like the threaded queue bound.

    Optional wiring: a :class:`DemandMatrix` (``demand``) is fed every
    served route, and a :class:`CacheWarmer` (``warmer``) is notified —
    off the request path, on a dedicated single-thread executor — after
    every successfully applied cost update, so hot-swaps arriving over
    the wire re-warm the cache automatically.

    With ``port`` given (0 = ephemeral), :meth:`start` also listens for
    newline-delimited JSON over TCP: one request per line, one response
    per line, responses in request order per connection while up to
    ``PIPELINE_DEPTH`` requests per connection execute concurrently.

    Use as an async context manager::

        async with AsyncFrontend(service, port=0) as frontend:
            response = await frontend.submit({"op": "stats"})
    """

    #: Requests one connection may have in flight before reading pauses.
    PIPELINE_DEPTH = 64

    def __init__(
        self,
        service: RoutingService,
        *,
        num_workers: int = 4,
        max_pending: int = 0,
        demand: DemandMatrix | None = None,
        warmer: CacheWarmer | None = None,
        clock: Callable[[], float] = time.monotonic,
        host: str = "127.0.0.1",
        port: int | None = None,
    ) -> None:
        super().__init__(
            service, num_workers=num_workers, max_pending=max_pending, clock=clock
        )
        self.demand = demand
        self.warmer = warmer
        self.host = host
        self.port = port
        self._warm_executor: ThreadPoolExecutor | None = None
        self._server: asyncio.AbstractServer | None = None
        #: The ``max_pending`` semaphore once started; unbounded until then.
        self._pending: Any = contextlib.nullcontext()
        self._background: set[asyncio.Future] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "AsyncFrontend":
        """Spin up the executor (and TCP listener, when ``port`` is set)."""
        if not self._open():
            return self
        if self.warmer is not None:
            # One thread: warms for successive updates run in arrival
            # order, never as a thundering herd of warm threads.
            self._warm_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="routing-warm"
            )
        if self.max_pending > 0:
            self._pending = asyncio.Semaphore(self.max_pending)
        if self.port is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port
            )
        return self

    async def close(self) -> None:
        """Stop accepting work, finish in-flight requests, release threads."""
        if not self._stop_accepting():
            return
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._background:
            await asyncio.gather(*list(self._background), return_exceptions=True)
        loop = asyncio.get_running_loop()
        warm_executor, self._warm_executor = self._warm_executor, None
        await loop.run_in_executor(None, self._join, True)
        if warm_executor is not None:
            await loop.run_in_executor(None, warm_executor.shutdown)

    async def __aenter__(self) -> "AsyncFrontend":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    @property
    def addresses(self) -> list[tuple]:
        """The (host, port) pairs the TCP listener is bound to."""
        if self._server is None:
            return []
        return [sock.getsockname()[:2] for sock in self._server.sockets]

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------

    async def submit(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """Serve one wire request document; returns its response document.

        The coroutine-shaped :meth:`ThreadedFrontend.submit`: it suspends
        (never blocks the loop) while the search runs on an executor
        thread, and applies ``max_pending`` backpressure by awaiting the
        semaphore.  Raises :class:`FrontendClosedError` when the frontend
        was never started or is closing.
        """
        arrival = self._admit()
        try:
            async with self._pending:
                response = await asyncio.wrap_future(
                    self._dispatch(self._serve, request, arrival)
                )
        except FrontendClosedError:
            # close() won the race while this request waited on the
            # ``max_pending`` semaphore: it was counted as submitted and will
            # never run, so it is a cancellation — the books must balance at
            # quiescence here exactly as they do on the threaded frontend.
            self.stats._bump("cancelled")
            raise
        if self.demand is not None:
            self.demand.record_response(request, response)
        self._maybe_schedule_warm(request, response)
        self.stats._bump("completed")
        return response

    def _maybe_schedule_warm(
        self, request: Mapping[str, Any], response: Mapping[str, Any]
    ) -> None:
        """After a successful wire cost update, kick the warmer (background)."""
        if (
            self.warmer is None
            or self._warm_executor is None
            or not response.get("ok")  # also: only an object can be answered ok
            or request.get("op") != "apply_update"
        ):
            return
        loop = asyncio.get_running_loop()
        task = loop.run_in_executor(
            self._warm_executor, self.warmer.notify_update, response.get("slice")
        )
        self._background.add(task)
        task.add_done_callback(self._background.discard)

    async def map_requests(
        self,
        requests: Iterable[Mapping[str, Any]],
        *,
        concurrency: int = 32,
    ) -> list[dict[str, Any]]:
        """Serve many requests concurrently; responses in input order.

        ``concurrency`` bounds how many are in flight at once (on top of
        any ``max_pending`` bound).  Like the threaded
        :meth:`~ThreadedFrontend.map_requests`, a close underfoot leaves
        nothing uncollected: every coroutine settles before the error
        propagates (``gather`` awaits them all).
        """
        gate = asyncio.Semaphore(
            require_integer(concurrency, "concurrency must be a positive integer", low=1)
        )

        async def one(request: Mapping[str, Any]) -> dict[str, Any]:
            async with gate:
                return await self.submit(request)

        results = await asyncio.gather(
            *(one(request) for request in list(requests)),
            return_exceptions=True,
        )
        for outcome in results:
            if isinstance(outcome, BaseException):
                raise outcome
        return list(results)

    # ------------------------------------------------------------------
    # Wire (newline-delimited JSON over TCP)
    # ------------------------------------------------------------------

    async def handle_line(self, line: str) -> str:
        """One JSON request line to one JSON response line.

        Response lines match :meth:`RoutingService.handle_json` exactly —
        the wire contract is the service's, whichever frontend speaks it.
        """
        answer = self._answer_inline(line)
        if isinstance(answer, str):
            return answer
        return await self._serve_line(answer)

    def _answer_inline(self, line: str) -> str | Mapping[str, Any]:
        """Decode ``line``: the response line for a parse failure or a fresh
        cache hit (:meth:`RoutingService.probe_hit`), answered on the calling
        loop thread, else the request for :meth:`_serve_line`.

        A hit is accounted as :meth:`submit` accounts a request, but takes
        no ``max_pending`` slot: it occupies no worker.  A closed frontend
        probes nothing, so :meth:`submit` refuses the request as any other.
        """
        try:
            request = decode_request(line)
        except (ValueError, TypeError) as exc:
            return json.dumps(error_document(exc))
        if self._pool is None or self._closed:
            return request
        hit = self.service.probe_hit(request)
        if hit is None:
            return request
        envelope, response_line = hit
        self._admit()
        if self.demand is not None:
            self.demand.record_response(request, envelope)
        self.stats._bump("completed")
        return response_line

    async def _serve_line(self, request: Mapping[str, Any]) -> str:
        """One decoded request through :meth:`submit`, as a response line."""
        try:
            response = await self.submit(request)
        except FrontendClosedError as exc:
            # A request that raced shutdown still gets an answer document
            # before its connection is torn down.
            response = error_document(exc)
        return json.dumps(response)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: pipelined requests, ordered responses.

        Each request line is decoded once, on arrival: a fresh cache hit is
        answered there and then (:meth:`_answer_inline`), anything else
        starts executing immediately (up to ``PIPELINE_DEPTH`` per
        connection).  A single writer coroutine awaits the responses in
        arrival order, so they line up with requests without any
        client-side correlation ids.
        """
        in_order: asyncio.Queue = asyncio.Queue(maxsize=self.PIPELINE_DEPTH)

        async def write_responses() -> None:
            while True:
                response = await in_order.get()
                if response is None:
                    return
                try:  # a line answered on arrival, or the task serving it
                    response_line = response if isinstance(response, str) else await response
                except Exception as exc:
                    response_line = json.dumps(error_document(exc))
                writer.write(response_line.encode("utf-8") + b"\n")
                await writer.drain()

        responder = asyncio.create_task(write_responses())
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                answer = self._answer_inline(text)
                if not isinstance(answer, str):
                    answer = asyncio.create_task(self._serve_line(answer))
                await in_order.put(answer)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; drain what we have and close
        finally:
            await in_order.put(None)
            try:
                await responder
            except (ConnectionResetError, BrokenPipeError):
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
