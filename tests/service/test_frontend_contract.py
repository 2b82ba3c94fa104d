"""One frontend contract, two transports.

:class:`ThreadedFrontend` and :class:`AsyncFrontend` are transports over
one :class:`~repro.service.frontend.FrontendCore`; whatever the core
promises must hold through either.  Every test here runs the same body
against both, through a small driver that gives the async transport the
threaded one's blocking shape (an event loop on a side thread).
"""

import asyncio
import threading
import time
from concurrent.futures import CancelledError

import pytest

from repro.core import ConvolutionModel, EdgeCostTable
from repro.network import grid_network
from repro.routing import RoutingQuery
from repro.service import (
    AsyncFrontend,
    FrontendClosedError,
    RoutingService,
    ThreadedFrontend,
)
from repro.trajectories import CongestionModel

QUERY = RoutingQuery(0, 24, 40)
WAIT = 30.0


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class GatedService:
    """Stub service: records what it is asked, holds the first request at a
    gate (pinning one worker) until released."""

    def __init__(self) -> None:
        self.seen = []
        self.entered = threading.Event()
        self.release = threading.Event()
        self._lock = threading.Lock()

    def handle_request(self, request):
        with self._lock:
            self.seen.append(request)
            first = len(self.seen) == 1
        if first:
            self.entered.set()
            assert self.release.wait(WAIT), "the gate was never released"
        return {"ok": True, "kind": "stub"}


class ThreadedDriver:
    def __init__(self, service, **options) -> None:
        self.frontend = ThreadedFrontend(service, **options)

    def start(self) -> None:
        self.frontend.start()

    def submit(self, request):
        """A future for the response; intake refusals raise here."""
        return self.frontend.submit(request)

    def map_requests(self, requests):
        return self.frontend.map_requests(requests)

    def close(self) -> None:
        self.frontend.close()

    def shutdown(self) -> None:
        self.close()


class AsyncDriver:
    def __init__(self, service, **options) -> None:
        self.frontend = AsyncFrontend(service, **options)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()

    def _run(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop)

    def start(self) -> None:
        self._run(self.frontend.start()).result(WAIT)

    def submit(self, request):
        # The coroutine refuses at intake, before its first suspension: one
        # trip around the loop surfaces that here, as the threaded submit does.
        future = self._run(self.frontend.submit(request))
        self._run(asyncio.sleep(0)).result(WAIT)
        if future.done() and isinstance(future.exception(), FrontendClosedError):
            raise future.exception()
        return future

    def map_requests(self, requests):
        return self._run(self.frontend.map_requests(requests)).result(WAIT)

    def close(self) -> None:
        self._run(self.frontend.close()).result(WAIT)

    def shutdown(self) -> None:
        self.close()
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(WAIT)
        assert not self.thread.is_alive()
        self.loop.close()


@pytest.fixture(scope="module")
def service():
    network = grid_network(5, 5, seed=2)
    model = CongestionModel(network, seed=3)
    costs = EdgeCostTable(network, resolution=5.0)
    for edge in network.edges:
        costs.set_cost(edge.id, model.edge_marginal(edge))
    return RoutingService(network, ConvolutionModel(costs))


@pytest.fixture(params=[ThreadedDriver, AsyncDriver], ids=["threaded", "async"])
def drive(request):
    drivers = []

    def make(service, **options):
        drivers.append(request.param(service, **options))
        return drivers[-1]

    yield make
    for driver in drivers:
        driver.shutdown()


def balanced(counts) -> bool:
    return counts["submitted"] == (
        counts["completed"] + counts["cancelled"] + counts["delivery_failures"]
    )


def settle(future):
    """The future's outcome, as a value: a response, or the close it lost to."""
    try:
        return future.result(WAIT)
    except (FrontendClosedError, CancelledError) as exc:
        return exc


def test_every_request_shape_is_answered_as_a_document(drive, service):
    service.route(QUERY)  # the stale store can now answer a spent deadline
    driver = drive(service, num_workers=2)
    driver.start()
    route = {"op": "route", "query": QUERY.to_dict()}
    shapes = {
        "valid": route,
        "unknown_op": {"op": "warp"},
        "non_object": [1, 2],
        "spent_deadline": {**route, "deadline_ms": -5.0},
    }
    answers = {
        name: driver.submit(request).result(WAIT) for name, request in shapes.items()
    }
    assert answers["valid"]["ok"] is True
    assert answers["spent_deadline"]["ok"] is True  # degraded, not dropped
    for name in ("unknown_op", "non_object"):
        assert answers[name]["ok"] is False
        assert answers[name]["error_kind"] == "bad_request"
    # A good request after the bad ones: the pool and the books survived.
    assert driver.submit({"op": "stats"}).result(WAIT)["ok"] is True
    driver.close()
    counts = driver.frontend.stats.read()
    assert counts["submitted"] == counts["completed"] == len(shapes) + 1
    assert balanced(counts)


@pytest.mark.parametrize("bad", [[1, 2], "route", 7, None])
def test_a_non_object_request_is_the_clients_mistake(service, bad):
    response = service.handle_request(bad)
    assert response["ok"] is False
    assert response["error_kind"] == "bad_request"


def test_queue_wait_is_charged_with_the_injected_clock(drive):
    stub, clock = GatedService(), FakeClock()
    driver = drive(stub, num_workers=1, clock=clock)
    driver.start()
    pin = driver.submit({"op": "stats"})
    assert stub.entered.wait(WAIT)  # the only worker is held at the gate
    aged = driver.submit({"op": "route", "deadline_ms": 50.0})
    plain = driver.submit({"op": "route"})
    clock.now = 10.0  # 10 s in the queue against a 50 ms budget
    stub.release.set()
    for future in (pin, aged, plain):
        assert future.result(WAIT)["ok"] is True
    driver.close()
    assert stub.seen[1]["deadline_ms"] == pytest.approx(50.0 - 10_000.0)
    assert stub.seen[2] == {"op": "route"}  # no deadline: nothing to charge


def test_a_deadline_too_large_for_a_float_is_not_charged_or_retried(drive, service):
    """Charging ``float(10**400)`` raised ``OverflowError`` inside the pump,
    which retried twice and answered ``internal``: an uncharged deadline
    passes through, and the service rejects it once."""
    driver = drive(service, num_workers=1)
    driver.start()
    request = {"op": "route", "query": QUERY.to_dict(), "deadline_ms": 10**400}
    response = driver.submit(request).result(WAIT)
    driver.close()
    assert response["ok"] is False
    assert response["error_kind"] == "bad_request"
    assert driver.frontend.stats.read()["retries"] == 0


def test_submit_before_start_and_after_close_is_refused(drive, service):
    driver = drive(service, num_workers=1)
    with pytest.raises(FrontendClosedError, match="start"):
        driver.submit({"op": "stats"})
    driver.start()
    assert driver.submit({"op": "stats"}).result(WAIT)["ok"] is True
    driver.close()
    with pytest.raises(FrontendClosedError, match="closed"):
        driver.submit({"op": "stats"})
    driver.close()  # idempotent
    counts = driver.frontend.stats.read()
    assert counts["submitted"] == counts["completed"] == 1


def test_books_balance_after_close_races_a_burst(drive):
    """``max_pending=1`` and one held worker: the burst is queued, parked on
    backpressure or mid-intake when close() begins.  However each request
    ends — served, cancelled, refused — it is on the books exactly once."""
    stub = GatedService()
    driver = drive(stub, num_workers=1, max_pending=1)
    driver.start()
    outcomes, lock = [], threading.Lock()

    def submitter():
        for _ in range(6):
            try:
                outcome = settle(driver.submit({"op": "stats"}))
            except FrontendClosedError as exc:
                outcome = exc
            with lock:
                outcomes.append(outcome)

    threads = [threading.Thread(target=submitter) for _ in range(4)]
    for thread in threads:
        thread.start()
    assert stub.entered.wait(WAIT)
    closer = threading.Thread(target=driver.close)
    closer.start()
    time.sleep(0.05)  # close() has begun (it now waits on the held worker)
    stub.release.set()
    for thread in (*threads, closer):
        thread.join(WAIT)
        assert not thread.is_alive()
    counts = driver.frontend.stats.read()
    assert balanced(counts), counts
    served = [o for o in outcomes if isinstance(o, dict)]
    assert len(outcomes) == 24 and len(served) == counts["completed"] >= 1
    assert len(served) < 24  # the close really raced the burst


def test_map_requests_leaves_nothing_uncollected_on_close(drive):
    stub = GatedService()
    driver = drive(stub, num_workers=1, max_pending=1)
    driver.start()
    outcome = {}

    def mapper():
        try:
            outcome["responses"] = driver.map_requests([{"op": "stats"}] * 6)
        except FrontendClosedError as exc:
            outcome["raised"] = exc

    mapping = threading.Thread(target=mapper)
    mapping.start()
    assert stub.entered.wait(WAIT)
    closer = threading.Thread(target=driver.close)
    closer.start()
    time.sleep(0.05)  # close() has begun (it now waits on the held worker)
    stub.release.set()
    for thread in (mapping, closer):
        thread.join(WAIT)
        assert not thread.is_alive()
    assert isinstance(outcome.get("raised"), FrontendClosedError)
    # By the time the error reached the caller nothing was still in flight:
    # every request map_requests got in is accounted for, none pending.
    counts = driver.frontend.stats.read()
    assert balanced(counts), counts
    assert len(stub.seen) == counts["completed"] < 6
