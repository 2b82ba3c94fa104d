"""Fault injection and failure-containment primitives for the serving stack.

Production resilience claims are worthless untested, and the failures that
matter — a worker crashing mid-request, a search stalling, a poisoned feed
document, a skewed clock — almost never happen on a developer laptop.
:class:`FaultInjector` manufactures them *deterministically*: every
decision is a pure function of ``(seed, request index)``, so a CI stress
run that fails replays byte-for-byte and a passing run certifies the same
schedule every time.

Two containment primitives live here because the injector is how they are
tested:

* :class:`RetryPolicy` — bounded retry with multiplicative backoff, used
  by :class:`~repro.service.frontend.ThreadedFrontend` around each request
  so one transient fault does not surface to the client;
* :class:`CircuitBreaker` — a per-strategy breaker the service trips on
  consecutive deadline misses, so one pathological OD pair or a degraded
  strategy stops consuming worker time and the degradation ladder serves
  its fallbacks immediately.  States: ``closed`` (normal), ``open``
  (fast-fail until the cooldown elapses), ``half_open`` (one probe request
  is let through; success closes the breaker, failure re-opens it).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..scalars import require_integer, require_number

__all__ = ["CircuitBreaker", "FaultInjector", "InjectedFault", "RetryPolicy"]


class InjectedFault(RuntimeError):
    """A deliberately injected failure (never raised by real serving code).

    Distinct type so tests and retry loops can tell manufactured crashes
    from genuine bugs: a real serving path must never raise this.
    """


def _check_rate(value: Any, name: str) -> float:
    return require_number(
        value, f"{name} must be a probability in [0, 1]", low=0.0, high=1.0
    )


#: Each retry waits this many times longer than the one before.
BACKOFF_MULTIPLIER = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with multiplicative backoff.

    ``max_attempts`` counts the first try: ``3`` means one try plus up to
    two retries.  The n-th retry sleeps ``backoff_seconds * 2**n`` (n = 0
    for the first retry); ``backoff_seconds=0`` retries immediately, which
    is what deterministic tests use.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.05

    def __post_init__(self) -> None:
        max_attempts = require_integer(
            self.max_attempts, "max_attempts must be a positive integer", low=1
        )
        backoff_seconds = require_number(
            self.backoff_seconds,
            "backoff_seconds must be a non-negative finite number",
            low=0,
        )
        object.__setattr__(self, "max_attempts", max_attempts)
        object.__setattr__(self, "backoff_seconds", backoff_seconds)

    def delay_before_retry(self, retry_index: int) -> float:
        """Seconds to sleep before retry number ``retry_index`` (0-based)."""
        return self.backoff_seconds * (BACKOFF_MULTIPLIER**retry_index)


class CircuitBreaker:
    """A thread-safe three-state circuit breaker keyed on failure streaks.

    ``record_failure`` on ``FAILURE_THRESHOLD`` *consecutive* failures
    trips the breaker open; :meth:`allow` then fast-fails every caller
    until ``COOLDOWN_SECONDS`` elapse on ``clock``, after which exactly one
    probe is admitted (``half_open``).  The probe's ``record_success``
    closes the breaker; its ``record_failure`` re-opens it for another
    cooldown; :meth:`release_probe` frees its slot without a verdict.
    ``clock`` is injectable so breaker tests are deterministic.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"
    FAILURE_THRESHOLD = 5
    COOLDOWN_SECONDS = 1.0

    def __init__(self, *, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self._trips = 0

    @property
    def state(self) -> str:
        """``closed`` / ``open`` / ``half_open`` (cooldown-aware)."""
        with self._lock:
            if (
                self._state == self.OPEN
                and self._clock() - self._opened_at >= self.COOLDOWN_SECONDS
            ):
                return self.HALF_OPEN  # a probe would be admitted now
            return self._state

    @property
    def trips(self) -> int:
        """How many times the breaker transitioned to ``open`` (cumulative)."""
        with self._lock:
            return self._trips

    def allow(self) -> bool:
        """Whether a request may run the protected operation right now.

        In ``half_open`` exactly one caller wins the probe slot; everyone
        else keeps fast-failing until the probe reports back.
        """
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if (
                self._state == self.OPEN
                and self._clock() - self._opened_at >= self.COOLDOWN_SECONDS
            ):
                self._state = self.HALF_OPEN
                self._probe_in_flight = False
            if self._state == self.HALF_OPEN and not self._probe_in_flight:
                self._probe_in_flight = True
                return True
            return False

    def release_probe(self) -> None:
        """The probe ended without a verdict: the next caller may probe."""
        with self._lock:
            if self._state == self.HALF_OPEN:
                self._probe_in_flight = False

    def record_success(self) -> None:
        """The protected operation succeeded: close and reset the streak."""
        with self._lock:
            self._state = self.CLOSED
            self._consecutive_failures = 0
            self._probe_in_flight = False

    def record_failure(self) -> None:
        """The protected operation failed: extend the streak, maybe trip."""
        with self._lock:
            if self._state == self.HALF_OPEN:
                # The probe failed: straight back to open, a fresh cooldown.
                self._state = self.OPEN
                self._opened_at = self._clock()
                self._probe_in_flight = False
                self._trips += 1
                return
            self._consecutive_failures += 1
            if (
                self._state == self.CLOSED
                and self._consecutive_failures >= self.FAILURE_THRESHOLD
            ):
                self._state = self.OPEN
                self._opened_at = self._clock()
                self._trips += 1


class FaultInjector:
    """Deterministic, seeded fault injection for the serving stack.

    Wire a ``FaultInjector`` into a
    :class:`~repro.service.frontend.ThreadedFrontend` (``faults=``) and it
    intercepts every request before the service sees it:

    * with probability ``slow_rate`` the worker stalls ``slow_seconds``
      (via the injectable ``sleep``) — a slow search / GC pause / packet
      loss stand-in;
    * with probability ``crash_rate`` the request raises
      :class:`InjectedFault` — a crashed worker (the frontend's retry
      policy and error documents contain it);
    * with probability ``poison_rate`` an ``apply_update`` document gets
      its first histogram's mass corrupted — the service must reject it at
      the trust boundary with the cost table untouched.

    ``clock_skew_seconds`` offsets :meth:`now` against the base ``clock``
    so deadline arithmetic can be tested under a skewed clock.  Every
    random decision derives from ``(seed, request index)`` — two injectors
    with the same seed replay the same fault schedule, and the per-request
    index is atomic so a threaded pool stays deterministic in aggregate.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        crash_rate: float = 0.0,
        slow_rate: float = 0.0,
        slow_seconds: float = 0.05,
        poison_rate: float = 0.0,
        clock_skew_seconds: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.seed = int(seed)
        self.crash_rate = _check_rate(crash_rate, "crash_rate")
        self.slow_rate = _check_rate(slow_rate, "slow_rate")
        self.poison_rate = _check_rate(poison_rate, "poison_rate")
        self.slow_seconds = require_number(
            slow_seconds, "slow_seconds must be a non-negative finite number", low=0
        )
        self.clock_skew_seconds = require_number(
            clock_skew_seconds, "clock_skew_seconds must be a finite number"
        )
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._index = 0
        self._injected_crashes = 0
        self._injected_stalls = 0
        self._injected_poisons = 0

    def now(self) -> float:
        """The (possibly skewed) clock the stack under test should read."""
        return self._clock() + self.clock_skew_seconds

    def before_request(self, request: Mapping[str, Any]) -> Mapping[str, Any]:
        """Intercept one request: maybe stall, crash, or poison it.

        Returns the request to actually serve (poisoned or verbatim).
        Each call consumes one request index, so a retried request rolls
        fresh dice — transient faults really are transient.
        """
        with self._lock:
            index = self._index
            self._index += 1
        rng = random.Random(f"{self.seed}:{index}")
        # Fixed draw order keeps the schedule stable even when a rate is 0.
        slow_draw = rng.random()
        crash_draw = rng.random()
        poison_draw = rng.random()
        if slow_draw < self.slow_rate:
            with self._lock:
                self._injected_stalls += 1
            self._sleep(self.slow_seconds)
        if crash_draw < self.crash_rate:
            with self._lock:
                self._injected_crashes += 1
            raise InjectedFault(f"injected worker crash (request index {index})")
        if poison_draw < self.poison_rate and request.get("op") == "apply_update":
            poisoned = self._poison(request)
            if poisoned is not request:
                with self._lock:
                    self._injected_poisons += 1
                return poisoned
        return request

    def _poison(self, request: Mapping[str, Any]) -> Mapping[str, Any]:
        """A copy of an ``apply_update`` request with one histogram corrupted.

        Halving the first edge's probabilities breaks the unit-mass
        invariant that :meth:`CostUpdate.from_dict` enforces at the trust
        boundary — exactly the malformed-feed event the service must
        reject without touching the live table.  The original request
        object is never mutated.
        """
        update = request.get("update")
        if not isinstance(update, Mapping):
            return request
        costs = update.get("costs")
        if not isinstance(costs, Mapping) or not costs:
            return request
        edge_key = sorted(costs)[0]
        payload = costs[edge_key]
        if not isinstance(payload, Mapping):
            return request
        corrupted = {
            **payload,
            "probs": [0.5 * float(p) for p in payload.get("probs", [])],
        }
        return {
            **request,
            "update": {**update, "costs": {**costs, edge_key: corrupted}},
        }

    def counters(self) -> dict[str, int]:
        """One atomic snapshot of what was injected so far."""
        with self._lock:
            return {
                "requests_seen": self._index,
                "injected_crashes": self._injected_crashes,
                "injected_stalls": self._injected_stalls,
                "injected_poisons": self._injected_poisons,
            }
