"""Percentiles that own up to thin samples; an open loop that times from due."""

import pytest

from bench import loadgen


def test_percentile_needs_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 201)]
    assert loadgen.supported_percentile(values, 95) == 190.0  # 10 beyond
    assert loadgen.supported_percentile(values[:199], 95) is None  # 9 beyond
    assert loadgen.supported_percentile(values, 99) is None
    thousand = [float(i) for i in range(1, 1001)]
    assert loadgen.supported_percentile(thousand, 99) == 990.0
    assert loadgen.supported_percentile(thousand[:999], 99) is None


def test_round_throughputs_are_equal_count_rounds():
    # 10 completions: one every 0.1 s, then one every 0.2 s.
    completions = [0.1 * k for k in range(1, 6)] + [0.5 + 0.2 * k for k in range(1, 6)]
    rates = loadgen.round_throughputs(completions, begin=0.0, rounds=2)
    assert rates == pytest.approx([10.0, 5.0])
    assert loadgen.round_throughputs(completions[:1], begin=0.0, rounds=5) == []


def test_closed_loop_fails_the_requests_of_a_server_that_never_answers(monkeypatch):
    import socket
    import threading

    monkeypatch.setattr(loadgen, "READ_TIMEOUT_S", 0.3)
    listener = socket.create_server(("127.0.0.1", 0))
    held = []
    accept = threading.Thread(
        target=lambda: held.append(listener.accept()[0]), daemon=True
    )
    accept.start()
    try:
        exchanges, _ = loadgen.run_closed_loop(
            listener.getsockname()[1], [b"a\n", b"b\n", b"c\n"],
            connections=1, window=2, seconds=5.0,
        )
    finally:
        accept.join(2)
        for conn in held:
            conn.close()
        listener.close()
    # Two were sent before the reader timed out; none was answered.
    assert len(exchanges) == 2
    assert all(e.done is None and not loadgen.is_ok(e.response) for e in exchanges)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class FakeChannel:
    """Answers in order; each answer is ready ``service`` seconds after the
    previous answer or its own send, whichever is later.  A send costs the
    generator ``send_cost`` seconds."""

    def __init__(self, clock, service, send_cost=0.0):
        self.clock, self.service, self.send_cost = clock, service, send_cost
        self.ready = []
        self.free_at = 0.0

    def send(self, line):
        self.clock.now += self.send_cost
        self.free_at = max(self.free_at, self.clock.now) + self.service
        self.ready.append((self.free_at, b"answer to " + line))

    def receive(self):
        out = [line for at, line in self.ready if at <= self.clock.now]
        self.ready = self.ready[len(out):]
        return out


def _wait_on(clock, channels):
    def wait(timeout):
        pending = [at for ch in channels for at, _ in ch.ready]
        wake = clock.now + timeout
        if pending and min(pending) < wake:
            wake = max(clock.now, min(pending))
        clock.now = wake
        return [i for i, ch in enumerate(channels)
                if any(at <= clock.now for at, _ in ch.ready)]
    return wait


def test_open_loop_times_from_due_time_through_a_stall():
    clock = FakeClock()
    channel = FakeChannel(clock, service=0.25)  # 4 rps server, 10 rps offered
    schedule = [(0.1 * k, 0, b"r%d\n" % k) for k in range(4)]
    exchanges, begin = loadgen.run_open_loop(
        [channel], schedule, clock=clock, wait=_wait_on(clock, [channel])
    )
    assert begin == 100.0
    assert [e.start - begin for e in exchanges] == pytest.approx([0.0, 0.1, 0.2, 0.3])
    # Sent on time regardless of the backlog ...
    assert [e.sent - e.start for e in exchanges] == pytest.approx([0.0] * 4)
    # ... and charged for the queue it stood in: k-th answer at 0.25 * (k + 1).
    assert [e.latency_ms for e in exchanges] == pytest.approx([250.0, 400.0, 550.0, 700.0])
    assert [e.response for e in exchanges] == [b"answer to r%d\n" % k for k in range(4)]


def test_open_loop_reports_generator_lateness_but_still_times_from_due():
    clock = FakeClock()
    channel = FakeChannel(clock, service=0.0, send_cost=0.03)
    schedule = [(0.0, 0, b"a\n"), (0.01, 0, b"b\n"), (0.02, 0, b"c\n")]
    exchanges, begin = loadgen.run_open_loop(
        [channel], schedule, clock=clock, wait=_wait_on(clock, [channel])
    )
    lateness = [e.sent - e.start for e in exchanges]
    assert lateness[0] == pytest.approx(0.0)
    assert lateness[1] == pytest.approx(0.02)  # due at 0.01, generator free at 0.03
    assert lateness[2] == pytest.approx(0.04)
    for e in exchanges:
        assert e.latency_ms == pytest.approx((e.done - e.start) * 1e3)
        assert e.done - e.start >= e.sent - e.start


def test_open_loop_gives_up_on_a_hung_server():
    clock = FakeClock()
    channel = FakeChannel(clock, service=1e9)
    exchanges, _ = loadgen.run_open_loop(
        [channel], [(0.0, 0, b"a\n"), (0.5, 0, b"b\n")],
        clock=clock, wait=_wait_on(clock, [channel]), read_timeout=2.0,
    )
    assert len(exchanges) == 2
    assert all(e.done is None and e.response is None for e in exchanges)
    assert not loadgen.is_ok(exchanges[0].response)
