"""Load generation over the TCP wire, and the statistics of what came back.

Two loops.  The *closed* loop holds a fixed number of requests outstanding
per connection and sends the next only when an answer arrives, so latency
runs from send to the full response line.  The *open* loop sends on a fixed
schedule whatever the server does, from one single-threaded ``select`` loop,
and times every request from the moment it was *due*: a stalled server is
charged for the wait it imposes on the requests queued behind the stall.

Every socket read has a timeout.  A server that hangs fails the requests
still outstanding (and the ones never sent) instead of hanging the run.
"""

from __future__ import annotations

import math
import select
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

#: Longest wait for any one response line before the connection is failed.
READ_TIMEOUT_S = 20.0

ROUNDS = 5
TAIL_MIN_BEYOND = 10


@dataclass
class Exchange:
    """One request's fate.  Times are ``time.perf_counter`` seconds."""

    index: int
    #: When latency starts: the send (closed loop) or the due time (open).
    start: float
    sent: float
    #: ``None`` when no response line arrived (timeout, reset, never sent).
    done: float | None = None
    response: bytes | None = None
    request: bytes = b""

    @property
    def latency_ms(self) -> float:
        assert self.done is not None
        return (self.done - self.start) * 1e3


def is_ok(response: bytes | None) -> bool:
    """Whether a response line is an ``ok: true`` document.

    Every wire document is written by ``json.dumps`` from a dict whose
    first key is ``ok``, so the prefix decides without parsing 1-2 kB of
    path per response inside the measured window.
    """
    return response is not None and response.startswith(b'{"ok": true')


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of an ascending sequence."""
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_percentile(values: Sequence[float], q: float) -> float | None:
    """The ``q``-th percentile, or ``None`` with under ten samples above it.

    A percentile that only a handful of samples lie beyond is an order
    statistic of noise; p95 therefore needs 200 samples and p99 1,000.
    """
    if len(values) * (1 - q / 100.0) < TAIL_MIN_BEYOND:
        return None
    return percentile(sorted(values), q)


def round_throughputs(
    completions: Sequence[float], begin: float, rounds: int = ROUNDS
) -> list[float]:
    """Requests per second in each of ``rounds`` equal-count rounds.

    ``completions`` are the finish times of the good responses.  Rounds
    hold equal request counts rather than equal seconds, so a round's rate
    is a continuous quantity even when it holds a dozen requests.
    """
    ordered = sorted(completions)
    size = len(ordered) // rounds
    if size == 0:
        return []
    rates = []
    for k in range(rounds):
        end = ordered[(k + 1) * size - 1]
        rates.append(size / (end - begin))
        begin = end
    return rates


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------


def connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=READ_TIMEOUT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _closed_connection(
    sock: socket.socket,
    items: Sequence[tuple[int, bytes]],
    window: int,
    deadline: float | None,
    out: list[Exchange],
) -> None:
    """Drive one connection: ``window`` outstanding, until deadline or end."""
    reader = sock.makefile("rb")
    outstanding: deque[Exchange] = deque()
    position = 0
    try:
        while True:
            while (
                position < len(items)
                and len(outstanding) < window
                and (deadline is None or time.perf_counter() < deadline)
            ):
                index, line = items[position]
                position += 1
                now = time.perf_counter()
                exchange = Exchange(index=index, start=now, sent=now, request=line)
                outstanding.append(exchange)
                out.append(exchange)
                sock.sendall(line)
            if not outstanding:
                return
            response = reader.readline()
            if not response:
                return  # server closed: the outstanding stay unanswered
            exchange = outstanding.popleft()
            exchange.done = time.perf_counter()
            exchange.response = response
    except OSError:
        return  # timeout or reset: the outstanding stay unanswered
    finally:
        reader.close()


def run_closed_loop(
    port: int,
    lines: Sequence[bytes],
    *,
    connections: int,
    window: int,
    seconds: float | None,
) -> tuple[list[Exchange], float]:
    """Send ``lines`` closed-loop; returns the exchanges and the begin time.

    Request ``i`` goes down connection ``i % connections``, one thread per
    connection.  With ``seconds`` the loop stops *sending* at the deadline
    and drains what is outstanding; without, it sends every line.
    """
    socks = [connect(port) for _ in range(connections)]
    outs: list[list[Exchange]] = [[] for _ in socks]
    begin = time.perf_counter()
    deadline = None if seconds is None else begin + seconds
    threads = [
        threading.Thread(
            target=_closed_connection,
            args=(
                sock,
                [(i, lines[i]) for i in range(c, len(lines), connections)],
                window,
                deadline,
                out,
            ),
        )
        for c, (sock, out) in enumerate(zip(socks, outs))
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for sock in socks:
            sock.close()
    exchanges = sorted((e for out in outs for e in out), key=lambda e: e.index)
    return exchanges, begin


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------


class Channel(Protocol):
    """What the open loop needs of a connection (a fake one in the tests)."""

    def send(self, line: bytes) -> None: ...

    def receive(self) -> list[bytes]:
        """Complete response lines that have arrived, possibly none.

        Raises ``OSError`` once the peer has gone away.
        """
        ...


class SocketChannel:
    """A non-blocking socket that yields whole lines."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        sock.setblocking(False)
        self._pending = b""
        self._unsent = b""

    def fileno(self) -> int:
        return self.sock.fileno()

    def send(self, line: bytes) -> None:
        self._unsent += line
        self.flush()

    def flush(self) -> None:
        while self._unsent:
            try:
                written = self.sock.send(self._unsent)
            except BlockingIOError:
                return
            self._unsent = self._unsent[written:]

    def receive(self) -> list[bytes]:
        try:
            chunk = self.sock.recv(1 << 16)
        except BlockingIOError:
            return []
        if not chunk:
            raise ConnectionError("server closed the connection")
        *lines, self._pending = (self._pending + chunk).split(b"\n")
        return [line + b"\n" for line in lines]


def run_open_loop(
    channels: Sequence[Channel],
    schedule: Sequence[tuple[float, int, bytes]],
    *,
    clock: Callable[[], float],
    wait: Callable[[float], Sequence[int]],
    read_timeout: float = READ_TIMEOUT_S,
) -> tuple[list[Exchange], float]:
    """Send ``schedule`` on time; returns the exchanges and the begin time.

    ``schedule`` holds ``(due offset in seconds, channel index, line)`` in
    due order.  ``wait(timeout)`` blocks up to ``timeout`` seconds and
    returns the indexes of channels with data to read.  Responses on a
    channel arrive in request order, so they pair off first-in first-out.
    A request's latency starts at its due time, not at its (possibly late)
    send; ``sent - start`` is the generator's lateness.
    """
    begin = clock()
    outstanding: list[deque[Exchange]] = [deque() for _ in channels]
    exchanges: list[Exchange] = []
    position = 0
    try:
        while position < len(schedule) or any(outstanding):
            now = clock()
            while position < len(schedule) and begin + schedule[position][0] <= now:
                offset, channel, line = schedule[position]
                exchange = Exchange(
                    index=position, start=begin + offset, sent=clock(), request=line
                )
                outstanding[channel].append(exchange)
                exchanges.append(exchange)
                position += 1
                channels[channel].send(line)
            oldest = min(
                (queue[0].sent for queue in outstanding if queue), default=None
            )
            if oldest is not None and clock() - oldest > read_timeout:
                break  # hung server: what is outstanding stays unanswered
            if position < len(schedule):
                timeout = max(0.0, begin + schedule[position][0] - clock())
            else:
                timeout = read_timeout
            for channel in wait(timeout):
                for response in channels[channel].receive():
                    exchange = outstanding[channel].popleft()
                    exchange.done = clock()
                    exchange.response = response
    except OSError:
        pass  # server went away: what is outstanding stays unanswered
    return exchanges, begin


def run_open_loop_tcp(
    port: int, schedule: Sequence[tuple[float, int, bytes]], *, connections: int
) -> tuple[list[Exchange], float]:
    socks = [connect(port) for _ in range(connections)]
    channels = [SocketChannel(sock) for sock in socks]

    def wait(timeout: float) -> list[int]:
        writers = [c for c in channels if c._unsent]
        readable, writable, _ = select.select(channels, writers, [], timeout)
        for channel in writable:
            channel.flush()
        return [channels.index(c) for c in readable]

    try:
        return run_open_loop(
            channels, schedule, clock=time.perf_counter, wait=wait
        )
    finally:
        for sock in socks:
            sock.close()
