"""Server processes: spawn, wait for READY, talk on the control line, reap.

Every wait has a timeout and every process is reaped, also on
``KeyboardInterrupt``: ``Server`` is a context manager whose exit closes
the child's stdin (the server's own cue to stop), waits, and kills what
does not stop.
"""

from __future__ import annotations

import json
import os
import queue
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent

#: World build (hybrid training included) plus interpreter start.
READY_TIMEOUT_S = 120.0
#: The slowest control command is the oracle's cold searches.
COMMAND_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 10.0


class ServerError(RuntimeError):
    """The server process died, hung or answered nonsense."""


class Server:
    """One ``bench.server`` child process."""

    def __init__(self, world: str, cpu: int | None = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        self.world = world
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "bench.server", "--world", world],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        if cpu is not None:
            os.sched_setaffinity(self.process.pid, {cpu})
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()
        #: Seconds from spawn to the READY line; set by ``wait_ready``.
        self.ready_s: float | None = None
        self.info: dict[str, Any] = {}

    def _read_stdout(self) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _next_line(self, timeout: float) -> str:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise ServerError(
                f"{self.world} server silent for {timeout:.0f} s"
            ) from None
        if line is None:
            raise ServerError(
                f"{self.world} server exited with code {self.process.wait()}"
            )
        return line

    def wait_ready(self) -> dict[str, Any]:
        line = self._next_line(READY_TIMEOUT_S)
        if not line.startswith("READY "):
            raise ServerError(f"expected READY, got {line!r}")
        self.ready_s = time.perf_counter() - self.spawned
        self.info = json.loads(line[len("READY "):])
        return self.info

    @property
    def port(self) -> int:
        return self.info["port"]

    def command(self, document: dict[str, Any]) -> dict[str, Any]:
        assert self.process.stdin is not None
        try:
            self.process.stdin.write(json.dumps(document) + "\n")
            self.process.stdin.flush()
        except OSError as exc:
            raise ServerError(f"{self.world} server control line: {exc}") from exc
        reply = json.loads(self._next_line(COMMAND_TIMEOUT_S))
        if "error" in reply:
            raise ServerError(reply["error"])
        return reply

    def close(self) -> None:
        if self.process.poll() is None:
            try:
                assert self.process.stdin is not None
                self.process.stdin.close()
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
        self.process.wait()
        self._reader.join(timeout=STOP_TIMEOUT_S)
        assert self.process.stdout is not None
        self.process.stdout.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
