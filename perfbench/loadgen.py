"""HTTP load generator: gateway processes and the lanes that drive them.

One thread drives at most ``spec.LANES`` connections ("lanes") with a
``select`` loop.  The gateway answers one request per connection, so a
lane opens a connection per request and reads until the server closes
it.  Raw response bytes are kept and decoded after the timed window.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from perfbench import spec


# With two CPUs or more, the load generator (and the grow-and-serve
# publisher it starts) keeps the first to itself and the gateway gets the
# second, so the scheduler never moves one onto the other's core
# mid-request.  One CPU each, on any machine: numpy's BLAS pool is sized
# by the CPUs a process may use when numpy loads, and the related-entity
# scores differ in the last bits with that size, so the gateway and the
# in-process reference its answers are checked against must match.
# Read once at import, before run.py pins the generator.
_CPUS = sorted(os.sched_getaffinity(0))
GENERATOR_CPUS = {_CPUS[0]}
SERVER_CPUS = {_CPUS[1]} if len(_CPUS) > 1 else GENERATOR_CPUS


class GatewayError(RuntimeError):
    """The gateway process failed to start or answer."""


class Gateway:
    """One gateway server process, its port and its log."""

    def __init__(self, argv: list[str], log_path: Path, root: Path) -> None:
        self.log_path = log_path
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self._log = open(log_path, "wb")
        self.launched_ns = time.perf_counter_ns()
        self.process = subprocess.Popen(
            [sys.executable, *argv],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        try:
            os.sched_setaffinity(self.process.pid, SERVER_CPUS)
        except ProcessLookupError:
            pass  # it died at once; _wait_for_port reports its log
        self.port = self._wait_for_port()

    def _wait_for_port(self, timeout_s: float = 120.0) -> int:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            for line in self.log_path.read_bytes().splitlines():
                if b'"server.started"' in line:
                    return int(json.loads(line)["port"])
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        tail = self.log_path.read_text(errors="replace")[-2000:]
        raise GatewayError(f"gateway did not start:\n{tail}")

    def peak_rss_mb(self) -> float:
        """Peak resident set size (VmHWM) of the server process, in MB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise GatewayError("VmHWM missing from /proc status")

    def cpu_s(self) -> float:
        """User plus system CPU seconds the server process has used so far."""
        fields = Path(f"/proc/{self.process.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> int:
        """SIGINT (the gateway's clean shutdown), then wait; kill if stuck."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()
        return self.process.returncode

    def post(self, body: bytes) -> tuple[int, bytes]:
        return exchange(self.port, body)

    def get_json(self, path: str) -> dict:
        status, body = exchange(self.port, None, path=path)
        if status != 200:
            raise GatewayError(f"GET {path} answered {status}")
        return json.loads(body)


def _request_bytes(body: bytes | None, path: str) -> bytes:
    if body is None:
        return f"GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n".encode("latin-1")
    head = (
        f"POST {path} HTTP/1.1\r\nHost: perfbench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def _split(raw: bytes) -> tuple[int, bytes]:
    head, _, body = raw.partition(b"\r\n\r\n")
    try:
        return int(head.split(b" ", 2)[1]), body
    except (IndexError, ValueError):
        return 0, body


def exchange(port: int, body: bytes | None, path: str = "/v1/query") -> tuple[int, bytes]:
    """One blocking request on a fresh connection: ``(http status, body)``."""
    with socket.create_connection(("127.0.0.1", port), timeout=120) as sock:
        sock.sendall(_request_bytes(body, path))
        chunks = []
        while True:
            chunk = sock.recv(1 << 18)
            if not chunk:
                break
            chunks.append(chunk)
    return _split(b"".join(chunks))


@dataclass
class Sample:
    """One timed request: when it was due, sent and answered."""

    op: object
    lane: int
    due_ns: int
    send_ns: int = 0
    done_ns: int = 0
    # send_ns minus the later of due time and the lane's last completion:
    # how late the generator itself was, not the wait for a busy lane.
    late_ns: int = 0
    status: int = 0
    body: bytes = b""
    error: str | None = None


@dataclass
class _Lane:
    index: int
    queue: deque = field(default_factory=deque)
    sock: socket.socket | None = None
    sample: Sample | None = None
    chunks: list = field(default_factory=list)
    free_ns: int = 0


class Lanes:
    """The select loop over ``spec.LANES`` connections to one port."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.connects = 0

    def _start(self, lane: _Lane, sample: Sample) -> None:
        payload = _request_bytes(sample.op.body, "/v1/query")
        sample.send_ns = time.perf_counter_ns()
        sample.late_ns = max(0, sample.send_ns - max(sample.due_ns, lane.free_ns))
        lane.sample, lane.chunks = sample, []
        try:
            sock = socket.create_connection(("127.0.0.1", self.port), timeout=120)
            self.connects += 1
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(payload)
            sock.setblocking(False)
        except OSError as exc:
            self._finish(lane, error=f"{type(exc).__name__}: {exc}")
            return
        lane.sock = sock

    def _finish(self, lane: _Lane, error: str | None = None) -> None:
        sample = lane.sample
        sample.done_ns = time.perf_counter_ns()
        if error is None:
            sample.status, sample.body = _split(b"".join(lane.chunks))
        else:
            sample.error = error
        if lane.sock is not None:
            lane.sock.close()
        lane.sock, lane.sample, lane.chunks = None, None, []
        lane.free_ns = sample.done_ns

    def _pump(self, lanes: list[_Lane], timeout_ns: int) -> None:
        """Wait up to ``timeout_ns`` for answers; read what has arrived."""
        busy = {lane.sock: lane for lane in lanes if lane.sock is not None}
        if not busy:
            time.sleep(timeout_ns / 1e9)
            return
        # select() takes a microsecond timeout, unlike epoll's milliseconds.
        readable, _, _ = select.select(list(busy), [], [], timeout_ns / 1e9)
        for sock in readable:
            lane = busy[sock]
            try:
                chunk = sock.recv(1 << 18)
            except BlockingIOError:
                continue
            except OSError as exc:
                self._finish(lane, error=f"{type(exc).__name__}: {exc}")
                continue
            if chunk:
                lane.chunks.append(chunk)
            else:
                self._finish(lane)

    def open_loop(self, ops: list, rate_rps: float) -> list[Sample]:
        """Send ``ops`` at a fixed rate; each is due ``i / rate`` after start.

        A due op goes out on the first free lane; ops pinned to a lane (a
        tenant's writes) wait for that one.  While every lane is busy, due
        ops wait, and that wait counts in their latency.
        """
        lanes = [_Lane(index) for index in range(spec.LANES)]
        start = time.perf_counter_ns() + 1_000_000
        shared: deque = deque()
        samples = []
        for i, op in enumerate(ops):
            sample = Sample(op, -1, start + round(i * 1e9 / rate_rps))
            (lanes[op.lane].queue if op.lane is not None else shared).append(sample)
            samples.append(sample)
        for lane in lanes:
            lane.free_ns = start
        while shared or any(lane.queue or lane.sock is not None for lane in lanes):
            now = time.perf_counter_ns()
            next_due = None
            for lane in lanes:
                if lane.sock is not None:
                    continue
                queues = [queue for queue in (lane.queue, shared) if queue]
                if not queues:
                    continue
                queue = min(queues, key=lambda q: q[0].due_ns)
                due = queue[0].due_ns
                if due <= now:
                    sample = queue.popleft()
                    sample.lane = lane.index
                    self._start(lane, sample)
                elif next_due is None or due < next_due:
                    next_due = due
            wait = (next_due - time.perf_counter_ns()) if next_due is not None else 50_000_000
            self._pump(lanes, max(0, wait))
        return samples

    def closed_loop(self, ops: Iterator, seconds: float) -> tuple[list[Sample], int, int]:
        """Each lane sends its next op as soon as its last one is answered.

        Stops starting ops after ``seconds`` or when ``ops`` runs out.
        Returns the samples and the phase's ``(start, end)`` in ns; ops
        still in flight at the end complete but fall outside the phase.
        """
        lanes = [_Lane(index) for index in range(spec.LANES)]
        start = time.perf_counter_ns()
        end = start + round(seconds * 1e9)
        samples = []
        exhausted = False
        while True:
            now = time.perf_counter_ns()
            if now < end and not exhausted:
                for lane in lanes:
                    if lane.sock is None:
                        op = next(ops, None)
                        if op is None:
                            exhausted = True
                            break
                        sample = Sample(op, lane.index, now)
                        samples.append(sample)
                        lane.free_ns = now
                        self._start(lane, sample)
            elif all(lane.sock is None for lane in lanes):
                break
            self._pump(lanes, 50_000_000)
        return samples, start, end

    def drain(self, ops: Iterable) -> list[Sample]:
        """Send ``ops`` over every lane as fast as they are answered."""
        samples, _, _ = self.closed_loop(iter(ops), 3600.0)
        return samples
