"""Server lifecycle and the closed-loop TCP load generator.

The server is a real ``tspg serve --listen 127.0.0.1:0`` subprocess
(``python3 -m repro.cli``, or the traced launcher).  Set-up time runs
from spawn to its ``listening on HOST:PORT`` banner.  The load generator
is one thread driving every connection through a selector; each
connection keeps a fixed number of requests outstanding and sends the
next one only when a response line has fully arrived.  Responses are
kept as raw bytes and decoded after the timed phase, so decoding never
sits between two requests.
"""

from __future__ import annotations

import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

BOOT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0
#: A run fails when no response arrives for this long.
STALL_TIMEOUT_S = 120.0
_BANNER = re.compile(rb"listening on ([^\s:]+):(\d+)")


def cpu_plan() -> Dict[str, Optional[set]]:
    """Disjoint CPUs for the server and the load generator, when there are two."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return {"server": None, "client": None}
    return {"server": {cpus[0]}, "client": set(cpus[1:])}


#: Wall time of one machine-speed probe.
PROBE_S = 0.2
#: What :func:`cpu_speed` reads on the reference machine (a 2-vCPU VM
#: where it wanders between about 18000 and 31000).  Timings are reported
#: as they would read at this speed.
REFERENCE_SPEED = 25_000.0


def cpu_speed(cpu: Optional[set]) -> float:
    """Passes of a fixed pure-Python loop per CPU-second on ``cpu``.

    The machine is shared, and its speed wanders by tens of percent over
    seconds to minutes, independently per CPU.  The benchmark runs this
    on the server's CPU while the server is idle, right before each boot
    and between the timed phases, and reads the timings against it.
    CPU time, not wall time: time the hypervisor steals is counted
    separately (:func:`steal_ticks`), over the whole phase.
    """
    own = os.sched_getaffinity(0)
    if cpu:
        os.sched_setaffinity(0, cpu)
    try:
        passes = 0
        wall_end = time.perf_counter() + PROBE_S
        cpu_start = time.thread_time()
        while time.perf_counter() < wall_end:
            for _ in range(20):
                total = 0
                for value in range(1000):
                    total += value
            passes += 20
        return passes / (time.thread_time() - cpu_start)
    finally:
        if cpu:
            os.sched_setaffinity(0, own)


def steal_ticks(cpu: Optional[set]) -> float:
    """Clock ticks the hypervisor has stolen from ``cpu`` (from
    ``/proc/stat``; averaged over every CPU when ``cpu`` is None)."""
    label = f"cpu{min(cpu)}" if cpu else "cpu"
    with open("/proc/stat", "r", encoding="ascii") as handle:
        for line in handle:
            fields = line.split()
            if fields[0] == label:
                ticks = float(fields[8])
                return ticks if cpu else ticks / (os.cpu_count() or 1)
    raise RuntimeError(f"{label} missing from /proc/stat")


class ServerProcess:
    """One ``tspg serve --listen`` subprocess, from spawn to reaped exit."""

    def __init__(self, argv: Sequence[str], *, env: Dict[str, str], cwd: str,
                 cpu: Optional[set] = None) -> None:
        self.argv = list(argv)
        self.env = env
        self.cwd = cwd
        self.cpu = cpu
        self.proc: Optional[subprocess.Popen] = None
        self.address = None
        self.setup_s: Optional[float] = None
        #: :func:`cpu_speed` of the server's CPU just before the spawn.
        self.speed: Optional[float] = None

    def start(self) -> "ServerProcess":
        self.speed = cpu_speed(self.cpu)
        # The child inherits this process's affinity at fork, so pin
        # ourselves to the server CPU for the spawn and restore after.
        own = os.sched_getaffinity(0)
        if self.cpu:
            os.sched_setaffinity(0, self.cpu)
        started = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                self.argv, cwd=self.cwd, env=self.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
            )
        finally:
            if self.cpu:
                os.sched_setaffinity(0, own)
        self._await_banner(started)
        return self

    def _await_banner(self, started: float) -> None:
        buffer = b""
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stderr, selectors.EVENT_READ)
            while True:
                remaining = started + BOOT_TIMEOUT_S - time.perf_counter()
                if remaining <= 0:
                    raise RuntimeError(f"server did not boot within {BOOT_TIMEOUT_S}s")
                if not selector.select(timeout=remaining):
                    continue
                chunk = os.read(self.proc.stderr.fileno(), 65536)
                if not chunk:
                    self.proc.wait()
                    raise RuntimeError(
                        f"server exited with {self.proc.returncode} before listening: "
                        + buffer.decode("utf-8", "replace").strip()
                    )
                buffer += chunk
                match = _BANNER.search(buffer)
                if match:
                    self.setup_s = time.perf_counter() - started
                    self.address = (match.group(1).decode(), int(match.group(2)))
                    return

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the live server, in MiB."""
        with open(f"/proc/{self.proc.pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGINT (the documented stop), then reap; kill only if it hangs."""
        if self.proc is None or self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("server ignored SIGINT and was killed")

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        if self.proc is not None and self.proc.returncode is None:
            try:
                self.stop()
            except RuntimeError:
                if exc_info[0] is None:
                    raise


@dataclass
class Record:
    """One operation as the client saw it."""

    kind: str
    index: int
    rid: int
    sent: float
    received: float
    raw: bytes
    #: Set once the response is decoded, after the timed phase.
    response: Optional[dict] = None
    failed: bool = False

    @property
    def latency_ms(self) -> float:
        return (self.received - self.sent) * 1000.0


class Connection:
    """A blocking JSONL connection (raw bytes in, one line out)."""

    def __init__(self, address) -> None:
        self.sock = socket.create_connection(address, timeout=120.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def exchange(self, line: bytes) -> bytes:
        self.sock.sendall(line)
        response = self.reader.readline()
        if not response.endswith(b"\n"):
            raise ConnectionError("server closed the connection mid-response")
        return response

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class _Lane:
    """One connection of :func:`drive`: its script and requests in flight."""

    def __init__(self, address, script: Iterator, first_rid: int) -> None:
        self.connection = Connection(address)
        self.script = script
        self.rid = first_rid
        self.in_flight: deque = deque()  # (op, rid, sent), oldest first
        self.partial = b""
        self.records: List[Record] = []
        self.exhausted = False

    def send_next(self, end: float) -> None:
        if self.exhausted or time.perf_counter() >= end:
            return
        op = next(self.script, None)
        if op is None:
            self.exhausted = True
            return
        line = b'{"bench_rid": %d, ' % self.rid + op.body
        self.in_flight.append((op, self.rid, time.perf_counter()))
        self.connection.sock.sendall(line)
        self.rid += 1

    def receive(self, end: float) -> None:
        """Record every response that has fully arrived; refill the window."""
        chunk = self.connection.sock.recv(1 << 20)
        received = time.perf_counter()
        if not chunk:
            raise ConnectionError("server closed the connection mid-run")
        lines = (self.partial + chunk).split(b"\n")
        self.partial = lines.pop()
        for raw in lines:
            op, rid, sent = self.in_flight.popleft()
            self.records.append(Record(op.kind, op.index, rid, sent, received, raw + b"\n"))
            self.send_next(end)


def _run_phase(lanes: List[_Lane], selector, seconds: float, depth: int) -> Tuple[float, float]:
    """Send for ``seconds`` with every window full, then drain."""
    start = time.perf_counter()
    end = start + seconds
    for _ in range(depth):
        for lane in lanes:
            lane.send_next(end)
    while any(lane.in_flight for lane in lanes):
        ready = selector.select(timeout=STALL_TIMEOUT_S)
        if not ready:
            raise RuntimeError(f"no response for {STALL_TIMEOUT_S}s")
        for key, _ in ready:
            key.data.receive(end)
    return start, end


def drive(address, scripts: Sequence[Iterator], *, depth: int, warmup_s: float,
          phases: Sequence[float], between: Optional[Callable[[], object]] = None,
          first_rid: int = 1) -> Dict[str, object]:
    """Run every script on its own connection, all from this one thread.

    Each connection is a closed loop that keeps ``depth`` requests
    outstanding: it sends its next request only when a response arrives.
    With the windows full the server always has a parsed request waiting,
    so throughput is the server's, not the wake-up latency of two idle
    CPUs.  An untimed warm-up of ``warmup_s`` comes first, then one timed
    phase per entry of ``phases`` (its length in seconds).  Every
    connection drains at the end of the warm-up and of each phase, and
    ``between()`` runs then, while the server is idle.  A script that
    ends stops its connection early.  Returns the records, each phase's
    ``(start, end)`` window and what ``between()`` returned, in order.
    """
    lanes = []
    windows: List[Tuple[float, float]] = []
    between_results: List[object] = []
    try:
        for ordinal, script in enumerate(scripts):
            # Request ids are unique across connections.
            lanes.append(_Lane(address, script, first_rid + ordinal * 10_000_000))
        with selectors.DefaultSelector() as selector:
            for lane in lanes:
                selector.register(lane.connection.sock, selectors.EVENT_READ, lane)
            if warmup_s > 0:
                _run_phase(lanes, selector, warmup_s, depth)
            if between is not None:
                between_results.append(between())
            for seconds in phases:
                windows.append(_run_phase(lanes, selector, seconds, depth))
                if between is not None:
                    between_results.append(between())
    finally:
        for lane in lanes:
            lane.connection.close()
    return {
        "records": [record for lane in lanes for record in lane.records],
        "windows": windows,
        "between": between_results,
    }


def request_once(address, line: bytes) -> bytes:
    """One request on a fresh connection (the closing ``stats`` op)."""
    connection = Connection(address)
    try:
        return connection.exchange(line)
    finally:
        connection.close()


def python_env(src_dir: str) -> Dict[str, str]:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
    return env


def serve_argv(extra: Sequence[str], *, traced_spans: Optional[str] = None,
               launcher: Optional[str] = None) -> List[str]:
    """``tspg serve`` as an operator runs it, or under the traced launcher."""
    tail = ["serve", *extra, "--listen", "127.0.0.1:0"]
    if traced_spans is None:
        return [sys.executable, "-m", "repro.cli", *tail]
    return [sys.executable, launcher, "--spans", traced_spans, "--", *tail]
