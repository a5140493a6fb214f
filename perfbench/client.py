"""Load generation: a minimal keep-alive HTTP/1.1 client and two loops.

One client process drives the server over at most ``nproc``
connections, one thread each:

* :func:`closed_loop` — each connection sends its next request as soon
  as the previous one returns (the saturation phase);
* :func:`open_loop` — requests are due on a fixed schedule at one
  offered rate; each is timed from when it was due, so a stall also
  charges the requests queued behind it.

Requests are pre-encoded bytes, and responses are parsed only as far
as status and ``Content-Length``, to keep the client's own cost per
request far below the server's.
"""

from __future__ import annotations

import os
import socket
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

TIMEOUT_S = 120.0
SWITCH_INTERVAL_S = 0.0002


def max_connections() -> int:
    return max(1, os.cpu_count() or 1)


def encode_request(method: str, target: str,
                   body: Optional[bytes] = None) -> bytes:
    head = [f"{method} {target} HTTP/1.1", "Host: perfbench"]
    if body is not None:
        head.append("Content-Type: application/json")
        head.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + (body or b"")


class Connection:
    """One keep-alive connection; :meth:`roundtrip` returns status, body."""

    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        self.host, self.port = host, port
        self._sock: Optional[socket.socket] = None
        self._buf = b""

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port),
                                        timeout=TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock, self._buf = sock, b""
        return sock

    def roundtrip(self, raw: bytes) -> Tuple[int, bytes]:
        sock = self._sock or self._connect()
        try:
            sock.sendall(raw)
            return self._read_response(sock)
        except (OSError, ValueError):
            self.close()
            raise

    def _read_response(self, sock) -> Tuple[int, bytes]:
        buf = self._buf
        while True:
            end = buf.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buf += chunk
        head = buf[:end].decode("latin-1").split("\r\n")
        status = int(head[0].split(" ", 2)[1])
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        start = end + 4
        while len(buf) - start < length:
            chunk = sock.recv(max(65536, length))
            if not chunk:
                raise ConnectionError("server closed mid-body")
            buf += chunk
        self._buf = buf[start + length:]
        return status, buf[start:start + length]

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None


@dataclass
class Result:
    """Per-request outcome of one phase, in request order."""

    latencies: List[float] = field(default_factory=list)
    statuses: List[int] = field(default_factory=list)
    #: Open loop only: send time minus due time (queueing + lag).
    lateness: List[float] = field(default_factory=list)
    #: Open loop only: send time minus the later of due time and the
    #: moment the connection was free — the generator's own lag.
    lag: List[float] = field(default_factory=list)
    seconds: float = 0.0


Handler = Callable[[int, int, bytes], None]


def _run(port: int, items: Sequence[bytes], connections: int,
         due: Optional[Callable[[int], float]],
         on_response: Optional[Handler]) -> Result:
    if connections > max_connections():
        raise ValueError(f"{connections} connections exceed nproc "
                         f"({max_connections()})")
    n = len(items)
    latencies = [0.0] * n
    statuses = [0] * n
    lateness = [0.0] * n
    lag = [0.0] * n
    cursor = [0]
    lock = threading.Lock()
    origin = [0.0]

    def worker() -> None:
        conn = Connection(port)
        free_at = time.perf_counter()
        try:
            while True:
                with lock:
                    i = cursor[0]
                    if i >= n:
                        return
                    cursor[0] = i + 1
                if due is None:
                    sent = time.perf_counter()
                    start = sent
                else:
                    start = origin[0] + due(i)
                    wait = start - time.perf_counter()
                    if wait > 0:
                        time.sleep(wait)
                    sent = time.perf_counter()
                    lateness[i] = sent - start
                    lag[i] = sent - max(start, free_at)
                try:
                    status, body = conn.roundtrip(items[i])
                except (OSError, ValueError):
                    status, body = 0, b""
                done = time.perf_counter()
                free_at = done
                latencies[i] = done - start
                statuses[i] = status
                if on_response is not None:
                    on_response(i, status, body)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, name=f"perfbench-conn{k}")
               for k in range(connections)]
    # A thread woken at its due time waits for the interpreter lock
    # while another runs Python code, by up to the switch interval
    # (5 ms by default); a short interval keeps the generator on time.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    try:
        origin[0] = time.perf_counter() + 0.001
        began = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=3600)
    finally:
        sys.setswitchinterval(interval)
    return Result(latencies, statuses,
                  lateness if due else [], lag if due else [],
                  seconds=time.perf_counter() - began)


def closed_loop(port: int, items: Sequence[bytes], connections: int,
                on_response: Optional[Handler] = None) -> Result:
    return _run(port, items, connections, None, on_response)


def open_loop(port: int, items: Sequence[bytes], connections: int,
              rate: float, on_response: Optional[Handler] = None
              ) -> Result:
    return _run(port, items, connections, lambda i: i / rate,
                on_response)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def windowed_percentile(values: Sequence[float], q: float,
                        window: int = 1000) -> float:
    """Median over consecutive windows of each window's percentile.

    Every window holds at least ``window`` samples (the last takes the
    remainder), so each p99 has ten or more samples beyond it; the
    median across windows keeps one stalled window (a GC pause, a
    stolen CPU) from setting the figure for the whole phase.
    """
    count = max(1, len(values) // window)
    size = len(values) // count
    bounds = [i * size for i in range(count)] + [len(values)]
    return statistics.median(percentile(values[lo:hi], q)
                             for lo, hi in zip(bounds, bounds[1:]))


def open_loop_validity(result: Result,
                       max_lag_s: float = 0.005) -> Dict[str, float]:
    """Whether the server, not the generator, set the phase's pace.

    The generator lagged when a connection was free at a request's due
    time but the request still went out late; its p99 must stay under
    ``max_lag_s``.  The backlog grew when the lateness of the last
    tenth of the phase exceeds that of the first tenth by more than
    100 ms.
    """
    n = len(result.lateness)
    tenth = max(1, n // 10)
    head = percentile(result.lateness[:tenth], 50)
    tail = percentile(result.lateness[-tenth:], 50)
    lag_p99 = percentile(result.lag, 99)
    grew = tail > head + 0.100
    return {"late_p99_s": percentile(result.lateness, 99),
            "lag_p99_s": lag_p99,
            "backlog_grew": float(grew),
            "valid": float(lag_p99 <= max_lag_s and not grew)}
