"""Metrics registry: counters, gauges, and latency histograms.

All instruments are created on demand through a
:class:`MetricsRegistry` and are individually lock-protected, so
worker threads can bump the same instrument concurrently without lost
updates (the engine's old ``stage_seconds`` dict was a bare
read-modify-write; the :class:`Gauge` here is the fix).

Conformance contract: **counter values and histogram counts are
deterministic** for a given corpus — identical across the serial,
thread, and process executor backends.  Gauge values and histogram
observations carry wall time and may differ run to run; only their
*presence* is part of the contract.  The cross-backend conformance
suite pins exactly this split.

Metric names are dotted lowercase (``engine.cache.hits``); the
Prometheus exporter mangles dots to underscores.
"""

from __future__ import annotations

import re
import threading
from typing import Dict, List, Optional

_NAME_RE = re.compile(r"^[a-z][a-z0-9_.-]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"invalid metric name {name!r}: must match "
            f"{_NAME_RE.pattern}")
    return name


class Counter:
    """Monotonic-by-convention numeric counter."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value


class Gauge:
    """Point-in-time value with an atomic accumulate."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value: float = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self.value += delta


def _nearest_rank(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sorted list."""
    rank = max(1, -(-len(ordered) * q // 100))  # ceil, floor at 1
    return ordered[int(rank) - 1]


class Histogram:
    """Latency histogram with nearest-rank percentiles."""

    __slots__ = ("_lock", "_observations")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._observations: List[float] = []

    def observe(self, value: float) -> None:
        with self._lock:
            self._observations.append(value)

    @property
    def count(self) -> int:
        with self._lock:
            return len(self._observations)

    @property
    def total(self) -> float:
        with self._lock:
            return sum(self._observations)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, ``q`` in [0, 100]; 0.0 if empty."""
        with self._lock:
            if not self._observations:
                return 0.0
            ordered = sorted(self._observations)
        return _nearest_rank(ordered, q)

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p90(self) -> float:
        return self.percentile(90)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            observations = list(self._observations)
        if not observations:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p90": 0.0, "p99": 0.0}
        ordered = sorted(observations)
        return {"count": len(observations),
                "sum": sum(observations),
                "min": min(observations),
                "max": max(observations),
                "p50": _nearest_rank(ordered, 50),
                "p90": _nearest_rank(ordered, 90),
                "p99": _nearest_rank(ordered, 99)}


class MetricsRegistry:
    """Named instruments, created on first use."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[_check_name(name)] = Counter()
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[_check_name(name)] = Gauge()
            return instrument

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = (
                    self._histograms)[_check_name(name)] = Histogram()
            return instrument

    # --- snapshots -----------------------------------------------------
    #
    # counter_values is sorted (it is the conformance fingerprint and
    # the export order); gauge_values preserves creation order so stage
    # timings render in execution order.

    def counter_values(self) -> Dict[str, float]:
        with self._lock:
            items = list(self._counters.items())
        return {name: counter.value for name, counter in sorted(items)}

    def gauge_values(self) -> Dict[str, float]:
        with self._lock:
            items = list(self._gauges.items())
        return {name: gauge.value for name, gauge in items}

    def histogram_values(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            items = list(self._histograms.items())
        return {name: histogram.snapshot()
                for name, histogram in sorted(items)}

    def snapshot(self) -> Dict[str, Dict]:
        """Everything, as plain data (the JSON/Prometheus source)."""
        return {"counters": self.counter_values(),
                "gauges": dict(sorted(self.gauge_values().items())),
                "histograms": self.histogram_values()}
