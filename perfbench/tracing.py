"""Span recording for the traced benchmark run.

The traced run wraps public functions of the program from the
benchmark's own files; nothing inside ``src/`` records these spans.
A :class:`Recorder` keeps, for every span name, the call count, the
total time and the self time (span minus the part its child spans
cover), plus up to ``keep`` raw spans for the ``repro.trace`` v1 file.

Layer names are the first dotted component of a span name (``serve``,
``metrics``, ``series``, ...), so :func:`layer_self_times` can fold a
span table into a per-layer self-time table.
"""

from __future__ import annotations

import functools
import threading
import time
import weakref
from typing import Any, Callable, Dict, List, Optional

#: Raw spans kept per process for the trace file; aggregates cover all.
DEFAULT_KEEP = 20_000

#: The metric kernels the endpoint payload functions call, by their
#: name in ``repro.serve.endpoints``; the traced server wraps each.
KERNELS = ("importance_table", "unweighted_importance_table",
           "completeness_curve", "weighted_completeness",
           "missing_apis_report", "coverage_plan", "workload_suggestions",
           "evaluate_system", "importance_trend", "completeness_trend",
           "release_diff", "dep_semantics_ablation")


class _Open:
    __slots__ = ("name", "span_id", "parent_id", "start", "child",
                 "attrs")

    def __init__(self, name, span_id, parent_id, start, attrs):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.child = 0.0
        self.attrs = attrs


class Recorder:
    """Thread-safe span aggregates plus a bounded raw-span list."""

    def __init__(self, keep: int = DEFAULT_KEEP) -> None:
        self.keep = keep
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: name -> summed numeric attribute values (e.g. bytes).
        self.sums: Dict[str, float] = {}
        self.spans: List[Dict[str, Any]] = []

    def _stack(self) -> List[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **attrs) -> _Open:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1].span_id if stack else None
        opened = _Open(name, span_id, parent, time.perf_counter(), attrs)
        stack.append(opened)
        return opened

    def end(self, opened: _Open, error: bool = False) -> float:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        seconds = end - opened.start
        if stack:
            stack[-1].child += seconds
        self_seconds = max(0.0, seconds - opened.child)
        with self._lock:
            row = self.totals.setdefault(opened.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += seconds
            row[2] += self_seconds
            if len(self.spans) < self.keep:
                self.spans.append({
                    "name": opened.name, "span_id": opened.span_id,
                    "parent_id": opened.parent_id,
                    "start": opened.start, "end": end,
                    "error": error, "attrs": opened.attrs})
        return seconds

    def add(self, name: str, value: float) -> None:
        """Accumulate a numeric quantity under ``name``."""
        with self._lock:
            self.sums[name] = self.sums.get(name, 0.0) + value

    def span(self, name: str, **attrs) -> "_SpanContext":
        return _SpanContext(self, name, attrs)

    def wrap(self, fn: Callable, name: str,
             on_result: Optional[Callable[[Any], None]] = None
             ) -> Callable:
        """``fn`` timed under a span called ``name``."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = recorder.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                recorder.end(opened, error=True)
                raise
            recorder.end(opened)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {"totals": {name: list(row)
                               for name, row in self.totals.items()},
                    "sums": dict(self.sums),
                    "spans": list(self.spans)}


class _SpanContext:
    def __init__(self, recorder: Recorder, name: str, attrs) -> None:
        self._recorder = recorder
        self._name = name
        self._attrs = attrs
        self._opened: Optional[_Open] = None

    def __enter__(self) -> "_SpanContext":
        self._opened = self._recorder.begin(self._name, **self._attrs)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._recorder.end(self._opened, error=exc_type is not None)
        return False


class ColdWarm:
    """Split a kernel's calls into the first per subject and the rest.

    A metric kernel caches per dataset (or series) object, so its first
    call on a subject is *cold* and later calls are *warm*.  Subjects
    are tracked weakly so the split never keeps a dataset alive.
    """

    def __init__(self, recorder: Recorder, name: str,
                 subject_types: tuple) -> None:
        self.recorder = recorder
        self.name = name
        self.subject_types = subject_types
        # Keyed by id with a weak reference to tell a reused id apart:
        # datasets are mappings, so they cannot go in a WeakSet.
        self._seen: Dict[int, weakref.ref] = {}
        self._lock = threading.Lock()

    def _first_touch(self, args, kwargs) -> bool:
        subject = next((a for a in list(args) + list(kwargs.values())
                        if isinstance(a, self.subject_types)), None)
        if subject is None:
            return False
        with self._lock:
            seen = self._seen.get(id(subject))
            if seen is not None and seen() is subject:
                return False
            self._seen[id(subject)] = weakref.ref(subject)
            return True

    def wrap(self, fn: Callable) -> Callable:
        recorder, base = self.recorder, self.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            kind = "cold" if self._first_touch(args, kwargs) else "warm"
            opened = recorder.begin(f"{base}.{kind}")
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                recorder.end(opened, error=True)
                raise
            recorder.end(opened)
            return result
        return wrapper


def patch(owner: Any, attr: str, make: Callable[[Callable], Callable]
          ) -> bool:
    """Replace ``owner.attr`` with ``make(original)`` if it exists."""
    original = getattr(owner, attr, None)
    if original is None:
        return False
    setattr(owner, attr, make(original))
    return True


def mean(totals: Dict[str, List[float]], name: str,
         column: int = 1) -> float:
    """Mean seconds per call of span ``name`` (0 when never called)."""
    row = totals.get(name)
    if not row or not row[0]:
        return 0.0
    return row[column] / row[0]


def calls(totals: Dict[str, List[float]], name: str) -> int:
    row = totals.get(name)
    return int(row[0]) if row else 0


def merge_totals(*parts: Dict[str, List[float]]
                 ) -> Dict[str, List[float]]:
    merged: Dict[str, List[float]] = {}
    for part in parts:
        for name, row in part.items():
            into = merged.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                into[i] += row[i]
    return merged


def layer_self_times(totals: Dict[str, List[float]]
                     ) -> Dict[str, float]:
    """Self seconds summed per layer (first dotted name component)."""
    layers: Dict[str, float] = {}
    for name, row in totals.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + row[2]
    return layers


def write_trace_file(path, span_batches: List[List[Dict[str, Any]]],
                     meta: Dict[str, Any]) -> int:
    """Write every batch as one ``repro.trace`` v1 JSON-lines file.

    Each batch comes from one process with its own id space, so ids
    are renumbered batch by batch; parents stay inside their batch.
    """
    from repro.obs import Span, write_trace

    spans = []
    offset = 0
    for batch in span_batches:
        top = 0
        for raw in batch:
            parent = raw["parent_id"]
            spans.append(Span(
                name=raw["name"], span_id=raw["span_id"] + offset,
                parent_id=None if parent is None else parent + offset,
                start=raw["start"], end=raw["end"],
                error=bool(raw["error"]),
                attrs={str(k): v for k, v in raw["attrs"].items()}))
            top = max(top, raw["span_id"])
        offset += top
    return write_trace(path, spans, meta=meta)
