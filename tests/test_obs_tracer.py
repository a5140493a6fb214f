"""Property tests for the span tracer.

The tracer's contract — spans are always balanced, properly nested,
and a span that raises still closes flagged ``error=True`` — is pinned
here under arbitrary span trees, arbitrary mid-span exceptions, and
multi-thread interleavings.
"""

import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Span, SpanTracer


class Boom(Exception):
    pass


class SteppingClock:
    """Deterministic clock: each call advances by ``step``."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


# A span-tree node: (name, raises_after_children, children).  The
# tree is bounded by leaf count, so Hypothesis never has to discard
# an oversized draw.
_names = st.sampled_from(["scan", "hash", "analyze", "resolve"])
_node = st.recursive(
    st.tuples(_names, st.booleans(), st.just([])),
    lambda children: st.tuples(_names, st.booleans(),
                               st.lists(children, max_size=3)),
    max_leaves=12)
_forest = st.lists(_node, min_size=1, max_size=4)


def _run_node(tracer, node):
    name, raises, children = node
    with tracer.span(name):
        for child in children:
            _run_node(tracer, child)
        if raises:
            raise Boom(name)


def _model(node):
    """Expected (name, error) multiset plus whether this node raises.

    Children run sequentially; the first raising child aborts its
    later siblings, and the exception propagates through every open
    ancestor (flagging each ``error=True``) up to the caller.
    """
    name, raises, children = node
    spans = []
    raised = False
    for child in children:
        child_spans, child_raised = _model(child)
        spans.extend(child_spans)
        if child_raised:
            raised = True
            break
    raised = raised or raises
    spans.append((name, raised))
    return spans, raised


class TestBalancedNesting:
    @settings(max_examples=60, deadline=None)
    @given(_forest)
    def test_spans_balanced_and_flagged_under_exceptions(self, forest):
        tracer = SpanTracer(clock=SteppingClock())
        expected = []
        for node in forest:
            node_spans, raised = _model(node)
            expected.extend(node_spans)
            try:
                _run_node(tracer, node)
            except Boom:
                assert raised
            else:
                assert not raised
        spans = tracer.finished()
        # Balanced: everything that opened closed, nothing is open.
        assert tracer.open_depth() == 0
        assert Counter((s.name, s.error) for s in spans) == (
            Counter(expected))
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            assert span.end > span.start
            if span.parent_id is not None:
                parent = by_id[span.parent_id]
                # Proper nesting: strict containment under the
                # stepping clock.
                assert parent.start < span.start
                assert span.end < parent.end

    @settings(max_examples=30, deadline=None)
    @given(_forest)
    def test_roots_have_no_parent_and_ids_unique(self, forest):
        tracer = SpanTracer(clock=SteppingClock())
        for node in forest:
            try:
                _run_node(tracer, node)
            except Boom:
                pass
        spans = tracer.finished()
        ids = [s.span_id for s in spans]
        assert len(ids) == len(set(ids))
        known = set(ids)
        for span in spans:
            assert span.parent_id is None or span.parent_id in known


class TestThreadInterleavings:
    def test_concurrent_spans_never_parent_across_threads(self):
        tracer = SpanTracer()
        threads = 8
        depth = 5
        repeats = 20
        barrier = threading.Barrier(threads)

        def work(tag):
            barrier.wait()
            for _ in range(repeats):
                def nest(level):
                    with tracer.span(f"t{tag}", level=level):
                        if level < depth:
                            nest(level + 1)
                nest(1)

        pool = [threading.Thread(target=work, args=(tag,))
                for tag in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        spans = tracer.finished()
        assert len(spans) == threads * repeats * depth
        assert tracer.open_depth() == 0
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span.parent_id is not None:
                # The thread-local stack means a span's parent always
                # belongs to the same thread (same name tag here).
                assert by_id[span.parent_id].name == span.name

    def test_exception_in_one_thread_does_not_leak_into_another(self):
        tracer = SpanTracer()
        done = threading.Event()

        def failing():
            try:
                with tracer.span("failing"):
                    raise Boom("thread")
            except Boom:
                done.set()

        with tracer.span("outer"):
            worker = threading.Thread(target=failing)
            worker.start()
            worker.join()
            assert done.is_set()
            assert tracer.open_depth() == 1  # ours, not the worker's
        outer = [s for s in tracer.finished() if s.name == "outer"][0]
        failed = [s for s in tracer.finished()
                  if s.name == "failing"][0]
        assert failed.error and failed.parent_id is None
        assert not outer.error


class TestAdoption:
    def test_adopt_remaps_ids_and_reparents_roots(self):
        worker = SpanTracer(clock=SteppingClock())
        with worker.span("binary"):
            with worker.span("decode"):
                pass
        driver = SpanTracer(clock=SteppingClock(step=10.0))
        with driver.span("stage:analyze") as stage:
            pass
        adopted = driver.adopt(worker.finished(),
                               parent_id=stage.span_id)
        by_name = {s.name: s for s in adopted}
        assert by_name["binary"].parent_id == stage.span_id
        assert by_name["decode"].parent_id == by_name["binary"].span_id
        driver_ids = {s.span_id for s in driver.finished()}
        assert len(driver_ids) == 3
        # Relative timing within the batch is preserved exactly.
        assert (by_name["decode"].start - by_name["binary"].start
                == pytest.approx(1.0))

    def test_adopt_rebases_foreign_clock(self):
        worker = SpanTracer(clock=SteppingClock(step=1000.0))
        with worker.span("binary"):
            pass
        driver = SpanTracer(clock=SteppingClock())
        adopted = driver.adopt(worker.finished())[0]
        # The batch's latest end lands at adoption time on our clock.
        assert adopted.end == pytest.approx(driver.clock() - 1.0)
        assert adopted.seconds == pytest.approx(1000.0)


class TestDisabledTracer:
    def test_disabled_records_nothing_and_absorbs_everything(self):
        tracer = SpanTracer(enabled=False)
        with tracer.span("a") as span:
            assert span.span_id is None
        tracer.record_span("quarantine", seconds=1.0, error=True)
        tracer.adopt([Span(name="x", span_id=1, parent_id=None,
                           start=0.0, end=1.0)])
        assert tracer.finished() == []
        assert tracer.name_multiset() == Counter()

    def test_disabled_still_propagates_exceptions(self):
        tracer = SpanTracer(enabled=False)
        with pytest.raises(Boom):
            with tracer.span("a"):
                raise Boom()
        assert tracer.open_depth() == 0


class TestRecordSpan:
    def test_backdated_synthetic_span(self):
        tracer = SpanTracer(clock=SteppingClock())
        span = tracer.record_span("quarantine", seconds=0.25,
                                  error=True,
                                  attrs={"error_class": "format"})
        assert span.error
        assert span.seconds == pytest.approx(0.25)
        assert tracer.finished() == [span]

    def test_defaults_to_current_parent(self):
        tracer = SpanTracer(clock=SteppingClock())
        with tracer.span("outer") as outer:
            inner = tracer.record_span("note")
        assert inner.parent_id == outer.span_id
