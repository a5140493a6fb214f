"""EngineStats as a thin view over repro.obs, and its rendering.

Includes the regression test for the thread-backend stage-timing race:
the old implementation accumulated ``stage_seconds`` with an
unsynchronized dict read-modify-write, silently losing wall time when
stages overlapped across threads.  The hammer below runs stages from
many threads against a deterministic per-thread clock so the expected
total is *exact* — any lost update breaks the equality.
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.stats as stats_module
from repro.engine.errors import FailureRecord
from repro.engine.stats import (
    ANALYZE_LATENCY_METRIC,
    COUNTER_METRICS,
    QUARANTINE_LATENCY_METRIC,
    EngineStats,
)
from repro.obs import MetricsRegistry, SpanTracer, render_trace_report


class PerThreadClock:
    """Each thread sees its own monotonic counter: +1.0 per call.

    A ``stage()`` call touches the clock exactly four times on its own
    thread (stage start, span open, span close, stage end), so every
    call contributes exactly 3.0 to the stage gauge no matter how the
    threads interleave.
    """

    def __init__(self) -> None:
        self._local = threading.local()

    def __call__(self) -> float:
        now = getattr(self._local, "now", 0.0) + 1.0
        self._local.now = now
        return now


class TestStageThreadSafety:
    def test_concurrent_stage_accumulation_is_exact(self, monkeypatch):
        clock = PerThreadClock()
        monkeypatch.setattr(stats_module.time, "perf_counter", clock)
        stats = EngineStats(backend="thread", jobs=8,
                            tracer=SpanTracer(clock=clock))
        threads, iterations = 8, 200
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait()
            for _ in range(iterations):
                with stats.stage("analyze"):
                    pass

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # provoke interleaving
        try:
            pool = [threading.Thread(target=hammer)
                    for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
        finally:
            sys.setswitchinterval(old_interval)

        # 3.0 per call, no lost updates: equality must be exact.
        assert (stats.stage_seconds["analyze"]
                == threads * iterations * 3.0)
        assert (stats.tracer.name_multiset()["stage:analyze"]
                == threads * iterations)


class TestCounterView:
    def test_attributes_are_registry_backed(self):
        stats = EngineStats()
        stats.cache_hits += 3
        stats.cache_hits += 2
        assert stats.cache_hits == 5
        assert (stats.registry.counter_values()["engine.cache.hits"]
                == 5)
        # And the other direction: registry writes show up.
        stats.registry.counter("engine.retries").inc()
        assert stats.retries == 1

    def test_all_counters_materialized_up_front(self):
        stats = EngineStats()
        assert (set(stats.registry.counter_values())
                == set(COUNTER_METRICS.values()))
        assert all(value == 0 for value
                   in stats.registry.counter_values().values())


def _failures():
    return [
        FailureRecord(package="corrupt", artifact="bin/bad-magic",
                      sha256="0" * 64, error_class="decode",
                      exc_type="ElfFormatError", message="bad magic",
                      stage="decode"),
        FailureRecord(package="corrupt", artifact="bin/bad-phdr",
                      sha256="1" * 64, error_class="format",
                      exc_type="ElfFormatError", message="bad phdr",
                      stage="parse"),
    ]


class TestRender:
    def test_empty_run(self):
        rendered = EngineStats().render()
        assert "engine run statistics" in rendered
        assert "binaries submitted : 0" in rendered
        assert "serial x1" in rendered
        # No observations -> no latency or span lines.
        assert "per-binary latency" not in rendered
        assert "spans recorded" not in rendered

    def test_failures_only_run(self):
        stats = EngineStats()
        stats.binaries_total = 2
        stats.binaries_failed = 2
        stats.failures.extend(_failures())
        histogram = stats.registry.histogram(QUARANTINE_LATENCY_METRIC)
        histogram.observe(0.01)
        histogram.observe(0.02)
        rendered = stats.render()
        assert "quarantined" in rendered
        assert "2 binaries (decode: 1, format: 1)" in rendered
        assert "0.0 binaries/s" in rendered
        assert stats.failures_by_class == {"decode": 1, "format": 1}
        # Nothing analyzed -> still no analyze-latency line.
        assert "per-binary latency" not in rendered

    def test_mixed_run(self, result):
        rendered = result.engine_stats.render()
        assert "per-binary latency" in rendered
        assert "p50" in rendered and "p99" in rendered
        assert "spans recorded" in rendered
        assert "hit rate" in rendered

    def test_latency_snapshot_shape(self, result):
        latency = result.engine_stats.analyze_latency()
        assert latency is not None
        assert latency["count"] > 0
        assert (latency["min"] <= latency["p50"] <= latency["p90"]
                <= latency["p99"] <= latency["max"])
        assert ANALYZE_LATENCY_METRIC in (
            result.engine_stats.registry.histogram_values())


def _mixed_spans():
    tracer = SpanTracer()
    with tracer.span("stage:scan"):
        pass
    with tracer.span("stage:analyze") as analyze:
        with tracer.span("binary", binary="bin/app"):
            pass
        with tracer.span("binary", binary="bin/tool"):
            pass
        tracer.record_span(
            "quarantine", seconds=9.0, error=True,
            parent_id=analyze.span_id,
            attrs={"package": "corrupt", "artifact": "bin/bad",
                   "error_class": "format"})
    return tracer.finished()


class TestTraceReport:
    def test_empty_run(self):
        rendered = render_trace_report([])
        assert "no spans recorded" in rendered

    def test_failures_only_run(self):
        tracer = SpanTracer()
        tracer.record_span("quarantine", seconds=1.0, error=True,
                           attrs={"package": "corrupt",
                                  "artifact": "bin/bad",
                                  "error_class": "decode"})
        rendered = render_trace_report(tracer.finished())
        assert "slowest binaries (top 1 of 1)" in rendered
        assert "corrupt:bin/bad" in rendered
        assert "error:decode" in rendered

    def test_mixed_run(self):
        rendered = render_trace_report(_mixed_spans())
        assert "trace report — stage breakdown" in rendered
        assert "scan" in rendered and "analyze" in rendered
        assert "slowest binaries (top 3 of 3)" in rendered
        assert "bin/app" in rendered and "bin/tool" in rendered
        # The synthesized quarantine span is the slowest: rank 1.
        first_row = [line for line in rendered.splitlines()
                     if "corrupt:bin/bad" in line][0]
        assert first_row.strip().startswith("1")
        assert "error:format" in first_row

    def test_top_truncates(self):
        rendered = render_trace_report(_mixed_spans(), top=1)
        assert "slowest binaries (top 1 of 3)" in rendered

    def test_spans_without_binaries_still_render(self):
        tracer = SpanTracer()
        with tracer.span("stage:scan"):
            pass
        rendered = render_trace_report(tracer.finished())
        assert "stage breakdown" in rendered
        assert "(1 spans recorded)" in rendered


class TestMetricsPrimitives:
    def test_nearest_rank_percentiles(self):
        histogram = MetricsRegistry().histogram("h.values")
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.p50 == 50.0
        assert histogram.p90 == 90.0
        assert histogram.p99 == 99.0
        assert histogram.percentile(100) == 100.0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=300))
    def test_snapshot_percentiles_match_percentile(self, values):
        histogram = MetricsRegistry().histogram("h.values")
        for value in values:
            histogram.observe(value)
        snapshot = histogram.snapshot()
        for q in (50, 90, 99):
            assert snapshot[f"p{q}"] == histogram.percentile(q)

    def test_empty_histogram_snapshot(self):
        snapshot = MetricsRegistry().histogram("h.empty").snapshot()
        assert snapshot["count"] == 0
        assert snapshot["p99"] == 0.0

    def test_invalid_metric_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("Bad Name!")

    def test_instruments_are_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")
        assert registry.gauge("a.b") is registry.gauge("a.b")
        registry.counter("a.b").inc(2)
        assert registry.counter_values() == {"a.b": 2}
