"""Serve one snapshot file over HTTP for the benchmark.

Run from the repository root::

    python3 perfbench/server.py --snapshot work/hot.rsnap \
        --summary work/server.json [--trace]

Boots the server through the public serve API (``SnapshotRegistry``,
``ServeApp``, ``ThreadingTransport``) on an ephemeral port and prints
one JSON line with the port once it accepts connections.  SIGTERM
drains and stops it; it then writes cache, admission and
observability counters to the summary file, and with ``--trace`` also
the span aggregates and raw spans of every wrapped function.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import sys
import threading
import time
import weakref

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

#: Long enough that no query of the benchmark mixes hits the deadline
#: on a loaded 2-CPU box (the slowest cold kernel takes about 1.5 s).
DEADLINE_S = 30.0


def install_tracing(recorder):
    """Wrap the serve, metrics, series and obs entry points.

    Module-level names are replaced before the app is built, so the
    app and the endpoint table pick up the wrapped versions.
    """
    from tracing import KERNELS, ColdWarm, patch

    import repro.serve.app as app_module
    import repro.serve.endpoints as endpoints
    from repro.dataset.core import Dataset
    from repro.series.reader import DatasetSeries

    subjects = (Dataset, DatasetSeries)
    for name in KERNELS:
        patch(endpoints, name,
              ColdWarm(recorder, f"metrics.{name}", subjects).wrap)
    app_module.ENDPOINTS = tuple(
        dataclasses.replace(
            endpoint,
            normalize=recorder.wrap(endpoint.normalize,
                                    "serve.normalize"),
            payload=recorder.wrap(endpoint.payload, "serve.compute"))
        for endpoint in app_module.ENDPOINTS)
    patch(app_module, "canonical_query_key",
          lambda fn: recorder.wrap(fn, "serve.key"))
    patch(app_module, "canonical_json",
          lambda fn: recorder.wrap(
              fn, "serve.encode",
              on_result=lambda body: recorder.add("serve.encode_bytes",
                                                  len(body))))
    patch(app_module, "render_metrics",
          lambda fn: recorder.wrap(fn, "obs.render"))

    materialized = weakref.WeakKeyDictionary()

    def wrap_at(fn):
        def at(series, release):
            seen = materialized.setdefault(series, set())
            if release not in seen:
                seen.add(release)
                recorder.add("series.releases_materialized", 1)
            with recorder.span("series.at"):
                return fn(series, release)
        return at
    patch(DatasetSeries, "at", wrap_at)


def wrap_app(app, recorder) -> None:
    """Per-instance wrappers around the request pipeline phases."""
    from tracing import patch

    patch(app, "handle", lambda fn: recorder.wrap(fn, "serve.handle"))
    patch(app.snapshots, "resolve",
          lambda fn: recorder.wrap(fn, "serve.resolve"))
    patch(app.qcache, "get",
          lambda fn: recorder.wrap(fn, "serve.qcache.probe"))
    patch(app.admission, "slot",
          lambda fn: recorder.wrap(fn, "serve.admission.wait"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--snapshot", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--summary", required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import repro.serve as serve
    import_s = time.perf_counter() - start

    recorder = None
    if args.trace:
        from tracing import Recorder
        recorder = Recorder()
        install_tracing(recorder)

    start = time.perf_counter()
    registry = serve.SnapshotRegistry.from_files(args.snapshot)
    load_s = time.perf_counter() - start
    app = serve.ServeApp(registry, deadline_seconds=DEADLINE_S)
    if recorder is not None:
        wrap_app(app, recorder)
    transport = serve.ThreadingTransport(app, port=0, quiet=True)

    terminated = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: terminated.set())
    transport.start()
    print(json.dumps({"port": transport.port, "pid": os.getpid(),
                      "import_s": import_s, "load_s": load_s}),
          flush=True)
    try:
        while not terminated.wait(0.2):
            pass
    finally:
        transport.stop()

    histograms = app.registry.histogram_values()
    summary = {
        "import_s": import_s,
        "load_s": load_s,
        "qcache": app.qcache.stats(),
        "admission": app.admission.stats(),
        "obs": {
            "spans_retained": len(app.tracer.finished()),
            "histogram_samples": sum(int(h["count"]) for h
                                     in histograms.values()),
        },
    }
    if recorder is not None:
        summary.update(recorder.snapshot())
    with open(args.summary, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
