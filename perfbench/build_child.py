"""Cold-start build in a fresh interpreter: binary corpus to ``.rsnap``.

Run from the repository root::

    python3 perfbench/build_child.py --corpus work/corpus.pkl \
        --out work/study.rsnap [--trace] [--report work/build.json]

Loads the pickled synthetic ecosystem the benchmark generated, runs
the serial analysis engine, builds the ``Dataset`` and writes the
snapshot, then prints ``written`` so the parent can stop its clock.
Afterwards (untimed) it writes the direct library answer to the
first-answer query, and with ``--report`` the per-layer numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pickle
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--answer", default=None)
    parser.add_argument("--report", default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from tracing import Recorder
    recorder = Recorder()
    span = (recorder.span if args.trace
            else lambda name: contextlib.nullcontext())

    from repro.analysis.pipeline import AnalysisPipeline
    from repro.dataset import Dataset
    from repro.dataset.codec import footprints_fingerprint
    from repro.store import write_snapshot

    with open(args.corpus, "rb") as handle:
        ecosystem = pickle.load(handle)
    with span("engine.pipeline"):
        result = AnalysisPipeline(ecosystem.repository,
                                  ecosystem.interpreters).run()
    with span("dataset.build"):
        dataset = Dataset(result.package_footprints,
                          popcon=ecosystem.popcon,
                          repository=ecosystem.repository)
    with span("dataset.fingerprint"):
        fingerprint = footprints_fingerprint(dataset)
    with span("store.write"):
        written = write_snapshot(args.out, dataset, fingerprint)
    print("written", flush=True)

    if args.answer:
        from repro.serve import canonical_json
        from repro.serve.endpoints import ENDPOINTS_BY_NAME
        endpoint = ENDPOINTS_BY_NAME["importance"]
        payload = endpoint.payload(
            dataset, endpoint.normalize({"dimension": "syscall"}, None))
        with open(args.answer, "wb") as handle:
            handle.write(canonical_json(payload))
    if args.report:
        stats = result.engine_stats
        report = {
            "stage_seconds": dict(stats.stage_seconds) if stats else {},
            "binaries": result.binaries_analyzed,
            "failed": len(result.failures),
            "packages": len(dataset.packages),
            "store_bytes": written,
        }
        report.update(recorder.snapshot())
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
