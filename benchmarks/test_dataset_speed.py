"""Dataset substrate speed: legacy vs bitset, and JSON vs ``.rsnap``.

Two regimes are measured into ``benchmarks/output/BENCH_dataset.json``:

**Curve wall time** (``test_dataset_speed``) — the full completeness
curve (Figure 3's computation, the most dependency-heavy metric) three
ways on the medium benchmark corpus:

* **legacy** — the pre-refactor implementation preserved verbatim in
  :mod:`repro.dataset.reference`: string-keyed sets, importance and
  usage tables rebuilt, support tracker re-condensed, per call;
* **cold** — interning the corpus into a fresh
  :class:`repro.dataset.Dataset` plus the first curve over it;
* **warm** — the curve over an already-built dataset, the regime every
  Study experiment after the first actually runs in.

Asserts the warm bitset path beats legacy by at least 3x with a
bit-for-bit identical curve.

**Snapshot cold open** (``test_snapshot_cold_speed``) — time from
bytes-on-disk to the first importance answer, JSON codec vs the
mmap-lazy ``.rsnap`` store (:mod:`repro.store`), at three corpus
sizes: the benchmark study, a tenth-scale paper corpus, and the full
30,976-package paper population.  Each path is timed as the median
of alternating runs (7 per tier below paper scale, 3 at paper scale),
which one goes first swapping every round: both paths end in the same
first ``importance_table``, so one shot each is a coin toss on the
smaller tiers.  Gates ``speedup_cold > 1`` at **every** size — the
binary snapshot must never lose to JSON — and requires identical
importance tables on each path.
"""

import json
import statistics
import time

from repro.dataset import Dataset, dataset_from_json, \
    dataset_to_json, reference
from repro.metrics import completeness_curve
from repro.reports.text import render_key_points
from repro.store import load_snapshot, write_snapshot
from repro.synth import PaperScaleConfig, build_paper_corpus

_REQUIRED_SPEEDUP = 3.0
_REQUIRED_COLD_SPEEDUP = 1.0


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _alternating_medians(runs, first, second):
    """Median seconds of ``first`` and ``second`` over ``runs`` rounds
    each, swapping which runs first every round, plus each one's last
    result."""
    timings = {first: [], second: []}
    results = {}
    for round_ in range(runs):
        order = (first, second) if round_ % 2 == 0 else (second, first)
        for fn in order:
            seconds, results[fn] = _timed(fn)
            timings[fn].append(seconds)
    return (statistics.median(timings[first]), results[first],
            statistics.median(timings[second]), results[second])


def test_dataset_speed(study, output_dir, save):
    footprints = dict(study.result.package_footprints)
    popcon = study.popcon
    repository = study.repository

    legacy_seconds, legacy_curve = _timed(
        lambda: reference.completeness_curve(footprints, popcon,
                                             repository))

    intern_seconds, dataset = _timed(
        lambda: Dataset(footprints, popcon, repository))
    first_seconds, first_curve = _timed(
        lambda: completeness_curve(dataset))
    warm_seconds = min(
        _timed(lambda: completeness_curve(dataset))[0]
        for _ in range(3))

    assert first_curve == legacy_curve, \
        "bitset curve diverged from the legacy curve"

    cold_seconds = intern_seconds + first_seconds
    speedup_warm = legacy_seconds / warm_seconds
    speedup_cold = legacy_seconds / cold_seconds
    payload = {
        "corpus": {
            "packages": len(footprints),
            "curve_points": len(legacy_curve),
        },
        "legacy_seconds": legacy_seconds,
        "intern_seconds": intern_seconds,
        "first_curve_seconds": first_seconds,
        "cold_seconds": cold_seconds,
        "warm_curve_seconds": warm_seconds,
        "speedup_cold": speedup_cold,
        "speedup_warm": speedup_warm,
        "required_speedup": _REQUIRED_SPEEDUP,
        "curves_identical": True,
    }
    (output_dir / "BENCH_dataset.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    save("dataset_speed", render_key_points([
        ("packages", len(footprints)),
        ("curve points", len(legacy_curve)),
        ("legacy curve", f"{legacy_seconds * 1000:.1f} ms"),
        ("intern corpus", f"{intern_seconds * 1000:.1f} ms"),
        ("bitset curve (cold)", f"{cold_seconds * 1000:.1f} ms"),
        ("bitset curve (warm)", f"{warm_seconds * 1000:.1f} ms"),
        ("speedup (warm)", f"{speedup_warm:.1f}x"),
    ], title="dataset substrate — completeness curve wall time"))

    assert speedup_warm >= _REQUIRED_SPEEDUP, (
        f"warm bitset curve only {speedup_warm:.2f}x faster than "
        f"legacy (need >= {_REQUIRED_SPEEDUP}x); "
        f"legacy={legacy_seconds:.4f}s warm={warm_seconds:.4f}s")


def _cold_json(path, popcon, repository):
    dataset = dataset_from_json(path.read_text(encoding="utf-8"),
                                popcon, repository)
    return dataset, dataset.importance_table("syscall")


def _cold_rsnap(path, popcon, repository):
    dataset = load_snapshot(path, popcon, repository)
    return dataset, dataset.importance_table("syscall")


def test_snapshot_cold_speed(study, output_dir, save, tmp_path):
    tiers = [
        ("study", 7, study.dataset, study.popcon, study.repository),
    ]
    for label, scale, runs in (("paper-tenth", 0.1, 7),
                               ("paper", 1.0, 3)):
        corpus = build_paper_corpus(PaperScaleConfig.at_scale(scale))
        tiers.append((label, runs, corpus.dataset, corpus.popcon,
                      corpus.repository))

    results = []
    lines = []
    for label, runs, dataset, popcon, repository in tiers:
        json_path = tmp_path / f"{label}.json"
        rsnap_path = tmp_path / f"{label}.rsnap"
        json_path.write_text(dataset_to_json(dataset),
                             encoding="utf-8")
        write_snapshot(rsnap_path, dataset)

        (json_seconds, (_, json_table),
         rsnap_seconds, (_, rsnap_table)) = _alternating_medians(
            runs, lambda: _cold_json(json_path, popcon, repository),
            lambda: _cold_rsnap(rsnap_path, popcon, repository))
        assert rsnap_table == json_table, (
            f"{label}: snapshot importance diverged from JSON")

        speedup_cold = json_seconds / rsnap_seconds
        results.append({
            "tier": label,
            "packages": len(dataset.packages),
            "runs": runs,
            "json_bytes": json_path.stat().st_size,
            "rsnap_bytes": rsnap_path.stat().st_size,
            "json_cold_seconds": json_seconds,
            "rsnap_cold_seconds": rsnap_seconds,
            "speedup_cold": speedup_cold,
        })
        lines.append((f"{label} ({len(dataset.packages)} pkgs)",
                      f"json {json_seconds * 1000:.1f} ms, "
                      f"rsnap {rsnap_seconds * 1000:.1f} ms "
                      f"({speedup_cold:.1f}x, median of {runs})"))

    bench_path = output_dir / "BENCH_dataset.json"
    payload = (json.loads(bench_path.read_text(encoding="utf-8"))
               if bench_path.exists() else {})
    payload["snapshot_cold"] = {
        "required_speedup_cold": _REQUIRED_COLD_SPEEDUP,
        "tiers": results,
    }
    bench_path.write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8")

    save("snapshot_cold_speed", render_key_points(
        lines, title="snapshot store — cold open to first importance "
                     "answer"))

    for entry in results:
        assert entry["speedup_cold"] > _REQUIRED_COLD_SPEEDUP, (
            f"{entry['tier']}: .rsnap cold open only "
            f"{entry['speedup_cold']:.2f}x vs JSON "
            f"(need > {_REQUIRED_COLD_SPEEDUP}x); "
            f"json={entry['json_cold_seconds']:.3f}s "
            f"rsnap={entry['rsnap_cold_seconds']:.3f}s")
