"""Series storage economics and cold-open speed vs N full snapshots.

Builds a 10-release evolved train at paper-tenth scale and measures,
into ``benchmarks/output/BENCH_series.json``:

* **storage** — one delta-encoded ``.rser`` vs storing every release
  as its own full ``.rsnap``.  Gate: the series file must stay under
  40% of the sum of the full snapshots (deltas carry only churn, so
  near-constant release trains compress roughly N-fold);
* **cold open** — bytes-on-disk to a first importance answer for
  every release, walking the delta chain vs opening ten full
  snapshots;
* **cold path** — ``at(k)`` seconds for every release, each on a
  freshly opened series (so each replays its chain from the base),
  and ``at(head)`` plus the first importance answer on another fresh
  series: the reload-to-first-answer path time-travel serving pays;
* **kernels** — cold and warm seconds of the per-release query
  kernels on the head release, with Graphene's Table 6 set as the
  supported set and the ranked APIs it lacks as the modified set:
  ``missing_apis_report``, ``workload_suggestions``,
  ``coverage_plan``, ``condensed_graph`` and ``completeness_curve``
  (Figure 3's curve; its cold call includes the graph build).  Each
  kernel runs on a freshly opened head whose importance table was
  already answered (so the shared per-package tables exist); *cold*
  is the median first call over three such heads, *warm* the median
  of the next five calls on the last one.  ``condensed_graph`` also
  records ``gc_objects_retained``: the ``gc.get_objects()`` delta
  across one build (settled collections before and after, the
  repository's own indexes built beforehand), i.e. the objects the
  garbage collector must traverse that the head's graph keeps alive
  (median of three fresh heads).  Recorded, not gated;
* **identity** — ``series.at(k)`` must answer bit-identically to the
  eagerly evolved release ``k`` (importance tables, package rows and
  every source footprint) for every ``k``, at this scale too, not
  just the test-sized corpora the unit suites cover.
"""

import gc
import json
import statistics
import time

from repro.compat import coverage_plan, graphene_model, \
    workload_suggestions
from repro.metrics import (completeness_curve, importance_table,
                           missing_apis_report, ranked)
from repro.series import load_series, write_series
from repro.store import load_snapshot, write_snapshot
from repro.synth import EvolutionConfig, evolve_corpus
from repro.synth.paper import PaperScaleConfig

_N_RELEASES = 10
_MAX_STORAGE_RATIO = 0.40


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _tracked_objects() -> int:
    """GC-tracked objects alive now.  Two collections: a collection
    untracks a tuple only once its items are untracked, so the
    repository's tuples of tuples settle on the second."""
    gc.collect()
    gc.collect()
    return len(gc.get_objects())


def test_series_storage_and_cold_open(output_dir, save, tmp_path):
    build_seconds, ecosystem = _timed(lambda: evolve_corpus(
        EvolutionConfig(
            n_releases=_N_RELEASES,
            base=PaperScaleConfig.at_scale(0.1, seed=2016),
            seed=2016)))
    datasets = ecosystem.datasets()

    series_path = tmp_path / "train.rser"
    series_bytes = write_series(series_path, datasets)
    series = load_series(series_path)

    snapshot_paths = []
    full_bytes = 0
    for release, dataset in enumerate(datasets):
        path = tmp_path / f"release{release:02d}.rsnap"
        full_bytes += write_snapshot(path, dataset,
                                     series.fingerprints[release])
        snapshot_paths.append(path)

    storage_ratio = series_bytes / full_bytes

    # Cold open: process-fresh objects, bytes on disk -> one
    # importance answer per release.
    def open_series():
        train = load_series(series_path)
        return [importance_table(train.at(k))
                for k in range(train.n_releases)]

    def open_snapshots():
        return [importance_table(load_snapshot(path))
                for path in snapshot_paths]

    series_seconds, via_series = _timed(open_series)
    rsnap_seconds, via_snapshots = _timed(open_snapshots)

    # Cold path: each at(k) on a fresh series replays k deltas.
    at_seconds = []
    for release in range(_N_RELEASES):
        fresh = load_series(series_path)
        at_seconds.append(_timed(lambda: fresh.at(release))[0])
    fresh = load_series(series_path)
    head_seconds, head = _timed(lambda: fresh.head)
    first_importance_seconds, _ = _timed(lambda: importance_table(head))

    # Kernels on the head release, cold then warm.
    ranking = [api for api, _ in ranked(importance_table(head))]
    supported = graphene_model(ranking).supported
    lacking = [api for api in ranking if api not in supported]
    kernels = {
        "missing_apis_report": lambda ds: missing_apis_report(
            supported, ds),
        "workload_suggestions": lambda ds: workload_suggestions(
            lacking, ds),
        "coverage_plan": lambda ds: coverage_plan(lacking, ds),
        "condensed_graph": lambda ds: ds.condensed_graph("syscall"),
        "completeness_curve": lambda ds: completeness_curve(ds),
    }
    kernel_seconds = {}
    for name, kernel in kernels.items():
        colds = []
        for _ in range(3):
            release = load_series(series_path).head
            importance_table(release)
            colds.append(_timed(lambda: kernel(release))[0])
        warm = statistics.median(
            _timed(lambda: kernel(release))[0] for _ in range(5))
        kernel_seconds[name] = {"cold_seconds": statistics.median(colds),
                                "warm_seconds": warm}

    retained = []
    for _ in range(3):
        release = load_series(series_path).head
        importance_table(release)
        release.repository.dependency_groups_of("")
        before = _tracked_objects()
        release.condensed_graph("syscall")      # cached on the release
        retained.append(_tracked_objects() - before)
    kernel_seconds["condensed_graph"]["gc_objects_retained"] = \
        statistics.median(retained)

    # Identity at scale: lazy == eager for every release.
    eager = [importance_table(dataset) for dataset in datasets]
    assert via_series == eager, \
        "series.at(k) importance diverged from the eager release"
    assert via_snapshots == eager
    for release, dataset in enumerate(datasets):
        lazy = series.at(release)
        assert lazy.packages == dataset.packages
        assert dict(lazy) == dict(dataset)
        assert lazy.source_fingerprint == \
            series.fingerprints[release]

    payload = {
        "n_releases": _N_RELEASES,
        "packages_per_release": list(series.n_packages),
        "evolve_seconds": build_seconds,
        "series_bytes": series_bytes,
        "full_snapshot_bytes": full_bytes,
        "storage_ratio": storage_ratio,
        "max_storage_ratio": _MAX_STORAGE_RATIO,
        "series_cold_open_seconds": series_seconds,
        "rsnap_cold_open_seconds": rsnap_seconds,
        "cold_open_ratio": series_seconds / rsnap_seconds,
        "at_seconds_per_release": at_seconds,
        "at_head_seconds": head_seconds,
        "first_importance_seconds": first_importance_seconds,
        "head_kernels": kernel_seconds,
        "identical_all_releases": True,
    }
    (output_dir / "BENCH_series.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    save("series_speed", "\n".join([
        "series storage + cold open (10-release paper-tenth train)",
        f"  packages        {series.n_packages[0]} -> "
        f"{series.n_packages[-1]}",
        f"  .rser bytes     {series_bytes}",
        f"  10x.rsnap bytes {full_bytes}",
        f"  storage ratio   {storage_ratio:.3f} "
        f"(gate < {_MAX_STORAGE_RATIO})",
        f"  series open     {series_seconds * 1000:.1f} ms "
        "(all releases)",
        f"  rsnap opens     {rsnap_seconds * 1000:.1f} ms "
        "(all releases)",
        "  at(k), fresh    " + " ".join(
            f"{seconds * 1000:.0f}" for seconds in at_seconds) + " ms",
        f"  at(head)        {head_seconds * 1000:.1f} ms, first "
        f"importance {first_importance_seconds * 1000:.1f} ms",
    ] + [
        f"  {name:<21}cold {seconds['cold_seconds'] * 1000:.2f} ms, "
        f"warm {seconds['warm_seconds'] * 1000:.2f} ms (head)"
        for name, seconds in kernel_seconds.items()
    ] + [
        f"  {'condensed_graph':<21}retains "
        f"{kernel_seconds['condensed_graph']['gc_objects_retained']} "
        "GC-tracked objects (head)",
    ]))

    assert storage_ratio < _MAX_STORAGE_RATIO, (
        f"series stores {storage_ratio:.1%} of {_N_RELEASES} full "
        f"snapshots (gate < {_MAX_STORAGE_RATIO:.0%}); "
        f"series={series_bytes} full={full_bytes}")
