"""Serving-layer speed: warm HTTP queries vs per-invocation CLI cost.

The serving layer exists because the batch CLI pays for interpreter
start, ecosystem synthesis, and corpus analysis on *every* question
asked; a resident server pays once and answers from the warm dataset
(and, for repeated queries, from the result cache).  This benchmark
quantifies that gap on the medium benchmark corpus:

* **CLI baseline** — one full ``repro-analyze evaluate`` subprocess on
  the same ecosystem configuration (min of two runs);
* **warm sequential** — served queries over one keep-alive connection
  with a hot result cache, giving per-request latency quantiles;
* **warm concurrent** — several client threads hammering mixed
  endpoints at once, giving aggregate throughput and the contended
  latency tail;
* **pre-fork fleet** — forked client processes against a 1-worker and
  an N-worker :class:`repro.serve.WorkerSupervisor` fleet over the
  same ``.rsnap`` snapshot, giving the multi-process speedup.

Writes ``benchmarks/output/BENCH_serve.json`` (both tests merge into
the one artifact) and gates: warm served throughput must beat the
CLI's one-answer-per-invocation rate by at least 20x, warm-cache p99
latency must stay under 250ms (500ms contended), and — given enough
cores to matter — the 4-worker fleet must serve at least 3x the
single worker's rate.
"""

import http.client
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time

from repro.serve import (ServeApp, SnapshotHolder, ThreadingTransport,
                         WorkerSupervisor)

_REQUIRED_THROUGHPUT_RATIO = 20.0
_MAX_WARM_P99_SECONDS = 0.250
#: Concurrent requests queue behind each other inside one worker, so
#: the tail is looser than the single-connection bound.
_MAX_CONCURRENT_P99_SECONDS = 0.500

_SEQUENTIAL_REQUESTS = 300
_CONCURRENT_CLIENTS = 4
_REQUESTS_PER_CLIENT = 75

#: Pre-fork scaling measurement: client *processes* (thread clients
#: would serialize on the measuring process's GIL and understate the
#: fleet) against 1-worker and N-worker fleets.
_FLEET_WORKERS = 4
_FLEET_CLIENTS = 8
_FLEET_REQUESTS_PER_CLIENT = 100
_REQUIRED_FLEET_SPEEDUP = 3.0
#: Multi-process scaling needs real cores: the fleet plus the client
#: swarm.  Below this, the ratio is recorded but not gated (the same
#: convention test_engine_scaling uses).
_FLEET_GATE_MIN_CPUS = 6

#: Mixed warm query set: two GETs and a POST, all cacheable.
_QUERY_MIX = [
    ("GET", "/v1/importance?limit=10", None),
    ("GET", "/v1/dataset/stats", None),
    ("POST", "/v1/completeness",
     json.dumps({"supported": ["read", "write"]})),
]


def _cli_invocation_seconds() -> float:
    """Wall time for one complete CLI answer (min of two runs)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    argv = [sys.executable, "-m", "repro.cli",
            "--fillers", "200", "--drivers", "30",
            "--scripts", "220", "evaluate", "read,write"]
    timings = []
    for _ in range(2):
        start = time.perf_counter()
        result = subprocess.run(argv, env=env, capture_output=True,
                                timeout=600)
        assert result.returncode == 0, result.stderr[-400:]
        timings.append(time.perf_counter() - start)
    return min(timings)


def _request(conn, method, path, body):
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    payload = response.read()
    assert response.status == 200, (response.status, payload[:200])
    return payload


def _percentile(ordered, q):
    rank = max(1, -(-len(ordered) * q // 100))  # nearest rank
    return ordered[int(rank) - 1]


def test_serve_speed(study, output_dir, save):
    holder = SnapshotHolder(study.dataset)
    app = ServeApp(holder, concurrency=8, max_wait_seconds=2.0,
                   cache_entries=256)
    cli_seconds = _cli_invocation_seconds()

    with ThreadingTransport(app, port=0) as server:
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=30)
        # Warm the result cache: first touch of each query computes.
        for method, path, body in _QUERY_MIX:
            _request(conn, method, path, body)

        # Sequential warm phase: per-request latencies.
        latencies = []
        sequential_start = time.perf_counter()
        for i in range(_SEQUENTIAL_REQUESTS):
            method, path, body = _QUERY_MIX[i % len(_QUERY_MIX)]
            start = time.perf_counter()
            _request(conn, method, path, body)
            latencies.append(time.perf_counter() - start)
        sequential_seconds = time.perf_counter() - sequential_start
        conn.close()

        # Concurrent warm phase: aggregate throughput + per-request
        # latency quantiles (the section used to record only the
        # aggregate, leaving the contended tail invisible).
        errors = []
        concurrent_latencies = [[] for _ in
                                range(_CONCURRENT_CLIENTS)]

        def client(n: int) -> None:
            c = http.client.HTTPConnection(server.host, server.port,
                                           timeout=30)
            try:
                for i in range(_REQUESTS_PER_CLIENT):
                    method, path, body = \
                        _QUERY_MIX[(n + i) % len(_QUERY_MIX)]
                    start = time.perf_counter()
                    _request(c, method, path, body)
                    concurrent_latencies[n].append(
                        time.perf_counter() - start)
            except Exception as exc:  # pragma: no cover - report only
                errors.append(repr(exc))
            finally:
                c.close()

        threads = [threading.Thread(target=client, args=(n,))
                   for n in range(_CONCURRENT_CLIENTS)]
        concurrent_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        concurrent_seconds = time.perf_counter() - concurrent_start
        assert not errors, errors[:3]

        cache_stats = app.qcache.stats()

    latencies.sort()
    p50 = _percentile(latencies, 50)
    p99 = _percentile(latencies, 99)
    merged = sorted(lat for per_client in concurrent_latencies
                    for lat in per_client)
    concurrent_p50 = _percentile(merged, 50)
    concurrent_p99 = _percentile(merged, 99)
    sequential_rps = _SEQUENTIAL_REQUESTS / sequential_seconds
    concurrent_rps = (_CONCURRENT_CLIENTS * _REQUESTS_PER_CLIENT
                      / concurrent_seconds)
    cli_rps = 1.0 / cli_seconds
    throughput_ratio = sequential_rps / cli_rps

    payload = {
        "corpus": {"packages": len(study.dataset.packages)},
        "cli_invocation_seconds": cli_seconds,
        "cli_answers_per_second": cli_rps,
        "sequential": {
            "requests": _SEQUENTIAL_REQUESTS,
            "seconds": sequential_seconds,
            "requests_per_second": sequential_rps,
            "p50_seconds": p50,
            "p99_seconds": p99,
        },
        "concurrent": {
            "clients": _CONCURRENT_CLIENTS,
            "requests": _CONCURRENT_CLIENTS * _REQUESTS_PER_CLIENT,
            "seconds": concurrent_seconds,
            "requests_per_second": concurrent_rps,
            "p50_seconds": concurrent_p50,
            "p99_seconds": concurrent_p99,
        },
        "qcache": {
            "hit_rate": cache_stats["hit_rate"],
            "hits": cache_stats["hits"],
            "misses": cache_stats["misses"],
        },
        "throughput_ratio": throughput_ratio,
        "required_throughput_ratio": _REQUIRED_THROUGHPUT_RATIO,
        "max_warm_p99_seconds": _MAX_WARM_P99_SECONDS,
        "max_concurrent_p99_seconds": _MAX_CONCURRENT_P99_SECONDS,
    }
    _merge_bench(output_dir, payload)

    save("serve_speed", "\n".join([
        "serving layer — warm query throughput vs CLI",
        f"  cli invocation      : {cli_seconds * 1000:.0f} ms "
        f"({cli_rps:.2f} answers/s)",
        f"  warm sequential     : {sequential_rps:.0f} req/s "
        f"(p50 {p50 * 1000:.2f} ms, p99 {p99 * 1000:.2f} ms)",
        f"  warm concurrent x{_CONCURRENT_CLIENTS}  : "
        f"{concurrent_rps:.0f} req/s "
        f"(p50 {concurrent_p50 * 1000:.2f} ms, "
        f"p99 {concurrent_p99 * 1000:.2f} ms)",
        f"  cache hit rate      : {cache_stats['hit_rate']:.1%}",
        f"  throughput ratio    : {throughput_ratio:.0f}x "
        f"(required {_REQUIRED_THROUGHPUT_RATIO:.0f}x)",
    ]))

    assert throughput_ratio >= _REQUIRED_THROUGHPUT_RATIO, (
        f"warm served throughput only {throughput_ratio:.1f}x the "
        f"CLI rate (need >= {_REQUIRED_THROUGHPUT_RATIO}x)")
    assert p99 <= _MAX_WARM_P99_SECONDS, (
        f"warm-cache p99 {p99 * 1000:.1f}ms exceeds "
        f"{_MAX_WARM_P99_SECONDS * 1000:.0f}ms")
    assert concurrent_p99 <= _MAX_CONCURRENT_P99_SECONDS, (
        f"concurrent warm p99 {concurrent_p99 * 1000:.1f}ms exceeds "
        f"{_MAX_CONCURRENT_P99_SECONDS * 1000:.0f}ms")


# --- pre-fork fleet scaling --------------------------------------------

def _merge_bench(output_dir, updates):
    """Merge ``updates`` into ``BENCH_serve.json`` (both serve tests
    contribute sections to one artifact, in either run order)."""
    path = output_dir / "BENCH_serve.json"
    payload = {}
    if path.exists():
        payload = json.loads(path.read_text(encoding="utf-8"))
    payload.update(updates)
    path.write_text(json.dumps(payload, indent=2) + "\n",
                    encoding="utf-8")


def _fleet_rps(supervisor, clients, requests_each):
    """Aggregate req/s from forked client processes.

    Each client keeps one connection alive (so it stays pinned to one
    worker), does an untimed warm pass of the query mix, then runs the
    timed loop.  Returns ``(rps, worker_labels_seen, errors)``; the
    wall clock is ``max(end) - min(start)`` across clients so process
    spawn cost is excluded.
    """
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    barrier = ctx.Barrier(clients + 1)

    def run_client(n: int) -> None:
        conn = http.client.HTTPConnection(supervisor.host,
                                          supervisor.port,
                                          timeout=60)
        labels = set()
        try:
            for method, path, body in _QUERY_MIX:  # warm this worker
                headers = ({"Content-Type": "application/json"}
                           if body else {})
                conn.request(method, path, body=body,
                             headers=headers)
                response = conn.getresponse()
                labels.add(response.headers.get("X-Repro-Worker"))
                response.read()
            barrier.wait()
            start = time.perf_counter()
            for i in range(requests_each):
                method, path, body = \
                    _QUERY_MIX[(n + i) % len(_QUERY_MIX)]
                headers = ({"Content-Type": "application/json"}
                           if body else {})
                conn.request(method, path, body=body,
                             headers=headers)
                response = conn.getresponse()
                payload = response.read()
                if response.status != 200:
                    queue.put(("error", n,
                               (response.status, payload[:120])))
                    return
                labels.add(response.headers.get("X-Repro-Worker"))
            end = time.perf_counter()
            queue.put(("ok", n, (start, end, sorted(labels))))
        except Exception as exc:
            barrier.abort()  # never leave the parent waiting
            queue.put(("error", n, repr(exc)))
        finally:
            conn.close()

    processes = [ctx.Process(target=run_client, args=(n,))
                 for n in range(clients)]
    for process in processes:
        process.start()
    try:
        barrier.wait()  # clients warmed; timed loops begin together
    except threading.BrokenBarrierError:
        pass  # a client failed during warm-up; errors arrive below
    results, errors = [], []
    for _ in range(clients):
        kind, n, data = queue.get(timeout=600)
        (results if kind == "ok" else errors).append((n, data))
    for process in processes:
        process.join(timeout=60)
    if errors:
        return 0.0, set(), errors
    wall = (max(end for _, (_, end, _) in results)
            - min(start for _, (start, _, _) in results))
    labels = {label for _, (_, _, ls) in results for label in ls}
    return clients * requests_each / wall, labels, []


def test_multiworker_scaling(study, output_dir, save, tmp_path):
    """Pre-fork fleet throughput: 1 worker vs _FLEET_WORKERS workers.

    Records the ratio in ``BENCH_serve.json``; the >=3x gate only
    applies with enough cores to host the fleet and its clients (on a
    small box the fork model can't beat one worker — there is nothing
    to fan out to).
    """
    snapshot_path = tmp_path / "bench.rsnap"
    study.export_dataset(snapshot_path, format="binary")
    rates = {}
    coverage = {}
    for workers in (1, _FLEET_WORKERS):
        supervisor = WorkerSupervisor(
            snapshot_path, workers=workers,
            popcon=study.popcon, repository=study.repository)
        with supervisor:
            # Coverage retry: keep-alive pins each client to one
            # worker, so an unlucky kernel spread can leave a worker
            # idle; respawn the swarm rather than publish a partial
            # fleet measurement.
            for attempt in range(3):
                rps, labels, errors = _fleet_rps(
                    supervisor, _FLEET_CLIENTS,
                    _FLEET_REQUESTS_PER_CLIENT)
                assert not errors, errors[:3]
                if len(labels) == workers or attempt == 2:
                    break
            rates[workers] = rps
            coverage[workers] = len(labels)

    speedup = rates[_FLEET_WORKERS] / rates[1]
    cpus = os.cpu_count() or 1
    gated = cpus >= _FLEET_GATE_MIN_CPUS

    _merge_bench(output_dir, {"multiworker": {
        "snapshot_bytes": snapshot_path.stat().st_size,
        "clients": _FLEET_CLIENTS,
        "requests_per_client": _FLEET_REQUESTS_PER_CLIENT,
        "single_worker_rps": rates[1],
        "fleet_workers": _FLEET_WORKERS,
        "fleet_rps": rates[_FLEET_WORKERS],
        "fleet_worker_coverage": coverage[_FLEET_WORKERS],
        "speedup": speedup,
        "required_speedup": _REQUIRED_FLEET_SPEEDUP,
        "cpus": cpus,
        "speedup_gated": gated,
    }})

    save("serve_multiworker", "\n".join([
        "serving layer — pre-fork fleet scaling "
        f"({_FLEET_CLIENTS} client processes)",
        f"  1 worker            : {rates[1]:.0f} req/s",
        f"  {_FLEET_WORKERS} workers           : "
        f"{rates[_FLEET_WORKERS]:.0f} req/s "
        f"({coverage[_FLEET_WORKERS]}/{_FLEET_WORKERS} workers "
        f"answered)",
        f"  speedup             : {speedup:.2f}x "
        f"(required {_REQUIRED_FLEET_SPEEDUP:.0f}x on "
        f">={_FLEET_GATE_MIN_CPUS} cpus; this box has {cpus})",
    ]))

    assert coverage[_FLEET_WORKERS] >= 2, (
        "fleet measurement never reached a second worker")
    if gated:
        assert speedup >= _REQUIRED_FLEET_SPEEDUP, (
            f"{_FLEET_WORKERS}-worker fleet only {speedup:.2f}x one "
            f"worker (need >= {_REQUIRED_FLEET_SPEEDUP}x)")
