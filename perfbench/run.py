#!/usr/bin/env python3
"""The repository's benchmark: cold build-to-first-answer, hot-cache
serving, and time-travel serving with reloads.

Run from the repository root::

    python3 perfbench/run.py --workload serve-hot --seed 1 \
        --seconds 5 --trace 0

Workloads (the reasons are in ``BENCHMARK.json``):

* ``cold-start`` — the study-scale binary corpus goes through the
  serial engine, ``Dataset`` and ``.rsnap`` in a fresh interpreter,
  then a fresh server process answers a fixed query;
* ``serve-hot`` — a paper-scale ``.rsnap`` served under a
  popcon-shaped mix of 34 dataset queries with a warmed cache;
* ``serve-timetravel`` — a 10-release ``.rser`` train served under
  ``?release=``, trend and diff queries, with a ``POST /admin/reload``
  to a second train between two blocks of the stream.

Every workload reports every end-to-end metric; each run does the
same phases: set-up (input synthesis, repeated), build of the file
the server boots from (repeated), server boots timed to the first
answer (repeated), then on the last server a warm-up, a closed-loop
saturation phase, ``/metrics`` scrapes and timed reloads.
``--seconds`` sizes the saturation phase.  The streams are in
``streams.py``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a
traced server (wrapped from this directory's files, see
``server.py``), adds an open-loop phase at a fixed offered rate and an
untraced reference pass, prints per-layer self times and writes a
``repro.trace`` v1 file.  The last stdout line is always one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import pathlib
import pickle
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from tracing import KERNELS

ROOT = pathlib.Path.cwd()
HERE = pathlib.Path(__file__).resolve().parent
SRC = ROOT / "src"

WORKLOADS = ("cold-start", "serve-hot", "serve-timetravel")

#: (name, unit, better) — the end-to-end metrics every workload reports.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("build_s", "s", "lower"),
    ("first_answer_s", "s", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("scrape_ms", "ms", "lower"),
    ("rss_mb", "MB", "lower"),
    ("reload_s", "s", "lower"),
)

#: (name, unit, better) — per-layer metrics of the traced run.
PER_LAYER = (
    ("engine.pipeline_s", "s", "lower"),
    ("engine.scan_s", "s", "lower"),
    ("engine.hash_s", "s", "lower"),
    ("engine.analyze_s", "s", "lower"),
    ("engine.resolve_s", "s", "lower"),
    ("engine.binaries", "count", "higher"),
    ("engine.failed", "count", "lower"),
    ("dataset.build_s", "s", "lower"),
    ("dataset.fingerprint_s", "s", "lower"),
    ("dataset.packages", "count", "higher"),
    ("store.write_s", "s", "lower"),
    ("store.bytes", "bytes", "lower"),
    ("store.open_s", "s", "lower"),
    ("store.first_touch_s", "s", "lower"),
    ("series.write_s", "s", "lower"),
    ("series.bytes", "bytes", "lower"),
    ("series.open_s", "s", "lower"),
    ("series.at.k0_s", "s", "lower"),
    ("series.at.mid_s", "s", "lower"),
    ("series.at.head_s", "s", "lower"),
    ("series.releases_materialized", "count", "lower"),
) + tuple(
    (f"metrics.{fn}.{part}", unit, "lower")
    for fn in KERNELS
    for part, unit in (("cold_s", "s"), ("warm_s", "s"), ("calls", "count"))
) + (
    ("serve.import_s", "s", "lower"),
    ("serve.handle_s", "s", "lower"),
    ("serve.resolve_s", "s", "lower"),
    ("serve.normalize_s", "s", "lower"),
    ("serve.key_s", "s", "lower"),
    ("serve.compute_s", "s", "lower"),
    ("serve.encode_s", "s", "lower"),
    ("serve.encode_bytes", "bytes", "lower"),
    ("serve.qcache.probe_s", "s", "lower"),
    ("serve.qcache.hit_rate", "ratio", "higher"),
    ("serve.qcache.evictions", "count", "lower"),
    ("serve.admission.wait_s", "s", "lower"),
    ("serve.admission.shed", "count", "lower"),
    ("serve.transport_s", "s", "lower"),
    ("obs.render_s", "s", "lower"),
    ("obs.spans_retained", "count", "lower"),
    ("obs.histogram_samples", "count", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.phase_coverage", "ratio", "higher"),
    ("stream.repeat_share", "ratio", "higher"),
    ("stream.release_share", "ratio", "higher"),
    ("client.open_p50_ms", "ms", "lower"),
    ("client.open_p99_ms", "ms", "lower"),
    ("client.late_p99_ms", "ms", "lower"),
    ("client.lag_p99_ms", "ms", "lower"),
    ("client.backlog_grew", "count", "lower"),
    ("client.open_loop_valid", "count", "higher"),
)

#: Serve phases wrapped inside ``ServeApp.handle``.
SERVE_PHASES = ("resolve", "normalize", "key", "compute", "encode",
                "qcache.probe", "admission.wait")

#: Set-up and boot repeats per untraced run (medians reported).
REPEATS = 3
#: Build repeats per untraced run: more where one build is short.
BUILDS = {"cold-start": 3, "serve-hot": 5, "serve-timetravel": 3}


#: Endpoints each workload's mix asks, by name in the server's table.
#: ``dep_semantics`` is asked on the study corpus only: at paper scale
#: one call takes 4.4 s (and about a tenth of that per release of a
#: paper-tenth train), so priming it would outlast a run.
_DATASET_ENDPOINTS = ("importance", "unweighted", "completeness", "curve",
                      "plan", "evaluate", "stats")
MIXES = {
    "cold-start": _DATASET_ENDPOINTS + ("dep_semantics",),
    "serve-hot": _DATASET_ENDPOINTS,
    "serve-timetravel": _DATASET_ENDPOINTS + (
        "series_stats", "trend_importance", "trend_completeness",
        "release_diff"),
}
#: Dimensions the time-travel mix asks about: the syscall dimension,
#: which the Table 6 API sets, trends and diffs are about.  The other
#: mixes ask about every dimension.
TIMETRAVEL_DIMENSIONS = ("syscall",)


@dataclass(frozen=True)
class Load:
    """How one workload's load phases are sized.

    Both phases are made of blocks of ``block`` requests that ask the
    same queries equally often (``streams.block``).  ``sat_rps`` is
    the saturation rate this workload reached on the code the
    benchmark was defined on (2-CPU box); with ``--seconds`` it fixes
    the number of closed-loop blocks, so every run does the same work.
    ``open_rate`` is the fixed offered rate of the traced run's
    open-loop phase, about a third of ``sat_rps`` on the warm
    workloads: low enough that a slower CPU moves latency by its
    service time rather than by queueing.  serve-timetravel's
    ``sat_rps`` includes the cold block after its reload, while its
    open loop runs warm, so its rate is set by the open loop's own
    lateness instead.
    """

    block: int
    sat_rps: float
    open_rate: float


LOADS = {
    "cold-start": Load(block=1000, sat_rps=1200.0, open_rate=400.0),
    "serve-hot": Load(block=1000, sat_rps=1800.0, open_rate=600.0),
    "serve-timetravel": Load(block=400, sat_rps=130.0, open_rate=300.0),
}

#: Closed-loop blocks per run at least: on serve-timetravel a reload
#: sits between the first two.
MIN_SAT_BLOCKS = 2
SCRAPES = 201
#: Reload probes per run: more where one reload is short.
RELOAD_PROBES = {"cold-start": 15, "serve-hot": 3, "serve-timetravel": 9}


@dataclass(frozen=True)
class Scale:
    cold: Tuple[int, int, int]   # fillers, drivers, scripts
    hot: float                   # share of the paper's 30,976 packages
    train: float                 # share per release of the train
    releases: int
    max_block: int               # cap on ``Load.block``
    min_requests: int            # floor of the timed open-loop requests
    parity: int                  # served bodies checked beyond the cover


SCALES = {
    "full": Scale(cold=(200, 30, 220), hot=1.0, train=0.1, releases=10,
                  max_block=1000, min_requests=2000, parity=2),
    "tiny": Scale(cold=(24, 6, 10), hot=0.01, train=0.01, releases=3,
                  max_block=60, min_requests=120, parity=4),
}

#: Corpus seeds: fixed, so only the request stream depends on --seed.
CORPUS_SEED = 2016
ALT_TRAIN_SEED = 2017

#: ``PYTHONHASHSEED`` of the runner and every process it starts.
HASH_SEED = "0"

_LIVE: List[subprocess.Popen] = []


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                      else []))
    return env


class Server:
    """One server process booted from a snapshot file."""

    def __init__(self, snapshot: pathlib.Path, work: pathlib.Path,
                 tag: str, trace: bool = False) -> None:
        self.summary_path = work / f"{tag}.summary.json"
        self.log_path = work / f"{tag}.log"
        cmd = [sys.executable, str(HERE / "server.py"),
               "--snapshot", str(snapshot),
               "--summary", str(self.summary_path)]
        if trace:
            cmd.append("--trace")
        self.started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=log, cwd=ROOT,
                env=_env(), text=True)
        _LIVE.append(self.proc)
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            raise RuntimeError("server failed to start:\n"
                               + self.log_path.read_text()[-2000:])
        self.port = int(json.loads(line)["port"])

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> Dict:
        """SIGTERM, wait, and return the summary the server wrote."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        if self.proc in _LIVE:
            _LIVE.remove(self.proc)
        if self.proc.returncode != 0 or not self.summary_path.exists():
            raise RuntimeError(
                f"server exited with {self.proc.returncode}:\n"
                + self.log_path.read_text()[-2000:])
        return json.loads(self.summary_path.read_text())


@contextlib.contextmanager
def idle_spinners():
    """Keep every CPU this process may use from halting (``idle_spin.py``).

    Only the phases that send requests after the boots run under the
    spinners: they keep a request that crosses CPUs from waiting for
    the hypervisor to wake a halted one.  The phases before them
    (set-up, builds, boots) run as a user would run them.
    """
    spinners = [subprocess.Popen(
        [sys.executable, str(HERE / "idle_spin.py"), str(cpu)], cwd=ROOT)
        for cpu in sorted(os.sched_getaffinity(0))]
    _LIVE.extend(spinners)
    try:
        yield
    finally:
        for proc in spinners:
            proc.kill()
            proc.wait(timeout=30)
            _LIVE.remove(proc)


def _stop_all() -> None:
    for proc in list(_LIVE):
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=30)
        if proc.stdout:
            proc.stdout.close()
        _LIVE.remove(proc)


class Bench:
    """One run of one workload."""

    def __init__(self, args, work: pathlib.Path) -> None:
        from tracing import Recorder

        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.scale = SCALES[args.scale]
        self.load = LOADS[self.workload]
        self.work = work
        self.repeats = 1 if self.trace else REPEATS
        self.builds = 1 if self.trace else BUILDS[self.workload]
        self.recorder = Recorder()
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Served bodies by (query key, fingerprint) for the parity check.
        self.samples: Dict[tuple, tuple] = {}
        self.layer: Dict[str, float] = {}
        self.child_report: Dict = {}
        self.phases: List[Tuple[str, float]] = []
        self._mark = time.perf_counter()
        self.parity_checked = 0
        #: Zipf exponent of the corpus's popcon, set by ``prepare``.
        self.exponent = 0.0
        self.block = min(self.load.block, self.scale.max_block)
        self.sat_blocks = max(MIN_SAT_BLOCKS, round(
            self.load.sat_rps * self.seconds / self.block))
        n_open = max(self.scale.min_requests,
                     self.load.open_rate * self.seconds)
        #: The open loop runs in the traced run only (see ``execute``).
        self.open_blocks = (1 + math.ceil(n_open / self.block)
                            if self.trace else 0)

    # --- helpers -------------------------------------------------------

    def span(self, name: str):
        if self.trace:
            return self.recorder.span(name)
        return contextlib.nullcontext()

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def call(self, conn, req) -> Tuple[int, bytes, float]:
        """One sequential request, counted against ``attempted``."""
        import streams
        from client import encode_request

        self.attempted += 1
        start = time.perf_counter()
        try:
            status, body = conn.roundtrip(
                encode_request(req.method, req.target, req.body))
        except (OSError, ValueError) as exc:
            status, body = 0, repr(exc).encode()
        seconds = time.perf_counter() - start
        if not 200 <= status < 300:
            self.fail(f"{req.method} {req.target}: {status} "
                      f"{body[:160]!r}")
        else:
            self.keep_sample(req, body)
        return status, body, seconds

    def keep_sample(self, req, body: bytes) -> None:
        """Keep the first body served per (query, fingerprint)."""
        import streams

        if req.endpoint not in streams.ENDPOINTS or len(self.samples) >= 4000:
            return
        at = body.rfind(b'"fingerprint":"')
        fingerprint = body[at + 15:body.find(b'"', at + 15)] if at >= 0 \
            else b""
        self.samples.setdefault((req.key, fingerprint), (req, body))

    # --- set-up and build ---------------------------------------------

    def prepare(self):
        """Synthesize the workload's inputs (counted in ``setup_s``)."""
        import streams

        if self.workload == "cold-start":
            from repro.synth import EcosystemConfig, build_ecosystem

            fillers, drivers, scripts = self.scale.cold
            ecosystem = build_ecosystem(EcosystemConfig(
                n_filler_packages=fillers, n_driver_packages=drivers,
                n_script_packages=scripts, seed=CORPUS_SEED))
            self.exponent = streams.popcon_exponent(ecosystem.popcon)
            path = self.work / "corpus.pkl"
            with open(path, "wb") as handle:
                pickle.dump(ecosystem, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            return path
        from repro.synth import (EvolutionConfig, PaperScaleConfig,
                                 build_paper_corpus, evolve_corpus)
        if self.workload == "serve-hot":
            corpus = build_paper_corpus(PaperScaleConfig.at_scale(
                self.scale.hot, seed=CORPUS_SEED))
            self.exponent = streams.popcon_exponent(corpus.popcon)
            return corpus

        def train(seed):
            return evolve_corpus(EvolutionConfig(
                n_releases=self.scale.releases,
                base=PaperScaleConfig.at_scale(self.scale.train,
                                               seed=seed),
                seed=seed)).datasets()
        trains = train(CORPUS_SEED), train(ALT_TRAIN_SEED)
        self.exponent = streams.popcon_exponent(trains[0][-1].popcon)
        return trains

    def build(self, prepared, index: int) -> Tuple[float, pathlib.Path]:
        """Turn the corpus into the file the server boots from."""
        if self.workload == "cold-start":
            return self._build_cold(prepared, index)
        if self.workload == "serve-hot":
            from repro.dataset.codec import footprints_fingerprint
            from repro.store import write_snapshot

            out = self.work / f"hot-{index}.rsnap"
            start = time.perf_counter()
            with self.span("dataset.fingerprint"):
                fingerprint = footprints_fingerprint(prepared.dataset)
            with self.span("store.write"):
                write_snapshot(out, prepared.dataset, fingerprint)
            return time.perf_counter() - start, out
        from repro.series import write_series

        out = self.work / f"train-a-{index}.rser"
        start = time.perf_counter()
        with self.span("series.write"):
            write_series(out, prepared[0])
        return time.perf_counter() - start, out

    def _build_cold(self, corpus: pathlib.Path, index: int):
        out = self.work / f"study-{index}.rsnap"
        cmd = [sys.executable, str(HERE / "build_child.py"),
               "--corpus", str(corpus), "--out", str(out)]
        if index == 0:
            cmd += ["--answer", str(self.work / "direct-answer.json")]
        if self.trace:
            cmd += ["--trace", "--report",
                    str(self.work / "build-report.json")]
        log_path = self.work / f"build-{index}.log"
        start = time.perf_counter()
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                    stderr=log, cwd=ROOT, env=_env(),
                                    text=True)
        _LIVE.append(proc)
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
        proc.stdout.close()
        proc.wait(timeout=600)
        _LIVE.remove(proc)
        if line.strip() != "written" or proc.returncode != 0:
            raise RuntimeError("cold-start build failed:\n"
                               + log_path.read_text()[-2000:])
        if self.trace:
            self.child_report = json.loads(
                (self.work / "build-report.json").read_text())
        return seconds, out

    def alternate(self, prepared, builds: List[pathlib.Path]
                  ) -> pathlib.Path:
        """The second file reloads alternate with."""
        if self.workload == "serve-timetravel":
            from repro.series import write_series

            out = self.work / "train-b.rser"
            write_series(out, prepared[1])
            return out
        if len(builds) > 1:
            return builds[1]
        out = builds[0].with_name("alternate.rsnap")
        shutil.copyfile(builds[0], out)
        return out

    # --- workload requests ---------------------------------------------

    def make_stream(self, first_body: bytes, primary: pathlib.Path,
                    alternate: pathlib.Path):
        """This workload's request stream for this seed.

        The syscall ranking that the Table 6 API sets are read against
        is taken from the first answer, the full syscall importance
        table.
        """
        import streams

        ranking = [api for api, _ in
                   json.loads(first_body)["data"]["ranked"]]
        timetravel = self.workload == "serve-timetravel"
        mix = streams.catalogue(
            MIXES[self.workload], ranking, self.exponent,
            n_releases=self.scale.releases if timetravel else 1,
            **({"dimensions": TIMETRAVEL_DIMENSIONS} if timetravel
               else {}))
        paths = ([str(primary.relative_to(ROOT)),
                  str(alternate.relative_to(ROOT))] if timetravel else [])
        return streams.stream(self.workload, self.seed, mix, self.block,
                              self.sat_blocks, self.open_blocks, paths)

    # --- the run ---------------------------------------------------------

    @staticmethod
    def cpu_ticks() -> Tuple[int, int]:
        """(busy, stolen) CPU ticks of the whole machine so far."""
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:]]
        return sum(fields[:3]) + sum(fields[4:7]), fields[7]

    def mark(self, phase: str) -> None:
        """Note the wall time of the phase that just ended."""
        now = time.perf_counter()
        self.phases.append((phase, now - self._mark))
        self._mark = now

    def execute(self) -> Dict:
        import streams
        from client import (Connection, max_connections,
                            open_loop_validity, windowed_percentile)

        busy0, stolen0 = self.cpu_ticks()
        setup_times, prepared = [], None
        for _ in range(self.repeats):
            prepared = None
            start = time.perf_counter()
            prepared = self.prepare()
            setup_times.append(time.perf_counter() - start)
        self.mark("setup")

        build_times, builds = [], []
        for index in range(self.builds):
            seconds, path = self.build(prepared, index)
            build_times.append(seconds)
            builds.append(path)
        primary = builds[0]
        alternate = self.alternate(prepared, builds)
        if self.trace:
            self.offline_layers(prepared, primary)
        del prepared
        self.mark("build")

        first = streams.query("importance", {"dimension": "syscall"})
        connections = min(2, max_connections())
        boot_times = []
        for index in range(self.repeats):
            if boot_times:
                server.stop()
            server = Server(primary, self.work, f"server-{index}",
                            trace=self.trace)
            conn = Connection(server.port)
            status, body, _ = self.call(conn, first)
            boot_times.append(time.perf_counter() - server.started)
            conn.close()
            if status != 200:
                raise RuntimeError(f"the first answer failed: {status} "
                                   f"{body[:300]!r}")
        first_body = body
        self.mark("boots")

        try:
            stream = self.make_stream(first_body, primary, alternate)
            n_sat = len(stream) - self.open_blocks * self.block
            prime = streams.distinct(stream[:self.block])
            shares = streams.shares(prime + [first], stream)
            with idle_spinners():
                self.warm_up(server, prime)
                self.mark("warm-up")
                sat = self._phase(server, stream[:n_sat], connections)
                rps = n_sat / sat.seconds
                scrape_ms = self.scrape(server)
                self.mark("saturation")
                if self.trace:
                    open_result = self._phase(server, stream[n_sat:],
                                              connections,
                                              rate=self.load.open_rate)
                    self.mark("open-loop")
                loaded = primary
                for req in stream[:n_sat]:
                    if req.endpoint == "reload":
                        loaded = ROOT / json.loads(req.body)["path"]
                probe = self.reloader(server, primary, alternate, loaded)
                reload_times = [probe(i) for i in
                                range(RELOAD_PROBES[self.workload])]
            rss_mb = server.peak_rss_mb()
            self.mark("reloads")
        finally:
            summary = server.stop()

        reference_rps = None
        if self.trace:
            server = Server(primary, self.work, "reference")
            try:
                with idle_spinners():
                    self.warm_up(server, prime)
                    reference = self._phase(server, stream[:n_sat],
                                            connections)
                reference_rps = n_sat / reference.seconds
            finally:
                server.stop()
            self.mark("reference")

        self.check_first_answer(first_body)
        self.verify_parity(primary, alternate)
        self.mark("checks")

        print(f"workload {self.workload} seed {self.seed}: "
              f"{n_sat} saturation requests over {connections} "
              f"connections, popcon Zipf exponent {self.exponent:.3f}")
        print("  phases: " + ", ".join(f"{name} {seconds:.1f}s"
                                       for name, seconds in self.phases))
        busy, stolen = self.cpu_ticks()
        busy, stolen = busy - busy0, stolen - stolen0
        print(f"  cpu steal: {stolen / max(1, busy + stolen):.1%} of "
              f"the machine's busy time over the run")
        print(f"  stream: repeat share {shares['repeat_share']:.3f}, "
              f"release share {shares['release_share']:.3f}; "
              f"{self.parity_checked} of {len(self.samples)} distinct "
              "served bodies checked for parity")
        if not self.trace:
            return self.result({
                "setup_s": statistics.median(setup_times),
                "build_s": statistics.median(build_times),
                "first_answer_s": statistics.median(boot_times),
                "throughput_rps": rps,
                "scrape_ms": scrape_ms,
                "rss_mb": rss_mb,
                "reload_s": statistics.median(reload_times),
            }, END_TO_END)
        # The first open-loop block settles the switch from the closed
        # loop and is not timed.
        latencies = open_result.latencies[self.block:]
        validity = open_loop_validity(open_result)
        print(f"  open loop at {self.load.open_rate:.0f}/s, "
              f"{len(latencies)} timed requests: generator late p99 "
              f"{validity['late_p99_s'] * 1e3:.2f} ms, lag p99 "
              f"{validity['lag_p99_s'] * 1e3:.2f} ms, backlog "
              f"{'grew' if validity['backlog_grew'] else 'steady'}, "
              f"phase {'valid' if validity['valid'] else 'INVALID'}")
        layer = self.trace_layers(summary, sat, rps, reference_rps)
        layer.update({
            "stream.repeat_share": shares["repeat_share"],
            "stream.release_share": shares["release_share"],
            "client.open_p50_ms": windowed_percentile(latencies, 50) * 1e3,
            "client.open_p99_ms": windowed_percentile(latencies, 99) * 1e3,
            "client.late_p99_ms": validity["late_p99_s"] * 1e3,
            "client.lag_p99_ms": validity["lag_p99_s"] * 1e3,
            "client.backlog_grew": validity["backlog_grew"],
            "client.open_loop_valid": validity["valid"],
        })
        return self.result(layer, PER_LAYER)

    def result(self, values: Dict[str, float], spec) -> Dict:
        if self.problems:
            print("problems:", *self.problems, sep="\n  ",
                  file=sys.stderr)
        return {"correct": self.failed == 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": values[name], "unit": unit}
                            for name, unit, _ in spec}}

    # --- phases -----------------------------------------------------------

    def warm_up(self, server: Server, warm) -> None:
        from client import Connection

        conn = Connection(server.port)
        try:
            for req in warm:
                self.call(conn, req)
        finally:
            conn.close()

    def _phase(self, server: Server, reqs, connections: int,
               rate: Optional[float] = None):
        """One load phase; closed loop, or open loop at ``rate``.

        Bodies are sampled for the parity check in the closed loop
        only, to keep the open-loop generator's own work small; the
        open loop asks the queries of the closed loop's last block.
        """
        from client import closed_loop, encode_request, open_loop

        items = [encode_request(r.method, r.target, r.body) for r in reqs]

        def on_response(i, status, body):
            if status == 200:
                self.keep_sample(reqs[i], body)

        if rate is None:
            result = closed_loop(server.port, items, connections,
                                 on_response)
        else:
            result = open_loop(server.port, items, connections, rate)
        self.attempted += len(items)
        for req, status in zip(reqs, result.statuses):
            if not 200 <= status < 300:
                self.fail(f"{req.method} {req.target}: status {status}")
        return result

    def scrape(self, server: Server) -> float:
        import streams
        from client import Connection

        req = streams.Req("metrics", "GET", "/metrics")
        conn = Connection(server.port)
        try:
            times = [self.call(conn, req)[2] for _ in range(SCRAPES)]
        finally:
            conn.close()
        return statistics.median(times) * 1e3

    def reloader(self, server: Server, primary: pathlib.Path,
                 alternate: pathlib.Path, loaded: pathlib.Path):
        """A probe: seconds from ``POST /admin/reload`` to the first
        answer of the new generation at the head release.

        Probes alternate between the two files, starting with the one
        not ``loaded``, so each probe publishes another file than the
        server holds.  Each probe query is new to the cache, so every
        probe computes on the freshly published snapshot.
        """
        import streams
        from client import Connection

        other = alternate if loaded == primary else primary

        def probe(i: int) -> float:
            target = other if i % 2 == 0 else loaded
            conn = Connection(server.port)
            try:
                start = time.perf_counter()
                status, body, _ = self.call(
                    conn, streams.reload(str(target.relative_to(ROOT))))
                pstatus, pbody, _ = self.call(conn, streams.query(
                    "importance", {"dimension": "syscall",
                                   "limit": 1000 + i}))
                seconds = time.perf_counter() - start
            finally:
                conn.close()
            if status == 200 and pstatus == 200:
                published = json.loads(body)["generation"]
                if json.loads(pbody)["generation"] != published:
                    self.fail(f"reload probe {i} answered from an "
                              "older generation")
            return seconds
        return probe

    # --- correctness -------------------------------------------------------

    def check_first_answer(self, body: bytes) -> None:
        """The cold-start first answer equals the direct library answer."""
        if self.workload != "cold-start" or not body:
            return
        from repro.serve import canonical_json

        direct = (self.work / "direct-answer.json").read_bytes()
        served = json.loads(body)
        self.attempted += 1
        if (canonical_json(served) + b"\n" != body
                or canonical_json(served["data"]) != direct):
            self.fail("cold-start first answer differs from the direct "
                      "library answer")

    def verify_parity(self, primary: pathlib.Path,
                      alternate: pathlib.Path) -> None:
        """Served bodies equal canonical JSON of the payload functions.

        Bodies are kept per (query, fingerprint), so a query served on
        two releases or trains counts twice.  The check covers every
        endpoint and every fingerprint served at least once, plus
        ``Scale.parity`` more picked with the seed.  Each is recomputed
        on the same snapshot and release through the endpoint's own
        ``normalize``/``payload`` functions; the expected body is the
        served envelope with ``data`` replaced by that payload, so the
        comparison is byte for byte.  Each mismatch counts as failed.
        """
        from repro.serve import (ENDPOINTS_BY_NAME, SnapshotRegistry,
                                 canonical_json)

        owners: Dict[str, Tuple[SnapshotRegistry, Optional[str]]] = {}
        # Only the time-travel trains differ; elsewhere the alternate
        # file holds the same snapshot as the primary.
        paths = ((primary, alternate)
                 if self.workload == "serve-timetravel" else (primary,))
        for path in paths:
            registry = SnapshotRegistry.from_files(path)
            snapshot = registry.get().current()
            owners[snapshot.fingerprint] = (registry, None)
            series = getattr(snapshot, "series", None)
            if series is not None:
                for release, fp in enumerate(series.fingerprints):
                    owners[fp] = (registry, str(release))
        keys = sorted(self.samples, key=repr)
        random.Random(f"perfbench-parity:{self.workload}:"
                      f"{self.seed}").shuffle(keys)
        chosen, endpoints, fingerprints = [], set(), set()
        for key in keys:
            endpoint = self.samples[key][0].endpoint
            if endpoint not in endpoints or key[1] not in fingerprints:
                chosen.append(key)
                endpoints.add(endpoint)
                fingerprints.add(key[1])
        chosen += [key for key in keys
                   if key not in chosen][:self.scale.parity]
        for key in chosen:
            req, body = self.samples[key]
            self.attempted += 1
            served = json.loads(body)
            owner = owners.get(served.get("fingerprint"))
            endpoint = ENDPOINTS_BY_NAME.get(req.endpoint)
            if owner is None or endpoint is None:
                self.fail(f"parity: unknown provenance for {req.target}")
                continue
            registry, release = owner
            params = dict(req.query)
            target = registry.resolve(release=params.get("release"),
                                      scope=endpoint.scope)
            subject = (target.series if endpoint.scope == "series"
                       else target.dataset)
            payload = endpoint.payload(subject, endpoint.normalize(
                params, json.loads(req.body) if req.body else None))
            expected = canonical_json(dict(served, data=payload)) + b"\n"
            if expected != body or target.fingerprint != \
                    served["fingerprint"]:
                self.fail(f"parity mismatch: {req.method} {req.target}")
        self.parity_checked = len(chosen)

    # --- per-layer measurements (traced run) -----------------------------

    def offline_layers(self, prepared, primary: pathlib.Path) -> None:
        """Dataset, store and series layers, timed in this process."""
        from repro.dataset import Dataset
        from repro.dataset.codec import footprints_fingerprint
        from repro.dataset.dimensions import DIMENSION_ORDER
        from repro.store import load_snapshot, write_snapshot

        layer = self.layer
        if self.workload == "cold-start":
            report = self.child_report
            totals = report["totals"]
            stages = report["stage_seconds"]
            layer.update({
                "engine.pipeline_s": totals["engine.pipeline"][1],
                "engine.binaries": report["binaries"],
                "engine.failed": report["failed"],
                "dataset.build_s": totals["dataset.build"][1],
                "dataset.fingerprint_s": totals["dataset.fingerprint"][1],
                "dataset.packages": report["packages"],
                "store.write_s": totals["store.write"][1],
            })
            for stage in ("scan", "hash", "analyze", "resolve"):
                layer[f"engine.{stage}_s"] = stages.get(stage, 0.0)
            snapshot = primary
        else:
            if self.workload == "serve-hot":
                source = prepared.dataset
            else:
                source = prepared[0][-1]
            with self.span("dataset.build"):
                start = time.perf_counter()
                rebuilt = Dataset(source, popcon=source.popcon,
                                  repository=source.repository)
                layer["dataset.build_s"] = time.perf_counter() - start
            start = time.perf_counter()
            fingerprint = footprints_fingerprint(rebuilt)
            layer["dataset.fingerprint_s"] = time.perf_counter() - start
            layer["dataset.packages"] = len(rebuilt.packages)
            snapshot = primary
            if self.workload == "serve-timetravel":
                snapshot = self.work / "head.rsnap"
                with self.span("store.write"):
                    start = time.perf_counter()
                    write_snapshot(snapshot, rebuilt, fingerprint)
                    layer["store.write_s"] = time.perf_counter() - start
            else:
                layer["store.write_s"] = self.recorder.totals[
                    "store.write"][1]
        layer["store.bytes"] = snapshot.stat().st_size
        with self.span("store.open"):
            start = time.perf_counter()
            dataset = load_snapshot(snapshot)
            layer["store.open_s"] = time.perf_counter() - start
        with self.span("store.first_touch"):
            start = time.perf_counter()
            for dimension in DIMENSION_ORDER:
                dataset.masks(dimension)
            layer["store.first_touch_s"] = time.perf_counter() - start
        if self.workload == "serve-timetravel":
            self.series_layers(primary)

    def series_layers(self, primary: pathlib.Path) -> None:
        from repro.series import load_series

        layer = self.layer
        layer["series.write_s"] = self.recorder.totals["series.write"][1]
        layer["series.bytes"] = primary.stat().st_size
        with self.span("series.open"):
            start = time.perf_counter()
            series = load_series(primary)
            layer["series.open_s"] = time.perf_counter() - start
        points = {"k0": 0, "mid": series.n_releases // 2,
                  "head": series.n_releases - 1}
        for label, release in points.items():
            fresh = load_series(primary)
            with self.span(f"series.at.{label}"):
                start = time.perf_counter()
                fresh.at(release)
                layer[f"series.at.{label}_s"] = \
                    time.perf_counter() - start

    def trace_layers(self, summary: Dict, sat, rps: float,
                     reference_rps: float) -> Dict[str, float]:
        """Per-layer metrics from the traced server and this process."""
        import tracing

        server = summary.get("totals", {})
        layer = {name: 0.0 for name, _, _ in PER_LAYER}
        layer.update(self.layer)
        for fn in KERNELS:
            base = f"metrics.{fn}"
            layer[f"{base}.cold_s"] = tracing.mean(server, f"{base}.cold")
            layer[f"{base}.warm_s"] = tracing.mean(server, f"{base}.warm")
            layer[f"{base}.calls"] = (tracing.calls(server, f"{base}.cold")
                                      + tracing.calls(server,
                                                      f"{base}.warm"))
        handle = tracing.mean(server, "serve.handle")
        layer["serve.import_s"] = summary["import_s"]
        layer["serve.handle_s"] = handle
        for phase in SERVE_PHASES:
            layer[f"serve.{phase}_s"] = tracing.mean(server,
                                                     f"serve.{phase}")
        encodes = tracing.calls(server, "serve.encode")
        sums = summary.get("sums", {})
        layer["serve.encode_bytes"] = (sums.get("serve.encode_bytes", 0.0)
                                       / encodes if encodes else 0.0)
        qcache = summary["qcache"]
        layer["serve.qcache.hit_rate"] = qcache["hit_rate"]
        layer["serve.qcache.evictions"] = qcache["evictions"]
        layer["serve.admission.shed"] = summary["admission"]["rejected"]
        handles = [span["end"] - span["start"]
                   for span in summary.get("spans", [])
                   if span["name"] == "serve.handle"]
        if handles:
            layer["serve.transport_s"] = max(
                0.0, statistics.median(sat.latencies) - statistics.median(handles))
        layer["obs.render_s"] = tracing.mean(server, "obs.render")
        layer["obs.spans_retained"] = summary["obs"]["spans_retained"]
        layer["obs.histogram_samples"] = \
            summary["obs"]["histogram_samples"]
        layer["series.releases_materialized"] = sums.get(
            "series.releases_materialized", 0.0)
        layer["bench.trace_overhead_pct"] = \
            (reference_rps / rps - 1.0) * 100.0
        handled = server.get("serve.handle", [0, 0.0, 0.0])[1]
        phases = sum(server.get(f"serve.{phase}", [0, 0.0, 0.0])[1]
                     for phase in SERVE_PHASES)
        layer["bench.phase_coverage"] = phases / handled if handled else 0.0
        if handled and phases > handled * 1.001:
            self.fail("traced serve phases exceed handle time")

        merged = tracing.merge_totals(
            self.recorder.snapshot()["totals"],
            self.child_report.get("totals", {}), server)
        print("  per-layer self time (span minus child spans):")
        for name, seconds in sorted(
                tracing.layer_self_times(merged).items(),
                key=lambda item: -item[1]):
            print(f"    {name:<10} {seconds * 1e3:12.2f} ms")
        print(f"  serve phases cover {layer['bench.phase_coverage']:.1%} "
              f"of traced handle time; tracing overhead "
              f"{layer['bench.trace_overhead_pct']:+.1f}% "
              f"({reference_rps:.0f} -> {rps:.0f} req/s)")
        self.write_trace(summary)
        return layer

    def write_trace(self, summary: Dict) -> None:
        import tracing
        from repro.obs import read_trace_file, render_trace_report

        path = self.work / "trace.jsonl"
        count = tracing.write_trace_file(
            path, [self.recorder.snapshot()["spans"],
                   self.child_report.get("spans", []),
                   summary.get("spans", [])],
            meta={"workload": self.workload, "seed": self.seed})
        _, spans = read_trace_file(path)
        render_trace_report(spans)
        print(f"  trace: {path.relative_to(ROOT)} ({count} spans, "
              "loads with repro.obs.read_trace_file)")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark: cold start, hot-cache serving and "
                    "time-travel serving with reloads.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="corpus sizes; 'tiny' is for smoke tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Set iteration order follows the hash seed, and some kernels
        # sum floats over sets (``weighted_completeness``), so processes
        # with different hash seeds can disagree in the last bits of an
        # answer.  Pinning the seed for this process and every process
        # it starts lets the parity check compare bytes.
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    work = ROOT / ".perfbench" / (f"{args.workload}-s{args.seed}"
                                  f"-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        output = Bench(args, work).execute()
    finally:
        _stop_all()
        for pattern in ("*.rsnap", "*.rser", "*.pkl"):
            for path in work.glob(pattern):
                path.unlink()
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
