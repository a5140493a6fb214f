"""Pre-fork multi-worker serving, over real sockets and real forks.

Everything here runs the true production path: a
:class:`repro.serve.WorkerSupervisor` binds one address, forks worker
processes that mmap the same ``.rsnap`` snapshot, and the tests speak
HTTP to the fleet.  Workers identify themselves with the
``X-Repro-Worker: <index>:<pid>`` response header, which is how the
tests attribute a response to a process without trusting scheduling.
"""

import http.client
import json
import os
import signal
import socket
import time

import pytest

from repro.obs import parse_metrics
from repro.serve import (ServeApp, SnapshotHolder, WorkerSupervisor,
                         default_mode, reuse_port_available)

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="pre-fork serving needs fork")


@pytest.fixture(scope="module")
def snapshot_path(study, tmp_path_factory):
    path = tmp_path_factory.mktemp("workers") / "dataset.rsnap"
    study.export_dataset(path, format="binary")
    return path


@pytest.fixture(scope="module")
def fleet(study, snapshot_path):
    """A 2-worker fleet in the platform's default socket mode."""
    supervisor = WorkerSupervisor(
        snapshot_path, workers=2,
        popcon=study.popcon, repository=study.repository,
        backoff_base_seconds=0.05, healthy_after_seconds=0.5)
    with supervisor:
        yield supervisor


def fetch(supervisor, method, path, body=None, timeout=10):
    """One request on a fresh connection; returns (status, headers,
    bytes).  A fresh connection per call is what lets the kernel pick
    a worker each time."""
    conn = http.client.HTTPConnection(supervisor.host,
                                      supervisor.port,
                                      timeout=timeout)
    try:
        raw = json.dumps(body) if body is not None else None
        headers = {"Content-Type": "application/json"} if raw else {}
        conn.request(method, path, body=raw, headers=headers)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), \
            response.read()
    finally:
        conn.close()


def per_worker(supervisor, path, want=2, deadline_seconds=30.0):
    """Fetch ``path`` until ``want`` distinct workers have answered.

    Returns ``{worker_label: (status, headers, body)}``.  The kernel
    decides which worker gets each connection, so this loops fresh
    connections until the whole fleet has been heard from.
    """
    seen = {}
    deadline = time.monotonic() + deadline_seconds
    while len(seen) < want:
        if time.monotonic() > deadline:
            raise AssertionError(
                f"only {sorted(seen)} answered within "
                f"{deadline_seconds}s")
        status, headers, body = fetch(supervisor, "GET", path)
        label = headers.get("X-Repro-Worker")
        if label is not None:
            seen[label] = (status, headers, body)
    return seen


class TestFleetBoot:
    def test_two_workers_answer_with_distinct_pids(self, fleet):
        answers = per_worker(fleet, "/healthz")
        labels = sorted(answers)
        assert len(labels) == 2
        pids = {int(label.split(":")[1]) for label in labels}
        assert pids == set(p for p in fleet.worker_pids())
        assert all(status == 200 for status, _, _ in
                   answers.values())

    def test_readyz_provenance_identical_across_workers(self, fleet):
        answers = per_worker(fleet, "/readyz")
        payloads = [json.loads(body) for _, _, body in
                    answers.values()]
        assert {p["fingerprint"] for p in payloads} == \
            {payloads[0]["fingerprint"]}
        assert {p["format"] for p in payloads} == {"rsnap"}
        assert {p["generation"] for p in payloads} == {1}

    def test_metrics_carry_worker_and_pid_labels(self, fleet):
        answers = per_worker(fleet, "/metrics")
        for label, (status, _, body) in answers.items():
            assert status == 200
            index, pid = label.split(":")
            lines = body.decode().splitlines()
            samples = [line for line in lines
                       if not line.startswith("#")]
            assert samples
            for line in samples:
                assert f'worker="{index}"' in line, line
                assert f'pid="{pid}"' in line, line

    def test_stats_table_reports_live_fleet(self, fleet):
        stats = fleet.stats()
        assert stats["workers"] == 2
        assert stats["mode"] == default_mode()
        assert all(row["alive"] for row in stats["worker_table"])


class TestPerWorkerParity:
    QUERY = "/v1/importance?limit=8&dimension=syscall"

    def warm_answers(self, fleet):
        """One *cached* answer per worker.

        The ``cached`` envelope flag legitimately differs between a
        worker's first (miss) and later (hit) answers, so byte parity
        is asserted on the warm state, which is deterministic.
        """
        warm = {}
        deadline = time.monotonic() + 30.0
        while len(warm) < 2:
            assert time.monotonic() < deadline, sorted(warm)
            _, headers, body = fetch(fleet, "GET", self.QUERY)
            label = headers.get("X-Repro-Worker")
            if label and json.loads(body)["cached"]:
                warm[label] = body
        return warm

    def test_workers_answer_byte_identically(self, fleet):
        bodies = set(self.warm_answers(fleet).values())
        assert len(bodies) == 1, "workers disagree on bytes"

    def test_worker_bytes_match_in_process_app(self, fleet, study,
                                               snapshot_path):
        served = next(iter(self.warm_answers(fleet).values()))
        holder = SnapshotHolder.from_file(snapshot_path,
                                          study.popcon,
                                          study.repository)
        app = ServeApp(holder, allow_reload=False)
        from repro.serve import Request
        request = Request("GET", "/v1/importance",
                          query={"limit": "8",
                                 "dimension": "syscall"})
        app.handle(request)            # prime the cache
        local = app.handle(request)    # warm, cached=true
        assert served == local.body


class TestReloadFanOut:
    """SIGHUP reaches every worker and provenance stays in lockstep.

    Runs last against the shared fleet (it rewrites the snapshot
    file), restoring the original bytes afterwards.
    """

    def test_sighup_reloads_every_worker(self, fleet, study,
                                         snapshot_path):
        original = snapshot_path.read_bytes()
        try:
            study.export_dataset(snapshot_path, format="json")
            assert fleet.reload_all() == 2
            deadline = time.monotonic() + 30.0
            while True:
                answers = per_worker(fleet, "/readyz")
                payloads = [json.loads(body) for _, _, body in
                            answers.values()]
                if all(p.get("generation") == 2
                       and p.get("format") == "json"
                       for p in payloads):
                    break
                assert time.monotonic() < deadline, payloads
                time.sleep(0.1)
            # same source file => same fingerprint fleet-wide
            assert len({p["fingerprint"] for p in payloads}) == 1
        finally:
            snapshot_path.write_bytes(original)
            fleet.reload_all()
            deadline = time.monotonic() + 30.0
            while True:
                answers = per_worker(fleet, "/readyz")
                payloads = [json.loads(body) for _, _, body in
                            answers.values()]
                if all(p.get("format") == "rsnap" for p in payloads):
                    break
                assert time.monotonic() < deadline, payloads
                time.sleep(0.1)


class TestCrashRecovery:
    def test_killed_worker_is_restarted_under_load(self, study,
                                                   snapshot_path):
        supervisor = WorkerSupervisor(
            snapshot_path, workers=2,
            popcon=study.popcon, repository=study.repository,
            backoff_base_seconds=0.05, healthy_after_seconds=0.5)
        with supervisor:
            victim = supervisor.worker_pids()[0]
            failures = []
            completed = 0
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            # keep traffic flowing through the kill window: requests
            # that reach a live worker must succeed; only broken
            # in-flight connections are tolerated.
            while time.monotonic() < deadline:
                try:
                    status, _, _ = fetch(supervisor, "GET",
                                         "/healthz", timeout=5)
                except (ConnectionError, socket.timeout,
                        http.client.HTTPException):
                    continue
                if status != 200:
                    failures.append(status)
                completed += 1
                pid = supervisor.worker_pids()[0]
                if pid is not None and pid != victim:
                    break
            assert not failures
            assert completed > 0
            assert supervisor.total_restarts >= 1
            supervisor.wait_until_ready()
            restarted = supervisor.worker_pids()[0]
            assert restarted is not None and restarted != victim
            status, _, _ = fetch(supervisor, "GET", "/healthz")
            assert status == 200

    def test_graceful_stop_exits_zero(self, study, snapshot_path):
        supervisor = WorkerSupervisor(
            snapshot_path, workers=2,
            popcon=study.popcon, repository=study.repository)
        supervisor.start()
        supervisor.wait_until_ready()
        supervisor.stop()
        table = supervisor.stats()["worker_table"]
        assert [row["last_exitcode"] for row in table] == [0, 0]
        assert not any(row["alive"] for row in table)


class TestSocketModes:
    @pytest.mark.skipif(not reuse_port_available(),
                        reason="SO_REUSEPORT unavailable")
    def test_reuseport_mode_serves(self, study, snapshot_path):
        with WorkerSupervisor(snapshot_path, workers=2,
                              popcon=study.popcon,
                              repository=study.repository,
                              mode="reuseport") as supervisor:
            assert supervisor.mode == "reuseport"
            status, _, _ = fetch(supervisor, "GET", "/healthz")
            assert status == 200

    def test_inherit_mode_serves(self, study, snapshot_path):
        with WorkerSupervisor(snapshot_path, workers=2,
                              popcon=study.popcon,
                              repository=study.repository,
                              mode="inherit") as supervisor:
            assert supervisor.mode == "inherit"
            answers = per_worker(supervisor, "/readyz")
            assert len(answers) == 2

    def test_taken_port_raises_at_bind(self, study, snapshot_path):
        taken = socket.socket()
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        try:
            port = taken.getsockname()[1]
            supervisor = WorkerSupervisor(
                snapshot_path, workers=2, port=port,
                popcon=study.popcon, repository=study.repository,
                mode="inherit")
            with pytest.raises(OSError):
                supervisor.start()
        finally:
            taken.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_port_held_by_another_fleet_raises_at_bind(
            self, study, snapshot_path, workers):
        # Sharing needs SO_REUSEPORT on every socket bound to the
        # port; the second fleet's supervisor binds without it.
        with WorkerSupervisor(snapshot_path, workers=workers,
                              popcon=study.popcon,
                              repository=study.repository) as first:
            if workers == 1:
                assert first.mode == "inherit"
            second = WorkerSupervisor(
                snapshot_path, workers=workers,
                port=first.port,
                popcon=study.popcon, repository=study.repository)
            try:
                with pytest.raises(OSError):
                    second.start()
            finally:
                second.stop()
            status, _, _ = fetch(first, "GET", "/healthz")
            assert status == 200

    def test_rejects_bad_configuration(self, snapshot_path):
        with pytest.raises(ValueError):
            WorkerSupervisor(snapshot_path, workers=0)
        with pytest.raises(ValueError):
            WorkerSupervisor(snapshot_path, mode="quantum")

    def test_settings_reach_workers(self, study, snapshot_path):
        with WorkerSupervisor(snapshot_path, workers=1,
                              popcon=study.popcon,
                              repository=study.repository,
                              concurrency=2,
                              max_wait_seconds=0.05) as supervisor:
            status, _, body = fetch(supervisor, "GET", "/metrics")
            assert status == 200
            assert "repro_serve_admission_slots" in body.decode()
            # a fleet of one keeps its metric names unlabelled
            samples = parse_metrics(body.decode())
            assert samples["repro_serve_admission_slots"] == 2.0

    def test_unknown_app_option_is_rejected(self, snapshot_path):
        # caught in the supervisor, not by a crash-looping worker
        with pytest.raises(TypeError):
            WorkerSupervisor(snapshot_path, cache_entires=8)
