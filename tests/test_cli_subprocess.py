"""CLI exit-code taxonomy, via real subprocesses.

0 = success, 1 = runtime/analysis failure, 2 = usage error,
130 = interrupted — and never a traceback on stderr for the
expected-failure paths.
"""

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time

import pytest

TINY = ["--fillers", "24", "--drivers", "6", "--scripts", "10",
        "--seed", "7"]


def run_cli(*argv, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    kwargs.setdefault("timeout", 180)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, env=env, **kwargs)


class TestUsageErrors:
    def test_unknown_flag_exits_2(self):
        result = run_cli("--definitely-not-a-flag")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    def test_missing_subcommand_exits_2(self):
        result = run_cli()
        assert result.returncode == 2

    def test_unknown_experiment_exits_2(self):
        result = run_cli(*TINY, "report", "nosuchfigure")
        assert result.returncode == 2
        assert "unknown experiments" in result.stderr

    def test_help_exits_0(self):
        result = run_cli("--help")
        assert result.returncode == 0
        assert "serve" in result.stdout


class TestRuntimeFailures:
    def test_unwritable_export_exits_1_without_traceback(self):
        result = run_cli(*TINY, "dataset", "export", "--out",
                         "/nonexistent-dir/snapshot.json")
        assert result.returncode == 1
        assert result.stderr.startswith("error")
        assert "Traceback" not in result.stderr

    def test_serve_on_taken_port_exits_1(self):
        import socket
        taken = socket.socket()
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        try:
            port = taken.getsockname()[1]
            result = run_cli(*TINY, "serve", "--port", str(port))
            assert result.returncode == 1
            assert "Traceback" not in result.stderr
        finally:
            taken.close()


class TestInterrupt:
    def test_sigint_on_serve_exits_130_cleanly(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *TINY,
             "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env)
        try:
            announce = process.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", announce)
            assert match, announce
            host, port = match.group(1), int(match.group(2))
            conn = http.client.HTTPConnection(host, port, timeout=10)
            conn.request("GET", "/healthz")
            assert conn.getresponse().status == 200
            conn.close()
            process.send_signal(signal.SIGINT)
            returncode = process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
        stderr = process.stderr.read()
        assert returncode == 130
        assert "interrupted" in stderr
        assert "Traceback" not in stderr


class TestGracefulTermination:
    def test_sigterm_on_serve_drains_and_exits_0(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *TINY,
             "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env)
        try:
            announce = process.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", announce)
            assert match, announce
            host, port = match.group(1), int(match.group(2))
            conn = http.client.HTTPConnection(host, port, timeout=10)
            conn.request("GET", "/healthz")
            assert conn.getresponse().status == 200
            conn.close()
            process.send_signal(signal.SIGTERM)
            returncode = process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
        stderr = process.stderr.read()
        assert returncode == 0
        assert "Traceback" not in stderr


class TestMultiWorkerServe:
    """One startup path: every worker count, 1 included, boots,
    reloads on SIGHUP and stops the same way."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_workers_boot_reload_and_terminate(self, workers, study,
                                               tmp_path):
        reload_path = tmp_path / "reload.rsnap"
        study.export_dataset(reload_path, format="binary")
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *TINY,
             "serve", "--port", "0", "--workers", str(workers)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env)
        try:
            announce = process.stdout.readline()
            match = re.search(
                r"serving (\d+) packages \(fingerprint (\w+), "
                r"(\w+), (\d+) workers?\) on http://([\d.]+):(\d+)",
                announce)
            assert match, announce
            assert int(match.group(4)) == workers
            host, port = match.group(5), int(match.group(6))

            def request(method, path, body=None):
                conn = http.client.HTTPConnection(host, port,
                                                  timeout=10)
                try:
                    raw = json.dumps(body) if body is not None else None
                    headers = ({"Content-Type": "application/json"}
                               if raw else {})
                    conn.request(method, path, body=raw,
                                 headers=headers)
                    response = conn.getresponse()
                    worker = response.headers.get("X-Repro-Worker")
                    return (response.status, worker,
                            json.loads(response.read()))
                finally:
                    conn.close()

            # every worker answers with identical provenance, and the
            # one the announce line named
            seen = {}
            deadline = time.time() + 60
            while len(seen) < workers and time.time() < deadline:
                _, worker, payload = request("GET", "/readyz")
                seen[worker] = payload
            assert len(seen) == workers, sorted(seen)
            assert {p["fingerprint"][:12]
                    for p in seen.values()} == {match.group(2)}
            assert {p["format"] for p in seen.values()} == {"rsnap"}

            # SIGHUP reloads every worker
            process.send_signal(signal.SIGHUP)
            deadline = time.time() + 60
            generations = {}
            while time.time() < deadline:
                _, worker, payload = request("GET", "/readyz")
                if payload.get("ready"):
                    generations[worker] = payload["generation"]
                if len(generations) == workers and \
                        set(generations.values()) == {2}:
                    break
            assert set(generations.values()) == {2}, generations

            # POST /admin/reload only for a fleet of one
            status, _, payload = request(
                "POST", "/admin/reload", {"path": str(reload_path)})
            if workers == 1:
                assert status == 200, payload
                assert payload["generation"] == 3
            else:
                assert status == 500, payload
                assert payload["error"]["message"] == \
                    "snapshot reload is disabled"

            process.send_signal(signal.SIGTERM)
            returncode = process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
        stderr = process.stderr.read()
        assert returncode == 0
        assert "Traceback" not in stderr

    def test_workers_exit_when_the_supervisor_is_killed(self):
        # SIGKILL skips the supervisor's graceful stop; its workers
        # must notice and free the port rather than serve as orphans.
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *TINY,
             "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env)
        try:
            announce = process.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", announce)
            assert match, announce
            host, port = match.group(1), int(match.group(2))
            process.kill()
            process.wait(timeout=30)
            deadline = time.time() + 30
            while True:
                try:
                    socket.create_connection((host, port),
                                             timeout=5).close()
                except ConnectionRefusedError:
                    break
                assert time.time() < deadline, "orphan still serving"
                time.sleep(0.1)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_second_serve_on_the_same_port_exits_1(self, workers):
        # Two servers sharing one port would split its traffic between
        # them, whatever each serves; the second must fail to bind.
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        first = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *TINY,
             "serve", "--port", "0", "--workers", str(workers)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env)
        try:
            announce = first.stdout.readline()
            match = re.search(r"http://[\d.]+:(\d+)", announce)
            assert match, announce
            second = run_cli(*TINY, "serve", "--port", match.group(1),
                             "--workers", str(workers), timeout=60)
            assert second.returncode == 1, second.stdout
            assert "Traceback" not in second.stderr
            assert first.poll() is None
            first.send_signal(signal.SIGTERM)
            assert first.wait(timeout=60) == 0
        finally:
            if first.poll() is None:
                first.kill()
                first.wait(timeout=30)


class TestServeSmoke:
    def test_serve_boots_and_answers_queries(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *TINY,
             "serve", "--port", "0", "--cache-entries", "64"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env)
        try:
            announce = process.stdout.readline()
            match = re.search(r"serving (\d+) packages .* "
                              r"http://([\d.]+):(\d+)", announce)
            assert match, announce
            announced = int(match.group(1))
            host, port = match.group(2), int(match.group(3))
            conn = http.client.HTTPConnection(host, port, timeout=10)
            conn.request("GET", "/v1/dataset/stats")
            payload = json.loads(conn.getresponse().read())
            assert payload["data"]["n_packages"] == announced
            conn.request("GET", "/readyz")
            assert conn.getresponse().status == 200
            conn.close()
            process.send_signal(signal.SIGINT)
            assert process.wait(timeout=60) == 130
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
