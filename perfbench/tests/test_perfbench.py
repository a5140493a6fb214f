"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

* a tiny-scale smoke run of every workload, untraced and traced;
* request-stream determinism (same seed, same stream; another seed,
  another stream, asking the same queries equally often);
* every metric name the runner prints is declared in ``BENCHMARK.json``
  with the same unit and direction.
"""

from __future__ import annotations

import json
import pathlib
import random
import subprocess
import sys
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCH_DIR = ROOT / "perfbench"
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run as runner  # noqa: E402
import streams  # noqa: E402

RANKING = ["read", "write", "openat", "close", "mmap", "futex",
           "sched_setscheduler", "sched_setparam", "inotify_init",
           "splice", "iopl", "ioperm", "quotactl", "statfs"] + [
               f"api{i:03d}" for i in range(150)]


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, seed: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", runner.WORKLOADS)
def test_tiny_smoke_run(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def _mix(releases=1):
    return streams.catalogue(runner.MIXES["serve-timetravel"], RANKING,
                             1.1, n_releases=releases)


def test_stream_is_a_function_of_the_seed():
    mix = _mix()
    first = streams.stream("serve-hot", 7, mix, 200, 3, 2)
    assert first == streams.stream("serve-hot", 7, mix, 200, 3, 2)
    assert first != streams.stream("serve-hot", 8, mix, 200, 3, 2)
    assert first != streams.stream("cold-start", 7, mix, 200, 3, 2)
    assert len(first) == 1000


def test_every_seed_asks_the_same_queries_equally_often():
    mix = _mix(releases=10)
    assert sum(weight for weight, _ in mix) == pytest.approx(1.0)
    counts = [sorted(Counter(r.key for r in streams.block(
        mix, 400, random.Random(seed))).items()) for seed in (1, 2)]
    assert counts[0] == counts[1]


def test_reloads_sit_between_saturation_blocks():
    stream = streams.stream("serve-timetravel", 5, _mix(releases=10),
                            100, 3, 2, ["a.rser", "b.rser"])
    positions = [i for i, req in enumerate(stream)
                 if req.endpoint == "reload"]
    assert positions == [100, 201]
    assert [json.loads(stream[i].body)["path"] for i in positions] == \
        ["b.rser", "a.rser"]
    shares = streams.shares(streams.distinct(stream[:100]), stream)
    assert 0.0 < shares["repeat_share"] < 1.0
    assert 0.0 < shares["release_share"] < 1.0


def test_popcon_exponent_recovers_a_zipf_law():
    class Survey:
        counts = {f"p{rank}": round(1e6 / rank ** 1.3)
                  for rank in range(1, 400)}

        def packages(self):
            return list(self.counts)

        def installations(self, name):
            return self.counts[name]

    assert streams.popcon_exponent(Survey()) == pytest.approx(1.3, 0.01)


def test_every_printed_name_is_declared():
    declared = _declared()
    for section, spec in (("end_to_end", runner.END_TO_END),
                          ("per_layer", runner.PER_LAYER)):
        entries = {m["name"]: m for m in declared[section]}
        assert set(entries) == {name for name, _, _ in spec}, section
        for name, unit, better in spec:
            assert entries[name]["unit"] == unit, name
            assert entries[name]["better"] == better, name
    assert [w["name"] for w in declared["workloads"]] == \
        list(runner.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
