"""Every dataset endpoint answers at paper scale within the default
deadline.

Builds the 30,976-package paper corpus, writes it as a ``.rsnap``, and
serves the mapped file through an in-process :class:`ServeApp` with
the default 2 s deadline.  Each dataset-scope endpoint must answer 200
within two requests: a result that finishes after its deadline is
cached before the 504, so the retry is a hit.  Afterwards every
admission slot must be free again.

Writes each endpoint's first status and seconds to
``benchmarks/output/paper_deadlines.txt``.
"""

import contextlib
import json
import time

from repro.serve import Request, ServeApp, SnapshotHolder
from repro.store import write_snapshot
from repro.synth import PAPER_PACKAGES, PaperScaleConfig, build_paper_corpus

#: One fixed API list for every POST body.
_APIS = ["read", "write", "open", "close", "fstat", "mmap", "munmap",
         "brk", "rt_sigaction", "rt_sigprocmask", "ioctl", "access",
         "execve", "exit_group", "getpid", "socket", "connect",
         "clone", "wait4", "futex"]

_REQUESTS = {
    "importance": Request("GET", "/v1/importance"),
    "unweighted": Request("GET", "/v1/unweighted"),
    "completeness": Request("POST", "/v1/completeness",
                            body=json.dumps({"supported": _APIS}).encode()),
    "curve": Request("GET", "/v1/completeness/curve"),
    "plan": Request("POST", "/v1/advisor/plan",
                    body=json.dumps({"modified": _APIS}).encode()),
    "evaluate": Request("POST", "/v1/system/evaluate",
                        body=json.dumps({"supported": _APIS}).encode()),
    "stats": Request("GET", "/v1/dataset/stats"),
    "dep_semantics": Request("GET", "/v1/dataset/dep_semantics"),
}


def test_every_endpoint_answers_within_two_requests(tmp_path, save):
    corpus = build_paper_corpus(PaperScaleConfig())
    assert len(corpus.dataset.packages) == PAPER_PACKAGES
    path = tmp_path / "paper.rsnap"
    write_snapshot(path, corpus.dataset)
    del corpus
    app = ServeApp(SnapshotHolder.from_file(path))
    assert app.deadline_seconds == 2.0

    lines = [f"paper-scale endpoints, {PAPER_PACKAGES} packages, "
             f"deadline {app.deadline_seconds:.1f} s",
             f"{'endpoint':<15}{'first':>6}{'seconds':>9}"
             f"{'retry':>7}"]
    answered = {}
    for name, request in _REQUESTS.items():
        start = time.perf_counter()
        first = app.handle(request)
        seconds = time.perf_counter() - start
        final = first if first.status == 200 else app.handle(request)
        answered[name] = final.status
        lines.append(f"{name:<15}{first.status:>6}{seconds:>9.3f}"
                     f"{'-' if final is first else final.status:>7}")
    save("paper_deadlines", "\n".join(lines))

    assert answered == {name: 200 for name in _REQUESTS}
    assert app.admission.stats()["in_flight"] == 0
    with contextlib.ExitStack() as slots:
        for _ in range(app.admission.slots):
            slots.enter_context(app.admission.slot())
