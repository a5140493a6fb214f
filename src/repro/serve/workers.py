"""Pre-fork multi-worker serving: supervisor, workers, reload fan-out.

One CPython process cannot scale the serve layer: the metric kernels
and JSON encoding hold the GIL, so a ``ThreadingHTTPServer`` flatlines
as clients are added (BENCH_serve measured 2,836 req/s with one client
vs 2,969 with four).  The classic fix is the pre-fork model — N worker
*processes*, one listening address — and the ``.rsnap`` store makes it
nearly free here: every worker mmaps the same snapshot file, so the
corpus lives once in the page cache no matter how many workers serve
it.

Architecture::

    supervisor ── binds the address, owns worker lifecycle
        │   SIGHUP ──► fan-out: SIGHUP to every worker
        │   SIGTERM ─► graceful: SIGTERM + join every worker
        ├── worker 0 ── SnapshotHolder.from_file(dataset.rsnap)  (mmap)
        ├── worker 1 ──            ″
        └── worker N ── each: own ServeApp + ThreadingTransport,
                        own qcache/admission/registry (labelled, N>1)

Two socket arrangements; ``mode="auto"`` picks ``reuseport`` for a
fleet where the platform has it and ``inherit`` for one worker:

* ``reuseport`` (Linux et al.) — the supervisor binds the address
  once *without* listening (reserving the port and resolving port 0),
  and every worker binds its own ``SO_REUSEPORT`` listening socket to
  the resolved address; the kernel spreads connections across the
  per-worker accept queues, and a dead worker's queue is dropped the
  moment its socket closes.
* ``inherit`` — the supervisor binds *and listens*, and forked
  workers accept from the one inherited socket; a dead worker's
  pending connections simply wait in the shared backlog for a
  sibling (or the restarted worker) to accept them.

Either way the supervisor's own bind is made without
``SO_REUSEPORT``, so an address some other server already holds —
another ``repro-analyze serve`` included — fails with ``EADDRINUSE``
instead of silently splitting its traffic with this one.

Crash recovery: the supervisor monitors worker processes and restarts
any that die unexpectedly, with exponential backoff that resets after
a healthy run — one poisoned request cannot turn the fleet into a
fork bomb.

Reload protocol: the cross-worker extension of the holder's RCU swap.
``reload_all()`` (wired to the supervisor's SIGHUP by :meth:`run`)
sends SIGHUP to every worker; each worker re-reads the *same* bound
source path via :meth:`repro.serve.app.ServeApp.reload_from_source`,
so ``/readyz`` fingerprint/format provenance stays identical across
the fleet, and each worker's ``/readyz`` flips not-ready only for its
own load window.  With more than one worker, per-worker
``/admin/reload`` is off and ``/metrics`` samples carry
``worker``/``pid`` labels (one worker reloading alone would
desynchronize provenance; scrapes must be told apart).  A fleet of
one keeps ``/admin/reload`` unless ``allow_reload=False`` and keeps
its metric names unlabelled.

``repro-analyze serve`` runs every worker count, 1 included, through
:meth:`WorkerSupervisor.run`: signal wiring, reload-failure handling
and the timed main-thread wait exist once, here.
"""

from __future__ import annotations

import inspect
import multiprocessing
import os
import signal
import socket
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from .app import ServeApp
from .server import ThreadingTransport, reuse_port_available
from .snapshot import SnapshotRegistry

#: Listen backlog for the shared (inherited) socket; deep enough that
#: a worker restart window queues connections instead of refusing.
_BACKLOG = 128

#: :class:`ServeApp` keyword arguments a supervisor passes through to
#: every worker; the snapshot source, metrics and labels are the
#: worker's own.
_APP_OPTIONS = frozenset(inspect.signature(ServeApp).parameters) - {
    "source", "registry", "tracer", "metrics_labels"}


@dataclass
class _WorkerHandle:
    """Supervisor-side bookkeeping for one worker process."""

    index: int
    process: "multiprocessing.process.BaseProcess"
    ready: object  # multiprocessing.Event; set once the worker accepts
    started_at: float
    restarts: int = 0
    last_exitcode: Optional[int] = None


def default_mode() -> str:
    """The socket arrangement this platform supports best for N > 1."""
    return "reuseport" if reuse_port_available() else "inherit"


def _trap_signals(stop_signals: Iterable[int],
                  on_hangup: Callable[[], None]) -> threading.Event:
    """Route ``stop_signals`` to the returned event, SIGHUP to a call."""
    stop = threading.Event()
    for signum in stop_signals:
        signal.signal(signum, lambda *_: stop.set())
    signal.signal(signal.SIGHUP, lambda *_: on_hangup())
    return stop


def _wait(stop: threading.Event, parent: Optional[int] = None) -> None:
    """Block the main thread until ``stop`` is set, in timed slices.

    A process-directed signal may be delivered to a serving thread,
    where the C handler only sets a flag — the Python-level handler
    runs in the main thread, which must wake up to notice it.  An
    untimed ``Event.wait()`` would sleep through that forever.  Given
    ``parent``, the wait also ends once that process is no longer this
    one's parent: a supervisor killed with SIGKILL never runs
    :meth:`WorkerSupervisor.stop`, and its workers must not keep
    serving (and holding the port) as orphans.
    """
    while not stop.wait(0.2):
        if parent is not None and os.getppid() != parent:
            return


def _worker_main(index: int, workers: int, supervisor: int, address,
                 mode: str, inherited: Optional[socket.socket],
                 snapshot_path: str, popcon, repository,
                 tenants: Dict[str, str], app_options: Dict[str, object],
                 quiet: bool, ready) -> None:
    """One worker process: mmap the snapshot(s), serve until SIGTERM.

    Runs only in a forked child.  The worker is a fresh serving
    universe — its own registry of holders, app, caches, metrics, and
    transport — over the *shared* snapshot bytes.  ``snapshot_path``
    may be a ``.rsnap``, JSON, or ``.rser`` series file (sniffed);
    ``tenants`` maps extra tenant names to their own files.
    """
    # No reloads until the holders exist; a SIGHUP racing the boot
    # window is dropped rather than crashing the worker.
    signal.signal(signal.SIGHUP, signal.SIG_IGN)
    snapshots = SnapshotRegistry.from_files(
        snapshot_path, popcon, repository, tenants=tenants)
    label = f"{index}:{os.getpid()}"
    app = ServeApp(
        snapshots,
        metrics_labels=({"worker": str(index), "pid": str(os.getpid())}
                        if workers > 1 else None),
        **app_options)
    app.registry.gauge("serve.worker.index").set(float(index))
    app.registry.gauge("serve.worker.pid").set(float(os.getpid()))
    if mode == "inherit":
        transport = ThreadingTransport(app, quiet=quiet,
                                       sock=inherited, listening=True,
                                       worker_label=label)
    else:
        transport = ThreadingTransport(app, host=address[0],
                                       port=address[1], quiet=quiet,
                                       reuse_port=True,
                                       worker_label=label)

    def _reload() -> None:
        try:
            app.reload_from_source()
        except Exception as exc:
            # A failed load keeps the old snapshot authoritative
            # (holder guarantee); account for it and keep serving.
            app.registry.counter("serve.worker.failed_reloads").inc()
            print(f"worker {index}: reload failed: {exc}",
                  file=sys.stderr, flush=True)

    # SIGTERM and SIGINT both drain.  SIGHUP must not block the accept
    # loop: the reload runs on a thread, and the holder's reload lock
    # serializes overlapping fan-outs.
    stop = _trap_signals(
        (signal.SIGTERM, signal.SIGINT),
        lambda: threading.Thread(target=_reload,
                                 name="repro-serve-reload",
                                 daemon=True).start())

    transport.start()
    ready.set()  # the accept queue exists; clients may connect
    try:
        _wait(stop, parent=supervisor)
    finally:
        # Graceful drain: stop accepting, join in-flight handlers.
        transport.stop()
    sys.exit(0)


class WorkerSupervisor:
    """Bind one address, run N serve workers over one snapshot file.

    The supervisor never serves traffic itself; it owns the address,
    the worker processes, and the two fleet-wide verbs (``stop`` and
    ``reload_all``).  See the module docstring for the architecture.

    Extra keyword arguments are :class:`ServeApp` options (cache,
    admission, deadline, ``allow_reload``), given to every worker's app
    as they are.  Each worker has its *own* cache and admission slots,
    so a fleet of N admits up to ``N * concurrency`` requests.
    """

    def __init__(self, snapshot_path, workers: int = 2,
                 host: str = "127.0.0.1", port: int = 0,
                 popcon=None, repository=None,
                 tenants: Optional[Dict[str, str]] = None,
                 quiet: bool = True, mode: str = "auto",
                 backoff_base_seconds: float = 0.1,
                 backoff_cap_seconds: float = 2.0,
                 healthy_after_seconds: float = 5.0,
                 **app_options) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        unknown = set(app_options) - _APP_OPTIONS
        if unknown:
            raise TypeError(f"not a worker ServeApp option: "
                            f"{', '.join(sorted(unknown))}")
        if mode == "auto":
            # One worker gains nothing from per-worker queues, and the
            # inherited backlog keeps queueing while it restarts.
            mode = default_mode() if workers > 1 else "inherit"
        if mode not in ("reuseport", "inherit"):
            raise ValueError(f"unknown socket mode: {mode!r}")
        if mode == "reuseport" and not reuse_port_available():
            raise ValueError("SO_REUSEPORT is not available on this "
                             "platform; use mode='inherit'")
        if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX
            raise RuntimeError("pre-fork serving requires os.fork")
        self.snapshot_path = str(snapshot_path)
        self.workers = workers
        self.mode = mode
        self.popcon = popcon
        self.repository = repository
        if workers > 1:  # one worker reloading alone desyncs the fleet
            app_options["allow_reload"] = False
        self.app_options = app_options
        self.tenants = dict(tenants or {})
        self.quiet = quiet
        self.backoff_base_seconds = backoff_base_seconds
        self.backoff_cap_seconds = backoff_cap_seconds
        self.healthy_after_seconds = healthy_after_seconds
        self.total_restarts = 0
        self._requested = (host, port)
        self._socket: Optional[socket.socket] = None
        self._address = None
        self._handles: Dict[int, _WorkerHandle] = {}
        self._ctx = multiprocessing.get_context("fork")
        self._stopping = threading.Event()
        self._monitor_thread: Optional[threading.Thread] = None
        self._started = False

    # --- address ---------------------------------------------------------

    @property
    def host(self) -> str:
        return self._address[0]

    @property
    def port(self) -> int:
        return self._address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # --- lifecycle -------------------------------------------------------

    def start(self) -> "WorkerSupervisor":
        """Bind, spawn every worker, and start the crash monitor."""
        if self._started:
            raise RuntimeError("supervisor already started")
        self._bind()
        self._started = True
        for index in range(self.workers):
            self._spawn(index)
        self._monitor_thread = threading.Thread(
            target=self._monitor, name="repro-serve-supervisor",
            daemon=True)
        self._monitor_thread.start()
        return self

    def _bind(self) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET,
                            socket.SO_REUSEADDR, 1)
            # Sharing a port takes SO_REUSEPORT on every socket bound
            # to it, this one included, so binding before setting it
            # fails on an address that is already held.
            sock.bind(self._requested)
            if self.mode == "reuseport":
                # Bound but never listening: reserves the port (and
                # resolves port 0) while workers own the real accept
                # queues on their own SO_REUSEPORT sockets.
                sock.setsockopt(socket.SOL_SOCKET,
                                socket.SO_REUSEPORT, 1)
            else:
                sock.listen(_BACKLOG)
            self._address = sock.getsockname()
            self._socket = sock
        except BaseException:
            sock.close()
            raise

    def _spawn(self, index: int, restarts: int = 0) -> None:
        inherited = self._socket if self.mode == "inherit" else None
        ready = self._ctx.Event()
        process = self._ctx.Process(
            target=_worker_main,
            args=(index, self.workers, os.getpid(), self._address,
                  self.mode, inherited, self.snapshot_path, self.popcon,
                  self.repository, self.tenants, self.app_options,
                  self.quiet, ready),
            name=f"repro-serve-worker-{index}", daemon=False)
        process.start()
        self._handles[index] = _WorkerHandle(
            index=index, process=process, ready=ready,
            started_at=time.monotonic(), restarts=restarts)

    def wait_until_ready(self, timeout: float = 30.0
                         ) -> "WorkerSupervisor":
        """Block until every worker slot has an accepting process.

        Boot is not instant — each worker must fork and map the
        snapshot before it can accept — so callers that connect right
        after :meth:`start` would race the fleet.  A worker that dies
        mid-boot is respawned by the monitor; the wait simply follows
        the slot to the fresh process until the deadline.
        """
        deadline = time.monotonic() + timeout
        for index in range(self.workers):
            while True:
                handle = self._handles.get(index)
                if handle is not None and handle.ready.is_set():
                    break
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"serve worker {index} was not ready after "
                        f"{timeout:.1f}s")
                time.sleep(0.05)
        return self

    def _monitor(self) -> None:
        """Restart crashed workers with capped exponential backoff."""
        while not self._stopping.is_set():
            for handle in list(self._handles.values()):
                if handle.process.is_alive() \
                        or self._stopping.is_set():
                    continue
                handle.process.join()  # reap
                handle.last_exitcode = handle.process.exitcode
                uptime = time.monotonic() - handle.started_at
                restarts = 0 if uptime >= self.healthy_after_seconds \
                    else handle.restarts + 1
                delay = min(self.backoff_cap_seconds,
                            self.backoff_base_seconds
                            * (2 ** min(restarts, 16)))
                if not self.quiet:
                    print(f"worker {handle.index} exited "
                          f"{handle.last_exitcode}; restarting in "
                          f"{delay:.2f}s", file=sys.stderr,
                          flush=True)
                if self._stopping.wait(delay):
                    return
                self.total_restarts += 1
                self._spawn(handle.index, restarts)
            self._stopping.wait(0.05)

    def run(self, on_ready: Optional[Callable[[], None]] = None) -> None:
        """Serve in the foreground until SIGTERM (main thread only).

        Starts the fleet and waits for every worker to accept, routes
        SIGHUP to :meth:`reload_all` and SIGTERM to a graceful return,
        and only then calls ``on_ready`` — so a caller that signals as
        soon as it hears of readiness always finds the handlers in
        place.  SIGINT surfaces as ``KeyboardInterrupt``.  The fleet is
        stopped on every way out.
        """
        try:
            self.start()
            self.wait_until_ready()
            stop = _trap_signals((signal.SIGTERM,), self.reload_all)
            if on_ready is not None:
                on_ready()
            _wait(stop)
        finally:
            self.stop()

    def reload_all(self) -> int:
        """Fan a snapshot reload out to every live worker (SIGHUP).

        Returns the number of workers signalled.  Each worker re-reads
        the supervisor's snapshot path, so after the fan-out settles
        every ``/readyz`` reports the same fingerprint and format.
        """
        signalled = 0
        for handle in self._handles.values():
            process = handle.process
            if process.is_alive() and process.pid is not None:
                try:
                    os.kill(process.pid, signal.SIGHUP)
                    signalled += 1
                except ProcessLookupError:  # lost the race with death
                    pass
        return signalled

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful fleet shutdown: SIGTERM, drain, join, close."""
        self._stopping.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=timeout)
            self._monitor_thread = None
        for handle in self._handles.values():
            process = handle.process
            if process.is_alive() and process.pid is not None:
                try:
                    os.kill(process.pid, signal.SIGTERM)
                except ProcessLookupError:
                    pass
        deadline = time.monotonic() + timeout
        for handle in self._handles.values():
            process = handle.process
            process.join(timeout=max(0.1,
                                     deadline - time.monotonic()))
            if process.is_alive():  # pragma: no cover - stuck worker
                process.kill()
                process.join(timeout=5.0)
            handle.last_exitcode = process.exitcode
        if self._socket is not None:
            self._socket.close()
            self._socket = None

    def __enter__(self) -> "WorkerSupervisor":
        self.start()
        return self.wait_until_ready()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # --- introspection ---------------------------------------------------

    def worker_pids(self) -> List[Optional[int]]:
        """Live worker pids by index (None for a dead/respawning slot)."""
        pids: List[Optional[int]] = []
        for index in range(self.workers):
            handle = self._handles.get(index)
            alive = handle is not None and handle.process.is_alive()
            pids.append(handle.process.pid if alive else None)
        return pids

    def stats(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "workers": self.workers,
            "address": list(self._address) if self._address else None,
            "snapshot_path": self.snapshot_path,
            "tenants": dict(self.tenants),
            "total_restarts": self.total_restarts,
            "worker_table": [
                {"index": handle.index,
                 "pid": handle.process.pid,
                 "alive": handle.process.is_alive(),
                 "restarts": handle.restarts,
                 "last_exitcode": handle.last_exitcode}
                for handle in self._handles.values()],
        }
