"""repro.serve: a long-lived query layer over the warm Dataset.

The batch CLI pays the full pipeline cost — interpreter start, corpus
analysis or cache load, dataset interning — on every invocation, which
is the wrong shape for interactive exploration of the study's tables
(importance rankings, weighted completeness, the completeness curve,
advisor plans).  This package keeps one :class:`repro.dataset.Dataset`
warm behind an HTTP API and answers those queries in microseconds:

* :mod:`repro.serve.app` — framework-free request core: router,
  versioned JSON envelope, error taxonomy mapping;
* :mod:`repro.serve.server` — ``ThreadingHTTPServer`` transport with
  graceful shutdown and ``/healthz`` / ``/readyz`` probes;
* :mod:`repro.serve.endpoints` — the query surface, delegating to the
  exact :mod:`repro.metrics` / :mod:`repro.compat` entry points the
  CLI uses, so served results are bit-identical to batch results;
* :mod:`repro.serve.qcache` — bounded LRU+TTL result cache keyed on
  dataset fingerprint + canonical query;
* :mod:`repro.serve.admission` — bounded-concurrency admission control
  (429 + ``Retry-After`` under saturation) and per-request deadlines;
* :mod:`repro.serve.snapshot` — RCU-style atomic hot reload of the
  dataset with zero dropped in-flight requests, plus the multi-tenant
  :class:`SnapshotRegistry` and the :class:`SeriesHolder` that
  publishes a whole release train for ``?release=`` time travel;
* :mod:`repro.serve.workers` — pre-fork multi-worker serving: a
  supervisor binds one address, N worker processes mmap the same
  ``.rsnap`` snapshot, crashes restart with backoff, and SIGHUP fans
  the RCU reload out across the fleet.

``repro-analyze serve`` is the CLI front door: it runs one supervisor
with ``--workers N`` workers, 1 included.
"""

from .admission import (AdmissionController, Deadline,
                        DeadlineExceededError, OverloadedError)
from .app import (SERVE_SCHEMA, SERVE_SCHEMA_VERSION, Request,
                  Response, ServeApp, canonical_json)
from .endpoints import (ENDPOINTS, ENDPOINTS_BY_NAME, BadRequestError,
                        Endpoint, MethodNotAllowedError, NotFoundError,
                        ServeRequestError)
from .qcache import QueryCache, canonical_query_key
from .server import ThreadingTransport, reuse_port_available
from .snapshot import (DEFAULT_TENANT, DatasetSnapshot, ResolvedTarget,
                       SeriesHolder, SeriesSnapshot, SnapshotHolder,
                       SnapshotRegistry, holder_from_file)
from .workers import WorkerSupervisor, default_mode

__all__ = [
    "AdmissionController",
    "BadRequestError",
    "DEFAULT_TENANT",
    "DatasetSnapshot",
    "Deadline",
    "DeadlineExceededError",
    "ENDPOINTS",
    "ENDPOINTS_BY_NAME",
    "Endpoint",
    "MethodNotAllowedError",
    "NotFoundError",
    "OverloadedError",
    "QueryCache",
    "Request",
    "ResolvedTarget",
    "Response",
    "SERVE_SCHEMA",
    "SERVE_SCHEMA_VERSION",
    "SeriesHolder",
    "SeriesSnapshot",
    "ServeApp",
    "ServeRequestError",
    "SnapshotHolder",
    "SnapshotRegistry",
    "ThreadingTransport",
    "WorkerSupervisor",
    "canonical_json",
    "canonical_query_key",
    "default_mode",
    "holder_from_file",
    "reuse_port_available",
]
