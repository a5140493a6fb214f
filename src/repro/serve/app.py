"""Framework-free request core: routing, codec, envelope, pipeline.

:class:`ServeApp` is the whole server minus the sockets — it maps a
:class:`Request` to a :class:`Response` deterministically, which is
what makes the serving layer testable (and hammerable) without HTTP.
:mod:`repro.serve.server` adapts it onto ``ThreadingHTTPServer``.

Request lifecycle for a query endpoint::

    route -> admission slot -> deadline start -> snapshot pin
          -> normalize params -> result cache probe
          -> [miss: compute payload under a span, encode it once,
              cache the bytes, then check the deadline]
          -> splice cached bytes

A miss that overruns its deadline answers 504, but its bytes are
already cached: the result is still correct, so the retry is a hit.

Every response body is canonical JSON (sorted keys, compact
separators) carrying a versioned schema::

    {"schema": "repro.serve", "version": 1, "endpoint": ...,
     "fingerprint": ..., "generation": ..., "cached": ...,
     "data": {...}}

A query answer's body is spliced from the payload's cached encoding
and the small envelope fields (:func:`splice_envelope`), so a cache
hit never encodes the payload again.  Errors use the same envelope
with ``"error"`` in place of ``"data"``, its ``class`` drawn from the
serve request taxonomy (:mod:`repro.serve.endpoints`) or, for
failures escaping the metric kernels, the engine's analysis taxonomy
(:func:`repro.engine.errors.classify_exception`) — the server speaks
one error language from the HTTP edge down to the decoder.

Observability: every request runs under a ``serve.request`` span
(endpoint, status, and cache outcome as attributes, cache misses with
a nested ``serve.compute`` span) and feeds the registry —
``serve.requests`` / per-endpoint counters, ``serve.request_seconds``
/ per-endpoint latency histograms, qcache and admission counters —
which ``GET /metrics`` exposes in the Prometheus text format via the
same :func:`repro.obs.render_metrics` the CLI exporter uses.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..engine.errors import AnalysisError, classify_exception
from ..obs import MetricsRegistry, SpanTracer, render_metrics
from .admission import (AdmissionController, Deadline,
                        DeadlineExceededError, OverloadedError)
from .endpoints import (ENDPOINTS, Endpoint, BadRequestError,
                        MethodNotAllowedError, NotFoundError,
                        ServeRequestError)
from .qcache import QueryCache, canonical_query_key
from .snapshot import (DEFAULT_TENANT, SeriesSnapshot,
                       SnapshotRegistry)

#: Bump when the response envelope shape changes.
SERVE_SCHEMA = "repro.serve"
SERVE_SCHEMA_VERSION = 1


def canonical_json(payload: Any) -> bytes:
    """The one JSON encoding every response uses.

    Sorted keys + compact separators + no NaN: a given payload object
    has exactly one serialization, which is what lets the parity suite
    compare served bytes against direct library calls.
    """
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":"),
                      allow_nan=False).encode("utf-8")


def splice_envelope(meta: Mapping[str, Any], cached: bool,
                    data: bytes) -> bytes:
    """One answer's response body, built around encoded ``data``.

    Equals ``canonical_json({**meta, "cached": cached, "data":
    payload}) + b"\n"`` where ``data == canonical_json(payload)``, but
    encodes only ``meta``.  The splice is valid because canonical JSON
    sorts keys and ``"cached"`` < ``"data"`` < every key of ``meta``
    (schema, version, endpoint, fingerprint, generation, release,
    tenant), so the two fixed fields always lead the object.  ``meta``
    must be non-empty and must not carry ``cached`` or ``data``.
    """
    return b"".join((b'{"cached":', b"true" if cached else b"false",
                     b',"data":', data, b",", canonical_json(meta)[1:],
                     b"\n"))


@dataclass
class Request:
    """One decoded HTTP request, transport-independent."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    headers: Dict[str, str] = field(default_factory=dict)

    def json_body(self) -> Optional[Dict[str, Any]]:
        """The parsed JSON body, or None when there is no body."""
        if not self.body:
            return None
        try:
            data = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequestError(f"request body is not valid JSON: "
                                  f"{exc}") from None
        if not isinstance(data, dict):
            raise BadRequestError("request body must be a JSON object")
        return data


@dataclass
class Response:
    """One response: status, body, and transport headers."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(cls, status: int, payload: Any,
             headers: Optional[Dict[str, str]] = None) -> "Response":
        return cls(status=status, body=canonical_json(payload) + b"\n",
                   headers=dict(headers or {}))

    @classmethod
    def text(cls, status: int, text: str) -> "Response":
        return cls(status=status, body=text.encode("utf-8"),
                   content_type="text/plain; version=0.0.4; "
                                "charset=utf-8")

    def json_payload(self) -> Any:
        """Decode the body back to data (test convenience)."""
        return json.loads(self.body.decode("utf-8"))


_STATUS_FOR_ANALYSIS_CLASS = {
    # A metric kernel raising the analysis taxonomy means the *input*
    # (not the server) was bad or the budget ran out.
    "format": 422, "decode": 422, "resolution": 422,
    "timeout": 504, "internal": 500,
}


class ServeApp:
    """The request pipeline over published snapshots.

    ``source`` is a single holder (:class:`SnapshotHolder` or
    :class:`SeriesHolder`, registered as the ``default`` tenant) or a
    pre-built :class:`SnapshotRegistry`.  Requests pick their tenant
    with ``?tenant=`` and — against a series tenant — their release
    with ``?release=`` (defaulting to the head release); series-scope
    endpoints (``/v1/trend/*``, ``/v1/release/diff``,
    ``/v1/series/stats``) see the whole release train.
    """

    def __init__(self, source,
                 registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[SpanTracer] = None,
                 cache_entries: int = 1024,
                 cache_ttl_seconds: Optional[float] = None,
                 concurrency: int = 8,
                 max_wait_seconds: float = 0.25,
                 deadline_seconds: Optional[float] = 2.0,
                 allow_reload: bool = True,
                 metrics_labels: Optional[Dict[str, str]] = None,
                 ) -> None:
        self.snapshots = SnapshotRegistry.of(source)
        #: Constant labels stamped on every ``/metrics`` sample — the
        #: pre-fork supervisor sets ``{"worker": ..., "pid": ...}`` so
        #: scrapes from different workers stay distinguishable.
        self.metrics_labels = dict(metrics_labels or {})
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.tracer = tracer if tracer is not None else SpanTracer()
        self.qcache = QueryCache(max_entries=cache_entries,
                                 ttl_seconds=cache_ttl_seconds)
        self.admission = AdmissionController(
            slots=concurrency, max_wait_seconds=max_wait_seconds)
        self.deadline_seconds = deadline_seconds
        self.allow_reload = allow_reload
        self.started_at = time.time()
        # Exact-match routing tables: (path -> {method -> endpoint}).
        self._routes: Dict[str, Dict[str, Endpoint]] = {}
        for endpoint in ENDPOINTS:
            self._routes.setdefault(endpoint.path, {})[
                endpoint.method] = endpoint

    @property
    def holder(self):
        """The default tenant's holder (single-tenant shorthand)."""
        return self.snapshots.get()

    # --- entry point ----------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Map one request to one response.  Never raises."""
        self.registry.counter("serve.requests").inc()
        start = time.perf_counter()
        try:
            response = self._dispatch(request)
        except Exception as exc:  # pragma: no cover - last-ditch guard
            response = self._error_response(request, exc)
        seconds = time.perf_counter() - start
        self.registry.histogram("serve.request_seconds").observe(
            seconds)
        self.registry.counter(
            f"serve.responses.{response.status // 100}xx").inc()
        return response

    # --- routing --------------------------------------------------------

    def _dispatch(self, request: Request) -> Response:
        path = request.path
        if path == "/healthz":
            return self._healthz(request)
        if path == "/readyz":
            return self._readyz(request)
        if path == "/metrics":
            return self._metrics(request)
        if path == "/":
            return self._index(request)
        if path == "/admin/reload":
            return self._reload(request)
        methods = self._routes.get(path)
        try:
            if methods is None:
                raise NotFoundError(f"no route for {path!r}")
            endpoint = methods.get(request.method)
            if endpoint is None:
                raise MethodNotAllowedError(
                    f"{path!r} supports "
                    f"{', '.join(sorted(methods))}, "
                    f"not {request.method}")
            return self._query(request, endpoint)
        except Exception as exc:
            return self._error_response(request, exc)

    # --- system endpoints (no admission: probes must stay live) ---------

    def _healthz(self, request: Request) -> Response:
        """Liveness: the process is up and routing requests."""
        return Response.json(200, {
            "status": "ok",
            "uptime_seconds": round(time.time() - self.started_at, 3),
        })

    def _readyz(self, request: Request) -> Response:
        """Readiness: flips to 503 while any tenant reloads.

        The top-level keys describe the default tenant (so
        single-tenant consumers keep their shape); series tenants add
        release provenance, and additional tenants get their own block
        under ``"tenants"``.
        """
        if not self.snapshots.ready():
            return Response.json(503, {"status": "loading",
                                       "ready": False})
        snapshot = self.snapshots.get().current()
        payload: Dict[str, Any] = {
            "status": "ok", "ready": True,
            "generation": snapshot.generation,
            "fingerprint": snapshot.fingerprint,
            "format": snapshot.source_format,
            "packages": snapshot.packages,
        }
        if isinstance(snapshot, SeriesSnapshot):
            payload["releases"] = snapshot.n_releases
            payload["head_release"] = snapshot.head_release
            payload["release_fingerprints"] = list(
                snapshot.release_fingerprints)
        extra = [name for name in self.snapshots.names()
                 if name != DEFAULT_TENANT]
        if extra:
            tenants: Dict[str, Any] = {}
            for name, holder in self.snapshots.items():
                current = holder.current()
                block: Dict[str, Any] = {
                    "generation": current.generation,
                    "fingerprint": current.fingerprint,
                    "format": current.source_format,
                }
                if isinstance(current, SeriesSnapshot):
                    block["releases"] = current.n_releases
                tenants[name] = block
            payload["tenants"] = tenants
        return Response.json(200, payload)

    def _metrics(self, request: Request) -> Response:
        """Prometheus text scrape of the serve registry."""
        self._export_gauges()
        return Response.text(200, render_metrics(
            self.registry, labels=self.metrics_labels))

    def _export_gauges(self) -> None:
        """Publish point-in-time stats as gauges before a scrape."""
        gauge = self.registry.gauge
        for name, value in self.qcache.stats().items():
            if isinstance(value, (int, float)) and value is not None:
                gauge(f"serve.qcache.{name}").set(value)
        for name, value in self.admission.stats().items():
            gauge(f"serve.admission.{name}").set(value)
        holder = self.holder.stats()
        gauge("serve.snapshot.generation").set(holder["generation"])
        gauge("serve.snapshot.packages").set(holder["packages"])
        gauge("serve.snapshot.reloads").set(holder["reloads"])
        gauge("serve.snapshot.failed_reloads").set(
            holder["failed_reloads"])
        gauge("serve.snapshot.ready").set(1.0 if holder["ready"]
                                          else 0.0)
        if "releases" in holder:
            gauge("serve.snapshot.releases").set(holder["releases"])
        for name, stats in self.snapshots.stats().items():
            if name == DEFAULT_TENANT:
                continue
            prefix = f"serve.tenant.{name}"
            gauge(f"{prefix}.generation").set(stats["generation"])
            gauge(f"{prefix}.reloads").set(stats["reloads"])
            gauge(f"{prefix}.failed_reloads").set(
                stats["failed_reloads"])
            gauge(f"{prefix}.ready").set(1.0 if stats["ready"]
                                         else 0.0)

    def _index(self, request: Request) -> Response:
        """Self-describing endpoint listing."""
        return Response.json(200, {
            "schema": SERVE_SCHEMA,
            "version": SERVE_SCHEMA_VERSION,
            "endpoints": [
                {"name": e.name, "method": e.method, "path": e.path,
                 "summary": e.summary} for e in ENDPOINTS],
            "system": ["/healthz", "/readyz", "/metrics",
                       "/admin/reload"],
        })

    def _reload(self, request: Request) -> Response:
        """POST /admin/reload {"path": ..., "tenant"?: ...}."""
        try:
            if request.method != "POST":
                raise MethodNotAllowedError(
                    "/admin/reload supports POST only")
            if not self.allow_reload:
                raise ServeRequestError("snapshot reload is disabled")
            body = request.json_body()
            if body is None or not isinstance(body.get("path"), str):
                raise BadRequestError(
                    'reload needs a JSON body {"path": "<snapshot>"}')
            tenant = body.get("tenant")
            if tenant is not None and not isinstance(tenant, str):
                raise BadRequestError("tenant must be a string")
            snapshot = self.reload_from_path(body["path"],
                                             tenant=tenant)
            payload = {
                "schema": SERVE_SCHEMA,
                "version": SERVE_SCHEMA_VERSION,
                "generation": snapshot.generation,
                "fingerprint": snapshot.fingerprint,
                "packages": snapshot.packages,
            }
            if tenant is not None:
                payload["tenant"] = tenant
            return Response.json(200, payload)
        except Exception as exc:
            return self._error_response(request, exc)

    def reload_from_path(self, path, tenant: Optional[str] = None):
        """Hot-swap one tenant's snapshot from ``path``.

        Used by both ``POST /admin/reload`` and the worker-side SIGHUP
        handler, so cache invalidation and accounting cannot drift
        between the two reload triggers.
        """
        holder = self.snapshots.get(tenant)
        before = holder.current()
        with self.tracer.span("serve.reload", path=str(path)):
            snapshot = holder.reload_from_file(path)
        if snapshot.fingerprint == before.fingerprint:
            # Same corpus reloaded from a different source: the
            # fingerprint-keyed cache can't tell the generations
            # apart, but provenance payloads (/dataset/stats)
            # changed — drop the stale entries explicitly.
            self.qcache.clear()
        self.registry.counter("serve.reloads").inc()
        return snapshot

    def reload_from_source(self) -> Dict[str, Any]:
        """Reload every source-bound tenant (SIGHUP fan-in).

        Attempts all tenants even if one fails, then re-raises the
        first failure so worker-side failed-reload accounting fires;
        raises ``RuntimeError`` when no tenant has a bound source.
        """
        sourced = [(name, holder)
                   for name, holder in self.snapshots.items()
                   if holder.source_path is not None]
        if not sourced:
            raise RuntimeError(
                "holder has no source path bound; nothing to reload")
        published: Dict[str, Any] = {}
        first_error: Optional[Exception] = None
        for name, holder in sourced:
            try:
                published[name] = self.reload_from_path(
                    holder.source_path, tenant=name)
            except Exception as exc:  # noqa: BLE001 — keep fleet going
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return published

    # --- the query pipeline ---------------------------------------------

    def _query(self, request: Request,
               endpoint: Endpoint) -> Response:
        try:
            slot = self.admission.slot()
        except OverloadedError as exc:
            return self._error_response(request, exc)
        with slot:
            deadline = Deadline(self.deadline_seconds)
            with self.tracer.span(
                    "serve.request", endpoint=endpoint.name) as span:
                try:
                    response = self._answer(request, endpoint,
                                            deadline, span)
                except Exception as exc:
                    response = self._error_response(request, exc)
                span.attrs["status"] = response.status
            self.registry.counter(
                f"serve.endpoint.{endpoint.name}.requests").inc()
            return response

    def _answer(self, request: Request, endpoint: Endpoint,
                deadline: Deadline, span) -> Response:
        # RCU pin: tenant coordinates resolve to one published
        # snapshot (and, for series tenants, one release) read once
        # and held for the whole request.
        target = self.snapshots.resolve(
            tenant=request.query.get("tenant"),
            release=request.query.get("release"),
            scope=endpoint.scope)
        params = endpoint.normalize(request.query,
                                    request.json_body())
        deadline.check("normalize")
        # The release-resolved fingerprint keys the cache, so two
        # releases of one series — or two tenants sharing a corpus —
        # can never collide on an entry.
        key = canonical_query_key(
            f"{target.tenant}:{target.fingerprint}",
            endpoint.name, params)
        data = self.qcache.get(key) if endpoint.cacheable else None
        cached = data is not None
        span.attrs["cached"] = cached
        if cached:
            self.registry.counter("serve.qcache.hit").inc()
        else:
            if endpoint.cacheable:
                self.registry.counter("serve.qcache.miss").inc()
            subject = (target.series if endpoint.scope == "series"
                       else target.dataset)
            start = time.perf_counter()
            with self.tracer.span("serve.compute",
                                  endpoint=endpoint.name):
                payload = endpoint.payload(subject, params)
            self.registry.histogram(
                f"serve.endpoint.{endpoint.name}.compute_seconds"
            ).observe(time.perf_counter() - start)
            # Encoded once; a payload that cannot be encoded (NaN)
            # raises here and is never cached.
            data = canonical_json(payload)
            if endpoint.cacheable:
                self.qcache.put(key, data)
            # A result that finished late is still correct: it is
            # cached before the deadline answers 504, so the retry is
            # a hit instead of paying the whole compute again.
            deadline.check("compute")
        meta = {
            "schema": SERVE_SCHEMA,
            "version": SERVE_SCHEMA_VERSION,
            "endpoint": endpoint.name,
            "fingerprint": target.fingerprint,
            "generation": target.generation,
        }
        if target.release is not None:
            meta["release"] = target.release
        if target.tenant != DEFAULT_TENANT:
            meta["tenant"] = target.tenant
        deadline.check("encode")
        return Response(status=200,
                        body=splice_envelope(meta, cached, data))

    # --- error envelope -------------------------------------------------

    def _error_response(self, request: Request,
                        exc: Exception) -> Response:
        status, error_class = self._classify(exc)
        headers: Dict[str, str] = {}
        if isinstance(exc, OverloadedError):
            # The documented floor is one whole second; ``int()``
            # truncation would turn a sub-second wait hint into
            # ``Retry-After: 0`` (an immediate-retry stampede).
            headers["Retry-After"] = str(max(
                1, math.ceil(exc.retry_after)))
            self.registry.counter("serve.admission.shed").inc()
        self.registry.counter("serve.errors").inc()
        envelope = {
            "schema": SERVE_SCHEMA,
            "version": SERVE_SCHEMA_VERSION,
            "error": {
                "status": status,
                "class": error_class,
                "type": type(exc).__name__,
                "message": str(exc) or type(exc).__name__,
            },
        }
        return Response.json(status, envelope, headers=headers)

    @staticmethod
    def _classify(exc: Exception) -> Tuple[int, str]:
        """(HTTP status, error class) for any escaping exception."""
        if isinstance(exc, ServeRequestError):
            return exc.status, exc.error_class
        if isinstance(exc, OverloadedError):
            return 429, "overloaded"
        if isinstance(exc, DeadlineExceededError):
            return 504, "deadline"
        if isinstance(exc, (ValueError, KeyError, TypeError)):
            # Library-level rejection of the query's inputs (unknown
            # dimension, dataset built without popcon, ...).
            return 400, "bad_request"
        # Everything else speaks the engine's taxonomy, including
        # AnalysisError subclasses raised by the kernels themselves.
        fault = classify_exception(exc, stage="serve")
        return (_STATUS_FOR_ANALYSIS_CLASS.get(fault.error_class, 500),
                fault.error_class)
