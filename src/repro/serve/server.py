"""HTTP transports for :class:`repro.serve.app.ServeApp`.

The transport layer is deliberately thin and now *pluggable*: a
transport owns a listening socket and an accept loop, decodes the wire
request into a :class:`repro.serve.app.Request`, calls ``app.handle``
(which never raises), and writes the :class:`repro.serve.app.Response`
back with an explicit ``Content-Length`` so HTTP/1.1 keep-alive works.
All policy — routing, admission, caching, deadlines, error envelopes —
lives in the app; nothing in this module inspects paths beyond passing
them on.

:class:`ThreadingTransport` is the stdlib ``ThreadingHTTPServer``
flavor.  Beyond the classic "bind host:port yourself" mode it supports
the two socket arrangements the pre-fork supervisor
(:mod:`repro.serve.workers`) needs:

* ``sock=...`` — adopt an already-bound socket (the inherited-FD fork
  model: the supervisor binds and listens once, every forked worker
  accepts from the same queue);
* ``reuse_port=True`` — bind a fresh socket with ``SO_REUSEPORT`` so N
  workers can each own a listening socket on one address and let the
  kernel spread connections across them.

``worker_label`` stamps an ``X-Repro-Worker`` header on every response
so clients, tests, and load-gen tools can tell which process answered
without disturbing the response body (parity stays byte-exact).

``start()`` runs the accept loop on a background thread and
``stop()`` drains it; the serving process's main thread only waits
for signals (:mod:`repro.serve.workers`).
"""

from __future__ import annotations

import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qsl, urlsplit

from .app import (SERVE_SCHEMA, SERVE_SCHEMA_VERSION, Request, Response,
                  ServeApp)

#: Requests advertising a larger body than this are rejected before
#: the body is read; every legitimate query body is a few KB of API
#: names, so 8 MiB is generous without inviting memory abuse.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Methods whose requests carry a body and therefore must declare its
#: framing.  A POST/PUT without ``Content-Length`` used to sail through
#: with a silently-empty body; now it is rejected with 411 so a query
#: payload can never be lost without a diagnostic.
_BODY_METHODS = frozenset({"POST", "PUT"})


def reuse_port_available() -> bool:
    """True when the platform offers ``SO_REUSEPORT`` load balancing."""
    return hasattr(socket, "SO_REUSEPORT")


def _transport_error(status: int, error_type: str,
                     message: str) -> Response:
    """A wire-level error in the same envelope the app speaks."""
    return Response.json(status, {
        "schema": SERVE_SCHEMA,
        "version": SERVE_SCHEMA_VERSION,
        "error": {"status": status, "class": "bad_request",
                  "type": error_type, "message": message},
    })


class _Handler(BaseHTTPRequestHandler):
    """Wire codec: bytes in, ``app.handle``, bytes out."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    sys_version = ""
    # The stdlib default is an *unbuffered* write file: every
    # send_header() call becomes its own TCP segment, and Nagle +
    # delayed ACK turn a sub-millisecond cached response into ~40ms.
    # Buffer the writes (handle_one_request flushes per request) and
    # disable Nagle so the flush goes out immediately.
    wbufsize = 64 * 1024
    disable_nagle_algorithm = True

    # Set per-server via the factory in ThreadingTransport.
    app: ServeApp
    quiet: bool = True
    worker_label: Optional[str] = None

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST")

    def do_PUT(self) -> None:  # noqa: N802
        self._handle("PUT")

    def do_DELETE(self) -> None:  # noqa: N802
        self._handle("DELETE")

    def _read_body(self, method: str) -> Optional[bytes]:
        """Read the framed request body, or respond and return None.

        Framing errors close the connection: once a body has been
        refused unread, the byte stream can no longer be trusted to
        start a fresh request.
        """
        if self.headers.get("Transfer-Encoding") is not None:
            # Chunked (or any other) transfer coding is unsupported;
            # accepting the request would silently drop the payload.
            self._write(_transport_error(
                411, "LengthRequired",
                "chunked transfer coding is not supported; send a "
                "Content-Length framed body"))
            self.close_connection = True
            return None
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            if method in _BODY_METHODS:
                self._write(_transport_error(
                    411, "LengthRequired",
                    f"{method} requires a Content-Length header"))
                self.close_connection = True
                return None
            return b""
        try:
            length = int(length_header)
        except ValueError:
            length = -1
        if length < 0:
            self._write(_transport_error(
                400, "BadContentLength",
                f"invalid Content-Length: {length_header!r}"))
            self.close_connection = True
            return None
        if length > MAX_BODY_BYTES:
            self._write(_transport_error(
                413, "PayloadTooLarge", "request body too large"))
            self.close_connection = True
            return None
        return self.rfile.read(length)

    def _handle(self, method: str) -> None:
        split = urlsplit(self.path)
        body = self._read_body(method)
        if body is None:
            return
        pairs = parse_qsl(split.query, keep_blank_values=True)
        query = {}
        duplicates = []
        for key, value in pairs:
            if key in query and key not in duplicates:
                duplicates.append(key)
            query[key] = value
        if duplicates:
            # dict(parse_qsl(...)) used to keep the last value and
            # drop the rest silently; ambiguous queries now fail loud
            # (the body was already consumed, so keep-alive is safe).
            self._write(_transport_error(
                400, "DuplicateQueryParameter",
                "duplicate query parameter(s): "
                + ", ".join(duplicates)))
            return
        request = Request(method=method, path=split.path, query=query,
                          body=body,
                          headers={key: value for key, value
                                   in self.headers.items()})
        response = self.app.handle(request)
        self._write(response)

    def _write(self, response: Response) -> None:
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        if self.worker_label is not None:
            self.send_header("X-Repro-Worker", self.worker_label)
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        try:
            self.wfile.write(response.body)
        except (BrokenPipeError, ConnectionResetError):
            # Client went away mid-write; nothing to salvage.
            self.close_connection = True

    def log_message(self, format: str, *args) -> None:
        if not self.quiet:
            super().log_message(format, *args)


class _SocketedHTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` over a caller-arranged socket.

    Three arrangements, chosen by the constructor arguments:

    * plain — bind ``address`` ourselves (classic behavior);
    * ``reuse_port`` — same, but set ``SO_REUSEPORT`` before binding
      so sibling processes can bind the identical address;
    * ``sock`` — adopt an existing socket (bound, and listening when
      ``listening=True``) instead of binding at all.
    """

    def __init__(self, address, handler, sock: Optional[socket.socket]
                 = None, listening: bool = False,
                 reuse_port: bool = False) -> None:
        super().__init__(address, handler, bind_and_activate=False)
        if sock is not None:
            self.socket.close()  # discard the unbound placeholder
            self.socket = sock
            self.server_address = sock.getsockname()
            host, port = self.server_address[:2]
            self.server_name = host
            self.server_port = port
            if not listening:
                self.server_activate()
        else:
            if reuse_port:
                if not reuse_port_available():  # pragma: no cover
                    raise OSError("SO_REUSEPORT is not available on "
                                  "this platform")
                self.socket.setsockopt(socket.SOL_SOCKET,
                                       socket.SO_REUSEPORT, 1)
            try:
                self.server_bind()
                self.server_activate()
            except BaseException:
                self.server_close()
                raise


class ThreadingTransport:
    """Listener lifecycle around one :class:`ServeApp`.

    The base (and default) transport: a threaded accept loop over one
    listening socket.  See the module docstring for the ``sock`` /
    ``reuse_port`` / ``worker_label`` extension points the pre-fork
    supervisor uses.
    """

    def __init__(self, app: ServeApp, host: str = "127.0.0.1",
                 port: int = 0, quiet: bool = True,
                 sock: Optional[socket.socket] = None,
                 listening: bool = True,
                 reuse_port: bool = False,
                 worker_label: Optional[str] = None) -> None:
        self.app = app
        handler = type("BoundHandler", (_Handler,),
                       {"app": app, "quiet": quiet,
                        "worker_label": worker_label})
        self._httpd = _SocketedHTTPServer((host, port), handler,
                                          sock=sock,
                                          listening=listening,
                                          reuse_port=reuse_port)
        self._httpd.daemon_threads = False  # join in-flight on stop
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the kernel's pick)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ThreadingTransport":
        """Run the accept loop on a background thread."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve-accept", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, then join the accept loop and close.

        ``server_close`` joins the non-daemon handler threads, so
        in-flight requests drain before this returns — the graceful
        half of worker SIGTERM handling.
        """
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "ThreadingTransport":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False
