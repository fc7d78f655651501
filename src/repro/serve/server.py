"""Stdlib HTTP front end for :class:`~repro.serve.service.PlannerService`.

A thin JSON-over-HTTP adapter: every endpoint body is exactly the dict the
in-process service method takes, and every response body is exactly what
it returns, so the HTTP client and the in-process client are
interchangeable (asserted by the CI smoke test).

Endpoints::

    POST /plan      {model|profile, cluster|topology, ...} -> plan payload
    POST /simulate  plan fields + {strategy, minibatches, schedule_family}
    POST /sweep     {models, counts, ...}                  -> {records}
    POST /batch     {requests: [...]}                      -> {results}
    GET  /stats     request counts, ``coalesced`` waiters, reuse-layer
                    hit/miss counters
    GET  /healthz   {"ok": true}

``ThreadingHTTPServer`` gives one thread per connection (HTTP/1.1
keep-alive); the service itself is thread-safe, so concurrent clients are
supported directly.  The wire rules, all in this module:

- every reply — status line, headers, body — leaves in one ``sendall`` on
  a ``TCP_NODELAY`` socket;
- a request whose body is not read (``Content-Length`` missing, not a
  number, or over ``_MAX_BODY_BYTES`` → 400 / 413) closes the connection
  with its reply, so unread bytes are never parsed as the next request;
  a :class:`~repro.serve.service.RequestError` answers with its
  ``status`` (400, or 413 for a batch over its limit);
- :meth:`PlannerHTTPServer.server_close` stops listening, closes idle
  keep-alive connections and gives requests in flight ``_DRAIN_SECONDS``
  to be answered.
"""

from __future__ import annotations

import json
import socket
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Set, Tuple

from repro.serve.service import PlannerService, RequestError, RequestTooLarge

_MAX_BODY_BYTES = 16 * 1024 * 1024  # inline profiles are ~KBs; 16MB is ample
#: How long :meth:`PlannerHTTPServer.server_close` waits for requests in
#: flight to be answered.
_DRAIN_SECONDS = 2.0


class _PlannerRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP verbs to service methods; owns no state of its own."""

    server: "PlannerHTTPServer"
    protocol_version = "HTTP/1.1"
    # A reply is one small segment; Nagle would hold it for the client's
    # delayed ACK of the one before.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        """The one response writer: status line, headers and body leave in
        a single ``sendall`` (``wfile`` is unbuffered), so no reply waits
        on an ACK of its own first half."""
        body = json.dumps(payload).encode()
        head = (
            f"{self.protocol_version} {status} {HTTPStatus(status).phrase}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            + ("Connection: close\r\n" if self.close_connection else "")
            + "\r\n"
        )
        self.log_request(status)
        self.wfile.write(head.encode("latin-1") + body)

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """``http.server``'s own rejections (a request line it cannot
        parse, an unsupported method) as the same JSON, the same way."""
        self.close_connection = True
        self._send_json(code, {"error": message or HTTPStatus(code).phrase})

    def _read_json(self) -> Any:
        """The request body, parsed.  A body that is not read leaves the
        stream mis-framed — its bytes would be taken for the next request
        line — so those errors close the connection with their reply."""
        declared = self.headers.get("Content-Length")
        try:
            length = int(declared)
            if length < 0:
                raise ValueError(declared)
        except (TypeError, ValueError) as exc:
            self.close_connection = True
            raise RequestError(
                f"bad Content-Length {declared!r}: a JSON request body "
                "and its length in bytes are required") from exc
        if length > _MAX_BODY_BYTES:
            self.close_connection = True
            raise RequestTooLarge(
                f"request body of {length} bytes is over the limit of "
                f"{_MAX_BODY_BYTES}")
        if length == 0:
            raise RequestError("a JSON request body is required")
        try:
            return json.loads(self.rfile.read(length))
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise RequestError(f"invalid JSON body: {exc}") from exc

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server's naming)
        service = self.server.service
        if self.path == "/healthz":
            self._send_json(200, {"ok": True})
        elif self.path == "/stats":
            self._send_json(200, service.stats())
        else:
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})

    def do_POST(self) -> None:  # noqa: N802
        service = self.server.service
        try:
            body = self._read_json()
            if self.path == "/plan":
                payload = service.plan(body)
            elif self.path == "/simulate":
                payload = service.simulate(body)
            elif self.path == "/sweep":
                payload = service.sweep(body)
            elif self.path == "/batch":
                if not isinstance(body, dict) or "requests" not in body:
                    raise RequestError("body must be {\"requests\": [...]}")
                payload = {"results": service.batch(body["requests"])}
            else:
                self._send_json(
                    404, {"error": f"no such endpoint: {self.path}"}
                )
                return
        except RequestError as exc:
            self._send_json(exc.status, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - server must not die
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
        else:
            self._send_json(200, payload)


class PlannerHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one planner service.

    :meth:`server_close` is a graceful stop: it stops listening, closes
    the keep-alive connections that are idle, and gives the requests in
    flight ``_DRAIN_SECONDS`` to be answered.
    """

    # A request still running when the drain runs out does not hold the
    # process.
    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: PlannerService,
        verbose: bool = False,
    ):
        super().__init__(address, _PlannerRequestHandler)
        self.service = service
        self.verbose = verbose
        self._connections: Set[socket.socket] = set()
        self._connection_closed = threading.Condition()

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._connection_closed:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        super().shutdown_request(request)
        with self._connection_closed:
            self._connections.discard(request)
            self._connection_closed.notify_all()

    def server_close(self) -> None:
        super().server_close()
        with self._connection_closed:
            for connection in self._connections:
                # End of input: an idle handler sees EOF where it waits for
                # the next request line and closes; a busy one still writes
                # its reply, then sees the same.
                try:
                    connection.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # the peer is already gone
            self._connection_closed.wait_for(
                lambda: not self._connections, timeout=_DRAIN_SECONDS)


def make_server(
    service: Optional[PlannerService] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> PlannerHTTPServer:
    """Bind a planner server (``port=0`` picks a free port, for tests)."""
    return PlannerHTTPServer((host, port), service or PlannerService(),
                             verbose=verbose)


class ServerThread:
    """A planner server on a background thread (tests, smoke checks).

    Usage::

        with ServerThread() as url:
            HTTPPlannerClient(url).plan({...})
    """

    def __init__(self, service: Optional[PlannerService] = None,
                 host: str = "127.0.0.1", port: int = 0):
        self.server = make_server(service, host, port)
        self._thread = threading.Thread(
            target=self.server.serve_forever, name="planner-http", daemon=True
        )

    @property
    def url(self) -> str:
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ServerThread":
        self._thread.start()
        return self

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> str:
        self.start()
        return self.url

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
