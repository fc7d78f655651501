"""Stdlib HTTP/1.1 front end for :class:`~repro.serve.service.PlannerService`.

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

``socketserver`` gives each connection a thread, and the thread runs one
keep-alive loop that reads the request line, the headers and the
``Content-Length`` body itself; the service is thread-safe, so concurrent
clients are supported directly.  The wire rules, all in this module:

- every reply — status line, headers, body — leaves in one ``sendall`` on
  a ``TCP_NODELAY`` socket, and every body is JSON (``{"error": ...}``
  when the status is not 200);
- HTTP/1.1 keeps the connection open unless the request says
  ``Connection: close``; HTTP/1.0, and HTTP/0.9's bare ``GET /path``, close
  it unless the request says ``Connection: keep-alive``.  ``Expect:
  100-continue`` is answered ``100 Continue`` before the body is read;
- a head the loop refuses is answered, and the connection closed: a
  request line over ``_MAX_LINE`` bytes (414), a header line over it or
  more than ``_MAX_HEADERS`` lines in the header block (431), a request
  line that does not parse (400), an HTTP version of 2 or more (505), a
  method other than GET and POST (501);
- a request whose body is not read (``Content-Length`` missing, not a
  number, or over ``_MAX_BODY_BYTES`` → 400 / 413; a GET that declares a
  body) closes the connection with its reply, so unread bytes are never
  parsed as the next request; a
  :class:`~repro.serve.service.RequestError` answers with its ``status``
  (400, or 413 for a batch over its limit);
- with ``verbose`` on, each request writes one JSON line to stderr:
  ``method``, ``path``, ``status``, ``bytes`` (of the reply body) and
  ``seconds`` (from its request line read to its reply sent);
- :meth:`PlannerHTTPServer.server_close` stops listening, closes idle
  keep-alive connections and gives requests in flight ``_DRAIN_SECONDS``
  to be answered.
"""

from __future__ import annotations

import json
import re
import socket
import socketserver
import sys
import threading
import time
from http import HTTPStatus
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.serve.service import PlannerService, RequestError, RequestTooLarge

_MAX_BODY_BYTES = 16 * 1024 * 1024  # inline profiles are ~KBs; 16MB is ample
#: The longest request or header line, and the most lines a header block
#: may hold counting the blank line that ends it (``http.server``'s limits).
_MAX_LINE = 65536
_MAX_HEADERS = 100
#: How long :meth:`PlannerHTTPServer.server_close` waits for requests in
#: flight to be answered.
_DRAIN_SECONDS = 2.0
_VERSION = re.compile(r"HTTP/(\d{1,10})\.(\d{1,10})", re.ASCII)
_REASONS = {status.value: status.phrase for status in HTTPStatus}

#: The POST endpoints that hand their body to a service method of the name.
_POST = {"/plan": "plan", "/simulate": "simulate", "/sweep": "sweep"}


class _PlannerRequestHandler(socketserver.StreamRequestHandler):
    """One connection's keep-alive loop: frames each request, routes it to
    a service method and writes the reply; owns no state but the
    connection's."""

    server: "PlannerHTTPServer"
    # A reply is one small segment; Nagle would hold it for the client's
    # delayed ACK of the one before.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        verbose = self.server.verbose
        while True:
            line = self.rfile.readline(_MAX_LINE + 1).decode("latin-1")
            words = line.split()
            if not words:  # end of input, or a blank request line
                return
            if verbose:
                started = time.perf_counter()
                status, sent = self._answer(line, words)
                # One write a line, so two threads' lines do not interleave.
                sys.stderr.write(json.dumps({
                    "method": words[0],
                    "path": words[1] if len(words) > 1 else "",
                    "status": status, "bytes": sent,
                    "seconds": round(time.perf_counter() - started, 6),
                }) + "\n")
            else:
                self._answer(line, words)
            if self.close_connection:
                return

    def _answer(self, line: str, words: List[str]) -> Tuple[int, int]:
        """Reply to one request; its status and body size.  Sets
        ``close_connection`` when the connection is to end with it."""
        self.close_connection = True
        try:
            status, payload = self._respond(line, words)
        except RequestError as exc:
            status, payload = exc.status, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - server must not die
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        body = json.dumps(payload).encode()
        day, month, mday, clock, year = time.asctime(time.gmtime()).split()
        head = (f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
                f"Server: repro-planner\r\nDate: {day}, {mday:0>2} {month} "
                f"{year} {clock} GMT\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n")
        close = "Connection: close\r\n" if self.close_connection else ""
        self.connection.sendall(f"{head}{close}\r\n".encode() + body)
        return status, len(body)

    def _respond(self, line: str, words: List[str]) -> Tuple[int, Any]:
        """Read the rest of the request that ``line`` starts, and serve it:
        the reply's status and JSON payload."""
        if len(line) > _MAX_LINE:
            return 414, {"error": _REASONS[414]}
        version = (0, 9)
        if len(words) >= 3:
            match = _VERSION.fullmatch(words[-1])
            if match is None:
                return 400, {"error": f"Bad request version ({words[-1]!r})"}
            version = (int(match[1]), int(match[2]))
            if version >= (2, 0):
                number = words[-1][5:]
                return 505, {"error": f"Invalid HTTP version ({number})"}
        if not 2 <= len(words) <= 3:
            request_line = line.rstrip("\r\n")
            return 400, {"error": f"Bad request syntax ({request_line!r})"}
        method, path = words[0], words[1]
        if len(words) == 2 and method != "GET":
            return 400, {"error": f"Bad HTTP/0.9 request type ({method!r})"}
        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            header = self.rfile.readline(_MAX_LINE + 1)
            if len(header) > _MAX_LINE:
                return 431, {"error": "Line too long"}
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            headers.setdefault(name.strip().lower(), value.strip())
        else:
            return 431, {"error": "Too many headers"}
        connection = headers.get("connection", "").lower()
        self.close_connection = (connection == "close" if connection in
                                 ("close", "keep-alive") else version < (1, 1))
        if headers.get("expect", "").lower() == "100-continue" \
                and version >= (1, 1):
            self.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        service = self.server.service
        if method == "GET":
            # A GET's body is never read: one it declares ends the connection.
            if headers.get("content-length", "0") != "0" \
                    or "transfer-encoding" in headers:
                self.close_connection = True
            if path == "/healthz":
                return 200, {"ok": True}
            if path == "/stats":
                return 200, service.stats()
        elif method == "POST":
            body = self._read_json(headers.get("content-length"))
            if path in _POST:
                return 200, getattr(service, _POST[path])(body)
            if path == "/batch":
                if not isinstance(body, dict) or "requests" not in body:
                    raise RequestError("body must be {\"requests\": [...]}")
                return 200, {"results": service.batch(body["requests"])}
        else:
            self.close_connection = True
            return 501, {"error": f"Unsupported method ({method!r})"}
        return 404, {"error": f"no such endpoint: {path}"}

    def _read_json(self, declared: Optional[str]) -> Any:
        """The request body, parsed.  A body that is not read leaves the
        stream mis-framed — its bytes would be taken for the next request
        line — so those errors close the connection with their reply."""
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


class PlannerHTTPServer(socketserver.ThreadingTCPServer):
    """A threading TCP server bound to one planner service, one
    keep-alive loop per connection.

    :meth:`server_close` is a graceful stop: it stops listening, closes
    the keep-alive connections that are idle, and gives the requests in
    flight ``_DRAIN_SECONDS`` to be answered.
    """

    # A restarted server takes its port back at once.
    allow_reuse_address = True
    # A request still running when the drain runs out does not hold the
    # process.
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: PlannerService,
                 verbose: bool = False):
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
        # serve_forever checks for shutdown() once per poll: the default
        # 0.5 s would be most of what stop() takes.
        self._thread = threading.Thread(
            target=self.server.serve_forever, args=(0.05,),
            name="planner-http", daemon=True)

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
