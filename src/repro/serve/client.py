"""The HTTP planner client.

``HTTPPlannerClient`` speaks the JSON API of :mod:`repro.serve.server`
over one persistent ``http.client`` connection.  Its ``plan`` /
``simulate`` / ``sweep`` / ``batch`` / ``stats`` take and return the
payloads of the :class:`~repro.serve.service.PlannerService` methods of
the same names, so code written against an in-process service runs
against a server.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.parse
from typing import Any, Dict, List, Optional, Sequence

from repro.serve.service import RequestError


class HTTPPlannerClient:
    """JSON-over-HTTP client for a running planner server.

    4xx responses raise :class:`~repro.serve.service.RequestError` (same
    type the in-process path raises), 5xx raise ``RuntimeError``.

    A client keeps one keep-alive connection, opened by the first request
    and re-opened once when the server has closed it; requests from
    several threads take turns on it.
    """

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        url = urllib.parse.urlsplit(self.base_url)
        self._path = url.path
        self._connection = http.client.HTTPConnection(
            url.hostname, url.port, timeout=timeout)
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the connection (the next request opens a new one)."""
        with self._lock:
            self._connection.close()

    # ------------------------------------------------------------------
    def _request(self, path: str, body: Optional[Any] = None) -> Any:
        data = None if body is None else json.dumps(body).encode()
        with self._lock:
            for last_try in (False, True):
                try:
                    self._connection.request(
                        "GET" if data is None else "POST", self._path + path,
                        body=data,
                        headers={"Content-Type": "application/json"}
                        if data else {},
                    )
                    response = self._connection.getresponse()
                    status, raw = response.status, response.read()
                    break
                except (ConnectionError, http.client.HTTPException):
                    # The server closed the idle connection (a restart, a
                    # reply that said so): every request is a pure query,
                    # so asking again on a new one is safe.
                    self._connection.close()
                    if last_try:
                        raise
        if status < 400:
            return json.loads(raw)
        try:
            message = json.loads(raw)["error"]
        except (ValueError, TypeError, KeyError):  # body is not our JSON
            message = f"HTTP {status}"
        if status < 500:
            raise RequestError(message)
        raise RuntimeError(message)

    # ------------------------------------------------------------------
    def plan(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return self._request("/plan", request)

    def simulate(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return self._request("/simulate", request)

    def sweep(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return self._request("/sweep", request)

    def batch(self, requests: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
        return self._request("/batch", {"requests": list(requests)})["results"]

    def stats(self) -> Dict[str, Any]:
        return self._request("/stats")

    def healthy(self) -> bool:
        try:
            return bool(self._request("/healthz").get("ok"))
        except (OSError, http.client.HTTPException, RuntimeError,
                RequestError):
            return False
