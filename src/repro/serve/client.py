"""Planner clients: in-process and HTTP, with one shared surface.

``PlannerClient`` wraps a :class:`~repro.serve.service.PlannerService`
directly (no sockets — embedders and the sweep harness use this);
``HTTPPlannerClient`` speaks the JSON API of
:mod:`repro.serve.server` over one persistent ``http.client``
connection.  Both expose ``plan`` /
``simulate`` / ``sweep`` / ``batch`` / ``stats`` with identical payloads,
so code written against one runs against the other.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.parse
from typing import Any, Dict, List, Optional, Sequence

from repro.serve.service import PlannerService, RequestError


class PlannerClient:
    """In-process client: method calls straight into the service."""

    def __init__(self, service: Optional[PlannerService] = None):
        self.service = service or PlannerService()

    def plan(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return self.service.plan(request)

    def simulate(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return self.service.simulate(request)

    def sweep(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return self.service.sweep(request)

    def batch(self, requests: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
        return self.service.batch(list(requests))

    def stats(self) -> Dict[str, Any]:
        return self.service.stats()


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
