#!/usr/bin/env python
"""CI smoke test for the planner service's HTTP surface.

Boots the real planner server on a free port, issues one request
per endpoint through :class:`HTTPPlannerClient`, and asserts the answers
are identical to the in-process service and (for /plan) bitwise-equal to
a cold :meth:`PipeDreamOptimizer.solve`.  Error mapping is exercised too:
a bad request must come back as HTTP 400 carrying the same message the
in-process path raises, and one malformed field per endpoint (and in one
batch slot) must come back as a 400 naming the field.  The wire itself
is checked over a raw socket: two plan requests on one keep-alive
connection, a sweep whose cap no plan fits, then a request that declares
a body over the limit — 200, 200, 400, 413; then the two paths curl
takes: a plan POST with ``Expect: 100-continue`` that holds its body back
until the interim ``100`` arrives, and an ``HTTP/1.0`` health check the
server must answer and close.

Usage: ``python tools/serve_smoke.py``  (exit 0 = pass)
"""

from __future__ import annotations

import json
import socket
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.core.partition import PipeDreamOptimizer  # noqa: E402
from repro.serve import (  # noqa: E402
    HTTPPlannerClient,
    PlannerClient,
    PlannerService,
    RequestError,
    ServerThread,
    normalize_plan_request,
)

PLAN_REQUEST = {"model": "vgg16", "cluster": "a", "servers": 4,
                "num_workers": 16, "memory_limit_bytes": 16e9}
#: One malformed field per endpoint, and the field each 400 must name.
MALFORMED = [
    ("/plan", {"model": "vgg16", "topology": {
        "levels": [{"count": 2.7, "bandwidth": 1e9}]}}, "count"),
    ("/simulate", dict(PLAN_REQUEST, minibatches=-1), "minibatches"),
    ("/sweep", {"models": ["vgg16"], "strategies": "dp"}, "strategies"),
]
#: No plan fits a 1000-byte cap: the client's error (400), not the server's.
INFEASIBLE_SWEEP = {"models": ["vgg16"], "cluster": "a", "servers": 1,
                    "counts": [4], "minibatches": 8,
                    "strategies": ["pipedream"], "memory_limit_bytes": 1000}


def check(label: str, condition: bool) -> None:
    print(f"  {'ok' if condition else 'FAIL'}  {label}")
    if not condition:
        raise SystemExit(f"serve smoke failed: {label}")


def statuses_on_one_connection(url: str) -> list:
    """HTTP statuses of plan, plan, an infeasible sweep and an oversized
    plan on a single socket."""
    host, port = url.split("//")[1].split(":")
    plan = json.dumps(PLAN_REQUEST).encode()
    sweep = json.dumps(INFEASIBLE_SWEEP).encode()
    head = ("POST {} HTTP/1.1\r\nHost: smoke\r\n"
            "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n")
    statuses = []
    with socket.create_connection((host, int(port)), timeout=30) as sock, \
            sock.makefile("rb") as replies:
        for path, body, declared in (("/plan", plan, len(plan)),
                                     ("/plan", plan, len(plan)),
                                     ("/sweep", sweep, len(sweep)),
                                     ("/plan", plan, 1 << 40)):
            sock.sendall(head.format(path, declared).encode() + body)
            statuses.append(int(replies.readline().split()[1]))
            length = 0
            while (header := replies.readline()) not in (b"\r\n", b""):
                name, _, value = header.partition(b":")
                if name.lower() == b"content-length":
                    length = int(value)
            replies.read(length)
    return statuses


def curl_paths(url: str) -> list:
    """Status codes of a plan POST with ``Expect: 100-continue`` (the
    interim one, read before the body is sent, then the final one), and of
    an ``HTTP/1.0`` health check with what its connection did next."""
    host, port = url.split("//")[1].split(":")
    plan = json.dumps(PLAN_REQUEST).encode()
    with socket.create_connection((host, int(port)), timeout=30) as sock, \
            sock.makefile("rb") as replies:
        sock.sendall(("POST /plan HTTP/1.1\r\nHost: smoke\r\n"
                      "Content-Type: application/json\r\n"
                      f"Content-Length: {len(plan)}\r\n"
                      "Expect: 100-continue\r\n\r\n").encode())
        codes = [replies.readline().split()[1].decode()]
        replies.readline()  # the interim reply's blank line
        sock.sendall(plan)
        codes.append(replies.readline().split()[1].decode())
    with socket.create_connection((host, int(port)), timeout=5) as sock, \
            sock.makefile("rb") as replies:
        sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
        codes.append(replies.readline().split()[1].decode())
        try:
            replies.read()  # returns at end of input: the server closed
            codes.append("closed")
        except socket.timeout:
            codes.append("open")
    return codes


def main() -> int:
    service = PlannerService()
    inproc = PlannerClient(service)
    with ServerThread(service) as url:
        http = HTTPPlannerClient(url)
        print(f"planner server up at {url}")

        check("healthz", http.healthy())

        served = http.plan(PLAN_REQUEST)
        local = inproc.plan(PLAN_REQUEST)
        check("plan: http == in-process",
              (served["stages"], served["slowest_stage_time"])
              == (local["stages"], local["slowest_stage_time"]))

        query = normalize_plan_request(PLAN_REQUEST)
        cold = PipeDreamOptimizer(
            query.profile, query.topology,
            memory_limit_bytes=query.memory_limit_bytes,
        ).solve(query.num_workers)
        check("plan: served == cold solve (bitwise)",
              served["stages"]
              == [[s.start, s.stop, s.replicas] for s in cold.stages]
              and served["slowest_stage_time"] == cold.slowest_stage_time)
        check("plan: second request is a cache hit",
              http.plan(PLAN_REQUEST)["cached"] is True)

        sim = http.simulate(dict(PLAN_REQUEST, strategy="pipedream",
                                 minibatches=16))
        check("simulate: sane throughput", sim["throughput"] > 0)

        swept = http.sweep({"models": ["vgg16"], "cluster": "a",
                            "servers": 1, "counts": [4],
                            "minibatches": 16})
        check("sweep: records returned", len(swept["records"]) >= 1)

        results = http.batch([PLAN_REQUEST, {"model": "not-a-model"}])
        check("batch: good slot answered", "stages" in results[0])
        check("batch: bad slot isolated in-slot", "error" in results[1])

        try:
            http.plan({"model": "not-a-model"})
        except RequestError as exc:
            check("errors: HTTP 400 -> RequestError",
                  "unknown model" in str(exc))
        else:
            check("errors: HTTP 400 -> RequestError", False)
        try:  # there is one engine: the field is not in the schema
            http.simulate(dict(PLAN_REQUEST, engine="event"))
        except RequestError as exc:
            check("errors: /simulate {engine} is an unknown field (400)",
                  "unknown request fields: ['engine']" in str(exc))
        else:
            check("errors: /simulate {engine} is an unknown field (400)",
                  False)

        for path, body, field in MALFORMED:
            try:
                http._request(path, body)
            except RequestError as exc:
                named = field in str(exc)
            else:
                named = False
            check(f"errors: malformed {field} on {path} is a 400 naming it",
                  named)
        slot = http.batch([{"model": "vgg16", "num_workers": 0}])[0]
        check("errors: malformed num_workers in a /batch slot is named",
              "num_workers" in slot.get("error", ""))

        check("wire: keep-alive 200, 200, 400 for an infeasible sweep, "
              "then 413 for an oversized body",
              statuses_on_one_connection(url) == [200, 200, 400, 413])
        check("wire: Expect: 100-continue gets 100 before its body, then "
              "200; HTTP/1.0 gets 200, then the server closes",
              curl_paths(url) == ["100", "200", "200", "closed"])

        stats = http.stats()
        check("stats: plan cache hit recorded",
              stats["plan_cache"]["hits"] >= 1)
    print("serve smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
