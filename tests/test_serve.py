"""The planner service: canonical keys, value transparency, HTTP parity.

Three properties carry the subsystem:

1. *Canonicalization* — syntactically different but semantically equal
   requests share one cache key; junk fields are rejected, not ignored.
2. *Value transparency* — a served answer (cache hit, warm start, batch
   slot) is bitwise-equal to a cold :meth:`PipeDreamOptimizer.solve`.
3. *Transport equivalence* — the HTTP client and the in-process service
   return identical payloads, and errors map to the same exception type.
"""

import contextlib
import json
import os
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.partition import PipeDreamOptimizer
from repro.core.profile import LayerProfile, ModelProfile
from repro.core.topology import cluster_a
from repro.profiler import analytic_profile
from repro.serve import (
    HTTPPlannerClient,
    PlannerService,
    RequestError,
    RequestTooLarge,
    ServerThread,
    normalize_plan_request,
    topology_to_dict,
)
from repro.serve import server as server_module
from repro.serve.service import MAX_BATCH_REQUESTS
from repro.sim.memory import memory_ceiling

VGG = {"model": "vgg16", "cluster": "a", "servers": 1}


def cold_payload(request):
    """Ground truth: solve the normalized query with a fresh optimizer."""
    return served_tuple(plan_reply(request))


def served_tuple(payload):
    return (
        payload["stages"],
        payload["slowest_stage_time"],
        payload["memory_bytes"],
    )


class TestNormalization:
    def test_unknown_fields_rejected(self):
        with pytest.raises(RequestError, match="unknown request fields"):
            normalize_plan_request(dict(VGG, batch_sizee=64))

    def test_model_xor_profile(self):
        with pytest.raises(RequestError, match="exactly one"):
            normalize_plan_request({"cluster": "a"})
        prof = analytic_profile("vgg16").to_dict()
        with pytest.raises(RequestError, match="exactly one"):
            normalize_plan_request({"model": "vgg16", "profile": prof})

    def test_unknown_model_cluster_precision(self):
        with pytest.raises(RequestError, match="unknown model"):
            normalize_plan_request({"model": "vgg19"})
        with pytest.raises(RequestError, match="unknown cluster"):
            normalize_plan_request({"model": "vgg16", "cluster": "z"})
        with pytest.raises(RequestError, match="unknown precision"):
            normalize_plan_request({"model": "vgg16", "precision": "int4"})

    def test_topology_and_cluster_conflict(self):
        topo = topology_to_dict(cluster_a(1))
        with pytest.raises(RequestError, match="not both"):
            normalize_plan_request(
                {"model": "vgg16", "cluster": "a", "topology": topo}
            )

    def test_inline_profile_matches_named_model(self):
        named = normalize_plan_request(VGG)
        inlined = normalize_plan_request({
            "profile": analytic_profile("vgg16").to_dict(),
            "cluster": "a", "servers": 1,
        })
        assert named.key == inlined.key

    def test_inline_topology_matches_named_cluster(self):
        named = normalize_plan_request(VGG)
        inlined = normalize_plan_request({
            "model": "vgg16",
            "topology": topology_to_dict(cluster_a(1)),
        })
        assert named.key == inlined.key

    def test_null_field_is_the_absent_field(self):
        nulls = dict(VGG, allow_replication=None, memory_refine=None,
                     memory_limit_bytes=None, bucket_bytes=None,
                     recompute=None, tp_degrees=None)
        assert normalize_plan_request(nulls).key == \
            normalize_plan_request(VGG).key
        service = PlannerService()
        assert service.plan(VGG)["config"] == "3-1"
        assert service.plan(nulls)["cached"] is True

    def test_json_booleans_are_taken_as_they_are(self):
        service = PlannerService()
        assert service.plan(dict(VGG, allow_replication=False))["config"] \
            == "straight"
        assert normalize_plan_request(
            dict(VGG, allow_replication=True)).key == \
            normalize_plan_request(VGG).key

    def test_precision_splits_the_key(self):
        fp32 = normalize_plan_request(VGG)
        fp16 = normalize_plan_request(dict(VGG, precision="fp16"))
        assert fp32.key != fp16.key

    def test_worker_subset_in_key(self):
        full = normalize_plan_request({"model": "vgg16", "cluster": "a",
                                       "servers": 4})
        sub = normalize_plan_request({"model": "vgg16", "cluster": "a",
                                      "servers": 4, "num_workers": 8})
        assert full.num_workers == 16
        assert sub.num_workers == 8
        assert full.key != sub.key


class TestPlanEndpoint:
    def test_parity_with_cold_solve(self):
        service = PlannerService()
        for request in (
            VGG,
            dict(VGG, precision="fp16"),
            {"model": "gnmt8", "cluster": "a", "servers": 4,
             "num_workers": 8, "memory_limit_bytes": 16e9},
        ):
            assert served_tuple(service.plan(request)) == cold_payload(request)

    def test_cache_hit_flag_and_identical_payload(self):
        service = PlannerService()
        first = service.plan(VGG)
        second = service.plan(VGG)
        assert first["cached"] is False
        assert second["cached"] is True
        assert served_tuple(first) == served_tuple(second)
        assert service.plan_cache.stats()["hits"] == 1

    def test_equivalent_phrasings_share_one_entry(self):
        service = PlannerService()
        service.plan(VGG)
        rephrased = service.plan({
            "profile": analytic_profile("vgg16").to_dict(),
            "topology": topology_to_dict(cluster_a(1)),
        })
        assert rephrased["cached"] is True
        assert len(service.plan_cache) == 1

    def test_cache_disabled_service_still_correct(self):
        service = PlannerService(plan_cache_size=0, warm_start=False)
        assert service.plan(VGG)["cached"] is False
        assert service.plan(VGG)["cached"] is False
        assert served_tuple(service.plan(VGG)) == cold_payload(VGG)

    def test_infeasible_cap_is_a_request_error(self):
        service = PlannerService()
        with pytest.raises(RequestError):
            service.plan(dict(VGG, memory_limit_bytes=1e6))

    def test_warm_service_matches_cold_across_axes(self):
        service = PlannerService(plan_cache_size=0, warm_start=True)
        for workers in (16, 8, 4):
            for cap in (None, 16e9):
                request = {"model": "vgg16", "cluster": "a", "servers": 4,
                           "num_workers": workers,
                           "memory_limit_bytes": cap}
                assert served_tuple(service.plan(request)) == \
                    cold_payload(request)


class TestSimulateSweepBatch:
    def test_simulate_matches_direct_sim(self):
        from repro.sim import simulate_pipedream

        service = PlannerService()
        payload = service.simulate(dict(VGG, minibatches=16))
        direct = simulate_pipedream(
            analytic_profile("vgg16"), cluster_a(1), num_minibatches=16
        )
        assert payload["throughput"] == direct.throughput
        assert payload["config"] == direct.config
        assert service.simulate(dict(VGG, minibatches=16))["cached"] is True

    def test_simulate_names_the_plan_it_simulated(self):
        """A request that opts into tp / recompute gets the per-stage
        columns back from /simulate exactly as from /plan, so ``stages``
        x ``stage_tp_degrees`` accounts for every worker."""
        request = {"model": "gnmt16", "cluster": "a", "servers": 4,
                   "tp_degrees": [1, 2], "memory_limit_bytes": 2e9,
                   "recompute": "auto"}
        service = PlannerService()
        planned = service.plan(request)
        simulated = service.simulate(dict(request, minibatches=8))
        assert simulated["config"] == planned["config"]
        for column in ("stages", "stage_tp_degrees", "stage_recompute"):
            assert simulated[column] == planned[column]
        assert sum(
            replicas * degree for (_, _, replicas), degree
            in zip(simulated["stages"], simulated["stage_tp_degrees"])
        ) == simulated["num_workers"] == 16
        plain = service.simulate(dict(VGG, minibatches=8))
        assert "stage_tp_degrees" not in plain
        assert "stage_recompute" not in plain

    def test_simulate_unknown_strategy(self):
        with pytest.raises(RequestError, match="unknown strategy"):
            PlannerService().simulate(dict(VGG, strategy="zpp"))

    def test_sweep_matches_run_sweep(self):
        from repro.sim import run_sweep

        service = PlannerService()
        payload = service.sweep({
            "models": ["vgg16"], "cluster": "a", "servers": 1,
            "counts": [4], "minibatches": 16,
        })
        direct = run_sweep(["vgg16"], cluster_a(1), [4], minibatches=16)
        assert len(payload["records"]) == len(direct)
        served = {(r["strategy"], r["workers"]): r["samples_per_second"]
                  for r in payload["records"]}
        for record in direct:
            assert served[(record.strategy, record.workers)] == \
                record.samples_per_second

    def test_batch_restores_order_and_isolates_errors(self):
        service = PlannerService()
        requests = [
            VGG,
            {"model": "nope"},
            {"model": "resnet50", "cluster": "a", "servers": 1},
            dict(VGG, memory_limit_bytes=1e6),
            VGG,
            dict(VGG, num_workers=1e400),
            dict(VGG, servers=2.5),
        ]
        results = service.batch(requests)
        assert len(results) == len(requests)
        assert served_tuple(results[0]) == cold_payload(VGG)
        assert "unknown model" in results[1]["error"]
        assert served_tuple(results[2]) == cold_payload(requests[2])
        assert "error" in results[3]
        assert results[4]["cached"] is True
        # An int that overflows or truncates is answered in its slot.
        assert results[5] == {"error": "bad num_workers inf: expected int"}
        assert results[6] == {"error": "bad servers 2.5: expected int"}

    def test_stats_shape(self):
        service = PlannerService()
        service.plan(VGG)
        stats = service.stats()
        assert stats["requests"]["plan"] == 1
        assert stats["plan_cache"]["entries"] == 1
        assert "solver_contexts" in stats
        assert "eval_tables" in stats


def _topo(compute_scale=1.0, extra=None, **level):
    """A one-server cluster_a-like inline topology with one level edited."""
    inner = dict({"count": 4, "bandwidth": 12e9}, **level)
    topology = {"levels": [inner], "compute_scale": compute_scale}
    return dict(topology, **(extra or {}))


#: Hostile requests the field table refuses: (endpoint, body, the field's
#: name as the message gives it).
HOSTILE_REQUESTS = [
    # Inline topologies read through the table, strictly.
    ("plan", dict(model="vgg16", topology=_topo(count=1e400)), "bad count inf"),
    ("plan", dict(model="vgg16", topology=_topo(count=2.7)), "bad count 2.7"),
    ("plan", dict(model="vgg16", topology=_topo(count=True)), "bad count True"),
    ("plan", dict(model="vgg16", topology=_topo(count=10**7)),
     "count must be an int <= 1024"),
    ("plan", dict(model="vgg16", topology=_topo(bandwidth=float("nan"))),
     "bandwidth must be positive"),
    ("plan", dict(model="vgg16", topology=_topo(allreduce_latency=float("nan"))),
     "allreduce_latency must be >= 0"),
    ("plan", dict(model="vgg16", topology=_topo(compute_scale=0)),
     "compute_scale must be finite and > 0, got 0"),
    ("plan", dict(model="vgg16", topology=_topo(compute_scale=float("nan"))),
     "compute_scale must be finite and > 0, got nan"),
    ("plan", dict(model="vgg16", topology=_topo(bw=1e9)),
     r"unknown level fields: \['bw'\]"),
    ("plan", dict(model="vgg16", topology=_topo(extra={"speed": 2})),
     r"unknown topology fields: \['speed'\]"),
    ("sweep", dict(models=["vgg16"], counts=[4], topology=_topo(count=2.7)),
     "bad count 2.7"),
    # Worker counts and sweep bounds.
    ("plan", dict(model="vgg16", num_workers=0), "num_workers must be an int >= 1"),
    ("sweep", dict(models=["vgg16"], counts=[0]), "counts must be an int >= 1"),
    ("sweep", dict(models=["vgg16"], counts=[4], workers=0),
     r"unknown request fields: \['workers'\]"),
    # List fields are lists, of the row's kind.
    ("sweep", dict(models=["vgg16"], counts=[4], strategies="dp"),
     "bad strategies 'dp': expected a list"),
    ("sweep", dict(models=["vgg16"], counts=[4], precisions="fp16"),
     "bad precisions 'fp16': expected a list"),
    ("sweep", dict(models=["vgg16"], counts=[4], bucket_sizes=25e6),
     "bad bucket_sizes 25000000.0: expected a list"),
    ("sweep", dict(models=["vgg16"], counts=[4], strategies=[]),
     "strategies must be a non-empty list"),
    ("plan", dict(model="vgg16", tp_degrees="24"),
     "bad tp_degrees '24': expected a list"),
    # Scalars are of the row's kind, not coerced with str() or float().
    ("plan", dict(model="vgg16", recompute=5), "bad recompute 5: expected str"),
    ("plan", dict(model="vgg16", memory_limit_bytes=True),
     "bad memory_limit_bytes True: expected float"),
    ("simulate", dict(model="vgg16", strategy=7), "bad strategy 7: expected str"),
]


@pytest.mark.parametrize(
    "endpoint, body, message", HOSTILE_REQUESTS,
    ids=[f"{endpoint}-{i}" for i, (endpoint, _, _) in
         enumerate(HOSTILE_REQUESTS)])
def test_hostile_request_is_a_request_error_naming_its_field(
        endpoint, body, message):
    with pytest.raises(RequestError, match=message):
        getattr(PlannerService(), endpoint)(body)


def test_hostile_batch_slot_is_answered_in_slot():
    bad = dict(VGG, topology=_topo(count=2.7))
    del bad["cluster"], bad["servers"]
    results = PlannerService().batch([VGG, bad])
    assert "stages" in results[0]
    assert results[1] == {"error": "bad topology: bad count 2.7: expected int"}


class TestHTTPTransport:
    @pytest.fixture(scope="class")
    def server(self):
        service = PlannerService()
        with ServerThread(service) as url:
            http = HTTPPlannerClient(url)
            yield http, service
            http.close()

    def test_healthz(self, server):
        http, _ = server
        assert http.healthy()

    def test_plan_roundtrip_equals_in_process(self, server):
        http, inproc = server
        over_http = http.plan(VGG)
        in_process = inproc.plan(VGG)
        assert served_tuple(over_http) == served_tuple(in_process)
        assert served_tuple(over_http) == cold_payload(VGG)

    def test_bad_request_is_http_400_same_type(self, server):
        http, inproc = server
        with pytest.raises(RequestError) as http_err:
            http.plan({"model": "vgg19"})
        with pytest.raises(RequestError) as local_err:
            inproc.plan({"model": "vgg19"})
        assert str(http_err.value) == str(local_err.value)

    @pytest.mark.parametrize("endpoint, body, message", [
        ("/plan", {"model": "vgg16", "num_workers": "abc"}, "num_workers"),
        ("/plan", {"model": "vgg16", "servers": "x"}, "servers"),
        ("/plan", {"model": "vgg16", "memory_limit_bytes": "big"},
         "memory_limit_bytes"),
        ("/plan", {"model": "vgg16", "bucket_bytes": "x"}, "bucket_bytes"),
        ("/plan", {"model": "vgg16", "bucket_bytes": float("nan")},
         "bucket_bytes must be > 0"),
        ("/plan", {"model": "vgg16", "memory_limit_bytes": float("nan")},
         "memory_limit_bytes must be finite and > 0, got nan"),
        ("/plan", {"model": "vgg16", "memory_limit_bytes": 0},
         "memory_limit_bytes must be finite"),
        ("/plan", {"model": "vgg16", "memory_limit_bytes": -5},
         "memory_limit_bytes must be finite"),
        ("/plan", {"model": "vgg16", "allow_replication": "false"},
         "bad allow_replication 'false': expected bool"),
        ("/plan", {"model": "vgg16", "memory_refine": "no"},
         "bad memory_refine 'no': expected bool"),
        ("/simulate", {"model": "vgg16", "allow_replication": 0},
         "bad allow_replication 0: expected bool"),
        ("/plan", {"model": "vgg16", "recompute": "always"},
         "recompute must be None or 'auto'"),
        ("/plan", {"model": "vgg16", "tp_degrees": [1, 2],
                   "bucket_bytes": 1e6}, "cannot be combined"),
        ("/sweep", {"models": ["vgg16"], "counts": [4],
                    "bucket_sizes": [float("nan")]},
         "bucket_bytes must be > 0"),
        ("/plan", {"model": "vgg16", "device": "tpu9"}, "unknown device"),
        ("/plan", {"model": "vgg16", "servers": 0},
         "servers must be an int >= 1, got 0"),
        ("/plan", {"model": "vgg16", "vectorize": False},
         "unknown request fields"),
        ("/plan", {"profile": {
            "model_name": "bad", "batch_size": 1, "layers": [
                {"name": "l0", "compute_time": 1.0,
                 "activation_bytes": 8, "weight_bytes": 8},
                {"name": "l1", "compute_time": float("nan"),
                 "activation_bytes": 8, "weight_bytes": 8}]}},
         "bad profile: layer 'l1': compute_time"),
        ("/simulate", {"model": "vgg16", "minibatches": "x"}, "minibatches"),
        ("/simulate", {"model": "vgg16", "minibatches": 0}, "minibatches"),
        ("/simulate", {"model": "vgg16", "engine": "event"},
         "unknown request fields"),
        ("/simulate", [1, 2], "JSON object"),
        ("/sweep", {"models": ["vgg16"], "topology": {"levels": [{}]}},
         "bad topology"),
        ("/sweep", {"models": ["vgg16"], "engine": "event"},
         "unknown request fields"),
        ("/sweep", {"models": ["vgg16"], "counts": [4], "minibatches": 0},
         "minibatches must be an int >= 1"),
        ("/simulate", {"model": "vgg16", "strategy": "gpipe",
                       "schedule_family": "2bp"},
         "schedule_family applies to the pipedream strategy only"),
        ("/simulate", {"model": "vgg16", "schedule_family": "zb"},
         "unknown schedule family"),
    ] + [
        # A plan option a non-pipedream strategy would not read is refused,
        # never priced and then ignored.
        ("/simulate", dict({"model": "vgg16", "cluster": "a", "servers": 1,
                            "strategy": strategy}, **option),
         f"{field} applies to the pipedream strategy only, "
         f"not to '{strategy}'")
        for strategy in ("dp", "mp", "gpipe")
        for field, option in [
            ("tp_degrees", {"tp_degrees": [1, 2]}),
            ("recompute", {"recompute": "auto"}),
            ("memory_limit_bytes", {"memory_limit_bytes": 1e6}),
            ("allow_replication", {"allow_replication": False}),
            ("memory_refine", {"memory_refine": False}),
            ("memory_limit_bytes, recompute",
             {"memory_limit_bytes": 1e6, "recompute": "auto"}),
        ]
    ] + [
        # A cell that cannot plan is a 400 naming it, as /plan's cap is.
        ("/sweep", {"models": ["vgg16"], "counts": [4], "minibatches": 8,
                    "memory_limit_bytes": 1000},
         r"1 sweep cell\(s\) failed: \(vgg16, pipedream, fp32\): "
         "RuntimeError: no feasible partition found"),
    ] + [
        # An int field refuses what int() would overflow on, truncate or
        # parse (JSON 1e400 and Infinity both load as inf).
        ("/plan", {"model": "vgg16", "num_workers": 1e400},
         "bad num_workers inf: expected int"),
        ("/plan", {"model": "vgg16", "servers": float("inf")},
         "bad servers inf: expected int"),
        ("/simulate", {"model": "vgg16", "minibatches": 1e400},
         "bad minibatches inf: expected int"),
        ("/sweep", {"models": ["vgg16"], "counts": [1e400]},
         "bad counts inf: expected int"),
        ("/plan", {"model": "vgg16", "num_workers": 2.7},
         "bad num_workers 2.7: expected int"),
        ("/plan", {"model": "vgg16", "num_workers": True},
         "bad num_workers True: expected int"),
        ("/sweep", {"models": ["vgg16"], "counts": "4"},
         "bad counts '4': expected a list"),
        ("/sweep", {"models": ["vgg16"], "counts": ["4"]},
         "bad counts '4': expected int"),
    ] + [
        # Run lengths are capped at MAX_MINIBATCHES.
        ("/simulate", {"model": "vgg16", "minibatches": 10001},
         "minibatches must be an int <= 10000"),
        ("/sweep", {"models": ["vgg16"], "counts": [4], "minibatches": 10001},
         "minibatches must be an int <= 10000"),
    ] + [
        # A client does not size the server's sweep pool.
        ("/sweep", {"models": ["vgg16"], "counts": [4], "workers": 2},
         r"unknown request fields: \['workers'\]"),
        ("/sweep", {"models": ["vgg16"], "counts": [4], "executor": "thread"},
         r"unknown request fields: \['executor'\]"),
    ])
    def test_malformed_field_is_400_not_500(self, server, endpoint, body,
                                            message):
        """A field that does not coerce is the client's error: HTTP 400
        carrying the service's ``RequestError`` message (the HTTP client
        would raise ``RuntimeError`` on a 500)."""
        http, inproc = server
        with pytest.raises(RequestError, match=message) as http_err:
            http._request(endpoint, body)
        with pytest.raises(RequestError) as local_err:
            getattr(inproc, endpoint.lstrip("/"))(body)
        assert str(http_err.value) == str(local_err.value)

    def test_unknown_endpoint_404(self, server):
        http, _ = server
        with pytest.raises(RequestError, match="no such endpoint"):
            http._request("/plans", {})

    def test_batch_roundtrip(self, server):
        http, _ = server
        results = http.batch([VGG, {"model": "nope"}])
        assert served_tuple(results[0]) == cold_payload(VGG)
        assert "error" in results[1]

    def test_stats_roundtrip(self, server):
        http, _ = server
        stats = http.stats()
        assert stats["requests"]["plan"] >= 1
        assert "plan_cache" in stats

    def test_two_servers_coexist(self, server):
        """Port-0 binding: a second server on the same host picks its own
        ephemeral port, and both answer while the first is still up."""
        http, _ = server
        with ServerThread(PlannerService()) as second_url:
            second = HTTPPlannerClient(second_url)
            assert second_url != http.base_url
            assert second.healthy() and http.healthy()
            assert served_tuple(second.plan(VGG)) == served_tuple(http.plan(VGG))
            second.close()

    def test_concurrent_clients_all_correct(self, server):
        http, _ = server
        requests = [
            dict(VGG, num_workers=w) for w in (4, 2, 1)
        ] + [{"model": "resnet50", "cluster": "a", "servers": 1}]
        expected = {id(r): cold_payload(r) for r in requests}
        failures = []
        barrier = threading.Barrier(len(requests) * 2)

        def worker(request):
            barrier.wait()
            for _ in range(3):
                if served_tuple(http.plan(request)) != expected[id(request)]:
                    failures.append(request)

        threads = [threading.Thread(target=worker, args=(r,))
                   for r in requests * 2]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures


# ----------------------------------------------------------------------
# The wire: framing, keep-alive, shutdown — driven over a raw socket,
# because a client library hides exactly what these check.
# ----------------------------------------------------------------------

HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"


def http_post(path, body, content_length=None):
    """One POST as bytes; ``content_length`` overrides the true length."""
    length = len(body) if content_length is None else content_length
    return (f"POST {path} HTTP/1.1\r\nHost: test\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {length}\r\n\r\n").encode() + body


class RawConnection:
    """One HTTP/1.1 connection driven by hand."""

    def __init__(self, url):
        host, port = url.split("//")[1].split(":")
        self.sock = socket.create_connection((host, int(port)), timeout=10)
        self.file = self.sock.makefile("rb")

    def send(self, data):
        self.sock.sendall(data)

    def reply(self):
        """``(status, headers, JSON body)`` of the next reply, or ``None``
        once the server has closed the connection."""
        try:
            line = self.file.readline()
            if not line:
                return None
            headers = {}
            while (header := self.file.readline()) not in (b"\r\n", b""):
                name, _, value = header.decode().partition(":")
                headers[name.lower()] = value.strip()
            body = self.file.read(int(headers["content-length"]))
        except ConnectionError:
            return None
        return int(line.split()[1]), headers, json.loads(body)

    def next_request_state(self):
        """Send one more request: "open" when it is answered correctly,
        "closed" when the server has closed the connection — a reply that
        is neither (the unread body parsed as a request line) fails."""
        try:
            self.send(HEALTHZ)
        except ConnectionError:
            return "closed"
        reply = self.reply()
        if reply is None:
            return "closed"
        assert (reply[0], reply[2]) == (200, {"ok": True}), reply
        return "open"

    def close(self):
        self.file.close()
        self.sock.close()


def plan_reply(request):
    """Every value-bearing field of a ``/plan`` reply, from a context-free
    solve — or the infeasibility message."""
    query = normalize_plan_request(request)
    try:
        plan = PipeDreamOptimizer(
            query.profile, query.topology, **query.spec.options(),
        ).solve(query.num_workers)
    except RuntimeError as exc:
        return str(exc)
    reply = {
        "stages": [[s.start, s.stop, s.replicas] for s in plan.stages],
        "config": plan.config_string,
        "num_workers": plan.num_workers,
        "slowest_stage_time": plan.slowest_stage_time,
        "memory_bytes": list(plan.memory_bytes),
        "memory_limit_bytes": plan.memory_limit_bytes,
    }
    if query.spec.recompute is not None:
        reply["stage_recompute"] = [bool(s.recompute) for s in plan.stages]
    if query.spec.tp_degrees is not None:
        reply["stage_tp_degrees"] = [s.tp_degree for s in plan.stages]
    return reply


def served_reply(client, request):
    """The same fields as :func:`plan_reply`, as ``client`` serves them."""
    try:
        payload = client.plan(request)
    except RequestError as exc:
        return str(exc)
    return {k: v for k, v in payload.items()
            if k not in ("cached", "solve_seconds")}


@contextlib.contextmanager
def fast_thread_switching():
    """A 0.1 ms switch interval, so threads interleave inside the few
    milliseconds a solve takes."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def inline_profile(num_layers, seed):
    """A never-seen profile with shardable and BPTT-deferred layers."""
    rng = random.Random(seed)
    return ModelProfile(f"inline-{seed}", [
        LayerProfile(
            f"l{i}", rng.uniform(0.005, 0.05), rng.randrange(10_000, 90_000),
            rng.randrange(100_000, 900_000),
            kind=rng.choice(("embedding", "fc", "lstm", "conv", "fc", "pool")),
        )
        for i in range(num_layers)
    ], batch_size=8)


class TestFraming:
    @pytest.fixture(scope="class")
    def url(self):
        with ServerThread(PlannerService()) as url:
            yield url

    BODY = json.dumps(VGG).encode()
    OVERSIZED = server_module._MAX_BODY_BYTES + 1

    @pytest.mark.parametrize("message, status, error, then", [
        # The body is never read: answering on would parse it as a request.
        (http_post("/plan", BODY).replace(
            f"Content-Length: {len(BODY)}".encode(), b"Content-Length: abc"),
         400, "bad Content-Length 'abc'", "closed"),
        (http_post("/plan", BODY, content_length=-5),
         400, "bad Content-Length '-5'", "closed"),
        (http_post("/plan", BODY).replace(
            f"Content-Length: {len(BODY)}\r\n".encode(), b""),
         400, "bad Content-Length None", "closed"),
        (http_post("/plan", BODY, content_length=OVERSIZED),
         413, f"{OVERSIZED} bytes is over the limit of "
              f"{server_module._MAX_BODY_BYTES}", "closed"),
        (b"{\"model\": \"vgg16\"} /plan\r\n\r\n", 400, "Bad request", "closed"),
        # The body is read in full: the connection carries on.
        (http_post("/batch", json.dumps(
            {"requests": [{}] * (MAX_BATCH_REQUESTS + 1)}).encode()),
         413, f"at most {MAX_BATCH_REQUESTS} requests", "open"),
        (http_post("/plan", b"{not json"), 400, "invalid JSON body", "open"),
        (http_post("/plan", b"\xff\xfe\xfd"), 400, "invalid JSON body", "open"),
        (http_post("/plan", b""), 400, "body is required", "open"),
        (http_post("/plan", BODY), 200, None, "open"),
        # The head itself is refused: the connection closes with the reply.
        (http_post("/plan", BODY).replace(b"POST", b"PUT"),
         501, "Unsupported method ('PUT')", "closed"),
        (HEALTHZ.replace(b"GET", b"HEAD"),
         501, "Unsupported method ('HEAD')", "closed"),
        (HEALTHZ.replace(b"HTTP/1.1", b"HTTP/2.0"),
         505, "Invalid HTTP version (2.0)", "closed"),
        (b"GET /" + b"a" * 65_536 + b" HTTP/1.1\r\n\r\n",
         414, "Request-URI Too Long", "closed"),
        (HEALTHZ.replace(b"\r\n\r\n", b"\r\n" + b"X-A: b\r\n" * 101 + b"\r\n"),
         431, "Too many headers", "closed"),
        (HEALTHZ.replace(b"\r\n\r\n",
                         b"\r\nX-A: " + b"b" * 65_536 + b"\r\n\r\n"),
         431, "Line too long", "closed"),
        (http_post("/plan", b"").replace(b"Content-Length: 0",
                                         b"Transfer-Encoding: chunked")
         + f"{len(BODY):x}\r\n".encode() + BODY + b"\r\n0\r\n\r\n",
         400, "bad Content-Length None", "closed"),
        # The request is whole: a 404 leaves the connection open.
        (HEALTHZ.replace(b"/healthz", b"/healthz?x=1"),
         404, "no such endpoint: /healthz?x=1", "open"),
        # HTTP/1.0 closes unless it asks to keep alive; HTTP/1.1 stays
        # open unless it asks to close.
        (http_post("/plan", BODY).replace(b"HTTP/1.1", b"HTTP/1.0"),
         200, None, "closed"),
        (http_post("/plan", BODY).replace(
            b"HTTP/1.1\r\n", b"HTTP/1.0\r\nConnection: keep-alive\r\n"),
         200, None, "open"),
        (http_post("/plan", BODY).replace(
            b"Host: test\r\n", b"Host: test\r\nConnection: close\r\n"),
         200, None, "closed"),
    ], ids=["length-abc", "length-negative", "length-missing",
            "length-over-limit", "request-line-garbage", "batch-over-limit",
            "bad-json", "bad-utf8", "empty-body", "good", "put", "head",
            "http-2.0", "request-line-too-long", "too-many-headers",
            "header-line-too-long", "chunked-body", "query-string",
            "http-1.0", "http-1.0-keep-alive", "connection-close"])
    def test_reply_and_what_the_connection_does_next(
            self, url, message, status, error, then):
        connection = RawConnection(url)
        try:
            connection.send(HEALTHZ)  # a keep-alive connection in use
            assert connection.reply()[0] == 200
            connection.send(message)
            got, headers, body = connection.reply()
            assert got == status
            if error is None:
                assert body["config"] == "3-1"
            else:
                assert error in body["error"]
            assert (headers.get("connection") == "close") == (then == "closed")
            assert connection.next_request_state() == then
        finally:
            connection.close()

    def test_expect_100_continue_is_answered_before_the_body(self, url):
        """curl sends ``Expect: 100-continue`` with a body over 1 KiB and
        holds the body back until the interim reply comes."""
        head, body = http_post("/plan", self.BODY).split(b"\r\n\r\n", 1)
        connection = RawConnection(url)
        try:
            connection.send(head + b"\r\nExpect: 100-continue\r\n\r\n")
            assert connection.file.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert connection.file.readline() == b"\r\n"
            connection.send(body)
            status, headers, reply = connection.reply()
            assert (status, reply["config"]) == (200, "3-1")
            assert "connection" not in headers
            assert connection.next_request_state() == "open"
        finally:
            connection.close()

    def test_http_0_9_request_line_is_answered_then_closed(self, url):
        connection = RawConnection(url)
        try:
            connection.send(b"GET /healthz\r\n\r\n")
            status, headers, reply = connection.reply()
            assert (status, reply) == (200, {"ok": True})
            assert headers["connection"] == "close"
            assert connection.next_request_state() == "closed"
        finally:
            connection.close()

    @pytest.mark.parametrize("menu", [b"[1e400]", b"[NaN]", b"[true, 2]"],
                             ids=["overflow", "nan", "bool"])
    def test_hostile_tp_menu_is_400(self, url, menu):
        """JSON ``1e400`` parses to ``inf`` (``int(inf)`` overflows) and
        ``true`` would pass as degree 1: each is the client's 400, never
        the generic 500."""
        body = json.dumps(VGG).encode()[:-1] + b', "tp_degrees": ' + menu + b"}"
        connection = RawConnection(url)
        try:
            connection.send(http_post("/plan", body))
            status, _, reply = connection.reply()
            assert status == 400
            assert "tp degrees must be positive integers" in reply["error"]
        finally:
            connection.close()

    def test_one_batch_gpipe_reply_is_strict_json(self, url):
        """A one-batch GPipe run finishes its microbatches last to first;
        its throughput was ``Infinity``, a token strict parsers reject."""
        def refuse(token):
            raise ValueError(f"non-JSON constant {token}")

        connection = RawConnection(url)
        try:
            connection.send(http_post("/simulate", json.dumps(
                {"model": "alexnet", "servers": 1, "strategy": "gpipe",
                 "minibatches": 1}).encode()))
            line = connection.file.readline()
            headers = {}
            while (header := connection.file.readline()) != b"\r\n":
                name, _, value = header.decode().partition(":")
                headers[name.lower()] = value.strip()
            body = connection.file.read(int(headers["content-length"]))
        finally:
            connection.close()
        assert int(line.split()[1]) == 200
        reply = json.loads(body, parse_constant=refuse)
        assert 0 < reply["throughput"] < float("inf")

    def test_unread_body_is_never_taken_for_a_request(self, url):
        """The parent answered ``400 Bad request syntax ('{"model": ...}GET
        /healthz HTTP/1.1')`` here: the body it had refused to read."""
        connection = RawConnection(url)
        try:
            connection.send(
                http_post("/plan", self.BODY, content_length=self.OVERSIZED)
                + HEALTHZ)
            assert connection.reply()[0] == 413
            assert connection.reply() is None
        finally:
            connection.close()

    def test_batch_limit_in_process(self):
        with pytest.raises(RequestTooLarge, match="at most") as too_large:
            PlannerService().batch([{}] * (MAX_BATCH_REQUESTS + 1))
        assert too_large.value.status == 413
        assert len(PlannerService().batch([{}] * MAX_BATCH_REQUESTS)) == \
            MAX_BATCH_REQUESTS


def read_reply(file):
    """``(status, headers, raw body)`` of the next final reply on ``file``,
    past any interim ``1xx``."""
    while True:
        line = file.readline()
        headers = {}
        while (header := file.readline()) not in (b"\r\n", b""):
            name, _, value = header.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        status = int(line.split()[1])
        if status >= 200:
            return status, headers, file.read(int(headers["content-length"]))


def strict_json(body):
    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")
    return json.loads(body, parse_constant=refuse)


#: What the wire fuzzer draws from: the request line's parts, the body,
#: its declared length, and the header block's size and options.
WIRE = dict(
    method=["POST", "GET", "POST", "GET", "PUT", "HEAD", "get"],
    path=["/plan", "/healthz", "/stats", "/batch", "/simulate", "/nope",
          "/healthz?x=1", "*"],
    version=["HTTP/1.1", "HTTP/1.1", "HTTP/1.0", "HTTP/2.0", "HTTP/0.9",
             None, "HTTP/1", "HTTP/1.1.1", "HTTP/x.y", "FTP/1.1"],
    body=[json.dumps(VGG).encode(), json.dumps(VGG).encode()[:20], b"{}",
          b"[]", b"null", b"{not json", b"\xff\xfe", b""],
    length=["true", "-1", "abc", "1e3", "true", "missing", "over-limit",
            "longer"],
    fill=[0, 0, 2, 98, 99, 100],
    long=[None, None, 1_000, 65_526, 65_528, 70_000],
    connection=[None, None, "close", "keep-alive"],
    expect=[None, "100-continue"],
)


def wire_message(method, path, version, body, length, fill, long,
                 connection, expect):
    """One request as bytes, and whether its body falls short of the
    length it declares."""
    headers = ["Host: fuzz"] + [f"X-Fill-{i}: v" for i in range(fill)]
    if long is not None:
        headers.append("X-Long: " + "v" * long)
    if connection is not None:
        headers.append(f"Connection: {connection}")
    if expect is not None:
        headers.append(f"Expect: {expect}")
    if length == "missing":
        body = b""  # bytes nothing declares would be the client's error
    else:
        declared = {"true": len(body), "longer": len(body) + 7,
                    "over-limit": server_module._MAX_BODY_BYTES + 1,
                    }.get(length, length)
        headers.append(f"Content-Length: {declared}")
    line = f"{method} {path}" + (f" {version}" if version else "")
    head = "\r\n".join([line, *headers, "", ""]).encode("latin-1")
    return head + body, length == "longer"


class TestWireFuzz:
    """Seeded request heads and bodies against one server: every request
    gets a JSON reply with a status from the transport's table, none
    hangs, and a connection left open still serves."""

    STATUSES = {200, 400, 404, 413, 414, 431, 501, 505}

    def test_every_request_gets_a_framed_reply(self):
        with ServerThread(PlannerService()) as url:
            host, port = url.split("//")[1].split(":")

            @settings(max_examples=400, deadline=None, derandomize=True)
            @given(st.fixed_dictionaries(
                {name: st.sampled_from(values)
                 for name, values in WIRE.items()}))
            def check(drawn):
                message, short = wire_message(**drawn)
                with socket.create_connection((host, int(port)),
                                              timeout=5) as sock, \
                        sock.makefile("rb") as file:
                    sock.sendall(message)
                    if short:  # end of input is what ends the body
                        with contextlib.suppress(OSError):  # already shut
                            sock.shutdown(socket.SHUT_WR)
                    status, headers, body = read_reply(file)
                    assert status in self.STATUSES
                    reply = strict_json(body)
                    # 200 with its endpoint's payload, or an error's status
                    # with its message
                    assert (status == 200) == ("error" not in reply)
                    if headers.get("connection") == "close" or short:
                        return
                    sock.sendall(HEALTHZ)
                    status, _, body = read_reply(file)
                    assert (status, strict_json(body)) == (200, {"ok": True})

            check()


class TestAccessLog:
    REQUESTS = [HEALTHZ, http_post("/plan", json.dumps(VGG).encode()),
                HEALTHZ.replace(b"/healthz", b"/nope"),
                http_post("/plan", b"{not json")]

    def served_log(self, capsys, verbose):
        """What serving :attr:`REQUESTS` on one connection writes to
        stderr, and the replies' ``(status, body size)``."""
        thread = ServerThread(PlannerService())
        thread.server.verbose = verbose
        replies = []
        with thread as url:
            connection = RawConnection(url)
            try:
                for message in self.REQUESTS:
                    connection.send(message)
                    status, headers, _ = connection.reply()
                    replies.append((status, int(headers["content-length"])))
            finally:
                connection.close()
        return capsys.readouterr().err, replies

    def test_verbose_writes_one_json_line_per_request(self, capsys):
        err, replies = self.served_log(capsys, verbose=True)
        lines = [json.loads(line) for line in err.splitlines()]
        assert [(line["method"], line["path"]) for line in lines] == [
            ("GET", "/healthz"), ("POST", "/plan"), ("GET", "/nope"),
            ("POST", "/plan")]
        assert [(line["status"], line["bytes"]) for line in lines] == replies
        assert [status for status, _ in replies] == [200, 200, 404, 400]
        assert all(0 <= line["seconds"] < 5 for line in lines)

    def test_quiet_by_default(self, capsys):
        assert self.served_log(capsys, verbose=False)[0] == ""


def test_loading_the_server_loads_no_http_server_or_email_parser():
    src = Path(__file__).resolve().parents[1] / "src"
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, repro.serve.server; print("
         "[m for m in ('http.server', 'email.parser') if m in sys.modules])"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, check=True).stdout
    assert loaded.strip() == "[]"


class TestKeepAlive:
    def test_fifty_hot_plans_on_one_connection_inside_a_second(self):
        """A reply written as two segments stalls ~44 ms per request on a
        keep-alive connection (Nagle against the client's delayed ACK):
        2.2 s for these fifty."""
        service = PlannerService()
        service.plan(VGG)
        hot = service.plan(VGG)
        message = http_post("/plan", json.dumps(VGG).encode())
        with ServerThread(service) as url:
            connection = RawConnection(url)
            try:
                start = time.perf_counter()
                replies = []
                for _ in range(50):
                    connection.send(message)
                    replies.append(connection.reply())
                elapsed = time.perf_counter() - start
            finally:
                connection.close()
        assert all(status == 200 and body == hot
                   for status, _, body in replies)
        assert elapsed < 1.0

    def test_client_keeps_one_connection_and_reconnects_once(self):
        service = PlannerService()
        accepted = []

        def counting(server):
            process_request = server.process_request

            def process(request, client_address):
                accepted.append(client_address)
                process_request(request, client_address)
            server.process_request = process

        first = ServerThread(service)
        counting(first.server)
        with first as url:
            client = HTTPPlannerClient(url)
            for _ in range(3):
                assert served_tuple(client.plan(VGG)) == cold_payload(VGG)
            assert client.stats()["requests"]["plan"] == 3
            assert len(accepted) == 1
            port = first.server.server_address[1]
        # The server went away and came back: the idle connection is dead,
        # and the next request opens a new one without the caller knowing.
        second = ServerThread(service, port=port)
        counting(second.server)
        with second:
            assert client.plan(VGG)["cached"] is True
            assert client.healthy()
            assert len(accepted) == 2
        assert not client.healthy()
        with pytest.raises(OSError):
            client.plan(VGG)
        client.close()


class TestSingleFlight:
    def run_together(self, count, call):
        """``call()`` from ``count`` threads released at once; the results
        (or raised ``RequestError``s) in thread order."""
        barrier = threading.Barrier(count)
        results = [None] * count

        def worker(index):
            barrier.wait()
            try:
                results[index] = call()
            except RequestError as exc:
                results[index] = exc

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(count)]
        with fast_thread_switching():  # the solve must not outrun the waiters
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        return results

    def test_concurrent_identical_misses_run_one_solve(self):
        profile = inline_profile(30, seed=1)
        request = {"profile": profile.to_dict(), "cluster": "a",
                   "servers": 4, "memory_limit_bytes": 4e7}
        service = PlannerService()
        replies = self.run_together(8, lambda: service.plan(request))
        context = service.contexts.get(profile)
        assert context.stats()["solves"] == 1
        assert sum(reply["cached"] is False for reply in replies) == 1
        cold = plan_reply(request)
        assert isinstance(cold, dict)
        for reply in replies:
            assert {k: v for k, v in reply.items()
                    if k not in ("cached", "solve_seconds")} == cold
        stats = service.stats()
        # Whoever did not solve either waited on the solve or found its
        # plan in the cache.
        assert stats["coalesced"] + stats["plan_cache"]["hits"] == 7
        assert stats["coalesced"] >= 1

    def test_waiters_get_the_same_request_error(self):
        request = dict(VGG, memory_limit_bytes=1e6)
        service = PlannerService()
        replies = self.run_together(6, lambda: service.plan(request))
        assert all(isinstance(reply, RequestError) for reply in replies)
        assert {str(reply) for reply in replies} == {plan_reply(request)}
        assert service._inflight == {}
        # Errors are not cached: the next request solves (and fails) again.
        with pytest.raises(RequestError, match="memory_limit_bytes=1e\\+06"):
            service.plan(request)


class TestConcurrencyStress:
    """16 clients x 40 requests against one server and one context pool:
    every reply must be, bitwise, what a context-free solve gives.

    The mix is what the shared state sees in service — repeated keys
    (plan cache, single-flight), binding and non-binding caps on shared
    contexts (level tables, bound matrices, ring tables written by racing
    solves), never-seen inline profiles (pool churn), tp and recompute
    (the per-solve memoised planes, the evaluator's table cache)."""

    CLIENTS, REQUESTS = 16, 40
    MODELS = ("vgg16", "gnmt8", "resnet50")

    def requests_of(self, client):
        rng = random.Random(f"stress/{client}")
        requests = []
        for index in range(self.REQUESTS):
            model = rng.choice(self.MODELS)
            request = {"model": model, "cluster": "a", "servers": 2,
                       "num_workers": rng.choice((4, 8))}
            ceiling = memory_ceiling(
                analytic_profile(model), request["num_workers"])
            draw = rng.random()
            if draw < 0.35:
                pass  # hot
            elif draw < 0.50:  # binding (or infeasible), from a small menu
                request["memory_limit_bytes"] = \
                    rng.choice((0.05, 0.15, 0.3, 0.6)) * ceiling
            elif draw < 0.65:  # cannot bind, never seen
                request["memory_limit_bytes"] = \
                    float(ceiling + rng.randrange(1 << 40))
            elif draw < 0.75:  # inline cold; a few are shared by clients
                seed = rng.choice((client * 1000 + index, index % 3))
                request = {"profile": inline_profile(10, seed).to_dict(),
                           "cluster": "a", "servers": 2}
            elif draw < 0.88:
                request["tp_degrees"] = [1, 2]
                if rng.random() < 0.5:
                    request["memory_limit_bytes"] = 0.3 * ceiling
            else:
                request["recompute"] = "auto"
                request["memory_limit_bytes"] = \
                    rng.choice((0.1, 0.2)) * ceiling
            requests.append(request)
        return requests

    def test_every_reply_equals_a_cold_solve(self):
        streams = [self.requests_of(c) for c in range(self.CLIENTS)]
        expected = {}
        for stream in streams:
            for request in stream:
                key = json.dumps(request, sort_keys=True)
                if key not in expected:
                    expected[key] = plan_reply(request)
        assert any(isinstance(reply, str) for reply in expected.values())
        # A pool that evicts nothing, so every context's counters can be
        # read back at the end.
        service = PlannerService(context_capacity=len(expected))
        wrong = []
        barrier = threading.Barrier(self.CLIENTS)

        def client_loop(url, stream):
            client = HTTPPlannerClient(url)
            barrier.wait()
            try:
                for request in stream:
                    served = served_reply(client, request)
                    want = expected[json.dumps(request, sort_keys=True)]
                    if served != want:
                        wrong.append((request, served, want))
            except BaseException as exc:  # a thread must not die silently
                wrong.append(("raised", repr(exc), None))
            finally:
                client.close()

        with fast_thread_switching(), ServerThread(service) as url:
            threads = [
                threading.Thread(target=client_loop, args=(url, stream))
                for stream in streams
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        assert not wrong, wrong[:3]
        stats = service.stats()
        assert stats["requests"]["plan"] == self.CLIENTS * self.REQUESTS
        assert service._inflight == {}
        # No counter lost an update: every lookup was counted, and every
        # miss either waited on a solve in flight or ran one.
        cache = stats["plan_cache"]
        assert cache["hits"] + cache["misses"] == self.CLIENTS * self.REQUESTS
        assert cache["misses"] - stats["coalesced"] == sum(
            context["solves"]
            for context in stats["solver_contexts"]["contexts"].values()
        )


class TestGracefulShutdown:
    SWEEP = {"models": ["vgg16", "gnmt16", "resnet50", "gnmt8"],
             "cluster": "a", "servers": 4, "counts": [4, 8, 16],
             "minibatches": 400}  # ~0.5 s

    def test_sigterm_answers_the_request_in_flight_then_exits_zero(self):
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
        server = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE, env=env, text=True)
        try:
            url = re.search(r"http://\S+:\d+", server.stdout.readline())[0]
            idle, sweeping = RawConnection(url), RawConnection(url)
            idle.send(HEALTHZ)
            assert idle.reply()[0] == 200  # now an idle keep-alive connection
            sweeping.send(http_post("/sweep", json.dumps(self.SWEEP).encode()))
            probe = HTTPPlannerClient(url)
            deadline = time.perf_counter() + 10
            while probe.stats()["requests"]["sweep"] < 1:
                assert time.perf_counter() < deadline
                time.sleep(0.005)
            server.send_signal(signal.SIGTERM)
            sent = time.perf_counter()
            status, _, body = sweeping.reply()
            assert status == 200 and len(body["records"]) == 24
            assert server.wait(timeout=3) == 0
            assert time.perf_counter() - sent < 3
            assert idle.reply() is None
            assert not probe.healthy()
            for connection in (idle, sweeping):
                connection.close()
            probe.close()
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            server.stdout.close()

    def test_stop_closes_idle_connections_without_waiting(self):
        thread = ServerThread(PlannerService())
        url = thread.start().url
        connection = RawConnection(url)
        connection.send(HEALTHZ)
        assert connection.reply()[0] == 200
        start = time.perf_counter()
        thread.stop()
        assert time.perf_counter() - start < 1.0  # not the 2 s drain
        assert connection.reply() is None
        connection.close()
