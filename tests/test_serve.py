"""The planner service: canonical keys, value transparency, HTTP parity.

Three properties carry the subsystem:

1. *Canonicalization* — syntactically different but semantically equal
   requests share one cache key; junk fields are rejected, not ignored.
2. *Value transparency* — a served answer (cache hit, warm start, batch
   slot) is bitwise-equal to a cold :meth:`PipeDreamOptimizer.solve`.
3. *Transport equivalence* — the HTTP client and the in-process client
   return identical payloads, and errors map to the same exception type.
"""

import threading

import pytest

from repro.core.partition import PipeDreamOptimizer
from repro.core.topology import cluster_a
from repro.profiler import analytic_profile
from repro.serve import (
    HTTPPlannerClient,
    PlannerClient,
    PlannerService,
    RequestError,
    ServerThread,
    normalize_plan_request,
    topology_to_dict,
)

VGG = {"model": "vgg16", "cluster": "a", "servers": 1}


def cold_payload(request):
    """Ground truth: solve the normalized query with a fresh optimizer."""
    query = normalize_plan_request(request)
    result = PipeDreamOptimizer(
        query.profile, query.topology, **query.spec.options(),
    ).solve(query.num_workers)
    return (
        [[s.start, s.stop, s.replicas] for s in result.stages],
        result.slowest_stage_time,
        list(result.memory_bytes),
    )


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
        ]
        results = service.batch(requests)
        assert len(results) == len(requests)
        assert served_tuple(results[0]) == cold_payload(VGG)
        assert "unknown model" in results[1]["error"]
        assert served_tuple(results[2]) == cold_payload(requests[2])
        assert "error" in results[3]
        assert results[4]["cached"] is True

    def test_stats_shape(self):
        service = PlannerService()
        service.plan(VGG)
        stats = service.stats()
        assert stats["requests"]["plan"] == 1
        assert stats["plan_cache"]["entries"] == 1
        assert "solver_contexts" in stats
        assert "eval_tables" in stats


class TestHTTPTransport:
    @pytest.fixture(scope="class")
    def server(self):
        service = PlannerService()
        with ServerThread(service) as url:
            yield HTTPPlannerClient(url), PlannerClient(service)

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
        ("/plan", {"model": "vgg16", "servers": 0}, "num_servers"),
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
        ("/simulate", {"model": "vgg16", "engine": "warp"},
         "unknown engine"),
        ("/simulate", [1, 2], "JSON object"),
        ("/sweep", {"models": ["vgg16"], "topology": {"levels": [{}]}},
         "bad topology"),
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
