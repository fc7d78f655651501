"""Measured and analytic profilers."""

import numpy as np
import pytest

from repro.models import build_gnmt, build_mlp, build_vgg
from repro.profiler import (
    analytic_profile,
    available_models,
    clear_profile_cache,
    profile_cache_stats,
    profile_model,
)
from repro.profiler.analytic import (
    DEVICE_PEAK_FLOPS,
    KIND_EFFICIENCY,
    resnet50_layers,
    vgg16_layers,
)


class TestMeasuredProfiler:
    def test_profiles_every_layer(self, rng):
        model = build_mlp(rng=rng)
        profile = profile_model(model, rng.standard_normal((8, 16)),
                                num_iterations=1, warmup=0)
        assert len(profile) == model.num_layers
        assert all(l.compute_time > 0 for l in profile)

    def test_weight_bytes_match_model(self, rng):
        model = build_mlp(rng=rng)
        profile = profile_model(model, rng.standard_normal((8, 16)),
                                num_iterations=1, warmup=0)
        assert profile.total_weight_bytes == model.parameter_bytes()

    def test_activation_bytes_scale_with_batch(self, rng):
        model = build_mlp(rng=rng)
        p8 = profile_model(model, rng.standard_normal((8, 16)), 1, 0)
        p16 = profile_model(model, rng.standard_normal((16, 16)), 1, 0)
        assert p16.layers[0].activation_bytes == 2 * p8.layers[0].activation_bytes

    def test_forward_backward_split_recorded(self, rng):
        model = build_mlp(rng=rng)
        profile = profile_model(model, rng.standard_normal((8, 16)), 1, 0)
        for layer in profile:
            assert layer.forward_time is not None
            assert 0 < layer.forward < layer.compute_time

    def test_int_input_model(self, rng):
        model = build_gnmt(num_lstm_layers=2, vocab_size=8, hidden_size=4, rng=rng)
        tokens = rng.integers(0, 8, (4, 5))
        profile = profile_model(model, tokens, num_iterations=1, warmup=0)
        assert len(profile) == model.num_layers

    def test_parameterless_model_matches_analytic_default(self, rng):
        """A model with no parameters has no dtype to read the element
        width from; the fallback must agree with the analytic profiler's
        fp32 default (4), not the engine's float64 (8) — otherwise the
        same model gets 2x-different allreduce sizing depending on which
        profiler built its profile."""
        from repro.core.partition import data_parallel_bytes_per_minibatch
        from repro.models.base import LayeredModel
        from repro.nn import ReLU

        model = LayeredModel("stateless", [("act0", ReLU()), ("act1", ReLU())])
        measured = profile_model(model, rng.standard_normal((4, 8)),
                                 num_iterations=1, warmup=0)
        analytic = analytic_profile("vgg16")
        assert measured.bytes_per_element == analytic.bytes_per_element == 4
        # Zero weights -> zero allreduce volume on both paths, and the
        # divisor the sizing uses is identical for both profiles.
        assert data_parallel_bytes_per_minibatch(measured, 4) == 0
        assert measured.total_weight_bytes == 0

    def test_parameterized_model_reads_dtype(self, rng):
        """With parameters present the element width still comes from the
        arrays themselves (the engine runs float64 today)."""
        from repro.core.partition import data_parallel_bytes_per_minibatch

        model = build_mlp(rng=rng)
        profile = profile_model(model, rng.standard_normal((8, 16)),
                                num_iterations=1, warmup=0)
        assert profile.bytes_per_element == 8
        # A round of 4 minibatches moves the ring volume 2 (m-1) |w|,
        # exact in bytes.
        assert 4 * data_parallel_bytes_per_minibatch(profile, 4) == \
            2 * 3 * profile.total_weight_bytes


class TestAnalyticProfiles:
    def test_all_models_available(self):
        assert set(available_models()) == {
            "vgg16", "resnet50", "alexnet", "gnmt8", "gnmt16", "awd-lm", "s2vt",
            "ssd", "mask-rcnn",
        }

    def test_ssd_published_parameter_count(self):
        """SSD300: ~26M backbone/extras + detection heads (~35M total)."""
        profile = analytic_profile("ssd")
        params = profile.total_weight_bytes / 4
        assert 25e6 < params < 40e6

    def test_mask_rcnn_published_parameter_count(self):
        """Mask R-CNN R50-FPN: ~44M parameters (+/- head bookkeeping)."""
        profile = analytic_profile("mask-rcnn")
        params = profile.total_weight_bytes / 4
        assert 40e6 < params < 65e6

    def test_mask_rcnn_scaled_activations(self):
        """800px inputs inflate backbone activations ~13x over 224px."""
        rcnn = analytic_profile("mask-rcnn", batch_size=1)
        resnet = analytic_profile("resnet50", batch_size=1)
        assert rcnn.layers[0].activation_bytes > 10 * resnet.layers[0].activation_bytes

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            analytic_profile("nope")

    def test_vgg16_published_parameter_count(self):
        """Full VGG-16 has ~138M parameters (~553 MB in fp32)."""
        profile = analytic_profile("vgg16")
        params = profile.total_weight_bytes / 4
        assert 135e6 < params < 141e6

    def test_resnet50_published_parameter_count(self):
        profile = analytic_profile("resnet50")
        params = profile.total_weight_bytes / 4
        assert 23e6 < params < 28e6

    def test_alexnet_published_parameter_count(self):
        profile = analytic_profile("alexnet")
        params = profile.total_weight_bytes / 4
        assert 55e6 < params < 65e6

    def test_awd_lm_paper_weight_size(self):
        """§5.2: the LM's parameters are ~0.41 GB."""
        profile = analytic_profile("awd-lm")
        lstm_bytes = sum(l.weight_bytes for l in profile if l.name.startswith("lstm"))
        assert 0.35e9 < lstm_bytes < 0.5e9

    def test_vgg_fc_weight_concentration(self):
        profile = analytic_profile("vgg16")
        fc_bytes = sum(l.weight_bytes for l in profile if l.name.startswith("fc"))
        assert fc_bytes > 0.85 * profile.total_weight_bytes

    def test_resnet_weights_compact_activations_large(self):
        """The property that makes DP optimal for ResNet-50 (Table 1)."""
        profile = analytic_profile("resnet50")
        early = profile.layers[2]
        assert early.activation_bytes > early.weight_bytes

    def test_gnmt16_has_16_lstm_layers(self):
        profile = analytic_profile("gnmt16")
        lstms = [l for l in profile if l.name.startswith("lstm")]
        assert len(lstms) == 16

    def test_paper_default_batch_sizes(self):
        assert analytic_profile("vgg16").batch_size == 64
        assert analytic_profile("resnet50").batch_size == 128
        assert analytic_profile("alexnet").batch_size == 256
        assert analytic_profile("awd-lm").batch_size == 80

    def test_batch_size_scales_times_and_activations(self):
        small = analytic_profile("vgg16", batch_size=32)
        large = analytic_profile("vgg16", batch_size=64)
        assert large.total_compute_time == pytest.approx(2 * small.total_compute_time)
        assert large.layers[0].activation_bytes == 2 * small.layers[0].activation_bytes
        assert large.total_weight_bytes == small.total_weight_bytes

    def test_slower_device_scales_compute(self):
        v100 = analytic_profile("vgg16", device="v100")
        ti = analytic_profile("vgg16", device="1080ti")
        ratio = ti.total_compute_time / v100.total_compute_time
        assert ratio == pytest.approx(
            DEVICE_PEAK_FLOPS["v100"] / DEVICE_PEAK_FLOPS["1080ti"], rel=1e-6
        )

    def test_fp16_halves_bytes_not_compute(self):
        fp32 = analytic_profile("gnmt8", bytes_per_element=4)
        fp16 = analytic_profile("gnmt8", bytes_per_element=2)
        assert fp16.total_weight_bytes == fp32.total_weight_bytes // 2
        assert fp16.total_compute_time == fp32.total_compute_time

    def test_resnet50_flops_published(self):
        """ResNet-50 forward ~4 GMACs per 224x224 image."""
        total = sum(l.flops for l in resnet50_layers())
        assert 3.5e9 < total < 4.8e9

    def test_vgg16_flops_published(self):
        """VGG-16 forward ~15.5 GMACs per image."""
        total = sum(l.flops for l in vgg16_layers())
        assert 14e9 < total < 16.5e9

    def test_gemm_kinds_more_efficient_than_memory_bound(self):
        assert KIND_EFFICIENCY["conv"] > KIND_EFFICIENCY["pool"]
        assert KIND_EFFICIENCY["fc"] > KIND_EFFICIENCY["embedding"]


class TestProfileCache:
    """The analytic-profile cache: same key -> same object, no collisions."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        clear_profile_cache()
        yield
        clear_profile_cache()

    def test_hit_returns_same_object(self):
        first = analytic_profile("vgg16")
        second = analytic_profile("vgg16")
        assert second is first

    def test_cache_false_builds_fresh_equal_profile(self):
        cached = analytic_profile("vgg16")
        fresh = analytic_profile("vgg16", cache=False)
        assert fresh is not cached
        assert fresh.model_name == cached.model_name
        assert fresh.batch_size == cached.batch_size
        assert len(fresh) == len(cached)
        assert [l.compute_time for l in fresh] == \
            [l.compute_time for l in cached]
        assert [l.weight_bytes for l in fresh] == \
            [l.weight_bytes for l in cached]

    def test_cache_false_does_not_populate(self):
        analytic_profile("vgg16", cache=False)
        assert profile_cache_stats()["entries"] == 0

    def test_distinct_keys_do_not_collide(self):
        base = analytic_profile("gnmt8")
        assert analytic_profile("gnmt16") is not base
        assert analytic_profile("gnmt8", batch_size=7) is not base
        assert analytic_profile("gnmt8", device="1080ti") is not base
        assert analytic_profile("gnmt8", bytes_per_element=2) is not base
        # Each variant really differs where its key says it should.
        assert analytic_profile("gnmt8", batch_size=7).batch_size == 7
        assert (analytic_profile("gnmt8", bytes_per_element=2).total_weight_bytes
                == base.total_weight_bytes // 2)
        assert profile_cache_stats()["entries"] == 5

    def test_clear_resets(self):
        first = analytic_profile("resnet50")
        clear_profile_cache()
        assert profile_cache_stats()["entries"] == 0
        rebuilt = analytic_profile("resnet50")
        assert rebuilt is not first

    def test_thread_safety_single_instance(self):
        """Concurrent misses on one key converge to a single instance."""
        import threading

        results = []
        barrier = threading.Barrier(8)

        def build():
            barrier.wait()
            results.append(analytic_profile("mask-rcnn"))

        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 8
        assert all(p is results[0] for p in results)
        assert profile_cache_stats()["entries"] == 1
