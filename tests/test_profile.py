"""ModelProfile: aggregation, serialization, precision/device scaling."""

from dataclasses import asdict

import pytest

from repro.core.profile import PRECISION_BYTES, LayerProfile, ModelProfile
from repro.profiler import analytic_profile

#: sha256 of the 7 paper models' analytic profiles: every cache key
#: (solver contexts, plan cache, sweep run keys) starts with one.
PAPER_DIGESTS = {
    "alexnet": ("2c897e73a6e1f85c70a9f3657085390f54c77a093164b57ec749b3b90f665dd6",
                "a30549ead11dc2d8d48b89e22bb545557bffde6c5b475094784853d15d1b7905"),
    "awd-lm": ("1bff42d26764fd1f785724082488b7bd4c7d4b93e416a514fe5e3dffbf55ed36",
               "a4d1ec8aaa8b28ec2ed8ba3700aa31e4afcd73b1b3e1392a9d6c4008ff2886cc"),
    "gnmt16": ("848bbdfa599a7bc1863116d53977b02fe85c62021715e45892c8c3b13a2820d9",
               "222abcd32af171915f3163a0df90e676db96765cecf9718322547669c7b6e641"),
    "gnmt8": ("a721bfcdef5f7ef827a70951aef4e9adc437c74527aa84933208c93bfeb0f540",
              "42f2ede12e9c5456ab5dc8e32fd06902ecb1c3198d378b7d8e9a60e873b89c43"),
    "resnet50": ("efce56d9147246c2310d9201cd2e4d622489d113b9de9d6697284bfb96e1f965",
                 "e42c2678000deafe1b24aacfc738e8dd3a86215290897c63ec65796931e1e41f"),
    "s2vt": ("588b084da981d6f569ba2ae9261af2c46eb27bc69f88497d338bb3454f28d0e6",
             "5b77e40bebd1c41724e435e368bf497894e3f39dc012fd724b2e092bbb1d3e5e"),
    "vgg16": ("b2dad7e9511a718ea95f6d7ff809788d9abca1526a8c31845205ad07825389fa",
              "da294ff8db5202f8d49c8b272773a68acaecb3df0e396ef9d4f2c4e6b5a9c60b"),
}


class TestLayerProfile:
    def test_default_forward_backward_split(self):
        layer = LayerProfile("l", 3.0, 10, 20)
        assert layer.forward == pytest.approx(1.0)
        assert layer.backward == pytest.approx(2.0)

    def test_explicit_forward_time(self):
        layer = LayerProfile("l", 3.0, 10, 20, forward_time=0.5)
        assert layer.forward == 0.5
        assert layer.backward == 2.5


class TestModelProfile:
    def test_range_aggregates(self, toy_profile):
        assert toy_profile.compute_time(0, 3) == pytest.approx(9.0)
        assert toy_profile.weight_bytes(3, 5) == 9000
        assert toy_profile.activation_bytes(2) == 600

    def test_totals(self, toy_profile):
        assert toy_profile.total_compute_time == pytest.approx(12.0)
        assert toy_profile.total_weight_bytes == 9600

    def test_len_iter_getitem(self, toy_profile):
        assert len(toy_profile) == 5
        assert toy_profile[0].name == "conv1"
        assert [l.name for l in toy_profile][-1] == "fc2"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ModelProfile("empty", [], batch_size=1)

    def test_bad_batch_rejected(self, toy_profile):
        with pytest.raises(ValueError):
            ModelProfile("m", toy_profile.layers, batch_size=0)

    def test_scaled_compute(self, toy_profile):
        slower = toy_profile.scaled(2.0)
        assert slower.total_compute_time == pytest.approx(24.0)
        assert slower.total_weight_bytes == toy_profile.total_weight_bytes

    def test_with_precision_halves_bytes(self, toy_profile):
        fp16 = toy_profile.with_precision(2)
        assert fp16.total_weight_bytes == toy_profile.total_weight_bytes // 2
        assert fp16.total_compute_time == toy_profile.total_compute_time
        assert fp16.bytes_per_element == 2

    def test_with_precision_never_zeroes_nonzero_payloads(self):
        """Downscaling must not truncate a 1-byte payload to 0 — a zeroed
        activation makes its boundary link free for the planner."""
        layers = [
            LayerProfile("tiny", 1.0, 1, 1),
            LayerProfile("odd", 1.0, 3, 5),
            LayerProfile("zero", 1.0, 0, 0),
        ]
        profile = ModelProfile("m", layers, batch_size=1)
        fp16 = profile.with_precision(2)
        assert fp16.layers[0].activation_bytes >= 1
        assert fp16.layers[0].weight_bytes >= 1
        assert fp16.layers[1].activation_bytes == 2  # round, not truncate
        # Zero payloads stay exactly zero (parameterless layers).
        assert fp16.layers[2].activation_bytes == 0
        assert fp16.layers[2].weight_bytes == 0
        # Round-tripping the precision never zeroes what started nonzero.
        back = fp16.with_precision(4)
        for orig, rt in zip(profile.layers, back.layers):
            assert (rt.activation_bytes > 0) == (orig.activation_bytes > 0)
            assert (rt.weight_bytes > 0) == (orig.weight_bytes > 0)

    def test_json_roundtrip(self, toy_profile):
        restored = ModelProfile.from_json(toy_profile.to_json())
        assert restored.model_name == toy_profile.model_name
        assert restored.batch_size == toy_profile.batch_size
        assert len(restored) == len(toy_profile)
        for a, b in zip(restored, toy_profile):
            assert a == b

    def test_repr(self, toy_profile):
        assert "toy" in repr(toy_profile)


class TestDigest:
    @pytest.mark.parametrize("model", sorted(PAPER_DIGESTS))
    def test_paper_model_digests_are_pinned(self, model):
        digests = tuple(
            analytic_profile(model, bytes_per_element=PRECISION_BYTES[p],
                             cache=False).digest()
            for p in ("fp32", "fp16"))
        assert digests == PAPER_DIGESTS[model]

    @pytest.mark.parametrize("model", sorted(PAPER_DIGESTS))
    def test_to_dict_is_the_asdict_form(self, model):
        profile = analytic_profile(model, cache=False)
        layers = profile.to_dict()["layers"]
        expected = [asdict(layer) for layer in profile.layers]
        assert layers == expected
        # Key order too: ``to_json`` does not sort.
        assert [list(d) for d in layers] == [list(d) for d in expected]

    def test_round_trip_keeps_the_digest(self, toy_profile):
        half = toy_profile.with_precision(2)
        for profile in (toy_profile, half):
            assert ModelProfile.from_dict(
                profile.to_dict()).digest() == profile.digest()
