"""Model zoo: construction, per-layer profiles, stage slicing."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.models import (
    build_alexnet,
    build_awd_lm,
    build_gnmt,
    build_mlp,
    build_resnet,
    build_s2vt,
    build_vgg,
)
from repro.models.base import LayeredModel
from repro.nn import Linear, ReLU, Sequential
from repro.profiler import profile_model


def one_sample_profile(model, shape, dtype=float):
    """The model's per-layer description, traced at one sample; the
    engine computes in float64, so bytes are 8 per element."""
    return profile_model(model, np.zeros((1, *shape), dtype=dtype),
                         num_iterations=1, warmup=0)


def elements(nbytes):
    return nbytes // 8


class TestLayeredModel:
    def test_forward_matches_layerwise(self, rng):
        model = build_mlp(rng=rng)
        x = rng.standard_normal((4, 16))
        full = model(x).data
        stepped = model.wrap_input(x)
        for i in range(model.num_layers):
            stepped = model.layer(i)(stepped)
        np.testing.assert_array_equal(full, stepped.data)

    def test_forward_range(self, rng):
        model = build_mlp(rng=rng)
        x = rng.standard_normal((4, 16))
        mid = model.forward_range(x, 0, 2)
        out = model.forward_range(mid, 2, 3)
        np.testing.assert_allclose(out.data, model(x).data)

    def test_stage_module_shares_parameters(self, rng):
        model = build_mlp(rng=rng)
        stage = model.stage_module(0, 2)
        assert stage[0][0].weight is model.layer(0)[0].weight

    def test_duplicate_layer_names_rejected(self, rng):
        with pytest.raises(ValueError):
            LayeredModel("bad", [("a", ReLU()), ("a", ReLU())])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LayeredModel("bad", [])

    def test_layer_graph_param_counts(self, rng):
        model = build_mlp(in_features=8, hidden=(4,), num_classes=3, rng=rng)
        profile = one_sample_profile(model, (8,))
        assert elements(profile.total_weight_bytes) == model.num_parameters()
        assert [l.name for l in profile] == model.layer_names

    def test_layer_graph_activation_elements(self, rng):
        model = build_mlp(in_features=8, hidden=(4,), num_classes=3, rng=rng)
        profile = one_sample_profile(model, (8,))
        assert elements(profile.layers[0].activation_bytes) == 4
        assert elements(profile.layers[1].activation_bytes) == 3

    def test_profile_kinds_classified(self, rng):
        model = build_vgg(scale=0.25, rng=rng)
        profile = one_sample_profile(model, (3, 32, 32))
        kinds = {l.name: l.kind for l in profile}
        assert kinds["conv1_1"] == "conv"
        assert kinds["pool1"] == "pool"
        assert kinds["fc8"] == "fc"
        assert kinds["flatten"] == "flatten"


class TestVGG:
    def test_forward_shape(self, rng):
        model = build_vgg(scale=0.25, num_classes=7, rng=rng)
        out = model(rng.standard_normal((2, 3, 32, 32)))
        assert out.shape == (2, 7)

    def test_layer_structure(self, rng):
        model = build_vgg(scale=0.25, rng=rng)
        # 13 convs + 5 pools + flatten + 3 fc = 22 layers, like VGG-16.
        assert model.num_layers == 22
        assert model.layer_names[-3:] == ["fc6", "fc7", "fc8"]

    def test_fc_holds_most_weights(self, rng):
        """The property behind the 15-1 configuration."""
        model = build_vgg(scale=0.5, rng=rng)
        profile = one_sample_profile(model, (3, 32, 32))
        fc_bytes = sum(l.weight_bytes for l in profile if l.name.startswith("fc"))
        assert fc_bytes > 0.4 * profile.total_weight_bytes

    def test_conv_activations_dominate(self, rng):
        model = build_vgg(scale=0.5, rng=rng)
        profile = one_sample_profile(model, (3, 32, 32))
        conv1 = profile.layers[0]
        fc = profile.layers[-1]
        assert conv1.activation_bytes > 50 * fc.activation_bytes

    def test_small_image_rejected(self, rng):
        with pytest.raises(ValueError):
            build_vgg(image_size=16, rng=rng)


class TestResNet:
    def test_forward_shape(self, rng):
        model = build_resnet(blocks_per_group=1, base_channels=8, rng=rng)
        assert model(rng.standard_normal((2, 3, 16, 16))).shape == (2, 10)

    def test_residual_changes_with_depth(self, rng):
        deep = build_resnet(blocks_per_group=2, base_channels=8, rng=rng)
        assert deep.num_layers == 1 + 6 + 2  # stem + blocks + pool + fc

    def test_compact_weights_large_activations(self, rng):
        """ResNet's signature: activations dwarf weights early on."""
        model = build_resnet(blocks_per_group=1, base_channels=8, rng=rng)
        profile = one_sample_profile(model, (3, 32, 32))
        stem = profile.layers[0]
        assert stem.activation_bytes > stem.weight_bytes

    def test_trains_one_step(self, rng):
        from repro.nn import CrossEntropyLoss
        from repro.optim import SGD

        model = build_resnet(blocks_per_group=1, base_channels=4, rng=rng)
        opt = SGD(model.parameters(), lr=0.01)
        x = rng.standard_normal((4, 3, 16, 16))
        y = rng.integers(0, 10, 4)
        loss = CrossEntropyLoss()(model(x), y)
        loss.backward()
        opt.step()
        assert np.isfinite(loss.item())


class TestAlexNet:
    def test_forward_shape(self, rng):
        model = build_alexnet(scale=0.25, image_size=16, num_classes=5, rng=rng)
        assert model(rng.standard_normal((2, 3, 16, 16))).shape == (2, 5)

    def test_structure(self, rng):
        model = build_alexnet(scale=0.25, image_size=16, rng=rng)
        assert model.num_layers == 12
        assert "conv5" in model.layer_names


class TestSequenceModels:
    def test_gnmt_shapes(self, rng):
        model = build_gnmt(num_lstm_layers=4, vocab_size=12, hidden_size=6, rng=rng)
        tokens = rng.integers(0, 12, (3, 5))
        out = model(tokens)
        assert out.shape == (3, 5, 12)

    def test_gnmt_layer_count(self, rng):
        model = build_gnmt(num_lstm_layers=8, vocab_size=12, hidden_size=6, rng=rng)
        assert model.num_layers == 10  # embed + 8 lstm + proj
        assert model.input_kind == "int"

    def test_gnmt16_deeper(self, rng):
        model = build_gnmt(num_lstm_layers=16, vocab_size=8, hidden_size=4, rng=rng)
        assert model.num_layers == 18

    def test_awd_lm_shapes(self, rng):
        model = build_awd_lm(vocab_size=16, embed_size=6, hidden_size=8,
                             num_lstm_layers=3, rng=rng)
        out = model(rng.integers(0, 16, (2, 7)))
        assert out.shape == (2, 7, 16)

    def test_awd_lm_weight_heavy(self, rng):
        """LSTM/decoder weights dominate activations (the paper's 0.41GB)."""
        model = build_awd_lm(vocab_size=64, embed_size=24, hidden_size=32, rng=rng)
        profile = one_sample_profile(model, (5,), dtype=np.int64)
        lstm_bytes = sum(l.weight_bytes for l in profile if l.kind == "lstm")
        assert lstm_bytes > 0.4 * profile.total_weight_bytes

    def test_s2vt_shapes(self, rng):
        model = build_s2vt(feature_size=10, hidden_size=6, vocab_size=9, rng=rng)
        out = model(rng.standard_normal((2, 4, 10)))
        assert out.shape == (2, 4, 9)

    def test_s2vt_layer_count(self, rng):
        assert build_s2vt(rng=rng).num_layers == 4
