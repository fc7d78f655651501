"""Convolution and pooling: gradchecks, shapes, im2col/col2im algebra."""

import numpy as np
import pytest

from repro.autodiff import Tensor, functional as F
from repro.autodiff.convops import col2im, conv_output_size, im2col
from tests.oracles.gradcheck import gradcheck


def t(rng, *shape, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


class TestConvOutputSize:
    @pytest.mark.parametrize("size,k,s,p,expected", [
        (32, 3, 1, 1, 32),
        (32, 3, 2, 1, 16),
        (224, 11, 4, 0, 54),
        (5, 3, 1, 0, 3),
        (4, 2, 2, 0, 2),
    ])
    def test_sizes(self, size, k, s, p, expected):
        assert conv_output_size(size, k, s, p) == expected


class TestIm2Col:
    def test_roundtrip_counts_overlaps(self, rng):
        x = rng.standard_normal((1, 1, 4, 4))
        cols, oh, ow = im2col(x, 3, 3, stride=1, padding=1)
        back = col2im(cols, x.shape, 3, 3, stride=1, padding=1)
        # Each pixel is counted once per window containing it.
        counts = col2im(np.ones_like(cols), x.shape, 3, 3, 1, 1)
        np.testing.assert_allclose(back, x * counts)

    def test_column_shape(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        cols, oh, ow = im2col(x, 3, 3, stride=2, padding=1)
        assert (oh, ow) == (4, 4)
        assert cols.shape == (2, 3 * 9, 16)


class TestConv2d:
    def test_gradcheck_basic(self, rng):
        x = t(rng, 2, 3, 5, 5)
        w = t(rng, 4, 3, 3, 3, scale=0.2)
        b = t(rng, 4)
        assert gradcheck(lambda x, w, b: F.conv2d(x, w, b, padding=1).sum(), [x, w, b])

    def test_gradcheck_strided(self, rng):
        x = t(rng, 1, 2, 6, 6)
        w = t(rng, 3, 2, 3, 3, scale=0.2)
        b = t(rng, 3)
        assert gradcheck(lambda x, w, b: F.conv2d(x, w, b, stride=2, padding=1).sum(), [x, w, b])

    def test_no_bias(self, rng):
        x = t(rng, 1, 2, 4, 4)
        w = t(rng, 3, 2, 3, 3, scale=0.2)
        out = F.conv2d(x, w, None, padding=1)
        assert out.shape == (1, 3, 4, 4)
        assert gradcheck(lambda x, w: F.conv2d(x, w, None, padding=1).sum(), [x, w])

    def test_matches_manual_1x1(self, rng):
        """A 1x1 conv is a per-pixel linear map."""
        x = rng.standard_normal((1, 3, 2, 2))
        w = rng.standard_normal((4, 3, 1, 1))
        out = F.conv2d(Tensor(x), Tensor(w), None).data
        manual = np.einsum("nchw,fc->nfhw", x, w[:, :, 0, 0])
        np.testing.assert_allclose(out, manual, atol=1e-12)

    def test_identity_kernel(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = F.conv2d(Tensor(x), Tensor(w), None, padding=1).data
        np.testing.assert_allclose(out, x)

    def test_output_shape_stride2(self, rng):
        x = t(rng, 2, 3, 8, 8)
        w = t(rng, 5, 3, 3, 3)
        assert F.conv2d(x, w, None, stride=2, padding=1).shape == (2, 5, 4, 4)


class TestPooling:
    def test_maxpool_gradcheck(self, rng):
        x = t(rng, 2, 2, 4, 4)
        assert gradcheck(lambda x: F.max_pool2d(x, 2).sum(), [x])

    def test_maxpool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2).data
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_grad_routes_to_max(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_array_equal(x.grad[0, 0], expected)

    def test_avgpool_gradcheck(self, rng):
        x = t(rng, 2, 3, 4, 4)
        assert gradcheck(lambda x: F.avg_pool2d(x, 2).sum(), [x])

    def test_avgpool_values(self):
        x = Tensor(np.ones((1, 1, 4, 4)))
        np.testing.assert_allclose(F.avg_pool2d(x, 2).data, np.ones((1, 1, 2, 2)))

    def test_global_avgpool_gradcheck(self, rng):
        x = t(rng, 2, 3, 4, 4)
        assert gradcheck(lambda x: (F.global_avg_pool2d(x) ** 2).sum(), [x])

    def test_global_avgpool_shape(self, rng):
        x = t(rng, 2, 5, 7, 7)
        assert F.global_avg_pool2d(x).shape == (2, 5)

    def test_pad2d_gradcheck(self, rng):
        x = t(rng, 1, 2, 3, 3)
        assert gradcheck(lambda x: (F.pad2d(x, (1, 2)) ** 2).sum(), [x])

    def test_pad2d_shape(self, rng):
        x = t(rng, 1, 2, 3, 3)
        assert F.pad2d(x, (2, 1)).shape == (1, 2, 7, 5)
