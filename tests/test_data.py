"""Synthetic datasets."""

import numpy as np
import pytest

from repro.data import (
    make_captioning_data,
    make_classification_data,
    make_image_data,
    make_lm_data,
    make_seq2seq_data,
)


class TestGenerators:
    def test_classification_shapes(self):
        X, y = make_classification_data(num_samples=50, num_features=8, num_classes=3)
        assert X.shape == (50, 8)
        assert y.shape == (50,)
        assert set(np.unique(y)).issubset({0, 1, 2})

    def test_classification_deterministic(self):
        X1, y1 = make_classification_data(seed=5)
        X2, y2 = make_classification_data(seed=5)
        np.testing.assert_array_equal(X1, X2)
        np.testing.assert_array_equal(y1, y2)

    def test_classification_separable_at_low_noise(self):
        """Nearest-centroid should nail a low-noise dataset."""
        X, y = make_classification_data(num_samples=200, noise=0.1, seed=0)
        centroids = np.stack([X[y == c].mean(axis=0) for c in range(4)])
        pred = ((X[:, None, :] - centroids[None]) ** 2).sum(-1).argmin(1)
        assert (pred == y).mean() > 0.95

    def test_image_shapes(self):
        X, y = make_image_data(num_samples=10, image_size=16, num_classes=4)
        assert X.shape == (10, 3, 16, 16)
        assert y.shape == (10,)

    def test_seq2seq_shift_rule(self):
        src, tgt = make_seq2seq_data(num_samples=20, vocab_size=10, shift=3)
        np.testing.assert_array_equal(tgt, (src + 3) % 10)

    def test_lm_targets_are_shifted_sources(self):
        X, y = make_lm_data(num_samples=10, seq_len=6)
        assert X.shape == (10, 6)
        assert y.shape == (10, 6)
        # Next-token structure: y[t] is the successor of X[t], so X[t+1] == y[t].
        np.testing.assert_array_equal(X[:, 1:], y[:, :-1])

    def test_lm_low_branching(self):
        """Each token has at most 3 successors (learnable chain)."""
        X, y = make_lm_data(num_samples=500, seq_len=8, vocab_size=16, seed=1)
        successors = {}
        for row_x, row_y in zip(X, y):
            for a, b in zip(row_x, row_y):
                successors.setdefault(int(a), set()).add(int(b))
        assert all(len(s) <= 3 for s in successors.values())

    def test_captioning_shapes_and_rule(self):
        feats, caps = make_captioning_data(num_samples=8, num_frames=5,
                                           feature_size=12, vocab_size=6)
        assert feats.shape == (8, 5, 12)
        assert caps.shape == (8, 5)
        assert caps.max() < 6
