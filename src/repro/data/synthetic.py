"""Synthetic task generators.

All tasks are classification-shaped (integer targets, cross-entropy loss) so
one training loop serves every model family:

- ``make_classification_data`` — Gaussian clusters for MLP tests.
- ``make_image_data`` — class-conditional image patterns + noise, standing
  in for ImageNet in the VGG/ResNet/AlexNet experiments.
- ``make_seq2seq_data`` — length-aligned token transduction (cyclic shift of
  the vocabulary), standing in for WMT16 translation.
- ``make_lm_data`` — next-token prediction over a random Markov chain,
  standing in for Penn Treebank language modelling.
- ``make_captioning_data`` — frame-feature sequences whose caption tokens
  are a fixed linear function of the features, standing in for MSVD.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def make_classification_data(
    num_samples: int = 256,
    num_features: int = 16,
    num_classes: int = 4,
    noise: float = 0.5,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Gaussian cluster per class; linearly separable at low noise."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_classes, num_features)) * 2.0
    labels = rng.integers(0, num_classes, num_samples)
    inputs = centers[labels] + noise * rng.standard_normal((num_samples, num_features))
    return inputs, labels


def make_image_data(
    num_samples: int = 128,
    image_size: int = 32,
    num_classes: int = 10,
    channels: int = 3,
    noise: float = 0.3,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Class-conditional spatial patterns with additive noise (NCHW)."""
    rng = np.random.default_rng(seed)
    prototypes = rng.standard_normal((num_classes, channels, image_size, image_size))
    labels = rng.integers(0, num_classes, num_samples)
    images = prototypes[labels] + noise * rng.standard_normal(
        (num_samples, channels, image_size, image_size)
    )
    return images.astype(np.float64), labels


def make_seq2seq_data(
    num_samples: int = 128,
    seq_len: int = 8,
    vocab_size: int = 32,
    shift: int = 3,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Aligned transduction: target token = (source token + shift) % vocab.

    Learnable by an embedding + LSTM stack; plays the role of translation.
    """
    rng = np.random.default_rng(seed)
    src = rng.integers(0, vocab_size, (num_samples, seq_len))
    tgt = (src + shift) % vocab_size
    return src, tgt


def make_lm_data(
    num_samples: int = 128,
    seq_len: int = 12,
    vocab_size: int = 32,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Next-token prediction over a sparse random Markov chain."""
    rng = np.random.default_rng(seed)
    # Each token has a small successor set => low achievable perplexity.
    successors = rng.integers(0, vocab_size, (vocab_size, 3))
    sequences = np.empty((num_samples, seq_len + 1), dtype=np.int64)
    sequences[:, 0] = rng.integers(0, vocab_size, num_samples)
    for t in range(seq_len):
        choice = rng.integers(0, successors.shape[1], num_samples)
        sequences[:, t + 1] = successors[sequences[:, t], choice]
    return sequences[:, :-1], sequences[:, 1:]


def make_captioning_data(
    num_samples: int = 128,
    num_frames: int = 6,
    feature_size: int = 32,
    vocab_size: int = 24,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Frame features whose caption token per frame is a fixed projection."""
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((num_samples, num_frames, feature_size))
    projection = rng.standard_normal((feature_size, vocab_size))
    captions = (features @ projection).argmax(axis=-1)
    return features, captions.astype(np.int64)
