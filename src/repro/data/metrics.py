"""Task metrics matching the paper's evaluation targets (§5.1).

The paper trains to top-1 accuracy (ImageNet), BLEU (WMT16), validation
perplexity (PTB), and METEOR (MSVD).  These are real implementations over
token id sequences: corpus BLEU with brevity penalty, perplexity from mean
cross-entropy, and a unigram precision/recall F-score as the METEOR
stand-in (full METEOR needs synonym databases that have no synthetic
counterpart).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence

import numpy as np


def _ngrams(tokens: Sequence[int], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(
    hypotheses: Iterable[Sequence[int]],
    references: Iterable[Sequence[int]],
    max_order: int = 4,
    smooth: float = 1e-9,
) -> float:
    """Corpus-level BLEU over token-id sequences (scaled 0-100).

    Standard definition: geometric mean of clipped n-gram precisions up to
    ``max_order``, times the brevity penalty.  ``smooth`` floors empty
    precisions so short synthetic corpora don't zero out.
    """
    hypotheses = [list(h) for h in hypotheses]
    references = [list(r) for r in references]
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis/reference counts differ")
    if not hypotheses:
        raise ValueError("empty corpus")

    matches = [0] * max_order
    totals = [0] * max_order
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_order + 1):
            hyp_grams = _ngrams(hyp, n)
            ref_grams = _ngrams(ref, n)
            overlap = sum((hyp_grams & ref_grams).values())
            matches[n - 1] += overlap
            totals[n - 1] += max(0, len(hyp) - n + 1)

    log_precision = 0.0
    for n in range(max_order):
        if totals[n] == 0:
            precision = smooth
        else:
            precision = max(matches[n] / totals[n], smooth)
        log_precision += math.log(precision) / max_order

    if hyp_len == 0:
        return 0.0
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_precision)


def token_f_score(
    hypotheses: Iterable[Sequence[int]],
    references: Iterable[Sequence[int]],
    recall_weight: float = 9.0,
) -> float:
    """Unigram precision/recall F-score (the METEOR stand-in, 0-1).

    METEOR's harmonic mean weights recall 9:1 over precision; we keep that
    weighting but skip the synonym/stem matching stages.
    """
    matches = hyp_total = ref_total = 0
    for hyp, ref in zip(hypotheses, references):
        overlap = sum((Counter(hyp) & Counter(ref)).values())
        matches += overlap
        hyp_total += len(hyp)
        ref_total += len(ref)
    if matches == 0:
        return 0.0
    precision = matches / max(hyp_total, 1)
    recall = matches / max(ref_total, 1)
    w = recall_weight
    return (1 + w) * precision * recall / (recall + w * precision)


def perplexity_from_loss(mean_cross_entropy: float) -> float:
    """Validation perplexity = exp(mean token cross-entropy)."""
    return float(math.exp(mean_cross_entropy))


def greedy_decode(model, inputs) -> np.ndarray:
    """Argmax decoding of a sequence model's logits (N, T, V) -> (N, T)."""
    from repro.autodiff.engine import no_grad

    with no_grad():
        logits = model(inputs)
    return logits.data.argmax(axis=-1)


def translation_bleu(model, sources: np.ndarray, targets: np.ndarray) -> float:
    """BLEU of a length-aligned transduction model's greedy output."""
    decoded = greedy_decode(model, sources)
    return corpus_bleu(list(decoded), list(np.asarray(targets)))
