"""Synthetic datasets standing in for ImageNet / WMT16 / PTB / MSVD.

Each generator produces a learnable task whose convergence behaviour can be
compared across training strategies (DP, ASP, PipeDream policies, GPipe) —
the substitution that preserves the paper's statistical-efficiency
experiments (DESIGN.md §2).
"""

from repro import lazy_exports

__all__ = lazy_exports(globals(), {
    ".synthetic": "make_classification_data make_image_data "
                  "make_seq2seq_data make_lm_data make_captioning_data",
    ".metrics": "corpus_bleu greedy_decode perplexity_from_loss "
                "token_f_score translation_bleu",
})
