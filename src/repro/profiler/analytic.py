"""Analytic profiles of the paper's seven full-size models.

Real V100/1080Ti profiling runs are unavailable here, so each evaluation
model is reconstructed from its published architecture: per-layer parameter
counts, activation sizes, and forward MAC counts.  A simple device model
(peak FLOP rate x per-operator efficiency) converts MACs into the
``T_l`` compute times the partitioner consumes.  Absolute times are
approximate; what the reproduction relies on — and what the paper's results
are driven by — is the *relative* weight/activation/compute structure:
convolutions are compute-heavy with small weights and large activations,
while LSTM/FC layers are weight-heavy with small activations.

Models: VGG-16, ResNet-50, AlexNet (ImageNet, 224x224), GNMT-8, GNMT-16
(WMT16, seq len 50), AWD-LM (Penn Treebank; the paper's 6-LSTM variant with
0.41 GB of parameters), and S2VT (MSVD, 80 frames) — plus SSD300 and Mask
R-CNN (R50-FPN) for the Table 3 MLPerf comparison.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.profile import LayerProfile, ModelProfile


@dataclass(frozen=True)
class AnalyticLayer:
    """Per-sample statistics of one full-size model layer."""

    name: str
    kind: str
    params: int  # trainable scalars
    out_elements: int  # activation scalars per sample
    flops: int  # forward MACs per sample


# ----------------------------------------------------------------------
# Device model
# ----------------------------------------------------------------------

#: Peak fp32 FLOP rates (multiply-accumulates counted once).
DEVICE_PEAK_FLOPS: Dict[str, float] = {
    "v100": 14.0e12,
    "1080ti": 10.6e12,
    "titanx": 10.2e12,
}

#: Achievable fraction of peak by operator family (GEMM-heavy ops run near
#: peak; memory-bound ops far below it).
KIND_EFFICIENCY: Dict[str, float] = {
    "conv": 0.50,
    "fc": 0.40,
    "lstm": 0.30,
    "embedding": 0.02,
    "pool": 0.02,
    "act": 0.02,
    "other": 0.10,
}

#: Backward-pass MACs as a multiple of forward MACs (dL/dx and dL/dw).
BACKWARD_MULTIPLIER = 2.0


def _compute_time(layer: AnalyticLayer, batch_size: int, device: str) -> float:
    peak = DEVICE_PEAK_FLOPS[device]
    efficiency = KIND_EFFICIENCY.get(layer.kind, 0.1)
    total_flops = layer.flops * batch_size * (1.0 + BACKWARD_MULTIPLIER)
    return total_flops / (peak * efficiency)


# ----------------------------------------------------------------------
# Convolutional architectures
# ----------------------------------------------------------------------

def _conv(name: str, in_ch: int, out_ch: int, out_hw: int, kernel: int,
          stride: int = 1) -> AnalyticLayer:
    params = out_ch * (in_ch * kernel * kernel + 1)
    out_elements = out_ch * out_hw * out_hw
    flops = out_elements * in_ch * kernel * kernel
    return AnalyticLayer(name, "conv", params, out_elements, flops)


def _fc(name: str, in_f: int, out_f: int, positions: int = 1) -> AnalyticLayer:
    params = out_f * (in_f + 1)
    return AnalyticLayer(name, "fc", params, out_f * positions, in_f * out_f * positions)


def _pool(name: str, channels: int, out_hw: int) -> AnalyticLayer:
    out_elements = channels * out_hw * out_hw
    return AnalyticLayer(name, "pool", 0, out_elements, out_elements * 4)


def _lstm(name: str, in_size: int, hidden: int, steps: int) -> AnalyticLayer:
    params = 4 * hidden * (in_size + hidden + 1)
    flops = steps * 4 * hidden * (in_size + hidden)
    return AnalyticLayer(name, "lstm", params, hidden * steps, flops)


def _embedding(name: str, vocab: int, dim: int, steps: int) -> AnalyticLayer:
    return AnalyticLayer(name, "embedding", vocab * dim, dim * steps, dim * steps)


def vgg16_layers() -> List[AnalyticLayer]:
    """Full VGG-16 for 224x224 ImageNet."""
    layers: List[AnalyticLayer] = []
    blocks = [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)]
    in_ch, hw = 3, 224
    for b, (ch, convs) in enumerate(blocks, start=1):
        for c in range(1, convs + 1):
            layers.append(_conv(f"conv{b}_{c}", in_ch, ch, hw, 3))
            in_ch = ch
        hw //= 2
        layers.append(_pool(f"pool{b}", ch, hw))
    layers.append(_fc("fc6", 512 * 7 * 7, 4096))
    layers.append(_fc("fc7", 4096, 4096))
    layers.append(_fc("fc8", 4096, 1000))
    return layers


def alexnet_layers() -> List[AnalyticLayer]:
    """Full AlexNet for 224x224 inputs (single-tower variant)."""
    return [
        _conv("conv1", 3, 64, 55, 11, stride=4),
        _pool("pool1", 64, 27),
        _conv("conv2", 64, 192, 27, 5),
        _pool("pool2", 192, 13),
        _conv("conv3", 192, 384, 13, 3),
        _conv("conv4", 384, 256, 13, 3),
        _conv("conv5", 256, 256, 13, 3),
        _pool("pool5", 256, 6),
        _fc("fc6", 256 * 6 * 6, 4096),
        _fc("fc7", 4096, 4096),
        _fc("fc8", 4096, 1000),
    ]


def resnet50_layers() -> List[AnalyticLayer]:
    """Full ResNet-50: stem + 16 bottleneck blocks + classifier.

    Each bottleneck block (1x1 reduce, 3x3, 1x1 expand, plus a projection
    shortcut on the first block of each group) is one partitionable layer.
    """
    layers: List[AnalyticLayer] = [
        _conv("stem", 3, 64, 112, 7, stride=2),
        _pool("maxpool", 64, 56),
    ]
    groups = [  # (blocks, internal width, output width, spatial size)
        (3, 64, 256, 56),
        (4, 128, 512, 28),
        (6, 256, 1024, 14),
        (3, 512, 2048, 7),
    ]
    in_width = 64
    for g, (blocks, width, out_width, hw) in enumerate(groups, start=1):
        for b in range(1, blocks + 1):
            params = (
                width * (in_width + 1)  # 1x1 reduce
                + width * (width * 9 + 1)  # 3x3
                + out_width * (width + 1)  # 1x1 expand
            )
            flops = hw * hw * (width * in_width + width * width * 9 + out_width * width)
            if b == 1:  # projection shortcut
                params += out_width * (in_width + 1)
                flops += hw * hw * out_width * in_width
            out_elements = out_width * hw * hw
            layers.append(
                AnalyticLayer(f"group{g}_block{b}", "conv", params, out_elements, flops)
            )
            in_width = out_width
    layers.append(_pool("avgpool", 2048, 1))
    layers.append(_fc("fc", 2048, 1000))
    return layers


# ----------------------------------------------------------------------
# Recurrent architectures
# ----------------------------------------------------------------------

def gnmt_layers(num_lstm_layers: int, seq_len: int = 50) -> List[AnalyticLayer]:
    """GNMT with ``num_lstm_layers`` stacked 1024-wide LSTMs, 32k vocab."""
    hidden, vocab = 1024, 32000
    layers = [_embedding("embed", vocab, hidden, seq_len)]
    for i in range(1, num_lstm_layers + 1):
        layers.append(_lstm(f"lstm{i}", hidden, hidden, seq_len))
    layers.append(_fc("proj", hidden, vocab, positions=seq_len))
    return layers


def awd_lm_layers(seq_len: int = 70) -> List[AnalyticLayer]:
    """The paper's AWD-LM variant: six LSTM layers, ~0.41 GB of weights."""
    vocab, embed, hidden = 10000, 1500, 1500
    layers = [_embedding("embed", vocab, embed, seq_len)]
    for i in range(1, 7):
        layers.append(_lstm(f"lstm{i}", hidden, hidden, seq_len))
    layers.append(_fc("decoder", hidden, vocab, positions=seq_len))
    return layers


def s2vt_layers(num_frames: int = 80) -> List[AnalyticLayer]:
    """S2VT: per-frame feature encoder, two LSTMs, vocabulary decoder."""
    feature, hidden, vocab = 4096, 1000, 13000
    return [
        _fc("encoder", feature, hidden, positions=num_frames),
        _lstm("lstm1", hidden, hidden, num_frames),
        _lstm("lstm2", hidden, hidden, num_frames),
        _fc("decoder", hidden, vocab, positions=num_frames),
    ]


def ssd300_layers() -> List[AnalyticLayer]:
    """SSD300 (Liu et al.): VGG-16 backbone + extra feature maps + heads.

    Used by Table 3's MLPerf comparison.  The backbone reuses VGG-16's conv
    body (fc6/fc7 become atrous convs); six multi-scale heads regress 8732
    default boxes.
    """
    layers: List[AnalyticLayer] = []
    blocks = [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)]
    in_ch, hw = 3, 300
    for b, (ch, convs) in enumerate(blocks, start=1):
        for c in range(1, convs + 1):
            layers.append(_conv(f"conv{b}_{c}", in_ch, ch, hw, 3))
            in_ch = ch
        hw //= 2
        layers.append(_pool(f"pool{b}", ch, hw))
    # fc6/fc7 as (atrous) convolutions at 19x19.
    layers.append(_conv("conv_fc6", 512, 1024, 19, 3))
    layers.append(_conv("conv_fc7", 1024, 1024, 19, 1))
    # Extra feature layers shrinking 19 -> 10 -> 5 -> 3 -> 1.
    extras = [(1024, 256, 512, 10), (512, 128, 256, 5),
              (256, 128, 256, 3), (256, 128, 256, 1)]
    for i, (in_c, mid, out, out_hw) in enumerate(extras, start=8):
        layers.append(_conv(f"conv{i}_1", in_c, mid, out_hw * 2 if out_hw > 1 else 1, 1))
        layers.append(_conv(f"conv{i}_2", mid, out, out_hw, 3))
    # Detection heads: ~(4 + 81) * 4ish anchors per location over 6 maps;
    # modelled as one aggregate conv-like layer (~8732 boxes, 85 outputs).
    layers.append(AnalyticLayer("det_heads", "conv",
                                params=9_000_000, out_elements=8732 * 85,
                                flops=900_000_000))
    return layers


def mask_rcnn_layers() -> List[AnalyticLayer]:
    """Mask R-CNN with a ResNet-50-FPN backbone at 800px (Table 3).

    Spatial sizes scale the ResNet-50 stats by (800/224)^2 ~ 12.8x; the
    FPN, RPN, box and mask heads are modelled as aggregate layers with
    their published parameter counts.
    """
    scale = (800 / 224) ** 2
    layers = []
    for layer in resnet50_layers()[:-2]:  # drop avgpool/fc classifier
        layers.append(AnalyticLayer(
            name=f"backbone_{layer.name}",
            kind=layer.kind,
            params=layer.params,
            out_elements=int(layer.out_elements * scale),
            flops=int(layer.flops * scale),
        ))
    layers.append(AnalyticLayer("fpn", "conv", params=3_500_000,
                                out_elements=256 * (100 ** 2),
                                flops=4_000_000_000))
    layers.append(AnalyticLayer("rpn", "conv", params=1_200_000,
                                out_elements=15 * (100 ** 2),
                                flops=1_500_000_000))
    layers.append(AnalyticLayer("box_head", "fc", params=27_000_000,
                                out_elements=1024 * 512,
                                flops=13_000_000_000))
    layers.append(AnalyticLayer("mask_head", "conv", params=2_600_000,
                                out_elements=81 * 28 * 28 * 100,
                                flops=11_000_000_000))
    return layers


# ----------------------------------------------------------------------
# Registry and entry point
# ----------------------------------------------------------------------

#: model name -> (layer generator, paper per-GPU minibatch size, §5.1)
ANALYTIC_MODELS: Dict[str, tuple] = {
    "vgg16": (vgg16_layers, 64),
    "resnet50": (resnet50_layers, 128),
    "alexnet": (alexnet_layers, 256),
    "gnmt8": (lambda: gnmt_layers(8), 64),
    "gnmt16": (lambda: gnmt_layers(16), 64),
    "awd-lm": (awd_lm_layers, 80),
    "s2vt": (s2vt_layers, 80),
    "ssd": (ssd300_layers, 16),  # MLPerf v0.5 per-GPU batch
    "mask-rcnn": (mask_rcnn_layers, 4),
}


def available_models() -> List[str]:
    return sorted(ANALYTIC_MODELS)


# ----------------------------------------------------------------------
# Profile cache
# ----------------------------------------------------------------------
# Analytic profiles are deterministic functions of their arguments, and
# sweep-scale callers (every strategy cell of ``run_sweep``) used to rebuild
# them per call.  The cache is keyed on the full argument tuple — distinct
# ``(model, batch_size, device, bytes_per_element)`` keys never collide —
# and guarded by a lock for thread-based sweeps.  Process-based sweeps are
# safe by construction: each worker process holds its own module-level
# cache, so there is no cross-process mutable state to corrupt.  Cached
# profiles are shared objects; every consumer in this repo treats
# :class:`ModelProfile` as immutable (``scaled``/``with_precision`` return
# copies), and callers that do want a private instance pass ``cache=False``.

_ProfileKey = Tuple[str, int, str, int]
_PROFILE_CACHE: Dict[_ProfileKey, ModelProfile] = {}
_PROFILE_CACHE_LOCK = threading.Lock()


def clear_profile_cache() -> None:
    """Drop every cached analytic profile (perf baselines, tests)."""
    with _PROFILE_CACHE_LOCK:
        _PROFILE_CACHE.clear()


def profile_cache_stats() -> Dict[str, int]:
    """Current cache occupancy, keyed for test introspection."""
    with _PROFILE_CACHE_LOCK:
        return {"entries": len(_PROFILE_CACHE)}


def analytic_profile(
    model_name: str,
    batch_size: int = 0,
    device: str = "v100",
    bytes_per_element: int = 4,
    cache: bool = True,
) -> ModelProfile:
    """Build the (T_l, a_l, w_l) profile of a full-size paper model.

    Args:
        model_name: one of :func:`available_models`.
        batch_size: per-GPU minibatch; 0 selects the paper's §5.1 value.
        device: ``"v100"``, ``"1080ti"``, or ``"titanx"``.
        bytes_per_element: 4 for fp32, 2 for fp16 (Figure 12).
        cache: when True (default) identical argument tuples return one
            shared (treat-as-immutable) profile instance; ``False`` always
            builds a fresh copy.
    """
    if model_name not in ANALYTIC_MODELS:
        raise KeyError(f"unknown model {model_name!r}; have {available_models()}")
    generator, default_batch = ANALYTIC_MODELS[model_name]
    batch = batch_size or default_batch
    key = (model_name, batch, device, bytes_per_element)
    if cache:
        with _PROFILE_CACHE_LOCK:
            hit = _PROFILE_CACHE.get(key)
        if hit is not None:
            return hit
    layers = []
    for layer in generator():
        compute = _compute_time(layer, batch, device)
        layers.append(
            LayerProfile(
                name=layer.name,
                compute_time=compute,
                activation_bytes=layer.out_elements * batch * bytes_per_element,
                weight_bytes=layer.params * bytes_per_element,
                forward_time=compute / (1.0 + BACKWARD_MULTIPLIER),
                kind=layer.kind,
            )
        )
    built = ModelProfile(model_name, layers, batch_size=batch,
                         bytes_per_element=bytes_per_element)
    if cache:
        with _PROFILE_CACHE_LOCK:
            # A racing thread may have built the same profile; keep the
            # first so "same key -> same object" holds for every caller.
            built = _PROFILE_CACHE.setdefault(key, built)
    return built
