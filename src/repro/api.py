"""Flat convenience API: one import surface over the whole library."""

from repro.autodiff import Tensor, functional, gradcheck, no_grad
from repro.core import (
    CLUSTER_A,
    CLUSTER_B,
    CLUSTER_C,
    LayerGraph,
    LayerProfile,
    LayerSpec,
    ModelProfile,
    PartitionResult,
    PipeDreamOptimizer,
    PlanSpec,
    Schedule,
    SimSpec,
    Stage,
    Topology,
    WeightStore,
    asp_schedule,
    data_parallel_schedule,
    gpipe_schedule,
    model_parallel_schedule,
    one_f_one_b_rr_schedule,
    one_f_one_b_schedule,
    validate_schedule,
)
from repro.core.deploy import DeploymentPlan
from repro.core.opgraph import OperatorGraph, OperatorNode, residual_block_graph
from repro.core.topology import cluster_1080ti, cluster_a, cluster_b, cluster_c, make_cluster
from repro.data import (
    Batcher,
    corpus_bleu,
    translation_bleu,
)
from repro.data.augment import (
    AugmentedBatcher,
    normalize_images,
    random_crop,
    random_horizontal_flip,
    train_val_split,
)
from repro.data import (
    make_captioning_data,
    make_classification_data,
    make_image_data,
    make_lm_data,
    make_seq2seq_data,
)
from repro.models.seq2seq import make_reversal_data
from repro.models import (
    LayeredModel,
    build_alexnet,
    build_awd_lm,
    build_gnmt,
    build_mlp,
    build_resnet,
    build_attention_seq2seq,
    build_s2vt,
    build_transformer,
    build_vgg,
)
from repro.nn import CrossEntropyLoss, MSELoss
from repro.optim import LARS, SGD, Adam, StepLR, WarmupLR
from repro.profiler import analytic_profile, available_models, profile_model
from repro.runtime import (
    CheckpointManager,
    fit,
    PipelineTrainer,
    SequentialTrainer,
    ThreadedPipelineTrainer,
    TrainingHistory,
    evaluate_accuracy,
    evaluate_loss,
    evaluate_perplexity,
    split_microbatches,
)
from repro.sim import (
    SimOptions,
    simulate,
    simulate_data_parallel,
    simulate_gpipe,
    simulate_model_parallel,
    simulate_partition,
    simulate_pipedream,
    simulate_plan,
    simulate_strategy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
