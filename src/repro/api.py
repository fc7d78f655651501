"""Flat convenience API: one import surface over the whole library.

Each name is read from the module that defines it on first use (see
:func:`repro.lazy_exports`), so ``from repro.api import
PipeDreamOptimizer`` loads the planner and not the training stack.
"""

from repro import lazy_exports

__all__ = lazy_exports(globals(), {
    ".autodiff.engine": "Tensor no_grad",
    ".autodiff.": "functional",
    ".core.profile": "LayerProfile ModelProfile",
    ".core.topology": "CLUSTER_A CLUSTER_B CLUSTER_C Topology cluster_1080ti "
                      "cluster_a cluster_b cluster_c make_cluster",
    ".core.partition": "PartitionResult PipeDreamOptimizer Stage",
    ".core.spec": "PlanSpec SimSpec",
    ".core.schedule": "Schedule asp_schedule data_parallel_schedule "
                      "gpipe_schedule model_parallel_schedule "
                      "one_f_one_b_rr_schedule one_f_one_b_schedule "
                      "validate_schedule",
    ".core.stashing": "WeightStore",
    ".core.deploy": "DeploymentPlan",
    ".core.opgraph": "OperatorGraph OperatorNode residual_block_graph",
    ".data.synthetic": "make_captioning_data make_classification_data "
                       "make_image_data make_lm_data make_seq2seq_data",
    ".data.metrics": "corpus_bleu translation_bleu",
    ".models.base": "LayeredModel",
    ".models.alexnet": "build_alexnet",
    ".models.awd_lm": "build_awd_lm",
    ".models.gnmt": "build_gnmt",
    ".models.mlp": "build_mlp",
    ".models.resnet": "build_resnet",
    ".models.s2vt": "build_s2vt",
    ".models.seq2seq": "build_attention_seq2seq make_reversal_data",
    ".models.transformer": "build_transformer",
    ".models.vgg": "build_vgg",
    ".nn.loss": "CrossEntropyLoss",
    ".optim.sgd": "SGD",
    ".optim.adam": "Adam",
    ".optim.lars": "LARS",
    ".profiler.analytic": "analytic_profile available_models",
    ".profiler.measured": "profile_model",
    ".runtime.checkpoint": "CheckpointManager",
    ".runtime.loop": "fit",
    ".runtime.pipeline": "PipelineTrainer",
    ".runtime.threaded": "ThreadedPipelineTrainer",
    ".runtime.trainer": "TrainingHistory evaluate_accuracy split_microbatches",
    ".sim.executor": "SimOptions simulate",
    ".sim.strategies": "simulate_data_parallel simulate_gpipe "
                       "simulate_model_parallel simulate_partition "
                       "simulate_pipedream simulate_plan simulate_strategy",
})
