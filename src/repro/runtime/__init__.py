"""Training runtimes: real (numpy) execution of every parallel strategy.

All trainers run in one process with *logical* workers, but faithfully
reproduce each strategy's **semantics**:

- :class:`~repro.runtime.pipeline.PipelineTrainer` — the one schedule-table
  interpreter: weight stashing / vertical sync / naive policies (§3.3),
  round-robin routing and gradient sync across replicated stages.  Each
  strategy is the table it runs: PipeDream is 1F1B-RR, BSP (§2.1) is
  1F1B-RR on one stage of ``n`` replicas, ASP (§5.2) is
  :func:`~repro.core.schedule.asp_schedule` and GPipe (§2.2) is
  :func:`~repro.core.schedule.gpipe_schedule` over
  :func:`~repro.runtime.trainer.split_microbatches`.
- :class:`~repro.runtime.threaded.ThreadedPipelineTrainer` — the same
  interpreter with one OS thread per worker.

Mixed precision is the interpreter's ``precision="fp16"`` with a
:class:`~repro.runtime.amp.GradScaler`; on ``[Stage(0, L, 1)]`` it is
sequential fp16 training.
"""

from repro import lazy_exports

__all__ = lazy_exports(globals(), {
    ".amp": "GradScaler",
    ".checkpoint": "CheckpointManager",
    ".elastic": "ElasticCoordinator RecoveryReport remap_checkpoints "
                "restore_remapped surviving_worker_count",
    ".loop": "FitResult fit",
    ".trainer": "TrainingHistory evaluate_accuracy split_microbatches",
    ".pipeline": "PipelineTrainer",
    ".threaded": "ThreadedPipelineTrainer",
})
