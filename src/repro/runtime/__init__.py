"""Training runtimes: real (numpy) execution of every parallel strategy.

All trainers run in one process with *logical* workers, but faithfully
reproduce each strategy's **semantics**:

- :class:`~repro.runtime.trainer.SequentialTrainer` — reference minibatch
  SGD on one worker.
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
"""

from repro.runtime.amp import AmpTrainer, GradScaler
from repro.runtime.trainer import (
    SequentialTrainer,
    TrainingHistory,
    evaluate_accuracy,
    evaluate_loss,
    evaluate_perplexity,
    split_microbatches,
)
from repro.runtime.pipeline import PipelineTrainer
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.elastic import (
    ElasticCoordinator,
    RecoveryReport,
    remap_checkpoints,
    restore_remapped,
    surviving_worker_count,
)
from repro.runtime.loop import FitResult, fit
from repro.runtime.threaded import ThreadedPipelineTrainer

__all__ = [
    "AmpTrainer",
    "CheckpointManager",
    "ElasticCoordinator",
    "RecoveryReport",
    "remap_checkpoints",
    "restore_remapped",
    "surviving_worker_count",
    "FitResult",
    "fit",
    "GradScaler",
    "SequentialTrainer",
    "PipelineTrainer",
    "ThreadedPipelineTrainer",
    "TrainingHistory",
    "evaluate_accuracy",
    "evaluate_loss",
    "evaluate_perplexity",
    "split_microbatches",
]
