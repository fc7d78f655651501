"""Deployment plans: the artifact connecting optimizer to runtime (§4).

The paper's optimizer "returns an annotated operator graph, with each model
layer mapped to a stage ID", from which per-worker modules and the static
1F1B-RR schedule are generated.  :class:`DeploymentPlan` is that artifact:
layer→stage annotations, per-worker stage/replica assignments and NOAM,
written as JSON by ``repro plan --json``.  The worker op schedules are not
written: :meth:`DeploymentPlan.schedule` rebuilds them from the stages.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.partition import PartitionResult, Stage
from repro.core.schedule import Schedule, one_f_one_b_rr_schedule


@dataclass(frozen=True)
class WorkerAssignment:
    """One worker's role in the deployment."""

    worker: int
    stage: int
    replica: int
    layer_start: int
    layer_stop: int
    #: Size of the tensor-parallel group this worker shards within (1 = the
    #: historical unsharded worker) and its rank inside that group.
    tp_degree: int = 1
    tp_rank: int = 0


@dataclass
class DeploymentPlan:
    """A serializable PipeDream deployment."""

    model_name: str
    stages: List[Stage]
    layer_names: List[str]
    noam: int
    assignments: List[WorkerAssignment]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_partition(
        cls,
        result: PartitionResult,
        layer_names: Optional[Sequence[str]] = None,
    ) -> "DeploymentPlan":
        names = list(layer_names) if layer_names is not None else [
            layer.name for layer in result.profile
        ]
        assignments = []
        worker = 0
        for s, stage in enumerate(result.stages):
            for q in range(stage.replicas):
                for rank in range(stage.tp_degree):
                    assignments.append(
                        WorkerAssignment(worker, s, q, stage.start, stage.stop,
                                         tp_degree=stage.tp_degree,
                                         tp_rank=rank)
                    )
                    worker += 1
        return cls(
            model_name=result.profile.model_name,
            stages=list(result.stages),
            layer_names=names,
            noam=result.noam,
            assignments=assignments,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return len(self.assignments)

    def workers_for_stage(self, stage: int) -> List[int]:
        return [a.worker for a in self.assignments if a.stage == stage]

    def schedule(self, num_minibatches: int) -> Schedule:
        """Materialize the static 1F1B-RR schedule for this deployment.

        Its input stage admits :attr:`noam` minibatches: the builder
        derives NOAM from the stages, so it is not passed."""
        return one_f_one_b_rr_schedule(self.stages, num_minibatches)

    def describe(self) -> str:
        """Human-readable deployment summary; each stage's workers print as
        contiguous runs (``[0-1022]``, ``[3, 5-7]``)."""
        lines = [f"model {self.model_name}: {len(self.stages)} stage(s), "
                 f"{self.num_workers} worker(s), NOAM={self.noam}"]
        for s, stage in enumerate(self.stages):
            span = f"{self.layer_names[stage.start]}..{self.layer_names[stage.stop - 1]}"
            workers = _runs(self.workers_for_stage(s))
            width = (f"x{stage.replicas}" if stage.tp_degree == 1
                     else f"x{stage.replicas}x{stage.tp_degree}tp")
            lines.append(f"  stage {s}: layers {span} {width} "
                         f"on workers {workers}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "model_name": self.model_name,
            "noam": self.noam,
            "layer_names": self.layer_names,
            "stages": [_stage_to_dict(s) for s in self.stages],
            "assignments": [
                dict(
                    {
                        "worker": a.worker,
                        "stage": a.stage,
                        "replica": a.replica,
                        "layer_start": a.layer_start,
                        "layer_stop": a.layer_stop,
                    },
                    **({"tp_degree": a.tp_degree, "tp_rank": a.tp_rank}
                       if a.tp_degree > 1 else {})
                )
                for a in self.assignments
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _runs(workers: List[int]) -> str:
    """``[0-3, 8, 10-11]``: ascending worker ids as contiguous runs."""
    runs: List[List[int]] = []
    for worker in workers:
        if runs and worker == runs[-1][1] + 1:
            runs[-1][1] = worker
        else:
            runs.append([worker, worker])
    return "[" + ", ".join(
        str(a) if a == b else f"{a}-{b}" for a, b in runs) + "]"


def _stage_to_dict(stage: Stage) -> Dict:
    """Stage -> JSON-ready dict.  ``tp_degree`` and ``recompute`` are
    written only when set, so a plan without them serializes as it always
    has."""
    return dict(
        {"start": stage.start, "stop": stage.stop, "replicas": stage.replicas},
        **({"tp_degree": stage.tp_degree} if stage.tp_degree > 1 else {}),
        **({"recompute": True} if stage.recompute else {}))
