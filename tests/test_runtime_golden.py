"""Golden digests of ``PipelineTrainer`` over the runtime matrix.

The matrix: plan {straight, ``[2, 1]`` replicated, per-stage recompute} x
schedule family {1f1b, 2bp} x precision {fp32, fp16} x weight policy
{stashing, vertical_sync, none (fp32 only)} x gradient accumulation
{1, 2} — 60 cells.  Each cell trains the 3-layer MLP for two epochs of
seven minibatches (so the replicated plan ends on a one-member round) and
hashes what the run leaves behind: losses, consolidated weights,
``forward_versions``, peak memory / live-version stats, ``loss_scale``,
``skipped_updates`` and ``network.bytes_by_channel``.

The digests in ``tests/fixtures/runtime_golden/digests.json`` were captured
before the logical and threaded trainers shared one op interpreter, and
must stay byte-equal.  Regenerate them only for an intended behaviour
change, and say so:

    PYTHONPATH=src python tests/test_runtime_golden.py

:func:`outcome` is also the yardstick the threaded trainer is held to on
every straight cell (``tests/test_runtime_threaded.py``).
"""

import hashlib
import itertools
import json
from pathlib import Path
from typing import Dict, Tuple

import numpy as np
import pytest

from repro.core.partition import Stage
from repro.data import make_classification_data
from repro.models import build_mlp
from repro.nn import CrossEntropyLoss
from repro.optim import SGD
from repro.runtime import GradScaler, PipelineTrainer

FIXTURES = Path(__file__).parent / "fixtures" / "runtime_golden"

PLANS = {
    "straight": [Stage(0, 1, 1), Stage(1, 2, 1), Stage(2, 3, 1)],
    "replicated": [Stage(0, 2, 2), Stage(2, 3, 1)],
    "recompute": [Stage(0, 1, 1, recompute=True), Stage(1, 2, 1),
                  Stage(2, 3, 1, recompute=True)],
}
#: Plans with no replicated stage: there every weight version is fixed by
#: the per-worker op order alone, so any driver must reproduce the digests.
STRAIGHT_PLANS = ("straight", "recompute")

Cell = Tuple[str, str, str, str, int]

CELLS = [
    (plan, family, precision, policy, accumulation)
    for plan, family, precision, policy, accumulation in itertools.product(
        PLANS, ("1f1b", "2bp"), ("fp32", "fp16"),
        ("stashing", "vertical_sync", "none"), (1, 2))
    if not (precision == "fp16" and policy == "none")
]
EPOCHS = 2


def cell_id(cell: Cell) -> str:
    plan, family, precision, policy, accumulation = cell
    return f"{plan}-{family}-{precision}-{policy}-acc{accumulation}"


def _batches():
    X, y = make_classification_data(num_samples=84, seed=3)
    return [(X[i * 12:(i + 1) * 12], y[i * 12:(i + 1) * 12]) for i in range(7)]


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def train(trainer_cls, cell: Cell):
    """A trainer of ``trainer_cls`` after ``EPOCHS`` epochs of ``cell``."""
    plan, family, precision, policy, accumulation = cell
    scaler = ({"grad_scaler": GradScaler(init_scale=2.0 ** 24,
                                         growth_interval=3)}
              if precision == "fp16" else {})
    trainer = trainer_cls(
        build_mlp(rng=np.random.default_rng(7)), PLANS[plan],
        CrossEntropyLoss(), lambda ps: SGD(ps, lr=0.05), policy=policy,
        gradient_accumulation=accumulation, precision=precision, **scaler)
    batches = _batches()
    for _ in range(EPOCHS):
        trainer.train_minibatches(batches, schedule_family=family)
    return trainer


def outcome(trainer) -> Dict[str, str]:
    """One sha256 per observable a training run leaves behind."""
    stats = trainer.stats
    weights = hashlib.sha256()
    for name, param in trainer.consolidated_model().named_parameters():
        weights.update(f"{name}:{param.data.dtype}:{param.data.shape}".encode())
        weights.update(np.ascontiguousarray(param.data).tobytes())
    return {
        "losses": _sha(repr(stats.losses)),
        "weights": weights.hexdigest(),
        "forward_versions": _sha(repr(sorted(stats.forward_versions.items()))),
        "peak_memory_bytes": _sha(repr(sorted(stats.peak_memory_bytes.items()))),
        "peak_live_versions": _sha(
            repr(sorted(stats.peak_live_versions.items()))),
        "loss_scale": _sha(repr(stats.loss_scale)),
        "skipped_updates": _sha(repr(sorted(stats.skipped_updates.items()))),
        "bytes_by_channel": _sha(
            repr(sorted(trainer.network.bytes_by_channel().items()))),
    }


def golden_digests() -> Dict[str, Dict[str, str]]:
    return {cell_id(cell): outcome(train(PipelineTrainer, cell))
            for cell in CELLS}


def _golden() -> Dict[str, Dict[str, str]]:
    return json.loads((FIXTURES / "digests.json").read_text())


# Overflowing fp16 rounds push inf through upstream backward ops (inf * 0).
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_logical_trainer_matches_golden(cell):
    assert outcome(train(PipelineTrainer, cell)) == _golden()[cell_id(cell)]


def test_matrix_exercises_skips_and_accumulation():
    """The fixture is only a guard if its cells differ where the code does."""
    golden = _golden()
    assert len(golden) == len(CELLS) == 60
    fp16 = [d for k, d in golden.items() if "-fp16-" in k]
    assert len({d["skipped_updates"] for d in fp16}) > 1
    empty = _sha(repr([]))
    assert all(d["peak_memory_bytes"] != empty != d["peak_live_versions"]
               for d in golden.values())
    for plan in PLANS:
        for acc1, acc2 in ((k, k.replace("acc1", "acc2"))
                           for k in golden if k.startswith(plan)
                           and k.endswith("acc1")):
            assert golden[acc1]["weights"] != golden[acc2]["weights"], acc1


if __name__ == "__main__":
    import warnings

    warnings.simplefilter("ignore", RuntimeWarning)
    FIXTURES.mkdir(parents=True, exist_ok=True)
    (FIXTURES / "digests.json").write_text(
        json.dumps(golden_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURES}")
