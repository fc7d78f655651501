"""Per-stage checkpointing without global coordination (§4).

PipeDream checkpoints each stage locally when it performs the backward
pass for the last minibatch of an epoch; no distributed barrier is needed.
Restart loads the last epoch for which *every* stage produced a checkpoint
(a straggler stage's missing file simply rolls the run back one epoch).

Checkpoints are ``.npz`` files, one per (stage, replica, epoch), plus a
tiny JSON manifest per epoch written by the trainer after all stages of
that epoch landed — used only as an integrity hint, never as coordination.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np


def _escape_name(name: str) -> str:
    """Reversibly escape a parameter name for use as an npz key.

    npz keys cannot contain ``/`` (numpy treats them as archive paths),
    and ``.`` collides with the ``.npy`` member suffix.  The underscore is
    doubled *first* so escape sequences can never be forged by the input:
    ``conv__1.w`` and ``conv.1__w`` map to distinct keys (the old
    ``.`` -> ``__`` scheme collapsed them).
    """
    return (name.replace("_", "__")
                .replace(".", "_d")
                .replace("/", "_s"))


def _unescape_name(key: str) -> str:
    """Exact inverse of :func:`_escape_name` (left-to-right scan)."""
    out = []
    i = 0
    while i < len(key):
        ch = key[i]
        if ch == "_" and i + 1 < len(key):
            nxt = key[i + 1]
            if nxt == "_":
                out.append("_")
            elif nxt == "d":
                out.append(".")
            elif nxt == "s":
                out.append("/")
            else:  # not an escape sequence we emit; keep verbatim
                out.append(ch + nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


@dataclass(frozen=True)
class CheckpointKey:
    stage: int
    replica: int
    epoch: int

    def filename(self) -> str:
        return f"stage{self.stage}_replica{self.replica}_epoch{self.epoch}.npz"


class CheckpointManager:
    """Reads and writes per-stage checkpoints under one directory."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def save_stage(self, stage: int, replica: int, epoch: int,
                   state: Dict[str, np.ndarray]) -> str:
        """Atomically write one stage replica's parameters."""
        key = CheckpointKey(stage, replica, epoch)
        path = os.path.join(self.directory, key.filename())
        tmp = path + ".tmp"
        # npz keys cannot contain '/' or '.', so escape parameter paths
        # (reversibly — load_stage restores the originals).
        escaped = {_escape_name(name): value for name, value in state.items()}
        with open(tmp, "wb") as f:
            np.savez(f, **escaped)
        os.replace(tmp, path)
        return path

    def mark_epoch_complete(self, epoch: int, num_stages: int,
                            replicas_per_stage: List[int]) -> None:
        manifest = {
            "epoch": epoch,
            "num_stages": num_stages,
            "replicas_per_stage": replicas_per_stage,
        }
        path = os.path.join(self.directory, f"epoch{epoch}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(manifest, f)
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load_stage(self, stage: int, replica: int, epoch: int) -> Dict[str, np.ndarray]:
        key = CheckpointKey(stage, replica, epoch)
        path = os.path.join(self.directory, key.filename())
        with np.load(path) as data:
            return {_unescape_name(name): data[name] for name in data.files}

    def has_stage(self, stage: int, replica: int, epoch: int) -> bool:
        key = CheckpointKey(stage, replica, epoch)
        return os.path.exists(os.path.join(self.directory, key.filename()))

    def latest_complete_epoch(self, num_stages: int,
                              replicas_per_stage: List[int]) -> Optional[int]:
        """Newest epoch for which every stage replica has a checkpoint.

        This is the §4 restart rule: "starting from the last successfully
        created checkpoint for all stages" — computed from the files
        themselves, so a crash between stage writes is handled.
        """
        epochs: Dict[int, int] = {}
        expected = sum(replicas_per_stage)
        for name in os.listdir(self.directory):
            if not name.endswith(".npz"):
                continue
            try:
                parts = name[:-4].split("_")
                stage = int(parts[0][len("stage"):])
                replica = int(parts[1][len("replica"):])
                epoch = int(parts[2][len("epoch"):])
            except (ValueError, IndexError):
                continue
            if stage < num_stages and replica < replicas_per_stage[stage]:
                epochs[epoch] = epochs.get(epoch, 0) + 1
        complete = [e for e, count in epochs.items() if count >= expected]
        return max(complete) if complete else None

    def list_checkpoints(self) -> List[str]:
        return sorted(n for n in os.listdir(self.directory) if n.endswith(".npz"))
