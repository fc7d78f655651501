"""Point-to-point channels with byte/message accounting."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class Message:
    """One transfer: a tag (e.g. ``("act", stage, minibatch)``) + payload."""

    tag: Tuple
    payload: Any
    nbytes: int


def _payload_bytes(payload) -> int:
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, dict):
        return sum(_payload_bytes(v) for v in payload.values())
    if isinstance(payload, (list, tuple)):
        return sum(_payload_bytes(v) for v in payload)
    return np.asarray(payload).nbytes


class Channel:
    """FIFO channel between one sender and one receiver."""

    def __init__(self, src: int, dst: int):
        self.src = src
        self.dst = dst
        self._queue: Deque[Message] = deque()
        self.messages_sent = 0
        self.bytes_sent = 0

    def send(self, tag: Tuple, payload) -> Message:
        message = Message(tag, payload, _payload_bytes(payload))
        self._queue.append(message)
        self.messages_sent += 1
        self.bytes_sent += message.nbytes
        return message

    def recv(self, tag: Optional[Tuple] = None):
        """Pop the next message; with ``tag``, pop the first matching one
        (channels are FIFO per tag — out-of-order pulls model the runtime's
        separate forward/backward work queues, §4 "Intermediate State")."""
        if not self._queue:
            raise LookupError(f"channel {self.src}->{self.dst} is empty")
        if tag is None:
            return self._queue.popleft().payload
        for i, message in enumerate(self._queue):
            if message.tag == tag:
                del self._queue[i]
                return message.payload
        raise LookupError(f"no message tagged {tag} on channel {self.src}->{self.dst}")

    def __len__(self) -> int:
        return len(self._queue)


class Network:
    """A mesh of lazily-created channels between logical workers."""

    def __init__(self):
        self._channels: Dict[Tuple[int, int], Channel] = {}

    def channel(self, src: int, dst: int) -> Channel:
        key = (src, dst)
        if key not in self._channels:
            self._channels[key] = Channel(src, dst)
        return self._channels[key]

    def send(self, src: int, dst: int, tag: Tuple, payload) -> None:
        self.channel(src, dst).send(tag, payload)

    def recv(self, src: int, dst: int, tag: Optional[Tuple] = None):
        return self.channel(src, dst).recv(tag)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return sum(c.bytes_sent for c in self._channels.values())

    @property
    def total_messages(self) -> int:
        return sum(c.messages_sent for c in self._channels.values())

    def bytes_by_channel(self) -> Dict[Tuple[int, int], int]:
        return {key: c.bytes_sent for key, c in self._channels.items()}

    def in_flight(self) -> int:
        """Messages sent but not yet received (leak detector for tests)."""
        return sum(len(c) for c in self._channels.values())
