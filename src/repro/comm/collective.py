"""Ring all_reduce, implemented as the actual two-phase algorithm.

Each of the ``m`` participants contributes one array per parameter; the
algorithm runs the textbook reduce-scatter + all-gather over a logical
ring, moving ``2 (m-1)/m`` of the data per participant — the communication
volume the paper's cost model (§3.1) and Figure 17 assume.  Transfers go
through a :class:`~repro.comm.channel.Network` so the bytes are observable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.comm.channel import Network


def ring_allreduce(
    contributions: Sequence[Dict[str, np.ndarray]],
    network: Optional[Network] = None,
    average: bool = True,
) -> List[Dict[str, np.ndarray]]:
    """All-reduce a dict of arrays across ``m`` logical participants.

    Returns one result dict per participant (all numerically identical).
    With ``average=True`` the result is the element-wise mean, matching
    DDP gradient averaging; otherwise the sum.
    """
    m = len(contributions)
    if m == 0:
        raise ValueError("need at least one participant")
    names = list(contributions[0])
    for c in contributions[1:]:
        if list(c) != names:
            raise ValueError("participants must contribute the same parameters")
    if m == 1:
        return [{k: v.copy() for k, v in contributions[0].items()}]
    network = network if network is not None else Network()

    # Flatten every contribution into one vector, split into m chunks.
    flats = []
    shapes = [(name, contributions[0][name].shape) for name in names]
    for contribution in contributions:
        flats.append(np.concatenate([contribution[name].reshape(-1) for name in names]))
    total = flats[0].size
    bounds = np.linspace(0, total, m + 1, dtype=int)

    def chunk(vector, i):
        return vector[bounds[i] : bounds[i + 1]]

    # Phase 1: reduce-scatter.  Step s: rank r sends chunk (r - s) to r+1.
    for step in range(m - 1):
        outgoing = []
        for rank in range(m):
            index = (rank - step) % m
            outgoing.append((rank, (rank + 1) % m, index, chunk(flats[rank], index).copy()))
        for src, dst, index, data in outgoing:
            network.send(src, dst, ("rs", step, index), data)
        for src, dst, index, data in outgoing:
            received = network.recv(src, dst, ("rs", step, index))
            chunk(flats[dst], index)[:] += received

    # Phase 2: all-gather.  Step s: rank r sends its completed chunk
    # (r + 1 - s) to r+1.
    for step in range(m - 1):
        outgoing = []
        for rank in range(m):
            index = (rank + 1 - step) % m
            outgoing.append((rank, (rank + 1) % m, index, chunk(flats[rank], index).copy()))
        for src, dst, index, data in outgoing:
            network.send(src, dst, ("ag", step, index), data)
        for src, dst, index, data in outgoing:
            received = network.recv(src, dst, ("ag", step, index))
            chunk(flats[dst], index)[:] = received

    if average:
        for flat in flats:
            flat /= m

    results = []
    for flat in flats:
        out: Dict[str, np.ndarray] = {}
        offset = 0
        for name, shape in shapes:
            size = int(np.prod(shape))
            out[name] = flat[offset : offset + size].reshape(shape).copy()
            offset += size
        results.append(out)
    return results
