"""A truly concurrent pipeline runtime: one OS thread per worker.

One interpreter, two drivers: where :class:`~repro.runtime.pipeline.
PipelineTrainer` steps its workers in lockstep sweeps, this runtime runs
each schedule-table row on its own thread through the same per-op code
(``PipelineTrainer._run_op``), blocking on a :class:`MessageBoard` for
activations and gradients, as a multi-GPU deployment does.  Only
concurrency is added: round commits take one lock (``ring_allreduce``
numbers its channels by rank, so two stages reducing at once would
cross-talk), and a replica's UPDATE returns only once its round has been
reduced or skipped, so a commit never races a replica's own forward.

Without replicated stages every weight version is decided by each worker's
own op order, so this runtime is bitwise-equal to the logical one (losses,
weights, ``forward_versions``, peak memory stats, ``loss_scale``,
``skipped_updates``, traffic) for every schedule family, precision, weight
policy and accumulation window.  Replicated stages reduce rounds in
arrival order, as on real hardware; replicas still commit identical weights.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.comm import Network
from repro.runtime.pipeline import PipelineTrainer, _Run


class MessageBoard(Network):
    """A :class:`~repro.comm.Network` that worker threads share.

    ``send`` and ``recv`` keep Network's signatures and accounting, under
    one lock; ``recv`` waits up to ``timeout`` seconds for the matching
    ``send`` instead of raising ``LookupError``.  :meth:`fail` wakes every
    waiter with an error.
    """

    def __init__(self):
        super().__init__()
        self.timeout = 60.0
        self.failed: Optional[BaseException] = None
        self._condition = threading.Condition()

    def send(self, src: int, dst: int, tag, payload) -> None:
        with self._condition:
            super().send(src, dst, tag, payload)
            self._condition.notify_all()

    def recv(self, src: int, dst: int, tag=None):
        received = []

        def landed() -> bool:
            try:
                received.append(Network.recv(self, src, dst, tag))
            except LookupError:
                return self.failed is not None
            return True

        with self._condition:
            if not self._condition.wait_for(landed, timeout=self.timeout):
                raise TimeoutError(f"no message {tag} from worker {src} to "
                                   f"{dst} within {self.timeout}s")
        if not received:
            raise RuntimeError("a worker thread failed") from self.failed
        return received[0]

    def fail(self, error: BaseException) -> None:
        """Record the run's first error and wake every waiter."""
        with self._condition:
            self.failed = self.failed or error
            self._condition.notify_all()

    def reset(self) -> None:
        """Forget a failed run's error and queued messages; counters stay."""
        with self._condition:
            self.failed = None
            for channel in self._channels.values():
                while channel:
                    channel.recv()


class ThreadedPipelineTrainer(PipelineTrainer):
    """PipeDream execution with one thread per stage replica.

    Same constructor and semantics as :class:`PipelineTrainer`; only the
    driver differs, and ``network`` is a :class:`MessageBoard`.
    ``worker_timeout`` bounds how long a thread waits for a message or an
    update round before declaring the pipeline wedged.
    """

    def __init__(self, *args, worker_timeout: float = 60.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.network = MessageBoard()
        self.network.timeout = self.worker_timeout = worker_timeout
        self._commits = threading.Condition()

    def execute(self, schedule, batches) -> float:
        run = self._start(schedule, batches)
        table = schedule.table()
        self.network.reset()

        def work(rank: int, worker: int) -> None:
            try:
                for op in zip(table.kinds[rank], table.stages[rank],
                              table.minibatches[rank]):
                    self._run_op(run, worker, *op)
            except BaseException as error:
                # Wake every blocked peer; re-raised after join.
                self.network.fail(error)
                with self._commits:
                    self._commits.notify_all()

        threads = [threading.Thread(target=work, args=row, daemon=True,
                                    name=f"pipedream-worker-{row[1]}")
                   for row in enumerate(table.workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=self.worker_timeout * 4)
        if self.network.failed is not None:
            raise RuntimeError("pipeline worker failed") from self.network.failed
        if any(thread.is_alive() for thread in threads):
            raise TimeoutError("pipeline workers did not finish")
        return self._finish(run)

    def _update(self, run: _Run, stage: int, rounds) -> None:
        """Commit under the one lock; return once these rounds are reduced."""
        with self._commits:
            super()._update(run, stage, rounds)
            self._commits.notify_all()
            reduced = self._commits.wait_for(
                lambda: self.network.failed or not any(
                    (stage, rnd) in run.round_grads for rnd in rounds),
                timeout=self.worker_timeout)
        if self.network.failed is not None:
            raise RuntimeError("a worker thread failed") from self.network.failed
        if not reduced:
            raise TimeoutError(f"update rounds {rounds} of stage {stage} "
                               "never completed")
