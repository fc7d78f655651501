"""The table builders emit exactly the schedules the op-by-op oracle builds.

``repro.core.schedule`` builds every family as int tables by slice
arithmetic; ``tests/oracles/schedule_reference.py`` walks each family's
rule one ``Op`` at a time.  Their ``worker_ops`` views, worker (rank)
order — the simulator's commit tie-break — ``stage_workers`` and every
other field must be equal.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import schedule as production
from repro.core.partition import Stage
from repro.core.schedule import Schedule, ScheduleTable
from tests.oracles import schedule_reference as oracle


def assert_same_schedule(got: Schedule, want: Schedule) -> None:
    table = got.table()
    assert list(table.workers) == list(want.worker_ops)
    assert list(got.worker_ops) == list(want.worker_ops)
    assert got.worker_ops == want.worker_ops
    assert got.stage_workers == want.stage_workers
    assert got.stages == want.stages
    assert got.num_minibatches == want.num_minibatches
    assert got.noam == want.noam
    assert got.backward_split == want.backward_split
    assert got.num_workers == want.num_workers


def both(build, *args, split=False, **kwargs):
    got = getattr(production, build)(*args, **kwargs)
    want = getattr(oracle, build)(*args, **kwargs)
    if split:
        got = production.split_backward_schedule(got)
        want = oracle.split_backward_schedule(want)
    return got, want


stage_lists = st.lists(
    st.tuples(st.integers(1, 8), st.integers(1, 4)), min_size=1, max_size=6,
).map(lambda cells: [Stage(i, i + 1, r, tp_degree=t)
                     for i, (r, t) in enumerate(cells)])


class TestTableBuildersMatchOracle:
    @settings(max_examples=150, deadline=None)
    @given(stages=stage_lists, minibatches=st.integers(1, 64),
           in_flight=st.one_of(st.none(), st.integers(0, 10)),
           noam=st.one_of(st.none(), st.integers(1, 9)),
           split=st.booleans())
    def test_one_f_one_b_rr(self, stages, minibatches, in_flight, noam, split):
        assert_same_schedule(*both(
            "one_f_one_b_rr_schedule", stages, minibatches, noam=noam,
            in_flight_per_replica=in_flight, split=split))

    @settings(max_examples=60, deadline=None)
    @given(num_stages=st.integers(1, 6), minibatches=st.integers(1, 64),
           split=st.booleans())
    def test_straight_closed_form_and_model_parallel(self, num_stages,
                                                     minibatches, split):
        for build in ("one_f_one_b_schedule", "model_parallel_schedule"):
            assert_same_schedule(*both(build, num_stages, minibatches,
                                       split=split))

    @settings(max_examples=60, deadline=None)
    @given(num_stages=st.integers(1, 6), batches=st.integers(1, 8),
           micro=st.integers(1, 8), split=st.booleans())
    def test_gpipe(self, num_stages, batches, micro, split):
        bounds = [(2 * s, 2 * s + 2) for s in range(num_stages)]
        assert_same_schedule(*both("gpipe_schedule", num_stages, batches,
                                   micro, layer_bounds=bounds, split=split))

    @settings(max_examples=60, deadline=None)
    @given(workers=st.integers(1, 8), minibatches=st.integers(1, 64),
           layers=st.integers(1, 5), split=st.booleans())
    def test_data_parallel(self, workers, minibatches, layers, split):
        assert_same_schedule(*both("data_parallel_schedule", workers,
                                   minibatches, num_layers=layers,
                                   split=split))


class TestOneSourceAtATime:
    def test_view_retires_the_table(self):
        sched = production.one_f_one_b_rr_schedule(
            [Stage(0, 1, 2), Stage(1, 2, 1)], 6)
        live = sched.table()
        assert sched.table() is live  # the builder's table, not a copy
        view = sched.worker_ops
        assert sched.worker_ops is view
        derived = sched.table()
        assert derived is not live and derived == live
        view[2] = view[2][:-2]  # drop the last (backward, update) pair
        assert sched.table() != live
        assert sched.table() == ScheduleTable.from_ops(view)

    def test_split_of_an_edited_view_splits_the_edit(self):
        sched = production.one_f_one_b_schedule(2, 3)
        sched.worker_ops[1] = sched.worker_ops[1][:-2]
        split = production.split_backward_schedule(sched)
        ref = oracle.split_backward_schedule(sched)
        assert split.worker_ops == ref.worker_ops

    @pytest.mark.parametrize("sources", [(), ("worker_ops", "table")])
    def test_exactly_one_source(self, sources):
        table = production.one_f_one_b_schedule(2, 2).table()
        both_sources = {"worker_ops": {}, "table": table}
        with pytest.raises(ValueError, match="exactly one"):
            Schedule([Stage(0, 1, 1)], 1,
                     **{k: both_sources[k] for k in sources})
