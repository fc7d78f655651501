"""The sweep harness and CSV export."""

import csv
import io

import pytest

from repro.core.topology import MAX_WORKERS, cluster_a
from repro.sim.sweep import SweepError, SweepRecord, records_to_csv, run_sweep


@pytest.fixture(scope="module")
def records():
    return run_sweep(
        models=["vgg16", "resnet50"],
        topology=cluster_a(2),
        worker_counts=[4, 8],
        strategies=("dp", "pipedream"),
        minibatches=24,
    )


class TestRunSweep:
    def test_full_grid(self, records):
        assert len(records) == 2 * 2 * 2  # models x worker counts x strategies

    def test_unpackable_counts_skipped(self):
        out = run_sweep(["vgg16"], cluster_a(2), worker_counts=[6, 4],
                        strategies=("dp",), minibatches=8)
        assert [r.workers for r in out] == [4]

    @pytest.mark.parametrize("counts", [
        [0, -3], [True], [2.5], [], [4, MAX_WORKERS + 1]])
    def test_invalid_counts_fail_loudly(self, counts):
        """Counts read through ``FIELDS["counts"]``: an invalid one is a
        ValueError up front, not an empty result or a failed cell."""
        with pytest.raises(ValueError, match="counts") as excinfo:
            run_sweep(["vgg16"], cluster_a(1), counts, strategies=("dp",),
                      minibatches=8)
        assert not isinstance(excinfo.value, SweepError)

    def test_integral_counts_read_as_ints(self):
        assert run_sweep(["vgg16"], cluster_a(1), (4.0,), strategies=("dp",),
                         minibatches=8) == run_sweep(
            ["vgg16"], cluster_a(1), range(4, 5), strategies=("dp",),
            minibatches=8)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(["vgg16"], cluster_a(1), [4], strategies=("nope",))

    def test_records_carry_metrics(self, records):
        for record in records:
            assert record.samples_per_second > 0
            assert 0.0 <= record.communication_overhead <= 1.0
            assert record.peak_memory_gb > 0

    def test_resnet_speedup_is_one(self, records):
        """The optimizer picks data parallelism for ResNet-50 (Table 1)."""
        rate = {(r.workers, r.strategy): r.samples_per_second
                for r in records if r.model == "resnet50"}
        for workers in (4, 8):
            assert rate[workers, "pipedream"] == pytest.approx(
                rate[workers, "dp"], rel=0.05)

    def test_pipedream_beats_dp_for_vgg(self, records):
        by = {(r.model, r.workers, r.strategy): r for r in records}
        assert (by[("vgg16", 8, "pipedream")].samples_per_second
                > by[("vgg16", 8, "dp")].samples_per_second)


class TestCsv:
    def test_round_trips_through_csv_reader(self, records):
        text = records_to_csv(records)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(records)
        assert rows[0]["model"] == records[0].model

    def test_writes_file(self, records, tmp_path):
        path = tmp_path / "sweep.csv"
        records_to_csv(records, str(path))
        assert path.read_text().startswith("model,")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            records_to_csv([])
