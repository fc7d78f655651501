"""The sweep harness and CSV export."""

import csv
import io

import pytest

from repro.core.topology import cluster_a
from repro.sim.sweep import SweepRecord, records_to_csv, run_sweep, speedup_table


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

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(["vgg16"], cluster_a(1), [4], strategies=("nope",))

    def test_records_carry_metrics(self, records):
        for record in records:
            assert record.samples_per_second > 0
            assert 0.0 <= record.communication_overhead <= 1.0
            assert record.peak_memory_gb > 0

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


class TestSpeedupTable:
    def test_rows_per_model_and_scale(self, records):
        rows = speedup_table(records)
        assert len(rows) == 4  # 2 models x 2 scales, one non-baseline strategy
        for row in rows:
            assert row["strategy"] == "pipedream"
            assert row["speedup"] > 0

    def test_resnet_speedup_is_one(self, records):
        rows = speedup_table(records)
        resnet = [r for r in rows if r["model"] == "resnet50"]
        assert all(abs(r["speedup"] - 1.0) < 0.05 for r in resnet)

    def test_single_axis_rows_are_per_model_and_scale(self, records):
        by = {(r.model, r.workers, r.strategy): r for r in records}
        rows = speedup_table(records)
        assert [(r["model"], r["workers"], r["strategy"], r["config"],
                 r["speedup"]) for r in rows] == [
            (model, workers, "pipedream", by[model, workers, "pipedream"].config,
             by[model, workers, "pipedream"].samples_per_second
             / by[model, workers, "dp"].samples_per_second)
            for model, workers in sorted({(r.model, r.workers)
                                          for r in records})]

    def test_every_axis_keeps_its_own_rows(self):
        """2 precisions x 2 buckets x 2 families: one row per pipedream
        record, each over the dp record of its own precision and bucket."""
        records = run_sweep(
            ["vgg16"], cluster_a(1), [4], strategies=("dp", "pipedream"),
            minibatches=8, precisions=("fp32", "fp16"),
            bucket_sizes=(None, 25e6), schedule_families=("1f1b", "2bp"))
        base = {(r.precision, r.bucket_bytes): r.samples_per_second
                for r in records if r.strategy == "dp"}
        pipedream = [r for r in records if r.strategy == "pipedream"]
        rows = speedup_table(records)
        assert len(rows) == len(pipedream) == 8
        for row, record in zip(rows, pipedream):
            assert (row["precision"], row["bucket_bytes"],
                    row["schedule_family"], row["recompute"],
                    row["config"]) == (
                record.precision, record.bucket_bytes,
                record.schedule_family, record.recompute, record.config)
            assert row["speedup"] == (
                record.samples_per_second
                / base[record.precision, record.bucket_bytes])
        assert len({(r["precision"], r["bucket_bytes"], r["schedule_family"])
                    for r in rows}) == 8
