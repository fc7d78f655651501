"""The precision-differential lockdown suite.

Two guarantees:

* **fp32 is the default, bitwise.**  Every sweep/evaluator/engine path
  rerun with an explicit fp32 precision produces records identical to the
  precision-less call — adding the axis must not perturb a single bit of
  existing output (serial, parallel, the oracle stack, every strategy,
  both engines).
* **fp16 is exact scaling.**  ``with_precision`` composition collapses
  (hypothesis property on element-divisible profiles), payloads stay
  positive and monotone in ``bytes_per_element``, the profile cache and
  evaluator tables never serve one precision's data to the other, and
  fp16 cells strictly shrink the modeled allreduce/communication terms on
  communication-bound (data-parallel) cells.
"""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import (
    Stage,
    evaluate_partition_details,
)
from repro.core.profile import PRECISION_BYTES, LayerProfile, ModelProfile
from repro.core.topology import cluster_a
from repro.profiler import (
    analytic_profile,
    clear_profile_cache,
    profile_cache_stats,
)
from repro.sim import strategies
from repro.sim.strategies import simulate_pipedream
from repro.sim.sweep import (
    SweepError,
    precision_chart,
    records_to_csv,
    run_sweep,
)
from tests.oracles import price_sweep_record
from tests.oracles.sim_reference import simulate_reference

TOPO = cluster_a(4)
MODELS = ("vgg16", "gnmt8")
COUNTS = (4, 16)


# ----------------------------------------------------------------------
# fp32 differential: explicit fp32 == default, bitwise
# ----------------------------------------------------------------------

class TestFp32Differential:
    def test_default_sweep_identical(self):
        default = run_sweep(MODELS, TOPO, COUNTS)
        explicit = run_sweep(MODELS, TOPO, COUNTS, precisions=("fp32",))
        assert default == explicit

    def test_all_strategies_identical(self):
        strategies = ("dp", "pipedream", "mp", "gpipe")
        default = run_sweep(MODELS, TOPO, COUNTS, strategies=strategies,
                            minibatches=16)
        explicit = run_sweep(MODELS, TOPO, COUNTS, strategies=strategies,
                             minibatches=16, precisions=("fp32",))
        assert default == explicit

    def test_reference_engine_identical(self, monkeypatch):
        event = run_sweep(("vgg16",), TOPO, (4,), minibatches=8)
        monkeypatch.setattr(strategies, "simulate", simulate_reference)
        default = run_sweep(("vgg16",), TOPO, (4,), minibatches=8)
        explicit = run_sweep(("vgg16",), TOPO, (4,), minibatches=8,
                             precisions=("fp32",))
        assert default == explicit == event

    def test_oracle_stack_identical(self):
        """Both widths' records carry the floats the scalar DP plus the
        closed-form evaluator price on the width-converted profile."""
        records = run_sweep(("vgg16",), TOPO, COUNTS, minibatches=16,
                            precisions=("fp32", "fp16"))
        assert {r.precision for r in records} == {"fp32", "fp16"}
        for record in records:
            priced = price_sweep_record(record, TOPO)
            assert record.stage_seconds == priced.stage_times
            assert record.boundary_seconds == priced.boundary_times

    def test_parallel_identical_to_serial(self):
        serial = run_sweep(MODELS, TOPO, COUNTS,
                           precisions=("fp32", "fp16"))
        parallel = run_sweep(MODELS, TOPO, COUNTS,
                             precisions=("fp32", "fp16"),
                             workers=3)
        assert serial == parallel

    def test_fp32_records_carry_default_precision_fields(self):
        records = run_sweep(("vgg16",), TOPO, (4,))
        assert all(r.precision == "fp32" for r in records)

    def test_driver_precision_fp32_identical(self):
        """Precision is the profile's: an fp32 -> fp32 conversion hands
        the drivers the same values, so the timeline is bitwise the same."""
        profile = analytic_profile("vgg16")
        plain = simulate_pipedream(profile, TOPO, num_minibatches=16)
        tagged = simulate_pipedream(
            profile.with_precision(PRECISION_BYTES["fp32"]), TOPO,
            num_minibatches=16)
        assert plain.sim.records == tagged.sim.records
        assert plain.samples_per_second == tagged.samples_per_second
        assert plain.memory_per_worker == tagged.memory_per_worker

    def test_unknown_precision_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(("vgg16",), TOPO, (4,), precisions=("fp8",))


# ----------------------------------------------------------------------
# Cache/table keying: fp32 state never serves an fp16 cell
# ----------------------------------------------------------------------

class TestPrecisionKeying:
    def test_profile_cache_key_includes_width(self):
        clear_profile_cache()
        fp32 = analytic_profile("vgg16")
        assert profile_cache_stats()["entries"] == 1
        fp16 = analytic_profile("vgg16", bytes_per_element=2)
        # The fp16 request was a MISS — a second entry, not the fp32 one.
        assert profile_cache_stats()["entries"] == 2
        assert fp16 is not fp32
        assert fp16.bytes_per_element == 2
        assert fp32.bytes_per_element == 4
        # Same-key requests do hit, per width.
        assert analytic_profile("vgg16") is fp32
        assert analytic_profile("vgg16", bytes_per_element=2) is fp16

    def test_cached_fp32_profile_not_mutated_by_fp16_use(self):
        clear_profile_cache()
        before = analytic_profile("vgg16").to_dict()
        run_sweep(("vgg16",), TOPO, (4,), precisions=("fp16",))
        assert analytic_profile("vgg16").to_dict() == before

    def test_eval_tables_are_per_profile_instance(self):
        """The range table is keyed by profile digest, so the fp16
        conversion (new bytes) can never reuse fp32 prefix tables —
        and interleaving precisions leaves fp32 results bitwise-stable."""
        fp32 = analytic_profile("vgg16")
        fp16 = fp32.with_precision(2)
        stages = [Stage(0, 10, 9), Stage(10, 15, 6),
                  Stage(15, len(fp32), 1)]
        first = evaluate_partition_details(fp32, stages, TOPO)
        half = evaluate_partition_details(fp16, stages, TOPO)
        again = evaluate_partition_details(fp32, stages, TOPO)
        assert first == again  # fp16 evaluation didn't contaminate fp32
        assert half != first
        # Boundary transfers move half the bytes, so cost at most fp32's.
        assert all(h <= f for h, f in
                   zip(half.boundary_times, first.boundary_times))
        assert sum(half.boundary_times) < sum(first.boundary_times)
        assert max(half.memory_bytes) < max(first.memory_bytes)


# ----------------------------------------------------------------------
# with_precision properties (hypothesis, element-divisible profiles)
# ----------------------------------------------------------------------

# Profiles whose byte counts are element_count x bytes_per_element make
# every width rescale exact, so composition laws hold with equality.
element_layers = st.lists(
    st.tuples(
        st.floats(0.01, 5.0, allow_nan=False),  # compute time
        st.integers(0, 10_000),                 # activation elements
        st.integers(0, 50_000),                 # weight elements
    ),
    min_size=1,
    max_size=5,
)


def profile_from_elements(spec, bytes_per_element=4):
    layers = [
        LayerProfile(f"l{i}", c, a * bytes_per_element,
                     w * bytes_per_element)
        for i, (c, a, w) in enumerate(spec)
    ]
    return ModelProfile("elems", layers, batch_size=1,
                        bytes_per_element=bytes_per_element)


def layer_bytes(profile):
    return [(l.activation_bytes, l.weight_bytes) for l in profile.layers]


class TestWithPrecisionProperties:
    @given(spec=element_layers)
    @settings(max_examples=60, deadline=None)
    def test_composition_collapses(self, spec):
        """Converting via an intermediate width equals converting directly
        (the associativity/composition law), and the fp32 round trip is
        the identity — on element-divisible profiles, exactly."""
        p = profile_from_elements(spec)
        via_fp16 = p.with_precision(2).with_precision(4)
        direct = p.with_precision(4)
        assert layer_bytes(via_fp16) == layer_bytes(direct) == layer_bytes(p)
        assert layer_bytes(p.with_precision(4).with_precision(2)) == \
            layer_bytes(p.with_precision(2))
        assert via_fp16.bytes_per_element == 4

    @given(spec=element_layers)
    @settings(max_examples=60, deadline=None)
    def test_payloads_positive_and_monotone_in_width(self, spec):
        p = profile_from_elements(spec)
        narrow, wide = p.with_precision(2), p.with_precision(8)
        for orig, lo, hi in zip(p.layers, narrow.layers, wide.layers):
            for attr in ("activation_bytes", "weight_bytes"):
                o, l, h = (getattr(x, attr) for x in (orig, lo, hi))
                # Zero is preserved, nonzero stays strictly positive...
                assert (l == 0) == (o == 0)
                assert (h == 0) == (o == 0)
                assert l >= 0 and h >= 0
                # ...and byte counts are monotone in the element width.
                assert l <= o <= h

    @given(spec=element_layers)
    @settings(max_examples=30, deadline=None)
    def test_compute_times_never_change(self, spec):
        p = profile_from_elements(spec)
        for width in (1, 2, 4, 8):
            q = p.with_precision(width)
            assert [l.compute_time for l in q.layers] == \
                [l.compute_time for l in p.layers]
            assert q.batch_size == p.batch_size

    def test_registry_matches_widths(self):
        assert PRECISION_BYTES == {"fp32": 4, "fp16": 2}


# ----------------------------------------------------------------------
# fp16 cells: the figure-12 direction of every communication metric
# ----------------------------------------------------------------------

class TestFp16SweepEffects:
    @pytest.fixture(scope="class")
    def both(self):
        return run_sweep(MODELS, TOPO, COUNTS,
                         precisions=("fp32", "fp16"))

    def _pairs(self, records, strategy=None):
        by = {(r.model, r.strategy, r.workers, r.precision): r
              for r in records}
        for (model, strat, workers, precision), r16 in by.items():
            if precision != "fp16":
                continue
            if strategy is not None and strat != strategy:
                continue
            yield by[(model, strat, workers, "fp32")], r16

    def test_grid_is_doubled_and_interleaved(self, both):
        assert len(both) == len(MODELS) * len(COUNTS) * 2 * 2
        # Precision is the innermost axis: fp32 immediately before fp16.
        for r32, r16 in zip(both[::2], both[1::2]):
            assert (r32.model, r32.strategy, r32.workers) == \
                (r16.model, r16.strategy, r16.workers)
            assert (r32.precision, r16.precision) == ("fp32", "fp16")

    def test_dp_cells_strictly_cheaper_at_fp16(self, both):
        """The acceptance bar: on the communication-bound data-parallel
        cells, fp16 strictly shrinks the modeled allreduce seconds, the
        per-sample traffic, every per-stage footprint, and the stalled
        fraction — and therefore strictly raises throughput."""
        checked = 0
        for r32, r16 in self._pairs(both, strategy="dp"):
            assert r16.allreduce_seconds < r32.allreduce_seconds
            assert r16.bytes_per_sample < r32.bytes_per_sample
            assert all(h < f for h, f in zip(r16.stage_memory_bytes,
                                             r32.stage_memory_bytes))
            assert r16.communication_overhead < r32.communication_overhead
            assert r16.samples_per_second > r32.samples_per_second
            checked += 1
        assert checked == len(MODELS) * len(COUNTS)

    def test_planner_sees_fp16_and_replans(self, both):
        """Planner integration is visible through the sweep: halved
        payloads shrink the modeled allreduce term, so on at least one
        pipedream cell the optimizer picks a *different* split than it
        does at fp32 (vgg16@4w flips to the pure-DP config, gnmt8@16w
        rebalances its stage widths)."""
        changed = [
            (r32.model, r32.workers, r32.config, r16.config)
            for r32, r16 in self._pairs(both, strategy="pipedream")
            if r16.config != r32.config
        ]
        assert changed, "fp16 profiles never changed a planner decision"

    def test_csv_round_trips_precision_column(self, both):
        text = records_to_csv(both)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert {row["precision"] for row in rows} == {"fp32", "fp16"}
        assert all("allreduce_seconds" in row for row in rows)
        fp16_rows = [row for row in rows if row["precision"] == "fp16"]
        assert len(fp16_rows) == len(both) // 2

    def test_precision_chart_builds_series_per_cell(self, both):
        chart = precision_chart(both, metric="samples_per_second")
        labels = {s.label for s in chart.series}
        assert len(labels) == len(MODELS) * 2 * 2
        assert "vgg16/dp/fp16" in labels
        svg = chart.to_svg()
        assert svg.startswith("<svg")

    def test_failures_carry_precision(self):
        with pytest.raises(SweepError) as excinfo:
            run_sweep(("vgg16", "no-such-model"), TOPO, (4,),
                      precisions=("fp32", "fp16"))
        failures = excinfo.value.failures
        assert {f.precision for f in failures} == {"fp32", "fp16"}
        assert all(f.model == "no-such-model" for f in failures)
        # The good cells survived, at both precisions.
        kept = excinfo.value.records
        assert {r.precision for r in kept} == {"fp32", "fp16"}
