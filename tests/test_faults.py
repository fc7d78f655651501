"""Deterministic fault injection: the seeded chaos contract.

Three locks, in order of strength:

1. **No-op guard** — an *empty* ``FaultSchedule`` leaves every engine
   timeline bitwise-identical to a run without the option, across every
   scenario in ``tests/test_sim_engine_equiv.py``.  The injector is
   structurally invisible when idle.
2. **Reproducibility** — ``FaultSchedule.generate`` is a pure function
   of its seed, ``parse_faults`` reads back every generated event,
   and the same seed drives the identical injected timeline through
   both engines.
3. **Crash semantics** — a crash halts the global timeline: the faulted
   record list is exactly the fault-free record list filtered to ops
   that started before the crash, in both engines.
"""

import dataclasses
import math

import pytest

from repro.core.partition import Stage
from repro.profiler import analytic_profile
from repro.core.schedule import one_f_one_b_rr_schedule
from repro.core.spec import SimSpec
from repro.core.topology import cluster_a
from repro.runtime.elastic import ElasticCoordinator
from repro.sim.executor import SimOptions, simulate
from repro.sim.faults import FaultEvent, FaultSchedule, parse_faults
from tests.oracles.sim_reference import ENGINES
from tests.test_sim_engine_equiv import (
    SCENARIOS,
    TP_SCENARIOS,
    assert_engines_identical,
)

VGG = analytic_profile("vgg16")
TOPO_A = cluster_a(4)
SCHED_15_1 = one_f_one_b_rr_schedule(
    [Stage(0, 14, 15), Stage(14, len(VGG), 1)], 48)

#: Pinned seeds for the chaos suite — new seeds mean a new contract.
CHAOS_SEEDS = (7, 42, 1234)


def with_faults(options, faults):
    if options is None:
        return SimOptions(faults=faults)
    return dataclasses.replace(options, faults=faults)


# ----------------------------------------------------------------------
# 1. Empty schedule == feature off, bitwise, on every scenario.
# ----------------------------------------------------------------------

def assert_results_identical(a, b):
    assert a.records == b.records
    assert a.total_time == b.total_time
    assert a.channel_busy == b.channel_busy
    assert a.sync_busy == b.sync_busy
    assert a.compute_time_per_worker == b.compute_time_per_worker
    assert a.minibatch_done == b.minibatch_done
    assert a.halted_at == b.halted_at


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("engine", ["reference", "event"])
def test_empty_schedule_is_bitwise_noop(scenario, engine):
    sched, profile, topo, options = SCENARIOS[scenario]()
    clean = ENGINES[engine](sched, profile, topo, options)
    empty = ENGINES[engine](sched, profile, topo,
                            with_faults(options, FaultSchedule()))
    assert_results_identical(empty, clean)
    assert empty.halted_at is None


# ----------------------------------------------------------------------
# 2. Seeded reproducibility + spec grammar.
# ----------------------------------------------------------------------

class TestSeededGeneration:
    @pytest.mark.chaos
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_same_seed_same_timeline(self, seed):
        a = FaultSchedule.generate(seed, num_workers=16, horizon=1.0)
        b = FaultSchedule.generate(seed, num_workers=16, horizon=1.0)
        assert a.events == b.events
        assert a.signature() == b.signature()
        assert a == b and hash(a) == hash(b)

    def test_different_seeds_differ(self):
        a = FaultSchedule.generate(1, num_workers=16, horizon=1.0)
        b = FaultSchedule.generate(2, num_workers=16, horizon=1.0)
        assert a.signature() != b.signature()

    def test_generated_composition(self):
        sched = FaultSchedule.generate(
            11, num_workers=8, horizon=2.0, crashes=2, stragglers=3,
            degradations=1)
        kinds = [e.kind for e in sched.events]
        assert kinds.count("crash") == 2
        assert kinds.count("straggler") == 3
        assert kinds.count("bandwidth") == 1
        assert sched.halt_time == min(e.time for e in sched.crashes)
        for e in sched.events:
            assert 0.0 <= e.time <= 2.0

    @pytest.mark.chaos
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_spec_round_trip(self, seed):
        """Each generated event, written as a spec (floats by repr),
        parses back to itself."""
        def spec(e):
            if e.kind == "crash":
                return f"crash@{e.time!r}:w{e.worker}"
            tag = "slow" if e.kind == "straggler" else "bw"
            return (f"{tag}@{e.time!r}:x{e.factor!r}:d{e.duration!r}"
                    + (f":w{e.worker}" if e.worker >= 0 else "")
                    + (f":l{e.level}" if e.level >= 0 else ""))

        sched = FaultSchedule.generate(seed, num_workers=16, horizon=1.0)
        text = ",".join(spec(e) for e in sched.events)
        assert parse_faults(text).signature() == sched.signature()

    def test_seeded_spec_equals_generate(self):
        via_spec = parse_faults("seed=42:crashes=1:stragglers=2",
                                num_workers=16)
        direct = FaultSchedule.generate(42, 16, 1.0, crashes=1, stragglers=2)
        assert via_spec == direct


class TestSpecGrammar:
    def test_explicit_events(self):
        sched = parse_faults(
            "crash@0.5:w3, slow@0.1:w1:x2.5:d0.2, bw@0.2:x4:d0.1:w0:l1")
        assert sched.signature() == (
            ("straggler", 0.1, 1, 0.2, 2.5, -1),
            ("bandwidth", 0.2, 0, 0.1, 4.0, 1),
            ("crash", 0.5, 3, 0.0, 1.0, -1),
        )
        assert sched.halt_time == 0.5

    def test_empty_spec(self):
        sched = parse_faults("")
        assert not sched and len(sched) == 0
        assert sched.halt_time is None

    @pytest.mark.parametrize("bad", [
        "crash@0.5",              # crash without a worker
        "boom@0.5:w3",            # unknown kind
        "crash:w3",               # missing @time
        "slow@0.1:w1:x2.5",       # straggler without duration
        "slow@0.1:w1:q9:d0.1",    # unknown field tag
        "seed=1:volcanoes=3",     # unknown seeded key
        "seed=",                  # empty seed value
        "crash@nan:w0",           # non-finite time
        "crash@inf:w0",
        "slow@0:w1:xnan:d100",    # non-finite factor
        "bw@0:xinf:d1",
        "slow@0:w1:x2:dnan",      # NaN duration
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_faults(bad, num_workers=16)

    def test_infinite_window_is_legal(self):
        # A window with no end lasts the rest of the run.
        sched = parse_faults("bw@0.1:x2:dinf")
        assert sched.events[0].end == float("inf")
        assert sched.bandwidth_factor(0, 1, 1e9, level=0) == 2.0

    def test_seeded_spec_needs_cluster_size(self):
        with pytest.raises(ValueError):
            parse_faults("seed=1")


class TestValidation:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent("crash", 0.5)  # no worker
        with pytest.raises(ValueError):
            FaultEvent("straggler", 0.1, 1, duration=0.0, factor=2.0)
        with pytest.raises(ValueError):
            FaultEvent("straggler", 0.1, 1, duration=0.1, factor=0.5)
        with pytest.raises(ValueError):
            FaultEvent("bandwidth", -0.1, duration=0.1, factor=2.0)
        with pytest.raises(ValueError):
            FaultEvent("meteor", 0.1)

    @pytest.mark.parametrize("fields", [
        dict(kind="crash", time=math.nan, worker=0),
        dict(kind="crash", time=math.inf, worker=0),
        dict(kind="straggler", time=math.nan, worker=0, duration=1.0,
             factor=2.0),
        dict(kind="straggler", time=0.0, worker=0, duration=1.0,
             factor=math.nan),
        dict(kind="bandwidth", time=0.0, duration=1.0, factor=math.inf),
        dict(kind="bandwidth", time=0.0, duration=math.nan, factor=2.0),
    ])
    def test_non_finite_fields_rejected(self, fields):
        with pytest.raises(ValueError):
            FaultEvent(**fields)

    def test_options_validation(self):
        with pytest.raises(TypeError):
            SimOptions(faults=[FaultEvent("crash", 0.5, 1)])


class TestFaultsFitTheTopology:
    """A fault naming a worker or a level the topology lacks, or a
    ``worker_speed`` naming an absent worker, is refused in one place,
    ``_SimCore.__init__``: the engine, the oracle and the elastic loop all
    inherit it."""

    TOPO = cluster_a(1)  # 4 workers on one level
    SCHED = one_f_one_b_rr_schedule(
        [Stage(0, 10, 2), Stage(10, len(VGG), 2)], 8)

    @pytest.mark.parametrize("spec, named", [
        ("crash@0.05:w99", "worker 99"),
        ("slow@0:w9:x2:d1", "worker 9"),
        ("bw@0:x2:d1:w4", "worker 4"),
        ("bw@0:x2:d1:l5", "level 5"),
        ("bw@0:x2:d1:l1", "level 1"),
    ])
    @pytest.mark.parametrize("engine", ["reference", "event"])
    def test_out_of_range_rejected(self, engine, spec, named):
        assert self.TOPO.total_workers == 4 and self.TOPO.num_levels == 1
        with pytest.raises(ValueError, match=named):
            ENGINES[engine](self.SCHED, VGG, self.TOPO,
                            SimOptions(faults=parse_faults(spec)))

    @pytest.mark.parametrize("engine", ["reference", "event"])
    def test_in_range_accepted(self, engine):
        faults = parse_faults("crash@0.05:w3, slow@0:w0:x2:d1, bw@0:x2:d1:l0")
        sim = ENGINES[engine](self.SCHED, VGG, self.TOPO,
                              SimOptions(faults=faults))
        assert sim.halted_at == 0.05

    @pytest.mark.parametrize("speeds", [{99: 0.5}, {4: 2.0}, {-1: 0.5}])
    @pytest.mark.parametrize("engine", ["reference", "event"])
    def test_absent_worker_speed_rejected(self, engine, speeds):
        worker = next(iter(speeds))
        with pytest.raises(ValueError,
                           match=f"worker_speed names worker {worker} "):
            ENGINES[engine](self.SCHED, VGG, self.TOPO,
                            SimOptions(worker_speed=speeds))

    def test_elastic_loop_inherits_the_check(self):
        with pytest.raises(ValueError, match="worker 99"):
            ElasticCoordinator(VGG, self.TOPO).run_with_recovery(SimSpec(
                minibatches=8, faults=parse_faults("crash@0.05:w99")))


# ----------------------------------------------------------------------
# Fault arithmetic in isolation.
# ----------------------------------------------------------------------

class TestComputeEnd:
    SCHED = FaultSchedule([
        FaultEvent("straggler", 1.0, 3, duration=1.0, factor=2.0)])

    def test_outside_window_rate_one(self):
        assert self.SCHED.compute_end(3, 0.0, 0.5) == 0.5
        assert self.SCHED.compute_end(3, 2.0, 0.5) == 2.5

    def test_other_worker_unaffected(self):
        assert self.SCHED.compute_end(4, 1.0, 0.5) == 1.5

    def test_inside_window_scaled(self):
        assert self.SCHED.compute_end(3, 1.0, 0.25) == 1.5

    def test_spans_entry_edge(self):
        # 0.5s at rate 1 reaches the window, remaining 0.5s costs 1.0s.
        assert self.SCHED.compute_end(3, 0.5, 1.0) == 2.0

    def test_spans_exit_edge(self):
        # Window absorbs 0.5s of work in [1, 2); remaining 0.25 at rate 1.
        assert self.SCHED.compute_end(3, 1.0, 0.75) == 2.25

    def test_straggler_needs_target_worker(self):
        # Wildcard stragglers are rejected — a cluster-wide slowdown is a
        # bandwidth event or per-worker events, not worker=-1.
        with pytest.raises(ValueError):
            FaultEvent("straggler", 0.0, -1, duration=1.0, factor=4.0)


class TestBandwidthFactor:
    SCHED = FaultSchedule([
        FaultEvent("bandwidth", 1.0, 2, duration=1.0, factor=3.0),
        FaultEvent("bandwidth", 1.5, -1, duration=1.0, factor=2.0, level=1),
    ])

    def test_endpoint_match(self):
        assert self.SCHED.bandwidth_factor(2, 5, 1.2, level=0) == 3.0
        assert self.SCHED.bandwidth_factor(5, 2, 1.2, level=0) == 3.0
        assert self.SCHED.bandwidth_factor(4, 5, 1.2, level=0) == 1.0

    def test_window_is_half_open(self):
        assert self.SCHED.bandwidth_factor(2, 5, 1.0, level=0) == 3.0
        assert self.SCHED.bandwidth_factor(2, 5, 2.0, level=0) == 1.0

    def test_level_targeting(self):
        assert self.SCHED.bandwidth_factor(0, 9, 1.7, level=1) == 2.0
        assert self.SCHED.bandwidth_factor(0, 9, 1.7, level=0) == 1.0

    def test_overlapping_windows_multiply(self):
        assert self.SCHED.bandwidth_factor(2, 9, 1.7, level=1) == 6.0


# ----------------------------------------------------------------------
# 3. Engine equivalence under faults + crash-prefix semantics.
# ----------------------------------------------------------------------

#: Every engine-equivalence scenario (sync modes, bucketing, NIC
#: contention, 2BP, tp, stragglers), each with its own fault-free options.
#: The engine and the oracle carry separate fault texts, so this matrix is
#: what keeps them in step.
FAULT_MATRIX = {**SCENARIOS, **TP_SCENARIOS}


def seeded_case(name, seed, crashes):
    """Scenario ``name`` with a seeded fault schedule whose windows (and
    crash, if any) land inside its fault-free run, on workers that run ops
    — a tp shard outside its group leader never commits one."""
    sched, profile, topo, options = FAULT_MATRIX[name]()
    clean = simulate(sched, profile, topo, with_faults(options, None))
    workers = sched.table().workers
    drawn = FaultSchedule.generate(seed, num_workers=len(workers),
                                   horizon=clean.total_time, crashes=crashes)
    faults = FaultSchedule([
        dataclasses.replace(e, worker=workers[e.worker]) if e.worker >= 0
        else e for e in drawn.events])
    return clean, (sched, profile, topo, with_faults(options, faults))


@pytest.mark.chaos
@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_engines_agree_under_seeded_faults(seed, subtests):
    """Straggler + bandwidth injection (no crash) on every scenario: both
    engines commit the identical perturbed timeline."""
    for name in sorted(FAULT_MATRIX):
        with subtests.test(scenario=name):
            clean, case = seeded_case(name, seed, crashes=0)
            faulted = assert_engines_identical(*case)
            assert faulted.halted_at is None
            assert faulted.records != clean.records  # the faults bit


@pytest.mark.chaos
@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_engines_agree_under_crash(seed, subtests):
    """Stragglers, a degraded link and a mid-run crash on every scenario:
    both engines halt at the same instant with the same prefix."""
    for name in sorted(FAULT_MATRIX):
        with subtests.test(scenario=name):
            clean, case = seeded_case(name, seed, crashes=1)
            faulted = assert_engines_identical(*case)
            assert faulted.halted_at is not None
            assert len(faulted.records) < len(clean.records)


@pytest.mark.parametrize("engine", ["reference", "event"])
@pytest.mark.parametrize("crash_time", [0.2, 0.5, 0.8])
def test_crash_truncates_to_prefix(engine, crash_time):
    """Crash-only schedule == fault-free timeline filtered to ops that
    started before the crash (commit times are non-decreasing)."""
    clean = ENGINES[engine](SCHED_15_1, VGG, TOPO_A)
    faults = FaultSchedule([FaultEvent("crash", crash_time, 5)])
    crashed = ENGINES[engine](SCHED_15_1, VGG, TOPO_A,
                              SimOptions(faults=faults))
    assert crashed.halted_at == crash_time
    expected = [r for r in clean.records if r.start < crash_time]
    assert crashed.records == expected


@pytest.mark.parametrize("engine", ["reference", "event"])
def test_crash_at_a_commit_instant_stops_it(engine):
    """Nothing starts *at* the crash instant either: a crash landing
    exactly on an op's start keeps that op out of the timeline."""
    clean = ENGINES[engine](SCHED_15_1, VGG, TOPO_A)
    crash_time = clean.records[len(clean.records) // 2].start
    faults = FaultSchedule([FaultEvent("crash", crash_time, 5)])
    crashed = ENGINES[engine](SCHED_15_1, VGG, TOPO_A,
                              SimOptions(faults=faults))
    assert crashed.records == [r for r in clean.records
                               if r.start < crash_time]
    assert len(crashed.records) < len(clean.records) // 2 + 1


@pytest.mark.parametrize("engine", ["reference", "event"])
def test_straggler_stretches_timeline(engine):
    clean = ENGINES[engine](SCHED_15_1, VGG, TOPO_A)
    faults = FaultSchedule([
        FaultEvent("straggler", 0.0, 0, duration=10.0, factor=2.0)])
    slowed = ENGINES[engine](SCHED_15_1, VGG, TOPO_A,
                             SimOptions(faults=faults))
    assert slowed.total_time > clean.total_time
    assert slowed.halted_at is None


@pytest.mark.parametrize("engine", ["reference", "event"])
def test_bandwidth_degradation_stretches_timeline(engine):
    clean = ENGINES[engine](SCHED_15_1, VGG, TOPO_A)
    faults = FaultSchedule([
        FaultEvent("bandwidth", 0.0, duration=10.0, factor=8.0)])
    slowed = ENGINES[engine](SCHED_15_1, VGG, TOPO_A,
                             SimOptions(faults=faults))
    assert slowed.total_time > clean.total_time
