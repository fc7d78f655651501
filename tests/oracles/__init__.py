"""Reference implementations the tier-1 suites compare production against.

Production code carries one implementation of each idea; the slower or
more literal twin lives here, where only tests import it:

- :class:`ReferenceOptimizer` — scalar loop-nest forms of the level DP
  and the refined suffix DP (``partition_reference.py``);
- :func:`evaluate_details_closed_form` — the numpy closed-form plan
  evaluator, a second derivation of the placement/all_reduce pricing
  (``evaluator_closed_form.py``);
- :func:`~tests.oracles.sim_reference.simulate_reference` — the
  simulator's full-rescan main loop with its own readiness, commit and
  transfer functions over production's ``_SimCore`` state
  (``sim_reference.py``);
- the op-by-op schedule builders the table builders are pinned to
  (``schedule_reference.py``);
- :func:`~tests.oracles.partition_brute_force.brute_force_partition` —
  exhaustive search over flat partitions (``partition_brute_force.py``);
- :class:`~tests.oracles.asp_reference.ASPTrainer` — the asynchronous
  parameter-server trainer the ``asp_schedule`` table is pinned to
  (``asp_reference.py``);
- :func:`~tests.oracles.gradcheck.gradcheck` — finite differences, the
  autodiff engine's oracle (``gradcheck.py``).
"""

from repro.core.partition import PartitionEvaluation, Stage
from repro.core.profile import PRECISION_BYTES
from repro.profiler import analytic_profile
from tests.oracles.evaluator_closed_form import evaluate_details_closed_form
from tests.oracles.partition_reference import ReferenceOptimizer

__all__ = [
    "ReferenceOptimizer",
    "evaluate_details_closed_form",
    "price_sweep_record",
]


def price_sweep_record(record, topology) -> PartitionEvaluation:
    """A dp / pipedream sweep record's plan, re-priced by the oracle stack.

    Re-plans the cell with the scalar DP (dp cells are the single
    replicated stage), asserts the config string matches the record, and
    returns the closed-form evaluation whose ``stage_times`` /
    ``boundary_times`` the record's ``stage_seconds`` /
    ``boundary_seconds`` must equal bitwise — what re-running the sweep
    with the scalar twins selected used to check.
    """
    profile = analytic_profile(
        record.model, bytes_per_element=PRECISION_BYTES[record.precision]
    )
    if record.strategy == "pipedream":
        plan = ReferenceOptimizer(profile, topology).solve(record.workers)
        assert plan.config_string == record.config
        stages = plan.stages
    else:
        assert record.strategy == "dp"
        stages = [Stage(0, len(profile), record.workers)]
    return evaluate_details_closed_form(
        profile, stages, topology.subset(record.workers)
    )
