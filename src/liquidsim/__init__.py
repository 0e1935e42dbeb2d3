"""Simulator and bound library for erasure-coded storage under random node failures.

The package has three layers:

* closed-form machinery: ``bounds`` (capacity and read-rate lower bounds),
  ``erasure`` (systematic MDS codec over GF(256) plus a symbolic backend:
  one in-place decode and one encode, both on numpy arrays), ``gf256``
  (field tables, and the products and decode-and-check that run on a C
  kernel or on numpy) and ``failure_gen`` (counter-based seeded failure
  schedules);
* repair algorithms: ``liquid`` (single rotating repair queue) and
  ``advanced_liquid`` (grouped layout with helper fragments, lower read rate);
* the harness: ``cluster`` (the per-node interface meters), ``sim_engine``
  (event loop, trials, experiments, CSV/JSON reporting) and ``cli``
  (scenario-file runner).

Each repairer keeps placement, and on the byte backend the payloads, in its
own numpy arrays.

Most callers only need :class:`Scenario` plus :func:`run_experiment`, or the
``liquidsim`` console script.
"""

from .errors import (
    ConfigError,
    DecodeError,
    InvariantViolation,
    MissingFragmentError,
)
from .bounds import (
    BoundReport,
    EpsilonSet,
    PhaseParams,
    SystemParams,
    capacity,
    core_bounds,
    derive_phase_params,
    expected_distinct_failures,
    lnd,
    lni,
    phase_from_overhead,
    poisson_bounds,
    supermartingale_tail,
)
from .failure_gen import FailureSeq, gen_periodic, gen_poisson
from .erasure import CodecParams, make_codec
from .cluster import ClusterState
from .liquid import (
    LiquidLayout,
    RepairCounter,
    StepSchedule,
    liquid_fail_node,
    liquid_repair_step,
    liquid_store,
)
from .advanced_liquid import (
    AdvancedPoissonRepairer,
    GroupLayout,
    advanced_fail_node,
    advanced_repair_step,
    advanced_schedule,
    advanced_store,
    r_for_target_overhead,
)
from .sim_engine import (
    CSV_HEADER,
    ExperimentReport,
    GsEstimate,
    Scenario,
    TrialResult,
    monte_carlo_gs,
    run_experiment,
    run_trial,
    summary_lines,
    write_csv,
    write_summary,
)

__all__ = [
    "ConfigError",
    "DecodeError",
    "InvariantViolation",
    "MissingFragmentError",
    "BoundReport",
    "EpsilonSet",
    "PhaseParams",
    "SystemParams",
    "capacity",
    "core_bounds",
    "derive_phase_params",
    "expected_distinct_failures",
    "lnd",
    "lni",
    "phase_from_overhead",
    "poisson_bounds",
    "supermartingale_tail",
    "FailureSeq",
    "gen_periodic",
    "gen_poisson",
    "CodecParams",
    "make_codec",
    "ClusterState",
    "LiquidLayout",
    "RepairCounter",
    "StepSchedule",
    "liquid_fail_node",
    "liquid_repair_step",
    "liquid_store",
    "AdvancedPoissonRepairer",
    "GroupLayout",
    "advanced_fail_node",
    "advanced_repair_step",
    "advanced_schedule",
    "advanced_store",
    "r_for_target_overhead",
    "CSV_HEADER",
    "ExperimentReport",
    "GsEstimate",
    "Scenario",
    "TrialResult",
    "monte_carlo_gs",
    "run_experiment",
    "run_trial",
    "summary_lines",
    "write_csv",
    "write_summary",
]

__version__ = "0.1.0"
