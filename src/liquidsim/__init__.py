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

``import liquidsim`` loads none of these modules: a name of ``__all__``
imports its module the first time it is asked for (PEP 562), so a process
compiles only the modules it runs, which shows in every fresh process's
set-up where no bytecode is cached.
"""

import importlib

# {module: the names it exports}; __all__ and the lookup below derive from it
_EXPORTS = {
    "errors": "ConfigError DecodeError InvariantViolation MissingFragmentError",
    "bounds": "BoundReport EpsilonSet PhaseParams SystemParams capacity "
              "core_bounds derive_phase_params expected_distinct_failures lnd "
              "lni phase_from_overhead poisson_bounds supermartingale_tail",
    "failure_gen": "FailureSeq gen_periodic gen_poisson",
    "erasure": "CodecParams make_codec",
    "cluster": "ClusterState",
    "liquid": "LiquidLayout LiquidRepairer RepairCounter liquid_fail_node "
              "liquid_repair_step liquid_store",
    "advanced_liquid": "AdvancedPoissonRepairer GroupLayout advanced_fail_node "
                       "advanced_repair_step advanced_schedule advanced_store "
                       "r_for_target_overhead",
    "sim_engine": "CSV_HEADER ExperimentReport GsEstimate Scenario TrialResult "
                  "monte_carlo_gs run_experiment run_trial summary_lines "
                  "write_csv write_summary",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    """Import a name's module the first time the name is asked for."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
