"""The benchmark's workloads: parameters, one unit of work, and checks.

A unit is one call into liquidsim's public API (``run_experiment`` with
``jobs=1``, or ``cli.main``).  The seed is a harness argument; liquidsim
receives it only as the scenario's seed, from which it derives failure
schedules and payloads.  A run's units take their scenario seeds from
``unit_seed``: the first repeats the warm-up's seed, the run's own, and the
others spread the run over many trials, because the work per failure of a
Poisson workload differs by a quarter between seeds of a few trials.

Each workload checks, for every trial, conditions that hold at any seed
(taken from the acceptance criteria).  Every trial must stay recoverable,
so a unit always processes ``failures * trials`` failures.  liquidsim imports
lazily, so a tree without the package can still report that it is missing.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict
    moves: dict                 # per-layer metric -> what it should move
    store: str                  # traced name of the store build
    failures: int               # per trial
    trials: int                 # per unit
    build_store: object         # (seed) -> store tuple, the set-up step
    call: object                # (seed, workdir) -> raw result of one unit
    outputs: object             # (raw, workdir) -> (csv text, summary text)
    trial_ok: object            # (row dict) -> bool
    prepare: object = field(default=lambda seed, workdir: None)
    # How the workload's time follows the probe loop's when a neighbour
    # loads the vCPU: time ~ slowdown ** probe_elasticity (see run.py).
    # 1.0 suits the interpreter-bound workloads: over two sets of ten seeds
    # their unit times spread 0.02-0.06 (quartiles) at 1.0, 0.08-0.27 raw.
    probe_elasticity: float = 1.0

    @property
    def failures_per_unit(self) -> int:
        return self.failures * self.trials


def unit_seed(seed: int, index: int) -> int:
    """The scenario seed of a run's unit index: the run's seed first."""
    return seed if index == 0 else seed * 1000 + index


def parse_csv(text: str) -> list:
    from liquidsim.sim_engine import CSV_HEADER
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return []
    cols = CSV_HEADER.split(",")
    return [dict(zip(cols, line.split(","))) for line in lines[1:]]


def failed_trials(wl: Workload, csv_text: str) -> int:
    """Trials of one unit whose CSV row is missing or fails a check."""
    rows = parse_csv(csv_text)
    bad = 0
    for row in rows:
        try:
            ok = row["recoverable"] == "true" and wl.trial_ok(row)
        except (KeyError, ValueError):
            ok = False
        bad += not ok
    return bad + max(0, wl.trials - len(rows))


def _payload(seed):
    from liquidsim import rng
    return rng.stream(seed, 0, rng.SUB_PAYLOAD)   # trial 0's payload stream


def _experiment_outputs(report, workdir):
    from liquidsim.sim_engine import CSV_HEADER, result_row, summary_lines
    csv = "".join(line + "\n" for line in
                  [CSV_HEADER] + [result_row(r) for r in report.results])
    return csv, "".join(line + "\n" for line in summary_lines(report))


def _experiment(scenario_of):
    def call(seed, workdir):
        from liquidsim import sim_engine
        return sim_engine.run_experiment(scenario_of(seed), jobs=1)
    return call


def _cli_call(seed, workdir):
    """``liquidsim run`` on the scenario file that prepare wrote."""
    import contextlib
    import io

    from liquidsim import cli
    argv = ["run", "--scenario", str(workdir / "scenario.ini"),
            "--out", str(workdir / "out"), "--jobs", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"liquidsim run exited {code}")
    return code


def _cli_outputs(raw, workdir):
    out = workdir / "out"
    return (out / "results.csv").read_text(), (out / "summary.jsonl").read_text()


# -- liquid-periodic-byte -------------------------------------------------

# Three trials per unit: with one, the GF(256) work per failure differs by
# 5-9 % (quartile spread) between seeds; with three, by under 3 %.
LPB = dict(N=100, beta=0.1, k=90, clen=10 ** 6, failures=20, trials=3)


def _lpb_scenario(seed):
    from liquidsim import Scenario, SystemParams
    p = LPB
    sp = SystemParams(N=p["N"], clen=p["clen"], xlen=p["k"] * p["clen"])
    return Scenario(sysParams=sp, repairer="liquid", variant="periodic",
                    codecBackend="byte", failureCount=p["failures"],
                    trials=p["trials"], seed=seed)


def _lpb_store(seed):
    from liquidsim import liquid
    p = LPB
    return liquid.liquid_store(p["k"] * p["clen"], p["N"], p["clen"], p["beta"],
                               variant="periodic", backend="byte",
                               payload_rng=_payload(seed))


def _lpb_ok(row):
    # every step reads k fragments of clen/r bits: (1-beta)/beta*clen
    p = LPB
    per_failure = p["k"] * p["clen"] // (p["N"] - p["k"])
    return int(row["bits_read"]) == p["failures"] * per_failure


# -- advanced-periodic-n1000 ----------------------------------------------

APN = dict(N=1000, r=222, clen=222 * 1000 + 222 * 223 // 2, failures=1,
           trials=1)


def _apn_beta():
    return (APN["r"] + 3) / (2 * APN["N"] + APN["r"] + 1)   # slack cap 1


def _apn_scenario(seed):
    from liquidsim import Scenario, SystemParams
    p = APN
    sp = SystemParams(N=p["N"], clen=p["clen"],
                      xlen=round((1 - _apn_beta()) * p["N"]) * p["clen"])
    return Scenario(sysParams=sp, repairer="advancedLiquid",
                    variant="periodic", codecBackend="symbolic",
                    advancedR=p["r"], failureCount=p["failures"],
                    trials=p["trials"], seed=seed)


def _apn_store(seed):
    from liquidsim import advanced_liquid
    return advanced_liquid.advanced_store(APN["N"], APN["clen"], APN["r"],
                                          variant="periodic",
                                          backend="symbolic")


def _apn_ok(row):
    b, clen, f = _apn_beta(), APN["clen"], APN["failures"]
    reads = int(row["bits_read"]) / f / ((1 + 2 * b) / (2 * b) * clen)
    writes = int(row["bits_written"]) / f / ((2 - b) * clen)
    return 0.9 < reads < 1.1 and 0.9 < writes < 1.1


# -- advanced-poisson-byte ------------------------------------------------

# 32-byte fragments: clen = 256 bits * (r*N + r(r+1)/2).  The slack cap is
# floor(eps/2*N)+1 = 19 > failures, so the counter cannot go negative and
# every trial is recoverable at any seed.  Three trials per unit average
# the seed-to-seed differences in decode work, as for LPB.
APB = dict(N=40, r=8, eps=0.9, flen=256, failures=18, trials=3)
APB["clen"] = APB["flen"] * (APB["r"] * APB["N"] + APB["r"] * (APB["r"] + 1) // 2)
APB["lam"] = 1.0 / APB["N"]


_APB_SCENARIO = """\
[system]
n = {N}
clen = {clen}
xlen = {xlen}
lambda = {lam!r}

[repairer]
kind = advancedLiquid
variant = poisson
eps = {eps}
r = {r}

[codec]
backend = byte

[run]
failures = {failures}
trials = {trials}
seed = {seed}

[output]
csv = results.csv
summary = summary.jsonl
"""


def _apb_prepare(seed, workdir):
    cap = int(APB["eps"] / 2 * APB["N"]) + 1
    text = _APB_SCENARIO.format(seed=seed, xlen=(APB["N"] - cap) * APB["clen"], **APB)
    (workdir / "scenario.ini").write_text(text)


def _apb_store(seed):
    from liquidsim import advanced_liquid
    return advanced_liquid.advanced_store(APB["N"], APB["clen"], APB["r"],
                                          variant="poisson", eps=APB["eps"],
                                          backend="byte",
                                          payload_rng=_payload(seed))


def _apb_ok(row):
    return True   # recoverability, checked for every workload, is the claim


_ALL = [
    Workload(
        name="liquid-periodic-byte",
        why=("GF(256) decode products dominate host time (gf256.matmul on "
             "(8x~82)x(82x12500) shapes); a GF-kernel change shows here, "
             "cluster and event-loop changes should not"),
        params=LPB | {"repairer": "liquid", "variant": "periodic",
                      "backend": "byte", "api": "run_experiment"},
        moves={
            "gf256.matmul.self_s": "failures_per_s here; flat on symbolic workloads",
            "erasure.decode.self_s": "failures_per_s here",
            "erasure.encode.self_s": "setup_s here through the initial encode",
        },
        store="liquid.liquid_store", failures=LPB["failures"],
        trials=LPB["trials"], build_store=_lpb_store,
        call=_experiment(_lpb_scenario), outputs=_experiment_outputs,
        trial_ok=_lpb_ok,
        # numpy's table lookups over 12500-byte rows slow down less than the
        # probe: on four sets of 5-10 seeds the quartile spread of unit times
        # was 0.06-0.10 raw, 0.05-0.08 at 1.0 and 0.03-0.04 at 0.5
        probe_elasticity=0.5),
    Workload(
        name="advanced-periodic-n1000",
        why=("Python loops choosing sources and adding reads in "
             "generate/update_helpers and the (N,N,r) placement array; "
             "memory and vectorisation changes show here, no codec runs"),
        params=APN | {"repairer": "advancedLiquid", "variant": "periodic",
                      "backend": "symbolic", "api": "run_experiment"},
        moves={
            "advanced_liquid.generate_helpers.self_s": "failures_per_s here",
            "advanced_liquid.update_helpers.self_s": "failures_per_s here",
            "advanced_liquid.advanced_store.self_s": "setup_s and peak_rss_mb here",
            "advanced_liquid.recoverable_census.self_s": "failures_per_s here",
        },
        store="advanced_liquid.advanced_store", failures=APN["failures"],
        trials=APN["trials"], build_store=_apn_store,
        call=_experiment(_apn_scenario), outputs=_experiment_outputs,
        trial_ok=_apn_ok),
    Workload(
        name="advanced-poisson-byte",
        why=("the only run of the paced sub-op chain in "
             "AdvancedPoissonRepairer, with many tiny decodes (inv_matrix, "
             "matmul, encode) and writes beside reads; also runs the CLI and "
             "CSV layers"),
        params=APB | {"repairer": "advancedLiquid", "variant": "poisson",
                      "backend": "byte", "api": "cli.main run"},
        moves={
            "advanced_liquid.AdvancedPoissonRepairer.on_subop_complete.self_s":
                "failures_per_s here",
            "advanced_liquid.subop_abort_share": "read_bits_per_failure here",
            "gf256.inv_matrix.self_s": "failures_per_s here, barely on liquid-periodic-byte",
            "cluster.ClusterState.delete_fragment.self_s": "failures_per_s here",
            "sim_engine.run_trial.self_s": "failures_per_s here (about 40 events per failure)",
            "cli.main.self_s": "failures_per_s here",
        },
        store="advanced_liquid.advanced_store", failures=APB["failures"],
        trials=APB["trials"], build_store=_apb_store, call=_cli_call,
        outputs=_cli_outputs, trial_ok=_apb_ok, prepare=_apb_prepare),
]

WORKLOADS = {wl.name: wl for wl in _ALL}
