"""Deterministic trial driver and experiment aggregation.

run_trial merges a trial's failure sequence with repair-completion events
into one time-ordered loop (completions win ties), runs invariant
assertions after events, and scores recoverability by fragment census.  A
trial ends the moment the census goes unrecoverable; metrics (bits moved,
average and peak read rates, counter minimum) come from the cluster
meters.  One driver, _Driver, builds a trial's store and repairer, paced
by _pace, and hands it each event.  run_experiment fans trials out over
independent Philox streams, so sequential and pooled execution produce
identical reports.

Both repairers, liquid.LiquidRepairer and
advanced_liquid.AdvancedPoissonRepairer, have one surface: state, layout,
counter, completionKind, done, next_completion(), on_failure(t, node),
on_subop_complete(t, horizon), recoverable(check) and inject_fault().
on_subop_complete commits the completion due at t and may commit later
ones due at or before horizon, the next failure's time, when the census
can only grow over them; done then holds their (end times, read bits,
written bits), and each still counts as one event with its own trace row,
checked only if it is the run's last.  Liquid commits one step per call,
and its done is always None.  A DecodeError from on_subop_complete is a
stall: _Driver.on_completion logs it and halts the counter, so no further
step starts.
"""

from __future__ import annotations

import functools
import json
import logging
import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional

import numpy as np

from . import advanced_liquid as adv
from . import bounds, failure_gen, liquid, rng
from .errors import ConfigError, DecodeError

log = logging.getLogger(__name__)

CSV_HEADER = ("trial,seed,recoverable,first_loss_time,bits_read,"
              "bits_written,avg_read_rate,peak_read_rate,counter_min")

# fault injection trips after this many processed events
_FAULT_AFTER_EVENTS = 3


@dataclass(frozen=True)
class Scenario:
    """Everything a trial needs; immutable so worker processes share it."""
    sysParams: bounds.SystemParams
    repairer: str                     # "liquid" | "advancedLiquid"
    variant: str                      # "periodic" | "poisson"
    codecBackend: str = "auto"
    eps: bounds.EpsilonSet = field(default_factory=bounds.EpsilonSet)
    failureCount: int = 0
    trials: int = 1
    seed: int = 0
    peakWindow: Optional[float] = None
    period: float = 1.0               # periodic inter-failure spacing
    advancedR: Optional[int] = None   # helper count; derived from beta if None
    stepDuration: Optional[float] = None   # liquid poisson override; inf disables
    assertEvery: int = 1              # invariant checks every Kth event
    collectTrace: bool = False
    faultInjection: bool = False      # test hook: corrupt state mid-trial

    def __post_init__(self):
        if self.repairer not in ("liquid", "advancedLiquid"):
            raise ConfigError(f"unknown repairer {self.repairer!r}")
        if self.variant not in ("periodic", "poisson"):
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.variant == "poisson" and not self.sysParams.lam > 0:
            raise ConfigError("poisson variant needs lam > 0")
        if self.failureCount < 0 or self.trials < 1:
            raise ConfigError("need failureCount >= 0 and trials >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in 64 bits")
        if not 0 < self.period < math.inf:
            raise ConfigError("period must be positive and finite")
        if self.peakWindow is not None and not 0 < self.peakWindow < math.inf:
            raise ConfigError("peakWindow must be positive and finite")
        if self.stepDuration is not None and not self.stepDuration > 0:
            raise ConfigError("stepDuration must be positive (inf disables)")
        if self.assertEvery < 1:
            raise ConfigError("assertEvery must be >= 1")
        if self.advancedR is not None and self.advancedR < 1:
            raise ConfigError(
                f"advancedR (r) must be >= 1, got {self.advancedR}")


@dataclass
class TrialResult:
    trial: int
    seed: int
    recoverableThroughout: bool
    firstLossTime: Optional[float]
    totalBitsRead: int
    totalBitsWritten: int
    avgReadRate: float
    peakReadRate: float
    counterMin: int
    perStepTrace: Optional[list] = None


@dataclass
class GsEstimate:
    mean: float
    ci99: float            # half-width of the 99% confidence interval
    trials: int


@dataclass
class ExperimentReport:
    results: list
    unrecoverableFraction: float
    meanAvgReadRate: float
    maxPeakReadRate: float
    readPerFailure: float
    lowerBoundPerFailure: Optional[float]
    boundReport: Optional[bounds.BoundReport]
    ratios: dict


def _failures(scenario: Scenario, streamId: int) -> failure_gen.FailureSeq:
    g = rng.stream(scenario.seed, streamId, rng.SUB_FAILURE_TIMES)
    sp = scenario.sysParams
    if scenario.variant == "periodic":
        return failure_gen.gen_periodic(scenario.period, scenario.failureCount,
                                        g, sp.N)
    return failure_gen.gen_poisson(sp.lam, sp.N, scenario.failureCount, g)


def _payload(scenario: Scenario, streamId: int):
    """The trial's payload stream, which the store builds only when its
    codec resolves to byte ("auto" resolves in erasure.make_codec)."""
    return functools.partial(rng.stream, scenario.seed, streamId,
                             rng.SUB_PAYLOAD)


def _pace(scenario: Scenario, layout):
    """The repairer's pace: the step duration (liquid, periodic advanced),
    or the Poisson advanced (move+update, generate) sub-operation
    durations, each its read bits over the proof's read rate."""
    sp = scenario.sysParams
    if scenario.variant == "periodic":
        return scenario.period / 2.0        # step lands mid-gap
    if scenario.repairer == "liquid":
        if scenario.stepDuration is not None:
            return scenario.stepDuration
        return (1.0 - scenario.eps.eps / 2.0) / (sp.lam * sp.N)
    rate = adv.advanced_schedule(layout.counterCap, sp.lam, sp.N, layout.beta,
                                 scenario.eps.eps, clen=sp.clen).rateProof
    return tuple(bits / rate for bits, _ in
                 adv.subop_bits(layout.k, layout.r, layout.flen))


class _Driver:
    """A trial's store and repairer, and the stall latch the repairers
    share: a DecodeError is logged and halts the counter.  Every event
    passes on_failure or on_completion, where perfbench hooks its probe."""

    def __init__(self, scenario: Scenario, streamId: int):
        sp, payload = scenario.sysParams, _payload(scenario, streamId)
        if scenario.repairer == "liquid":
            state, layout = liquid.liquid_store(
                sp.xlen, sp.N, sp.clen, sp.beta, variant=scenario.variant,
                eps=scenario.eps.eps, backend=scenario.codecBackend,
                payload_rng=payload)
            repairer = liquid.LiquidRepairer
        else:
            r = scenario.advancedR
            if r is None:
                r = adv.r_for_target_overhead(sp.N, sp.beta)
            eps = 0.0 if scenario.variant == "periodic" else scenario.eps.eps
            state, layout = adv.advanced_store(
                sp.N, sp.clen, r, variant=scenario.variant, eps=eps,
                backend=scenario.codecBackend, payload_rng=payload)
            repairer = adv.AdvancedPoissonRepairer
        self.rep = repairer(state, layout, _pace(scenario, layout))

    def on_failure(self, t: float, node: int) -> None:
        self.rep.on_failure(t, node)

    def on_completion(self, t: float, horizon=None) -> Optional[tuple]:
        """The completion due at t and, given a horizon, the repairer's
        later ones due by then; returns the repairer's done."""
        try:
            self.rep.on_subop_complete(t, horizon)
        except DecodeError as e:
            log.warning("repair stalled at t=%g: %s", t, e)
            self.rep.counter.halted = True
        return self.rep.done


def run_trial(scenario: Scenario, streamId: int) -> TrialResult:
    """One deterministic trial; pure function of (scenario, streamId).

    Completions due at or before a failure's timestamp are processed first,
    a repairer call's run of them at a time.  After the last failure the
    schedule drains (no new failures arrive, so the pending work is
    finite), which keeps per-failure totals exact.
    """
    driver = _Driver(scenario, streamId)
    rep = driver.rep
    seq = _failures(scenario, streamId)
    state = rep.state
    state.begin_phase("repair")
    times, ids = seq.times, seq.ids
    M = len(times)
    trace = [] if scenario.collectTrace else None
    events = 0
    last_t = 0.0
    lost_at: Optional[float] = None

    def post_event(t, kind, bits_r, bits_w):
        nonlocal events, last_t, lost_at
        events += 1
        last_t = max(last_t, t)
        if trace is not None:
            trace.append((t, kind, rep.counter.value, bits_r, bits_w))
        if scenario.faultInjection and events == _FAULT_AFTER_EVENTS:
            rep.inject_fault()
        if not rep.recoverable(check=events % scenario.assertEvery == 0):
            lost_at = t

    def run_completions(horizon):
        nonlocal events
        kind = rep.completionKind
        while lost_at is None:
            t_c = rep.next_completion()
            if t_c is None or t_c > horizon:
                break
            before_r = state.phase_read["repair"]
            before_w = state.phase_written["repair"]
            counter = rep.counter.value
            # the fault hook fires between two events: no runs before it
            hook = scenario.faultInjection and events < _FAULT_AFTER_EVENTS
            done = driver.on_completion(t_c, None if hook else horizon)
            if done is not None:
                # every event of the run but the last passes its checks
                ends, reads, writes = done
                n = len(ends) - 1
                events += n
                if trace is not None:
                    trace.extend(zip(ends[:n].tolist(), repeat(kind),
                                     repeat(counter), reads[:n].tolist(),
                                     writes[:n].tolist()))
                before_r += int(reads[:n].sum())
                before_w += int(writes[:n].sum())
                t_c = float(ends[n])
            post_event(t_c, kind, state.phase_read["repair"] - before_r,
                       state.phase_written["repair"] - before_w)

    fi = 0
    while fi < M and lost_at is None:
        t_fail = float(times[fi])
        run_completions(t_fail)
        if lost_at is not None:
            break
        driver.on_failure(t_fail, int(ids[fi]))
        fi += 1
        post_event(t_fail, "failure", 0, 0)
    run_completions(math.inf)

    t_end = lost_at if lost_at is not None else last_t
    bits_read = state.phase_read["repair"]
    bits_written = state.phase_written["repair"]
    if t_end > 0:
        _, _, avg, peak = state.meter_window(0.0, t_end, scenario.peakWindow)
    else:
        avg = peak = 0.0
    return TrialResult(trial=streamId, seed=scenario.seed,
                       recoverableThroughout=lost_at is None,
                       firstLossTime=lost_at, totalBitsRead=bits_read,
                       totalBitsWritten=bits_written, avgReadRate=avg,
                       peakReadRate=peak, counterMin=rep.counter.minSeen,
                       perStepTrace=trace)


def _trial_star(args):
    return run_trial(*args)


def run_experiment(scenario: Scenario, jobs: int = 1) -> ExperimentReport:
    """Trials 0..trials-1 on independent streams, plus bound comparisons.

    jobs > 1 uses a process pool; results are ordered by streamId either
    way, so the report is identical.
    """
    tasks = [(scenario, s) for s in range(scenario.trials)]
    if jobs > 1:
        from multiprocessing import Pool    # only a pooled run needs it

        with Pool(processes=jobs) as pool:
            results = pool.map(_trial_star, tasks)
    else:
        results = [run_trial(*t) for t in tasks]

    n = len(results)
    unrec = sum(1 for r in results if not r.recoverableThroughout) / n
    mean_avg = sum(r.avgReadRate for r in results) / n
    max_peak = max(r.peakReadRate for r in results)
    M = scenario.failureCount
    read_per_failure = (sum(r.totalBitsRead for r in results) / n / M
                        if M else 0.0)

    report = None
    lower = None
    ratios = {}
    try:
        phase = bounds.derive_phase_params(scenario.sysParams)
        report = bounds.poisson_bounds(scenario.sysParams, phase, scenario.eps)
        lower = ((1.0 - phase.betaPrime) * scenario.sysParams.clen
                 / bounds.lni(2.0 * phase.betaPrime))
        if lower > 0:
            ratios["readPerFailureOverLower"] = read_per_failure / lower
        if report.poissonRate > 0:
            ratios["peakOverPoissonCeiling"] = max_peak / report.poissonRate
    except ConfigError as e:
        log.info("bound report unavailable: %s", e)

    return ExperimentReport(results=results, unrecoverableFraction=unrec,
                            meanAvgReadRate=mean_avg,
                            maxPeakReadRate=max_peak,
                            readPerFailure=read_per_failure,
                            lowerBoundPerFailure=lower, boundReport=report,
                            ratios=ratios)


def monte_carlo_gs(N: int, i: int, trials: int, seed: int) -> GsEstimate:
    """Empirical draws-until-i-new-distinct-failures, with a 99% CI.

    Counts uniform node failures after a window-opening one until i
    additional distinct nodes have failed.
    """
    if not 1 <= i < N:
        raise ConfigError("need 1 <= i < N")
    if trials < 2:
        raise ConfigError("need at least 2 trials for a CI")
    g = rng.stream(seed, 0, rng.SUB_GS)
    counts = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        seen = {int(g.integers(0, N))}
        draws = 0
        while len(seen) <= i:
            draws += 1
            seen.add(int(g.integers(0, N)))
        counts[t] = draws
    mean = float(counts.mean())
    sd = float(counts.std(ddof=1))
    z99 = 2.5758293035489004
    return GsEstimate(mean=mean, ci99=z99 * sd / math.sqrt(trials),
                      trials=trials)


def result_row(r: TrialResult) -> str:
    loss = "" if r.firstLossTime is None else repr(float(r.firstLossTime))
    return ",".join([
        str(r.trial), str(r.seed),
        "true" if r.recoverableThroughout else "false", loss,
        str(r.totalBitsRead), str(r.totalBitsWritten),
        repr(float(r.avgReadRate)), repr(float(r.peakReadRate)),
        str(r.counterMin)])


def write_csv(path, results) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in results:
            fh.write(result_row(r) + "\n")


def summary_lines(report: ExperimentReport) -> list:
    """JSON-lines summary: aggregates first, then the bound report."""
    agg = {
        "trials": len(report.results),
        "unrecoverableFraction": report.unrecoverableFraction,
        "meanAvgReadRate": report.meanAvgReadRate,
        "maxPeakReadRate": report.maxPeakReadRate,
        "readPerFailure": report.readPerFailure,
        "lowerBoundPerFailure": report.lowerBoundPerFailure,
        "ratios": report.ratios,
    }
    lines = [json.dumps(bounds.json_safe(agg), sort_keys=True)]
    if report.boundReport is not None:
        lines.append(json.dumps(
            bounds.json_safe({"boundReport": report.boundReport.summary()}),
            sort_keys=True))
    return lines


def write_summary(path, report: ExperimentReport) -> None:
    with open(path, "w") as fh:
        for line in summary_lines(report):
            fh.write(line + "\n")
