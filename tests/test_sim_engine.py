"""Trial driver tests: metering exactness, census oracles, determinism."""

import json
import logging
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liquidsim import advanced_liquid as adv
from liquidsim import bounds, failure_gen, liquid, rng, sim_engine
from liquidsim.bounds import EpsilonSet, SystemParams
from liquidsim.errors import (ConfigError, InvariantViolation,
                              MissingFragmentError)
from liquidsim.sim_engine import (CSV_HEADER, Scenario, TrialResult,
                                  monte_carlo_gs, result_row, run_experiment,
                                  run_trial, summary_lines, write_csv,
                                  write_summary)


def liquid_periodic(N=10, beta=0.2, clen=160, M=100, **kw):
    k = round((1 - beta) * N)
    sp = SystemParams(N=N, clen=clen, xlen=k * clen)
    args = dict(sysParams=sp, repairer="liquid", variant="periodic",
                failureCount=M, seed=7, collectTrace=True)
    args.update(kw)
    return Scenario(**args)


def liquid_poisson(N=20, beta=0.3, clen=1600, M=300, lam=0.05, eps=0.4, **kw):
    k = round((1 - beta) * N)
    sp = SystemParams(N=N, clen=clen, xlen=k * clen, lam=lam)
    args = dict(sysParams=sp, repairer="liquid", variant="poisson",
                eps=EpsilonSet(0.1, 0.1, eps), failureCount=M, seed=19,
                collectTrace=True)
    args.update(kw)
    return Scenario(**args)


def advanced_periodic(N=10, r=2, M=30, clen=None, **kw):
    clen = clen or r * N + r * (r + 1) // 2
    F = round((r + 3) / (2 * N + r + 1) * N)
    sp = SystemParams(N=N, clen=clen, xlen=N * clen - F * clen + 1)
    args = dict(sysParams=sp, repairer="advancedLiquid", variant="periodic",
                codecBackend="symbolic", advancedR=r, failureCount=M, seed=3,
                collectTrace=True)
    args.update(kw)
    return Scenario(**args)


def advanced_poisson(N=40, r=8, eps=0.3, M=150, clen=None, **kw):
    clen = clen or r * N + r * (r + 1) // 2
    b = int(eps / 2 * N + 1e-9) + 1
    F = round((r + 1 + 2 * b) / (2 * N + r + 1) * N)
    sp = SystemParams(N=N, clen=clen, xlen=N * clen - F * clen + 1,
                      lam=1.0 / N)
    args = dict(sysParams=sp, repairer="advancedLiquid", variant="poisson",
                codecBackend="symbolic", eps=EpsilonSet(0.1, 0.1, eps),
                advancedR=r, failureCount=M, seed=23, collectTrace=True)
    args.update(kw)
    return Scenario(**args)


class TestScenarioValidation:

    def test_rejects_unknown_repairer(self):
        with pytest.raises(ConfigError):
            liquid_periodic(repairer="eager")

    def test_rejects_unknown_variant(self):
        with pytest.raises(ConfigError):
            liquid_periodic(variant="burst")

    def test_poisson_needs_rate(self):
        with pytest.raises(ConfigError):
            liquid_poisson(lam=0.0)

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigError):
            liquid_periodic(trials=0)
        with pytest.raises(ConfigError):
            liquid_periodic(assertEvery=0)
        with pytest.raises(ConfigError):
            liquid_periodic(peakWindow=0.0)


class TestLiquidPeriodicTrial:

    def test_per_step_read_and_write_bits(self):
        # k=8, flen=80: every step reads 640 = (1-beta)/beta * clen bits
        res = run_trial(liquid_periodic(), 0)
        assert res.recoverableThroughout
        assert res.firstLossTime is None
        steps = [e for e in res.perStepTrace if e[1] == "step"]
        fails = [e for e in res.perStepTrace if e[1] == "failure"]
        assert len(fails) == 100
        assert len(steps) == 100
        assert all(e[3] == 640 for e in steps)
        assert all(e[4] <= 160 for e in steps)
        assert res.totalBitsRead == 100 * 640
        assert res.counterMin == 0

    def test_zero_failures(self):
        res = run_trial(liquid_periodic(M=0), 0)
        assert res.recoverableThroughout
        assert res.totalBitsRead == 0
        assert res.avgReadRate == 0.0
        assert res.peakReadRate == 0.0

    def test_avg_rate_identity(self):
        res = run_trial(liquid_periodic(), 0)
        t_end = max(e[0] for e in res.perStepTrace)
        assert res.avgReadRate == pytest.approx(res.totalBitsRead / t_end,
                                                rel=1e-12)

    def test_determinism(self):
        sc = liquid_periodic()
        assert run_trial(sc, 0) == run_trial(sc, 0)


@st.composite
def liquid_poisson_scenarios(draw):
    N = draw(st.integers(3, 40))
    r = draw(st.integers(1, min(N - 1, 12)))
    step = draw(st.one_of(st.none(), st.floats(0.05, 20.0),
                          st.just(math.inf)))
    # clen divisible by every object count up to r
    return liquid_poisson(N=N, beta=r / N, clen=math.lcm(*range(1, r + 1)),
                          M=draw(st.integers(1, 150)),
                          lam=draw(st.floats(0.005, 0.2)),
                          eps=draw(st.floats(0.01, 0.99)), stepDuration=step,
                          seed=draw(st.integers(0, 2 ** 32)),
                          collectTrace=False)


class TestLiquidPoissonTrial:

    @settings(max_examples=100, deadline=None, database=None)
    @given(liquid_poisson_scenarios())
    def test_loss_implies_counter_dip_across_parameters(self, sc):
        # the census and the counter detector agree wherever the counter
        # holds; run_trial raises on any invariant break
        res = run_trial(sc, 0)
        assert res.recoverableThroughout or res.counterMin < 0

    def test_erosion_oracle_when_repair_disabled(self):
        sc = liquid_poisson(stepDuration=math.inf, M=200)
        res = run_trial(sc, 1)
        assert not res.recoverableThroughout
        assert res.totalBitsRead == 0
        # replay the same failure stream over a plain census of EFI sets
        g = rng.stream(sc.seed, 1, rng.SUB_FAILURE_TIMES)
        seq = failure_gen.gen_poisson(sc.sysParams.lam, sc.sysParams.N, 200,
                                      g)
        k, cap, count = 14, 2, 4
        sets = {j: set(range(k + cap + j)) for j in range(count)}
        loss = None
        for t, node in zip(seq.times, seq.ids):
            for s in sets.values():
                s.discard(int(node))
            if min(len(s) for s in sets.values()) < k:
                loss = float(t)
                break
        assert loss is not None
        assert res.firstLossTime == loss

    def test_loss_implies_counter_dip(self):
        sc = liquid_poisson(M=250)
        for sid in range(6):
            res = run_trial(sc, sid)
            if not res.recoverableThroughout:
                assert res.counterMin < 0

    def test_peak_rate_below_paced_slope(self):
        sc = liquid_poisson(M=250, peakWindow=1.0)
        dur = (1.0 - 0.2) / 1.0
        slope = 14 * 400 / dur
        for sid in range(4):
            res = run_trial(sc, sid)
            if res.totalBitsRead:
                assert res.peakReadRate <= slope * (1 + 1e-9)

    def test_avg_rate_identity_with_loss(self):
        sc = liquid_poisson(M=250)
        for sid in range(4):
            res = run_trial(sc, sid)
            if res.recoverableThroughout:
                t_end = max(e[0] for e in res.perStepTrace)
            else:
                t_end = res.firstLossTime
            assert res.avgReadRate == pytest.approx(
                res.totalBitsRead / t_end, rel=1e-12)


class TestAdvancedPeriodicTrial:

    def test_per_step_totals(self):
        # N=10, r=2, k=9: reads k*r + N*(r+k), writes r(r+1)/2 + N*2r
        res = run_trial(advanced_periodic(), 0)
        assert res.recoverableThroughout
        steps = [e for e in res.perStepTrace if e[1] == "step"]
        assert len(steps) == 30
        assert all(e[3] == 9 * 2 + 10 * (2 + 9) for e in steps)
        assert all(e[4] == 3 + 10 * 4 for e in steps)

    def test_write_equality_formula(self):
        # per-step writes equal (2N+(r+1)/2)/(N+(r+1)/2) * clen exactly
        N, r, clen = 10, 2, 23
        res = run_trial(advanced_periodic(), 0)
        steps = [e for e in res.perStepTrace if e[1] == "step"]
        wlen = (2 * N + (r + 1) / 2) / (N + (r + 1) / 2) * clen
        assert all(e[4] == wlen for e in steps)

    def test_determinism(self):
        sc = advanced_periodic()
        assert run_trial(sc, 2) == run_trial(sc, 2)


class TestAdvancedPoissonTrial:

    def test_smoke_and_counter_soundness(self):
        sc = advanced_poisson()
        for sid in range(3):
            res = run_trial(sc, sid)
            assert res.totalBitsRead > 0
            kinds = {e[1] for e in res.perStepTrace}
            assert "subop" in kinds
            if not res.recoverableThroughout:
                assert res.counterMin < 0

    def test_determinism(self):
        sc = advanced_poisson(M=80)
        assert run_trial(sc, 1) == run_trial(sc, 1)


class TestPace:
    """_pace gives every repairer its durations as the same floats the
    formulas give, and the driver hands them to the repairer."""

    @staticmethod
    def pace(sc):
        rep = sim_engine._Driver(sc, 0).rep
        assert rep.pace == sim_engine._pace(sc, rep.layout)
        return rep.pace, rep.layout

    @pytest.mark.parametrize("make", [liquid_periodic, advanced_periodic])
    def test_periodic_step_lands_mid_gap(self, make):
        for period in (1.0, 2.5, 0.3):
            assert self.pace(make(period=period))[0] == period / 2

    @pytest.mark.parametrize("step", [0.002, 2.5, math.inf])
    def test_liquid_poisson_step_duration_override(self, step):
        assert self.pace(liquid_poisson(stepDuration=step))[0] == step

    def test_liquid_poisson_keeps_pace_with_failures(self):
        # (1 - eps/2) / (lambda N) at eps 0.4, lambda 0.05, N 20
        assert self.pace(liquid_poisson())[0] == (1 - 0.4 / 2) / (0.05 * 20)

    @pytest.mark.parametrize("N, r, eps", [(40, 8, 0.3), (30, 6, 0.2),
                                           (17, 3, 0.9)])
    def test_advanced_poisson_reads_at_the_proof_rate(self, N, r, eps):
        sc = advanced_poisson(N=N, r=r, eps=eps)
        (moveupdate, generate), lay = self.pace(sc)
        sp = sc.sysParams
        rate = adv.advanced_schedule(lay.counterCap, sp.lam, sp.N, lay.beta,
                                     eps, clen=sp.clen).rateProof
        ops = adv.op_counts(lay.k, lay.r)
        mu_bits = (ops["move"].fragmentReads
                   + ops["update"].fragmentReads) * lay.flen
        assert moveupdate == mu_bits / rate
        assert generate == ops["generate"].fragmentReads * lay.flen / rate

    def test_liquid_stall_leaves_no_step_in_flight(self, caplog):
        driver = sim_engine._Driver(liquid_poisson(stepDuration=1.0), 0)
        rep = driver.rep
        rep.on_failure(0.5, 0)
        for node in range(1, 10):       # the front object falls below k
            liquid.liquid_fail_node(rep.state, rep.layout, 0.6, node)
        with caplog.at_level(logging.WARNING, logger="liquidsim.sim_engine"):
            assert driver.on_completion(rep.next_completion()) is None
        assert "repair stalled" in caplog.text
        assert rep.counter.halted and rep.next_completion() is None


class TestPayloadStream:
    """A trial builds its payload stream only when its codec resolves to
    byte, "auto" included."""

    @pytest.mark.parametrize("make, backend, resolved", [
        (lambda **kw: liquid_periodic(clen=160, **kw), "symbolic", "symbolic"),
        (lambda **kw: liquid_periodic(clen=168, **kw), "auto", "symbolic"),
        (lambda **kw: liquid_periodic(clen=160, **kw), "auto", "byte"),
        (lambda **kw: liquid_periodic(clen=160, **kw), "byte", "byte"),
        (lambda **kw: advanced_periodic(N=8, r=2, clen=152, **kw),
         "symbolic", "symbolic"),
        (lambda **kw: advanced_periodic(N=8, r=2, clen=19, **kw),
         "auto", "symbolic"),
        (lambda **kw: advanced_poisson(clen=2848, eps=0.9, **kw),
         "auto", "byte"),
        (lambda **kw: advanced_periodic(N=8, r=2, clen=152, **kw),
         "byte", "byte"),
    ])
    def test_payload_stream_only_for_byte(self, monkeypatch, make, backend,
                                          resolved):
        drivers, substreams = [], []
        make_driver, stream = sim_engine._Driver, rng.stream
        monkeypatch.setattr(sim_engine, "_Driver",
                            lambda *a: drivers.append(make_driver(*a))
                            or drivers[-1])
        monkeypatch.setattr(rng, "stream", lambda *a: substreams.append(a[2])
                            or stream(*a))
        res = run_trial(make(M=5, codecBackend=backend), 0)
        assert res.recoverableThroughout
        assert drivers[0].rep.layout.codec.backend == resolved
        assert substreams.count(rng.SUB_PAYLOAD) == (resolved == "byte")
        assert rng.SUB_FAILURE_TIMES in substreams


@st.composite
def coalesce_cases(draw):
    """Small advanced Poisson trials, failing up to ten times as fast as
    the repair is paced for, so donors and targets fail mid-run and the
    counter dips into stalls and losses."""
    N = draw(st.integers(6, 24))
    r = draw(st.integers(1, 4))
    eps = draw(st.sampled_from([0.2, 0.5, 0.9]))
    backend = draw(st.sampled_from(["byte", "symbolic"]))
    speed = draw(st.sampled_from([0.3, 1.0, 3.0, 10.0]))
    flen = 8 if backend == "byte" else 1
    sc = advanced_poisson(
        N=N, r=r, eps=eps, M=draw(st.integers(1, 40)),
        clen=(r * N + r * (r + 1) // 2) * flen, codecBackend=backend,
        seed=draw(st.integers(0, 2 ** 16)),
        assertEvery=draw(st.sampled_from([1, 2, 3, 5])),
        faultInjection=draw(st.sampled_from([False, False, True])))
    sp = sc.sysParams
    return Scenario(**{**sc.__dict__, "sysParams": SystemParams(
        N=sp.N, clen=sp.clen, xlen=sp.xlen, lam=speed / N)})


def traced_trial(sc, coalesce, trial=0):
    """run_trial's outcome (result, or the exception's type and message),
    the repairer it ran and the repairer calls it made; without coalesce
    the driver completes one sub-operation per call."""
    drivers, calls = [], [0]
    make = sim_engine._Driver
    complete = adv.AdvancedPoissonRepairer.on_subop_complete

    def capture(*args):
        drivers.append(make(*args))
        return drivers[-1]

    def one_call(rep, t, horizon=None):
        calls[0] += 1
        return complete(rep, t, horizon if coalesce else None)

    with mock.patch.object(sim_engine, "_Driver", capture), \
            mock.patch.object(adv.AdvancedPoissonRepairer,
                              "on_subop_complete", one_call):
        try:
            out = run_trial(sc, trial)
        except (InvariantViolation, MissingFragmentError) as e:
            out = (type(e), str(e))     # the fault hook's damage
    return SimpleNamespace(out=out, rep=drivers[0].rep if drivers else None,
                           calls=calls[0])


def assert_same_trial(a, b):
    assert a.out == b.out
    if a.rep is None:
        return
    sa, sb = a.rep.state, b.rep.state
    for name in ("nodeBitsRead", "nodeBitsWritten"):
        assert np.array_equal(getattr(sa, name), getattr(sb, name)), name
    assert (sa.phase_read, sa.phase_written) == (sb.phase_read, sb.phase_written)
    assert sa.read_log == sb.read_log
    la, lb = a.rep.layout, b.rep.layout
    for name in ("heldLo", "heldHi", "helperLo", "rot", "frags", "owner"):
        x, y = getattr(la, name), getattr(lb, name)
        assert (x is None and y is None) or np.array_equal(x, y), name


class TestCoalescedRunsMatchOneAtATime:
    """Between failures the driver commits each step's due sub-operations
    in one repairer call, with one event, trace row and read_log entry per
    sub-operation; replaying every trial one sub-operation per call must
    give the same result, trace included, meters, log and byte arrays,
    stall, loss, fault hook and assertEvery alike."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(coalesce_cases())
    def test_trial_matches_single_subop_calls(self, sc):
        runs = [traced_trial(sc, coalesce) for coalesce in (True, False)]
        assume(runs[0].rep is not None)     # the store took the params
        assert_same_trial(*runs)
        assert runs[0].calls <= runs[1].calls

    @pytest.mark.parametrize("every", [1, 2, 3, 4, 6, 9])
    def test_fault_hook_with_sparse_checks(self, every):
        # the hook drops two staircases at event 3; later runs must not
        # skip a check that one sub-operation per call would fail
        sc = advanced_poisson(M=40, faultInjection=True, assertEvery=every)
        for trial in range(3):
            assert_same_trial(*(traced_trial(sc, c, trial)
                                 for c in (True, False)))

    @pytest.mark.parametrize("backend", ["byte", "symbolic"])
    def test_stalling_trials_match(self, backend, caplog):
        # the golden abort-stall scenario, whose trials 0 and 4 stall
        sc = advanced_poisson(N=30, r=6, M=200, eps=0.2, seed=23,
                              clen=(6 * 30 + 21) * 8, codecBackend=backend)
        with caplog.at_level(logging.WARNING, logger="liquidsim.sim_engine"):
            for trial in (0, 4):
                runs = [traced_trial(sc, c, trial) for c in (True, False)]
                assert_same_trial(*runs)
                assert runs[0].calls < runs[1].calls / 4     # runs coalesced
        assert sum("repair stalled" in r.getMessage()
                   for r in caplog.records) == 4


class TestFaultInjection:

    def test_liquid_periodic_faults(self):
        with pytest.raises(InvariantViolation):
            run_trial(liquid_periodic(M=10, faultInjection=True), 0)

    def test_advanced_periodic_faults(self):
        with pytest.raises(InvariantViolation,
                           match="^witness set has 7 members, need 9$"):
            run_trial(advanced_periodic(M=10, faultInjection=True), 0)

    def test_advanced_poisson_faults(self):
        with pytest.raises(InvariantViolation,
                           match="^witness set has 37 members, need 39$"):
            run_trial(advanced_poisson(M=40, faultInjection=True), 0)


class TestBackendAgreement:
    """The byte and symbolic codecs drive identical trials: decoding real
    payloads changes no placement, meter or event."""

    @pytest.mark.parametrize("make", [
        lambda **kw: liquid_periodic(N=10, beta=0.2, clen=160, **kw),
        lambda **kw: liquid_poisson(N=10, beta=0.2, clen=160, lam=0.05,
                                    eps=0.4, stepDuration=1.0, **kw),
        lambda **kw: advanced_periodic(N=8, r=2, clen=152, **kw),
        lambda **kw: advanced_poisson(N=40, r=8, clen=2848, eps=0.9, **kw),
    ], ids=["liquid_periodic", "liquid_poisson", "advanced_periodic",
            "advanced_poisson"])
    def test_byte_matches_symbolic(self, make):
        for seed in range(6):
            results = [run_trial(make(M=30, seed=seed, codecBackend=backend), 0)
                       for backend in ("byte", "symbolic")]
            assert results[0].perStepTrace
            assert results[0] == results[1]

    def test_liquid_poisson_agrees_while_repair_keeps_up(self):
        # the liquid_poisson case above loses data within 2-11 events at
        # every seed; steps 1000 times shorter than the mean failure gap
        # keep the counter at cap, so all 30 failures are repaired
        for seed in range(6):
            results = [run_trial(liquid_poisson(
                N=10, beta=0.2, clen=160, lam=0.05, eps=0.4,
                stepDuration=0.002, M=30, seed=seed,
                codecBackend=backend), 0) for backend in ("byte", "symbolic")]
            assert results[0].recoverableThroughout
            steps = [e for e in results[0].perStepTrace if e[1] == "step"]
            assert len(steps) == 30
            assert results[0] == results[1]

    def test_symbolic_runs_never_load_the_gf_kernel(self):
        # a symbolic trial holds no payloads, so it never builds or loads
        # the GF(256) kernel, which would show in its setup time; checked
        # in a fresh interpreter, as byte tests may have loaded it here
        scenarios = [advanced_periodic(N=10, r=2, M=20),
                     liquid_periodic(M=20, codecBackend="symbolic")]
        child = ("import pickle, sys\n"
                 "from liquidsim import gf256, sim_engine\n"
                 "for sc in pickle.load(sys.stdin.buffer):\n"
                 "    assert sim_engine.run_trial(sc, 0).perStepTrace\n"
                 "print(gf256.KERNEL)\n")
        src = str(Path(sim_engine.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-c", child],
                              input=pickle.dumps(scenarios), capture_output=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout.decode().split() == ["None"]


class TestExperiment:

    def test_parallel_matches_sequential(self):
        sc = liquid_poisson(M=120, trials=4, collectTrace=False)
        seq = run_experiment(sc, jobs=1)
        par = run_experiment(sc, jobs=3)
        assert seq == par

    def test_aggregates_recomputable_from_rows(self):
        sc = liquid_poisson(M=120, trials=5, collectTrace=False)
        rep = run_experiment(sc)
        rows = rep.results
        assert len(rows) == 5
        assert [r.trial for r in rows] == list(range(5))
        unrec = sum(1 for r in rows if not r.recoverableThroughout) / 5
        assert rep.unrecoverableFraction == unrec
        assert rep.meanAvgReadRate == sum(r.avgReadRate for r in rows) / 5
        assert rep.maxPeakReadRate == max(r.peakReadRate for r in rows)
        per_fail = sum(r.totalBitsRead for r in rows) / 5 / 120
        assert rep.readPerFailure == per_fail

    def test_bound_report_and_ratios(self):
        sc = liquid_poisson(M=120, trials=2, collectTrace=False)
        rep = run_experiment(sc)
        assert rep.boundReport is not None
        assert rep.lowerBoundPerFailure > 0
        assert "readPerFailureOverLower" in rep.ratios
        assert "peakOverPoissonCeiling" in rep.ratios


class TestCsvAndSummary:

    def test_golden_header(self):
        assert CSV_HEADER == ("trial,seed,recoverable,first_loss_time,"
                              "bits_read,bits_written,avg_read_rate,"
                              "peak_read_rate,counter_min")

    def test_row_formatting(self):
        res = TrialResult(trial=3, seed=9, recoverableThroughout=False,
                          firstLossTime=2.5, totalBitsRead=10,
                          totalBitsWritten=4, avgReadRate=1.5,
                          peakReadRate=2.0, counterMin=-1)
        assert result_row(res) == "3,9,false,2.5,10,4,1.5,2.0,-1"

    def test_clean_trial_has_empty_loss_field(self):
        res = TrialResult(trial=0, seed=1, recoverableThroughout=True,
                          firstLossTime=None, totalBitsRead=0,
                          totalBitsWritten=0, avgReadRate=0.0,
                          peakReadRate=0.0, counterMin=2)
        assert result_row(res) == "0,1,true,,0,0,0.0,0.0,2"

    def test_write_csv_round_trip(self, tmp_path):
        sc = liquid_periodic(M=20, trials=2, collectTrace=False)
        rep = run_experiment(sc)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, rep.results)
        write_csv(p2, rep.results)
        text = p1.read_text()
        assert text == p2.read_text()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3

    def test_summary_lines_parse(self, tmp_path):
        sc = liquid_poisson(M=100, trials=2, collectTrace=False)
        rep = run_experiment(sc)
        lines = summary_lines(rep)
        agg = json.loads(lines[0])
        assert agg["trials"] == 2
        assert "ratios" in agg
        bound = json.loads(lines[1])["boundReport"]
        assert isinstance(bound["gammaTableLen"], int)
        out = tmp_path / "summary.jsonl"
        write_summary(out, rep)
        assert out.read_text().splitlines() == lines


class TestMonteCarloGs:

    def test_single_new_distinct(self):
        est = monte_carlo_gs(10, 1, 4000, seed=5)
        assert abs(est.mean - 10 / 9) < max(est.ci99, 0.02)

    def test_two_distinct_matches_formula(self):
        exact = bounds.expected_distinct_failures(10, 2)
        assert exact == pytest.approx(10 / 9 + 10 / 8, rel=1e-12)
        est = monte_carlo_gs(10, 2, 20000, seed=11)
        assert abs(est.mean - exact) < max(est.ci99, 0.05)

    def test_ci_shrinks_with_trials(self):
        small = monte_carlo_gs(10, 2, 2000, seed=11)
        big = monte_carlo_gs(10, 2, 20000, seed=11)
        assert big.ci99 < small.ci99

    def test_rejects_bad_domain(self):
        with pytest.raises(ConfigError):
            monte_carlo_gs(10, 0, 100, seed=1)
        with pytest.raises(ConfigError):
            monte_carlo_gs(10, 10, 100, seed=1)

    def test_deterministic(self):
        a = monte_carlo_gs(10, 2, 3000, seed=4)
        b = monte_carlo_gs(10, 2, 3000, seed=4)
        assert a == b
