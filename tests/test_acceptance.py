"""Acceptance gate: the nine headline criteria, one test each.

Run with -v for one pass/fail line per criterion.  Each test prints its
measured numbers, visible with -s or -rA.  Runtime limits are asserted
with time.monotonic around the workload they govern.
"""

import math
import time

import numpy as np
import pytest

from liquidsim import advanced_liquid as adv
from liquidsim import bounds, erasure, rng, sim_engine
from liquidsim.advanced_liquid import OpCounts
from liquidsim.bounds import EpsilonSet, SystemParams
from liquidsim.errors import DecodeError
from liquidsim.sim_engine import (Scenario, monte_carlo_gs, result_row,
                                  run_experiment, run_trial, write_csv)


def test_criterion_1_bound_reproduction():
    # N=1e5, clen=1e16, vlen=1e13, beta'=0.1: the core failure probability
    # at eps_c=0.1 evaluates to 3.0697e-7, which is 3e-7 at one significant
    # figure (the reference precision); at eps_c=0.2 it is under 2e-39.
    t0 = time.monotonic()
    sys_p, phase = bounds.phase_from_overhead(100_000, 10 ** 16, 0.1,
                                              vlen=10 ** 13)
    rep1 = bounds.poisson_bounds(sys_p, phase, EpsilonSet(0.1, 0.1, 0.1))
    rep2 = bounds.poisson_bounds(sys_p, phase, EpsilonSet(0.2, 0.1, 0.1))
    dt = time.monotonic() - t0
    assert rep1.deltaCore == pytest.approx(3.0697103342850623e-07, rel=1e-9)
    assert f"{rep1.deltaCore:.0e}" == "3e-07"
    assert rep1.deltaCore <= 3.1e-7
    assert rep2.deltaCore == pytest.approx(9.087407574485454e-40, rel=1e-9)
    assert rep2.deltaCore <= 2e-39
    assert dt < 1.0
    print(f"criterion 1: PASS delta_c(0.1)={rep1.deltaCore:.5g} "
          f"delta_c(0.2)={rep2.deltaCore:.5g} in {dt:.3f}s")


def test_criterion_2_liquid_periodic_exactness():
    # N=100, beta=0.1 (k=90, r=10), clen=1e6 bits, byte backend,
    # 1e4 periodic failures: every step reads exactly (1-beta)/beta*clen
    # = 9e6 bits and writes at most clen = 1e6 bits.
    sp = SystemParams(N=100, clen=10 ** 6, xlen=90 * 10 ** 6)
    sc = Scenario(sysParams=sp, repairer="liquid", variant="periodic",
                  codecBackend="byte", failureCount=10_000, seed=2026,
                  collectTrace=True)
    t0 = time.monotonic()
    res = run_trial(sc, 0)
    dt = time.monotonic() - t0
    assert res.recoverableThroughout
    steps = [e for e in res.perStepTrace if e[1] == "step"]
    assert len(steps) == 10_000
    assert all(e[3] == 9_000_000 for e in steps)
    assert all(e[4] <= 1_000_000 for e in steps)
    assert res.counterMin == 0
    assert dt < 60.0
    print(f"criterion 2: PASS 10^4 steps, reads 9e6 each, "
          f"max write {max(e[4] for e in steps)} in {dt:.1f}s")


def test_criterion_3_advanced_periodic_exactness():
    # N=100, r=20 (beta=23/221), symbolic backend, 1e3 periodic failures:
    # full-cluster witness at every inter-failure instant, exact
    # per-invocation fragment counts, per-step reads under the step bound.
    N, r, clen = 100, 20, 2210
    bound_bits = N * (N + 2 * r) * clen / (r * (N + (r + 1) / 2))
    assert bound_bits == 14000.0
    t0 = time.monotonic()
    state, layout = adv.advanced_store(N, clen, r, variant="periodic",
                                       backend="symbolic")
    ids = rng.stream(2026, 0, rng.SUB_FAILURE_IDS)
    adv.assert_advanced_invariant(layout)
    gen_counts = OpCounts((N - 1) * r, r * (r + 1) // 2)
    for m in range(1000):
        t = float(m + 1)
        node = int(ids.integers(0, N))
        adv.advanced_fail_node(state, layout, t, node)
        rec = adv.advanced_repair_step(state, layout, node, t0=t, t1=t + 0.5)
        assert rec.counts["generate"] == [gen_counts]
        assert rec.counts["move"] == [OpCounts(r, r)] * N
        assert rec.counts["update"] == [OpCounts(N - 1, r)] * N
        assert rec.bitsRead <= bound_bits
        adv.assert_advanced_invariant(layout)
        if m % 200 == 0:
            adv.check_advanced_sync(layout)
    dt = time.monotonic() - t0
    assert dt < 60.0
    print(f"criterion 3: PASS 10^3 steps, reads {rec.bitsRead} <= "
          f"{bound_bits} per step in {dt:.1f}s")


def test_criterion_4_advanced_large_n_asymptotics():
    # N=1000, beta ~ 0.1 via r = round(2 beta N / (1-beta)) = 222: measured
    # per-failure reads and writes within 10% of (1+2b)/(2b)*clen and
    # (2-b)*clen, b the store's own overhead.
    N, r = 1000, 222
    assert adv.r_for_target_overhead(N, 0.1) == r
    clen = r * N + r * (r + 1) // 2
    beta = (r + 3) / (2 * N + r + 1)
    sp = SystemParams(N=N, clen=clen, xlen=round((1 - beta) * N) * clen)
    sc = Scenario(sysParams=sp, repairer="advancedLiquid",
                  variant="periodic", codecBackend="symbolic", advancedR=r,
                  failureCount=20, seed=17, collectTrace=True)
    t0 = time.monotonic()
    res = run_trial(sc, 0)
    dt = time.monotonic() - t0
    assert res.recoverableThroughout
    read_formula = (1 + 2 * beta) / (2 * beta) * clen
    write_formula = (2 - beta) * clen
    read_ratio = res.totalBitsRead / 20 / read_formula
    write_ratio = res.totalBitsWritten / 20 / write_formula
    assert 0.9 < read_ratio < 1.1
    assert 0.9 < write_ratio < 1.1
    assert dt < 120.0
    print(f"criterion 4: PASS read ratio {read_ratio:.4f}, "
          f"write ratio {write_ratio:.4f} in {dt:.1f}s")


def _one_periodic_failure(N):
    """One periodic failure at N, r for beta ~ 0.1, symbolic: read and write
    ratios to (1+2b)/(2b)*clen and (2-b)*clen, b the store's own overhead,
    and the trial's wall time."""
    r = adv.r_for_target_overhead(N, 0.1)
    clen = r * N + r * (r + 1) // 2
    beta = (r + 3) / (2 * N + r + 1)
    sp = SystemParams(N=N, clen=clen, xlen=round((1 - beta) * N) * clen)
    sc = Scenario(sysParams=sp, repairer="advancedLiquid",
                  variant="periodic", codecBackend="symbolic", advancedR=r,
                  failureCount=1, seed=17)
    t0 = time.monotonic()
    res = run_trial(sc, 0)
    dt = time.monotonic() - t0
    assert res.recoverableThroughout
    read_ratio = res.totalBitsRead / ((1 + 2 * beta) / (2 * beta) * clen)
    write_ratio = res.totalBitsWritten / ((2 - beta) * clen)
    return r, read_ratio, write_ratio, dt


def test_advanced_asymptotics_at_n_10000():
    # Criterion 4's check one decade further: N=10^4, r=2222 (beta ~ 0.1),
    # one periodic failure, reads and writes within 10% of the formulas.
    r, read_ratio, write_ratio, dt = _one_periodic_failure(10_000)
    assert r == 2222
    assert 0.9 < read_ratio < 1.1
    assert 0.9 < write_ratio < 1.1
    print(f"N=10^4: PASS read ratio {read_ratio:.4f}, "
          f"write ratio {write_ratio:.4f} in {dt:.1f}s")


def test_advanced_asymptotics_at_n_100000():
    # Two decades further: N=10^5, r=22222.  A placement or staircase array
    # of N*N or N*r entries would not fit in memory here, and a step of
    # O(N^2) work would take minutes.
    r, read_ratio, write_ratio, dt = _one_periodic_failure(100_000)
    assert r == 22_222
    assert 0.9 < read_ratio < 1.1
    assert 0.9 < write_ratio < 1.1
    assert dt < 60.0
    print(f"N=10^5: PASS read ratio {read_ratio:.4f}, "
          f"write ratio {write_ratio:.4f} in {dt:.1f}s")


def test_advanced_poisson_at_n_10000(monkeypatch):
    # The paced Poisson chain at N=10^4: 1000 symbolic failures, eps=0.2,
    # r=2222 from beta ~ 0.1 (the slack cap puts the store's own beta at
    # 0.19), about 10^7 sub-operations, each with its own event and
    # read_log entry.  Reads per failure over (1+2b)/(2b)*clen, b the
    # store's beta, measured 1.660 at this seed; the band is 3 % each way.
    drivers = []
    make = sim_engine._Driver
    monkeypatch.setattr(sim_engine, "_Driver",
                        lambda *a: drivers.append(make(*a)) or drivers[-1])
    N, M, eps = 10_000, 1000, 0.2
    r = adv.r_for_target_overhead(N, 0.1)
    clen = r * N + r * (r + 1) // 2
    cap = int(eps / 2 * N + 1e-9) + 1
    beta = (r + 1 + 2 * cap) / (2 * N + r + 1)
    sp = SystemParams(N=N, clen=clen, xlen=round((1 - beta) * N) * clen,
                      lam=1.0 / N)
    sc = Scenario(sysParams=sp, repairer="advancedLiquid", variant="poisson",
                  codecBackend="symbolic", eps=EpsilonSet(0.1, 0.1, eps),
                  advancedR=r, failureCount=M, seed=3)
    t0 = time.monotonic()
    res = run_trial(sc, 0)
    dt = time.monotonic() - t0
    assert r == 2222 and drivers[0].rep.layout.beta == beta
    assert res.recoverableThroughout
    read_ratio = res.totalBitsRead / M / ((1 + 2 * beta) / (2 * beta) * clen)
    assert 1.660 / 1.03 < read_ratio < 1.660 * 1.03
    # one entry per sub-operation: N move+updates a step, one step for
    # nearly every failure (a node failing while queued adds none)
    assert len(drivers[0].rep.state.read_log) > 0.99 * M * N
    assert dt < 60.0
    print(f"advanced Poisson N=10^4: PASS {M} failures, read ratio "
          f"{read_ratio:.4f} in {dt:.1f}s")


def test_advanced_poisson_at_n_100000(monkeypatch):
    # The same chain a decade further: N=10^5, 20 symbolic failures,
    # eps=0.2, r=22222 from beta ~ 0.1 (store beta 0.19), about 2*10^6
    # sub-operations.  Reads per failure over (1+2b)/(2b)*clen measured
    # 1.631 at this seed; the band is 3 % each way.
    drivers = []
    make = sim_engine._Driver
    monkeypatch.setattr(sim_engine, "_Driver",
                        lambda *a: drivers.append(make(*a)) or drivers[-1])
    N, M, eps = 100_000, 20, 0.2
    r = adv.r_for_target_overhead(N, 0.1)
    clen = r * N + r * (r + 1) // 2
    cap = int(eps / 2 * N + 1e-9) + 1
    beta = (r + 1 + 2 * cap) / (2 * N + r + 1)
    sp = SystemParams(N=N, clen=clen, xlen=round((1 - beta) * N) * clen,
                      lam=1.0 / N)
    sc = Scenario(sysParams=sp, repairer="advancedLiquid", variant="poisson",
                  codecBackend="symbolic", eps=EpsilonSet(0.1, 0.1, eps),
                  advancedR=r, failureCount=M, seed=3)
    t0 = time.monotonic()
    res = run_trial(sc, 0)
    dt = time.monotonic() - t0
    assert r == 22222 and drivers[0].rep.layout.beta == beta
    assert res.recoverableThroughout
    read_ratio = res.totalBitsRead / M / ((1 + 2 * beta) / (2 * beta) * clen)
    assert 1.631 / 1.03 < read_ratio < 1.631 * 1.03
    assert len(drivers[0].rep.state.read_log) > 0.99 * M * N
    assert dt < 60.0
    print(f"advanced Poisson N=10^5: PASS {M} failures, read ratio "
          f"{read_ratio:.4f} in {dt:.1f}s")


def test_liquid_periodic_at_n_10000(monkeypatch):
    # Criterion 2's repairer two decades further, symbolic: N=10^4,
    # beta=0.1 (k=9000, 1000 objects, 1-bit fragments), 50 periodic
    # failures with the invariant and the census checked after every event.
    # Placement is one (objects, N) array, and the symbolic run holds no
    # payloads.
    drivers = []
    make = sim_engine._Driver
    monkeypatch.setattr(sim_engine, "_Driver",
                        lambda *a: drivers.append(make(*a)) or drivers[-1])
    sp = SystemParams(N=10_000, clen=1000, xlen=9000 * 1000)
    sc = Scenario(sysParams=sp, repairer="liquid", variant="periodic",
                  codecBackend="symbolic", failureCount=50, seed=2026,
                  collectTrace=True)
    t0 = time.monotonic()
    res = run_trial(sc, 0)
    dt = time.monotonic() - t0
    assert res.recoverableThroughout and res.counterMin == 0
    steps = [e for e in res.perStepTrace if e[1] == "step"]
    assert len(steps) == 50
    assert all(e[3] == 9000 for e in steps)       # k * flen on every step
    assert res.totalBitsRead == 50 * 9000
    assert drivers[0].rep.layout.frags is None
    assert dt < 30.0
    print(f"liquid N=10^4: PASS 50 steps, reads 9000 each in {dt:.1f}s")


def test_criterion_5_poisson_liquid_structural_safety():
    # N=100, beta=0.2, eps=0.2 (18 objects, slack cap 3), lam*N=1,
    # 100 trials x 1e4 failures.  (a) the counter detector and the census
    # detector agree on recoverability for every trial; (b) measured peak
    # read rate stays under (1-beta)/((1-eps)beta)*lam*N*clen.  At this
    # scale the failure-probability bound per trial exceeds 1 (vacuous),
    # so loss frequency itself is unconstrained: service runs at 0.9
    # utilization and slack 3, and bursts overrun it in most trials.  The
    # detectors must still agree trial by trial, and pacing must hold.
    sp = SystemParams(N=100, clen=1800, xlen=80 * 1800, lam=0.01)
    sc = Scenario(sysParams=sp, repairer="liquid", variant="poisson",
                  codecBackend="symbolic", eps=EpsilonSet(0.1, 0.1, 0.2),
                  failureCount=10_000, trials=100, seed=2026,
                  peakWindow=1.0)
    ceiling = (1 - 0.2) / ((1 - 0.2) * 0.2) * 1.0 * 1800
    t0 = time.monotonic()
    rep = run_experiment(sc)
    dt = time.monotonic() - t0
    assert len(rep.results) == 100
    for res in rep.results:
        assert res.recoverableThroughout == (res.counterMin >= 0)
        assert res.peakReadRate <= ceiling * (1 + 1e-12)
    assert rep.boundReport is not None
    assert dt < 120.0
    print(f"criterion 5: PASS agreement on 100/100 trials, max peak "
          f"{rep.maxPeakReadRate:.1f} <= {ceiling:.1f} in {dt:.1f}s")


def test_criterion_6_upper_vs_lower_sandwich():
    # Matched-overhead ratio of the advanced periodic per-failure read
    # bound (1+2b)/(2b) to the lower-bound quantity (1-b)/lni(2b) falls
    # toward 1 as b shrinks and is under 1.25 by b=0.01.
    t0 = time.monotonic()
    ratios = []
    for b in (0.05, 0.02, 0.01):
        upper = (1 + 2 * b) / (2 * b)
        lower = (1 - b) / bounds.lni(2 * b)
        ratios.append(upper / lower)
    dt = time.monotonic() - t0
    assert ratios[0] == pytest.approx(1.21996, abs=1e-4)
    assert ratios[1] == pytest.approx(1.08304, abs=1e-4)
    assert ratios[2] == pytest.approx(1.04075, abs=1e-4)
    assert ratios[0] > ratios[1] > ratios[2] > 1.0
    assert ratios[2] < 1.25
    assert dt < 1.0
    print(f"criterion 6: PASS ratios {[round(x, 5) for x in ratios]} "
          f"in {dt:.3f}s")


def test_criterion_7_mds_codec_subsets():
    # byte backend, k=8, n=12: 1e4 random k-subsets decode exactly,
    # k-1 fragments always rejected.
    t0 = time.monotonic()
    codec = erasure.make_codec(12, 8, 64, backend="byte")
    g = rng.stream(2026, 0, rng.SUB_PAYLOAD)
    source = g.bytes(8 * 8)
    table = erasure.encode_rows(
        np.frombuffer(source, np.uint8).reshape(8, 8), range(12), codec)
    for trial in range(10_000):
        subset = [int(e) for e in g.permutation(12)[:8]]
        frags = np.zeros_like(table)
        frags[subset] = table[subset]
        erasure.decode_in_place(frags, subset, codec)
        assert frags[:8].tobytes() == source
        with pytest.raises(DecodeError):
            erasure.decode_in_place(frags, subset[:7], codec)
    dt = time.monotonic() - t0
    assert dt < 30.0
    print(f"criterion 7: PASS 10^4 subsets round-trip in {dt:.1f}s")


def test_criterion_8_geometric_sum_oracle():
    # monte_carlo_gs(10, 2, 1e5) lands within 1% of 10/9 + 10/8.
    exact = bounds.expected_distinct_failures(10, 2)
    assert exact == pytest.approx(2.361111111111111, rel=1e-12)
    t0 = time.monotonic()
    est = monte_carlo_gs(10, 2, 100_000, seed=2026)
    dt = time.monotonic() - t0
    assert abs(est.mean - exact) / exact < 0.01
    assert dt < 30.0
    print(f"criterion 8: PASS mean {est.mean:.4f} vs {exact:.4f} "
          f"(ci99 {est.ci99:.4f}) in {dt:.1f}s")


def test_criterion_9_determinism():
    # Same seed gives bit-identical CSV; jobs=1 and jobs=8 give identical
    # reports, for both repairer families.
    sp = SystemParams(N=100, clen=1800, xlen=80 * 1800, lam=0.01)
    liquid_sc = Scenario(sysParams=sp, repairer="liquid", variant="poisson",
                         codecBackend="symbolic",
                         eps=EpsilonSet(0.1, 0.1, 0.2), failureCount=2000,
                         trials=20, seed=11, peakWindow=1.0)
    r, N = 8, 40
    clen = r * N + r * (r + 1) // 2
    adv_sp = SystemParams(N=N, clen=clen, xlen=30 * clen, lam=1.0 / N)
    adv_sc = Scenario(sysParams=adv_sp, repairer="advancedLiquid",
                      variant="poisson", codecBackend="symbolic",
                      eps=EpsilonSet(0.1, 0.1, 0.3), advancedR=r,
                      failureCount=150, trials=4, seed=5)
    for sc in (liquid_sc, adv_sc):
        rep1 = run_experiment(sc, jobs=1)
        rep8 = run_experiment(sc, jobs=8)
        assert rep1 == rep8
        rows1 = [result_row(t) for t in rep1.results]
        rows2 = [result_row(t) for t in run_experiment(sc, jobs=1).results]
        assert rows1 == rows2
    print("criterion 9: PASS jobs-1 == jobs-8 and reruns bit-identical "
          "for both repairers")


def test_criterion_9_csv_bytes(tmp_path):
    sp = SystemParams(N=100, clen=1800, xlen=80 * 1800, lam=0.01)
    sc = Scenario(sysParams=sp, repairer="liquid", variant="poisson",
                  codecBackend="symbolic", eps=EpsilonSet(0.1, 0.1, 0.2),
                  failureCount=2000, trials=10, seed=3, peakWindow=1.0)
    paths = []
    for name in ("one.csv", "two.csv"):
        p = tmp_path / name
        write_csv(p, run_experiment(sc).results)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()
