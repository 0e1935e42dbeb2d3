"""Golden traces: run_experiment output pinned by sha256 over a fixed matrix.

Each scenario's digest covers the summary lines, every CSV row and every
per-step trace event (in the trace.csv format), so any change to event
order, metering, counter values or aggregates shows up as a mismatch.  The
matrix spans both repairers, both failure models and both codec backends,
and includes a run that aborts a sub-operation and stalls.  A refactor of
the repair engines must leave every digest unchanged.
"""

import hashlib
import logging
import math

import pytest

from liquidsim.bounds import EpsilonSet, SystemParams
from liquidsim.sim_engine import (Scenario, result_row, run_experiment,
                                  summary_lines)


def _liquid(variant, backend, *, N, beta, clen, M, lam=0.0, eps=0.1, **kw):
    k = round((1 - beta) * N)
    sp = SystemParams(N=N, clen=clen, xlen=k * clen, lam=lam)
    return Scenario(sysParams=sp, repairer="liquid", variant=variant,
                    codecBackend=backend, eps=EpsilonSet(0.1, 0.1, eps),
                    failureCount=M, collectTrace=True, **kw)


def _advanced(variant, backend, *, N, r, M, eps=0.0, flen=1, **kw):
    clen = (r * N + r * (r + 1) // 2) * flen
    cap = 1 if variant == "periodic" else int(eps / 2 * N + 1e-9) + 1
    F = round((r + 1 + 2 * cap) / (2 * N + r + 1) * N)
    sp = SystemParams(N=N, clen=clen, xlen=N * clen - F * clen + 1,
                      lam=1.0 / N if variant == "poisson" else 0.0)
    return Scenario(sysParams=sp, repairer="advancedLiquid", variant=variant,
                    codecBackend=backend, eps=EpsilonSet(0.1, 0.1, eps),
                    advancedR=r, failureCount=M, collectTrace=True, **kw)


SCENARIOS = {
    "liquid-periodic-byte": _liquid(
        "periodic", "byte", N=10, beta=0.2, clen=160, M=60, trials=2, seed=7),
    "liquid-periodic-symbolic": _liquid(
        "periodic", "symbolic", N=20, beta=0.25, clen=400, M=80, trials=2,
        seed=8, peakWindow=1.5),
    "liquid-poisson-byte": _liquid(
        "poisson", "byte", N=40, beta=0.3, clen=448, M=150, lam=0.05,
        eps=0.8, trials=2, seed=19),
    "liquid-poisson-symbolic": _liquid(
        "poisson", "symbolic", N=20, beta=0.3, clen=1600, M=250, lam=0.05,
        eps=0.4, trials=4, seed=21, peakWindow=1.0),
    "liquid-poisson-no-repair": _liquid(
        "poisson", "symbolic", N=20, beta=0.3, clen=1600, M=200, lam=0.05,
        eps=0.4, trials=2, seed=19, stepDuration=math.inf),
    "liquid-poisson-slow-step": _liquid(
        "poisson", "symbolic", N=20, beta=0.3, clen=1600, M=200, lam=0.05,
        eps=0.4, trials=3, seed=5, stepDuration=2.5),
    "advanced-periodic-byte": _advanced(
        "periodic", "byte", N=8, r=2, M=20, flen=8, trials=2, seed=11),
    "advanced-periodic-symbolic": _advanced(
        "periodic", "symbolic", N=10, r=2, M=30, trials=2, seed=3),
    "advanced-periodic-peak": _advanced(
        "periodic", "symbolic", N=16, r=4, M=25, seed=4, period=2.0,
        peakWindow=0.75),
    "advanced-poisson-byte": _advanced(
        "poisson", "byte", N=16, r=4, M=40, eps=0.8, flen=16, trials=2,
        seed=29),
    "advanced-poisson-symbolic": _advanced(
        "poisson", "symbolic", N=40, r=8, M=150, eps=0.3, trials=2, seed=23),
    "advanced-poisson-abort-stall": _advanced(
        "poisson", "symbolic", N=30, r=6, M=200, eps=0.2, trials=6, seed=23,
        peakWindow=2.0),
    "advanced-poisson-assert-every": _advanced(
        "poisson", "symbolic", N=20, r=4, M=80, eps=0.8, trials=2, seed=31,
        assertEvery=3),
}

# recorded before the periodic and paced advanced steps were merged into one
# chain; a mismatch means the simulated behaviour changed.  Exception:
# advanced-poisson-abort-stall was re-recorded when a sub-operation that
# stalls after its move committed began metering the move's reads (trials 0
# and 4 each read 6 more bits; nothing else in the run changed).
EXPECTED = {
    "advanced-periodic-byte":
        "f145eed98a75aa0203131133a624e151d9a176be539b7d75748c0db3ec5e4bf8",
    "advanced-periodic-peak":
        "d6f79ba07c857731b32f44b28bb95c61b6062c351805768d80dbba191f6b581d",
    "advanced-periodic-symbolic":
        "47d01ebfaeee46a9977f153ccb1001ff9c313ec10532465756fc4cc8550dc538",
    "advanced-poisson-abort-stall":
        "2443d6105654c766828e6d191bdb11c24b26cc4e353ed2a79f84f565d0bc54e9",
    "advanced-poisson-assert-every":
        "fd6bd1ba2286b7647488525630ebab1cd6a5e60e2eaca131b9d931215b27b9aa",
    "advanced-poisson-byte":
        "04ef253b57f1cb4e07dbf5afbda4a9f6e14997aefed5a50d70bf8ec4a0ed8e4b",
    "advanced-poisson-symbolic":
        "c60dc5dc775d844c698490173981d0feb022a5e6a30eb9647213ce3a78df53ad",
    "liquid-periodic-byte":
        "8fca6d8507427834a9aa9306dd5d8b62982f5b0c7e814420c559197f90427ea1",
    "liquid-periodic-symbolic":
        "73de08b8d040aa67af1ad200866fadc2ea68d9531ffb329017b9d942ac937a1e",
    "liquid-poisson-byte":
        "6a79a7c79aecb4d41ef49a5a705c00de0fbe27ba6082162dbf1b2aceb5d47379",
    "liquid-poisson-no-repair":
        "4636d8819f6c7afc05f068c32aeef5cf2d8a9c0b5a5fc585c80738019c1413fa",
    "liquid-poisson-slow-step":
        "966993145c3c5f73d566897ae59daeb6ddb5d1a6528886a846b99ea7f83666d3",
    "liquid-poisson-symbolic":
        "68f1159f636c390717f0cb6322eb0f89209731bf311360287d3c39da870a45c6",
}


def digest(scenario: Scenario) -> str:
    report = run_experiment(scenario)
    h = hashlib.sha256()
    for line in summary_lines(report):
        h.update(line.encode() + b"\n")
    for res in report.results:
        h.update(result_row(res).encode() + b"\n")
        for t, kind, counter, br, bw in res.perStepTrace:
            h.update(f"{res.trial},{t!r},{kind},{counter},{br},{bw}\n"
                     .encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_digest(name):
    assert digest(SCENARIOS[name]) == EXPECTED[name]


def test_abort_stall_scenario_stalls(caplog):
    # the digest above only guards the stall path if the run reaches it
    with caplog.at_level(logging.WARNING, logger="liquidsim.sim_engine"):
        run_experiment(SCENARIOS["advanced-poisson-abort-stall"])
    assert sum("repair stalled" in r.getMessage() for r in caplog.records) == 2
