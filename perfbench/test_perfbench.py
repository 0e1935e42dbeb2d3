"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import dataclasses
import inspect
import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import LPB, WORKLOADS, failed_trials  # noqa: E402

from liquidsim import Scenario, SystemParams  # noqa: E402
from liquidsim import sim_engine  # noqa: E402
from liquidsim.sim_engine import CSV_HEADER, result_row  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_nested_and_back_to_back():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),       # a and b are back to back
        _span("b", 4.0, 6.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b.inner", 4.0, 6.0, 2),  # covers all of b
    ]
    assert self_times(spans) == [5.0, 2.0, 0.0, 1.0, 2.0]
    assert sum(self_times(spans)) == 10.0


def test_tracer_spans_and_layer_sum_match_wall():
    ticks = iter(range(100))

    class Box:
        @staticmethod
        def outer():
            Box.inner()
            Box.inner()

        @staticmethod
        def inner():
            pass

    tr = Tracer(clock=lambda: float(next(ticks)))
    tr.wrap(Box, "inner", "m.inner")
    tr.wrap(Box, "outer", "m.outer")
    Box.outer()
    tr.restore()
    names = [s[0] for s in tr.spans]
    assert names == ["m.outer", "m.inner", "m.inner"]
    assert [s[3] for s in tr.spans] == [-1, 0, 0]
    # outer 0..5, inners 1..2 and 3..4
    assert self_times(tr.spans) == [3.0, 1.0, 1.0]


def _tiny_scenario():
    sp = SystemParams(N=20, clen=400, xlen=16 * 400)
    return Scenario(sysParams=sp, repairer="liquid", variant="periodic",
                    codecBackend="symbolic", failureCount=200, trials=2, seed=3)


def test_traced_run_matches_untraced_and_adds_up():
    plain = [result_row(r) for r in sim_engine.run_experiment(_tiny_scenario()).results]
    tr = Tracer()
    layers.install(tr)
    try:
        t0 = tr.clock()
        report = sim_engine.run_experiment(_tiny_scenario())
        wall = tr.clock() - t0
    finally:
        tr.restore()
    assert [result_row(r) for r in report.results] == plain
    table = layers.reduce(tr.spans, tr.counts, wall, 1)
    assert table["sim_engine.run_trial.calls"] == 2
    assert table["liquid.liquid_on_failure.calls"] == 400
    assert table["sim_engine.events_per_failure"] == 2.0
    parts = sum(table[f"{m}.self_s"] for m in layers.MODULES) + table["harness.self_s"]
    assert parts == pytest.approx(table["trace.wall_s"], rel=1e-9)
    assert table["harness.self_s"] >= 0
    assert {s[4] for s in tr.spans} >= {0, 1}


def _snapshot():
    import importlib
    snap = {}
    for mod in layers.MODULES:
        module = importlib.import_module(f"liquidsim.{mod}")
        for owner in [module] + [o for o in vars(module).values() if inspect.isclass(o)]:
            snap[id(owner)] = (owner, dict(vars(owner)))
    return snap


def test_wrappers_restore_every_original_attribute():
    before = _snapshot()
    tr = Tracer()
    layers.install(tr)
    changed = sum(1 for owner, attrs in before.values()
                  for k, v in attrs.items() if vars(owner).get(k) is not v)
    assert changed == len(tr._saved) > 50
    tr.restore()
    for owner, attrs in before.values():
        now = vars(owner)
        assert all(now.get(k) is v for k, v in attrs.items()), owner


def _row(**over):
    base = dict(trial=0, seed=1, recoverable="true", first_loss_time="",
                bits_read=LPB["failures"] * 9_000_000, bits_written=100, avg_read_rate=1.0,
                peak_read_rate=1.0, counter_min=0)
    base.update(over)
    return ",".join(str(base[c]) for c in CSV_HEADER.split(","))


def _csv(*rows):
    return "\n".join([CSV_HEADER, *rows]) + "\n"


def test_speed_probe_samples_at_most_every_interval(monkeypatch):
    monkeypatch.setattr(worker, "_probe_s", lambda: 2 * worker.REF_PROBE_S)
    speed = worker.SpeedProbe(every_s=3600.0)
    speed()                              # first hook call samples at once
    speed(None, (), {})                  # then not again within the hour
    assert len(speed.samples) == 1 and speed.spent >= 0.0
    speed.sample()                       # an explicit reading adds no spent time
    assert len(speed.samples) == 2
    assert speed.slowdown() == pytest.approx(2.0)
    unit = {"host_s": 3.0, "slowdown": 2.25}
    apb, lpb = WORKLOADS["advanced-poisson-byte"], WORKLOADS["liquid-periodic-byte"]
    assert run.at_reference_speed(apb, unit, "host_s") == pytest.approx(3.0 / 2.25)
    assert run.at_reference_speed(lpb, unit, "host_s") == pytest.approx(3.0 / 1.5)


def test_units_start_at_the_run_seed_then_spread():
    from workloads import unit_seed
    seeds = [unit_seed(7, i) for i in range(50)]
    assert seeds[0] == 7 and len(set(seeds)) == 50


def test_tampered_trial_is_counted_as_failed():
    lpb = WORKLOADS["liquid-periodic-byte"]
    good = [_row()] * lpb.trials
    assert failed_trials(lpb, _csv(*good)) == 0
    assert failed_trials(lpb, _csv(*good[1:], _row(bits_read=LPB["failures"] * 9_000_000 - 1))) == 1
    assert failed_trials(lpb, _csv(*good[1:], _row(recoverable="false"))) == 1
    assert failed_trials(lpb, _csv(*good[1:], _row(bits_read="x"))) == 1
    assert failed_trials(lpb, _csv(*good[1:])) == 1                # a row is missing
    apb = WORKLOADS["advanced-poisson-byte"]
    assert failed_trials(apb, _csv(*[_row()] * apb.trials)) == 0
    assert failed_trials(apb, _csv(*[_row(recoverable="false", counter_min=-1)] * apb.trials)) == apb.trials
    assert failed_trials(apb, "garbage") == apb.trials
    apn = WORKLOADS["advanced-periodic-n1000"]
    assert failed_trials(apn, _csv(_row(bits_read=1442778, bits_written=468753))) == 0
    assert failed_trials(apn, _csv(_row(bits_read=2 * 1442778, bits_written=468753))) == 1


def test_raising_unit_counts_all_its_trials_as_failed(tmp_path):
    def boom(seed, workdir):
        raise RuntimeError("simulated crash")

    wl = dataclasses.replace(WORKLOADS["advanced-poisson-byte"], call=boom)
    unit = worker._unit(wl, 1, tmp_path, Tracer(), {wl.store})
    assert "simulated crash" in unit["error"]
    assert failed_trials(wl, unit["csv"]) == wl.trials


def test_pin_fastest_cpu_stays_within_the_allowed_set():
    allowed = os.sched_getaffinity(0)
    try:
        worker.pin_fastest_cpu(sorted(allowed))
        pinned = os.sched_getaffinity(0)
        assert len(pinned) == 1 and pinned <= allowed
    finally:
        os.sched_setaffinity(0, allowed)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layers.METRICS]
