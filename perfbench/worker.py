"""One fresh benchmark process: a set-up probe or a measurement.

    python3 worker.py setup   <workload> <seed>
    python3 worker.py measure <workload> <seed> <seconds> <traced 0|1> <outdir>

Prints one JSON line.  ``run.py`` starts these with liquidsim's ``src`` on
PYTHONPATH and aggregates their output.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from importlib.util import find_spec
from pathlib import Path


# The probe's time on an uncontended vCPU of the machine the benchmark was
# defined on (Intel Xeon, 2 vCPUs, Python 3.11): a fixed scale, the same
# for every run, so that times can be given at that speed.
REF_PROBE_S = 0.6e-3


def _probe_s() -> float:
    """Time a short fixed loop of interpreter work (about a millisecond)."""
    t0 = time.perf_counter()
    table, acc = {}, 0
    for i in range(4000):
        table[i & 1023] = acc
        acc += table.get((i * 7) & 1023, 0) & 0xFFFF
    return time.perf_counter() - t0


class SpeedProbe:
    """How much slower than REF_PROBE_S this vCPU runs the probe now.

    On a shared virtual machine another tenant's load slows a vCPU by up
    to 1.8x, in phases of seconds to minutes, so a run of 30 s may meet no
    uncontended moment at all.  The same loop timed now and then beside
    an interpreter-bound program slows down with it, to within a few per
    cent; numpy-bound work follows it less (Workload.probe_elasticity).
    ``sample`` takes one reading; calling the object, as a hook at each
    simulated event, takes one when ``every_s`` has passed since the last
    and adds the time it took to ``spent``, for the caller to take out.
    """

    def __init__(self, every_s: float = 0.05):
        self.every_s = every_s
        self.samples: list = []
        self.spent = 0.0
        self.last = -math.inf

    def sample(self) -> None:
        self.samples.append(_probe_s())
        self.last = time.perf_counter()

    def __call__(self, *hook_args) -> None:
        now = time.perf_counter()
        if now - self.last >= self.every_s:
            self.sample()
            self.spent += self.last - now

    def slowdown(self) -> float:
        return statistics.fmean(self.samples) / REF_PROBE_S


def pin_fastest_cpu(cpus) -> None:
    """Pin this process to the one of cpus that runs a probe fastest now.

    The slow phases of two vCPUs are unrelated, so the faster one is the
    less disturbed one for the next few seconds.
    """
    best = None
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        _probe_s()                        # first run after the move warms up
        t = min(_probe_s() for _ in range(5))
        if best is None or t < best[0]:
            best = (t, cpu)
    os.sched_setaffinity(0, {best[1]})


def setup(name: str, seed: int) -> dict:
    """Import liquidsim and build the workload's initial store, timed, and
    the vCPU's slowdown read just before and just after."""
    pin_fastest_cpu(sorted(os.sched_getaffinity(0)))
    speed = SpeedProbe()
    for _ in range(3):
        speed.sample()
    t0 = time.perf_counter()
    import liquidsim  # noqa: F401  (the import is part of set-up)
    from workloads import WORKLOADS
    WORKLOADS[name].build_store(seed)
    wall = time.perf_counter() - t0
    for _ in range(3):
        speed.sample()
    return {"wall_s": wall, "slowdown": speed.slowdown()}


def environment() -> dict:
    import numpy
    from liquidsim import gf256
    model, flags = "", set()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and not model:
                    model = value.strip()
                elif key.strip() == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    return {
        "gf_kernel": "numpy" if gf256.matmul is gf256._matmul_numpy else "numba",
        "numba_importable": find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": model,
        "cpu_flags": sorted(flags & {"avx2", "avx512bw", "gfni"}),
        "nproc": len(os.sched_getaffinity(0)),
    }


def wrap_events(tracer, hook) -> None:
    """Run hook before each simulated event: the simulation drivers'
    on_failure and on_completion calls, made by sim_engine.run_trial."""
    from liquidsim import sim_engine
    for cls in vars(sim_engine).values():
        if inspect.isclass(cls):
            for attr in ("on_failure", "on_completion"):
                if attr in vars(cls):
                    tracer.wrap(cls, attr, "sim_engine.event", before=hook)


def _unit(wl, seed, workdir, tracer, names):
    """One timed workload call with names (None: every layer) traced.

    When only some layers are named, the vCPU's speed is also sampled at
    simulated events, and the samples' time is left out of host_s.
    A call that raises yields no CSV, so all its trials count as failed.
    """
    import layers
    first = len(tracer.spans)
    speed = SpeedProbe()
    layers.install(tracer, names)
    if names is not None:
        wrap_events(tracer, speed)
    error = None
    speed.sample()
    t0 = time.perf_counter()
    try:
        raw = wl.call(seed, workdir)
    except Exception:  # the run goes on and reports the unit as failed
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    finally:
        wall = time.perf_counter() - t0
        tracer.restore()
    speed.sample()
    store_s = sum(s[2] - s[1] for s in tracer.spans[first:] if s[0] == wl.store)
    csv, summary = wl.outputs(raw, workdir) if error is None else ("", "")
    return {"wall_s": wall, "store_s": store_s,
            "host_s": wall - store_s - speed.spent, "slowdown": speed.slowdown(),
            "csv": csv, "summary": summary, "error": error}


def measure(name: str, seed: int, seconds: float, traced: bool,
            outdir: Path) -> dict:
    import layers
    from tracer import Tracer
    from workloads import WORKLOADS, failed_trials, parse_csv, unit_seed

    import liquidsim
    src = Path(liquidsim.__file__).resolve().parent.parent
    env = environment()   # before any wrapper replaces gf256.matmul
    cpus = sorted(os.sched_getaffinity(0))
    wl = WORKLOADS[name]
    workdir = outdir / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl.prepare(seed, workdir)
        store_only = Tracer()
        pin_fastest_cpu(cpus)
        warm = _unit(wl, seed, workdir, store_only, {wl.store})
        env["codec_backend"] = next(
            (k.split(".", 1)[1] for k in store_only.counts
             if k.startswith("backend.")), None)
        tracer = Tracer()
        names = None if traced else {wl.store}
        units = []
        start = time.perf_counter()
        while (len(units) < (1 if traced else 3)
               or time.perf_counter() - start < seconds):
            useed = unit_seed(seed, len(units))
            wl.prepare(useed, workdir)
            pin_fastest_cpu(cpus)
            # untraced units get a tracer each: event spans need not pile up
            units.append(_unit(wl, useed, workdir,
                               tracer if traced else Tracer(), names))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = [warm] + units
    rows = parse_csv(warm["csv"])
    out = {
        "src": str(src),
        "environment": env,
        "fingerprints": [hashlib.sha256((u["csv"] + u["summary"]).encode()).hexdigest()
                         for u in done],
        "trials_attempted": wl.trials * len(done),
        "trials_failed": sum(failed_trials(wl, u["csv"]) for u in done),
        "bits_read": sum(int(r["bits_read"]) for r in rows),
        "bits_written": sum(int(r["bits_written"]) for r in rows),
        "units": [{k: u[k] for k in ("wall_s", "store_s", "host_s", "slowdown")}
                  for u in units if u["error"] is None],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        wall = sum(u["wall_s"] for u in units)
        out["layers"] = layers.reduce(tracer.spans, tracer.counts, wall, len(units))
        out["spans_file"] = str(_write_spans(tracer.spans, outdir / f"{name}.spans.csv"))
    return out


def _write_spans(spans, path: Path) -> Path:
    with open(path, "w") as fh:
        fh.write("index,name,start,end,parent,trial\n")
        for i, (name, start, end, parent, trial) in enumerate(spans):
            fh.write(f"{i},{name},{start!r},{end!r},{parent},{trial}\n")
    return path


def main(argv) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        result = setup(name, seed)
    else:
        result = measure(name, seed, float(argv[3]), argv[4] == "1", Path(argv[5]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
