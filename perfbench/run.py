"""liquidsim benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree; liquidsim is imported from its ``src``.
Every measurement happens in a fresh single process (see worker.py):

* ``--trace 0`` times the set-up step (import plus initial store build) in
  several fresh processes, then repeats the workload's unit of work for
  ``--seconds`` in one more, and reports the end-to-end metrics;
* ``--trace 1`` repeats the untraced measurement, then traces every public
  function and method of liquidsim's modules from outside in a separate
  process, and reports the per-layer metrics.

On a shared virtual machine another tenant's load slows a vCPU by up to
1.8x, in phases of seconds to minutes, so raw times of the same code spread
by a third from run to run.  The worker times a short probe loop now and
then beside the program (see worker.SpeedProbe), and times are given at a
reference speed: divided by the slowdown the probe shows against its fixed
reference time.  What remains spreads by a few per cent.  That holds for
workloads whose time goes to the interpreter, as the probe's does; time
spent in numpy's loops slows down less, so such a workload divides by a
power of the slowdown below one (see Workload.probe_elasticity).

failures_per_s is the failures of all timed units over their host time at
the reference speed, set-up (the store builds inside each unit) and the
probes excluded.  The units run different seeds (see workloads.py), so the
rate averages over many trials.  setup_s is the median over fresh
processes of the import plus one store build, at the reference speed.  The
raw rates and set-up times are printed beside them.

Every trial's CSV row is checked (see workloads.py); at a seed recorded in
expected.json the CSV and summary must also match byte for byte, and a
traced run must produce the same bytes as the untraced one.  The line before
the last one describes the run (workload parameters, environment, samples);
the last line is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5        # counted fresh-process set-up probes, after one warm-up
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "failures_per_s": "failures/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "read_bits_per_failure": "bits",
    "write_bits_per_failure": "bits",
}


class BenchError(RuntimeError):
    pass


def at_reference_speed(wl, sample: dict, key: str) -> float:
    """A time the worker measured, over the slowdown read beside it raised
    to the workload's elasticity."""
    return sample[key] / sample["slowdown"] ** wl.probe_elasticity


def _worker(args, timeout=WORKER_TIMEOUT_S) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker {args[:2]} exceeded {timeout}s") from e
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {args[:2]} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _expected(name: str, seed: int):
    table = json.loads((HERE / "expected.json").read_text())
    return table.get(name, {}).get(str(seed))


def run(name: str, seed: int, seconds: int, trace: bool):
    wl = WORKLOADS[name]
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    setups = []
    if not trace:
        _worker(["setup", name, seed])            # fills the bytecode cache
        setups = [_worker(["setup", name, seed]) for _ in range(SETUP_PROBES)]
    plain = _worker(["measure", name, seed, seconds, 0, outdir])
    if plain["src"] != str(ROOT / "src"):
        raise BenchError(f"liquidsim imported from {plain['src']}, not this tree")
    runs = [plain]
    if trace:
        runs.append(_worker(["measure", name, seed, max(1, seconds // 3), 1, outdir]))

    expected = _expected(name, seed)
    prints = plain["fingerprints"]     # the warm-up's, then each unit's
    checks = {
        "replay_identical": prints[0] == prints[1],
        "traced_equals_untraced": all(
            r["fingerprints"] == prints[:len(r["fingerprints"])] for r in runs),
        "matches_recorded_seed": expected in (None, prints[0]),
    }
    attempted = sum(r["trials_attempted"] for r in runs)
    failed = sum(r["trials_failed"] for r in runs)

    if not all(r["units"] for r in runs):
        raise BenchError("every unit of work raised; see the worker's stderr")
    walls = [u["wall_s"] for u in plain["units"]]
    rates = [wl.failures_per_unit / u["host_s"] for u in plain["units"]]
    if trace:
        traced = runs[1]
        metrics = dict(traced["layers"])
        pairs = list(zip(traced["units"], plain["units"]))   # same seeds
        metrics["trace.overhead_share"] = (sum(t["wall_s"] for t, _ in pairs)
                                           / sum(p["wall_s"] for _, p in pairs))
        units = {n: u for n, u, _ in layers.METRICS}
    else:
        metrics = {
            "failures_per_s": wl.failures_per_unit / statistics.fmean(
                at_reference_speed(wl, u, "host_s") for u in plain["units"]),
            "setup_s": statistics.median(
                at_reference_speed(wl, s, "wall_s") for s in setups),
            "peak_rss_mb": plain["peak_rss_mb"],
            "read_bits_per_failure": plain["bits_read"] / wl.failures_per_unit,
            "write_bits_per_failure": plain["bits_written"] / wl.failures_per_unit,
        }
        units = END_TO_END
    info = {
        "workload": name, "seed": seed, "why": wl.why, "params": wl.params,
        "expected_moves": wl.moves, "environment": plain["environment"],
        "samples": {"units": len(walls), "unit_wall_s": walls,
                    "failures_per_unit": wl.failures_per_unit,
                    "raw_unit_rate_quartiles": statistics.quantiles(rates, n=4),
                    "unit_slowdowns": [u["slowdown"] for u in plain["units"]],
                    "raw_setup_s": [s["wall_s"] for s in setups],
                    "setup_slowdowns": [s["slowdown"] for s in setups]},
        "trials_failed_share": failed / attempted,
        "checks": checks, "fingerprint": prints[0],
        "spans_file": runs[-1].get("spans_file"),
    }
    result = {
        "correct": failed == 0 and all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return info, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "liquidsim" / "__init__.py").is_file():
        print(f"perfbench: no liquidsim package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds < 1 or args.seed < 0:
        print("perfbench: need --seconds >= 1 and --seed >= 0", file=sys.stderr)
        return 2
    try:
        info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
