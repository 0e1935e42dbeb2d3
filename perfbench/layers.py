"""Per-layer metrics: which liquidsim callables are traced and how their
spans and counters reduce to the benchmark's per-layer table.

Every value is per unit of work (one workload call), averaged over the
traced units; the units' seeds follow from the run's, so call counts
repeat exactly for a seed.
"""

from __future__ import annotations

import importlib

from tracer import Tracer, percentile, public_callables, self_times

MODULES = ("gf256", "erasure", "cluster", "liquid", "advanced_liquid",
           "sim_engine", "failure_gen", "bounds", "cli")

_CS = "cluster.ClusterState"
_APR = "advanced_liquid.AdvancedPoissonRepairer"

# (metric name, unit, better); the order is the report order
METRICS = [
    ("gf256.matmul.calls", "count", "lower"),
    ("gf256.matmul.self_s", "s", "lower"),
    ("gf256.matmul.mac_bytes", "bytes", "lower"),
    ("gf256.matmul.mac_bytes_per_s", "bytes/s", "higher"),
    ("gf256.inv_matrix.calls", "count", "lower"),
    ("gf256.inv_matrix.self_s", "s", "lower"),
    ("erasure.decode.calls", "count", "lower"),
    ("erasure.decode.self_s", "s", "lower"),
    ("erasure.decode.bytes_out", "bytes", "lower"),
    ("erasure.decode.p50_ms", "ms", "lower"),
    ("erasure.decode.p99_ms", "ms", "lower"),
    ("erasure.decode.solve_share", "fraction", "lower"),
    ("erasure.decode.repeat_share", "fraction", "higher"),
    ("erasure.encode.calls", "count", "lower"),
    ("erasure.encode.self_s", "s", "lower"),
    ("erasure.encode.bytes_out", "bytes", "lower"),
]
for _m in ("store_fragment", "delete_fragment", "fail_node", "gather_fragments",
           "meter_read_spread", "meter_write_bulk", "meter_window"):
    METRICS += [(f"{_CS}.{_m}.calls", "count", "lower"),
                (f"{_CS}.{_m}.self_s", "s", "lower")]
METRICS.append(("cluster.read_log_entries", "count", "lower"))
for _f in ("liquid_store", "liquid_repair_step", "liquid_on_failure",
           "liquid_on_step_complete", "assert_liquid_invariant"):
    METRICS += [(f"liquid.{_f}.calls", "count", "lower"),
                (f"liquid.{_f}.self_s", "s", "lower")]
METRICS += [("liquid.liquid_repair_step.p50_ms", "ms", "lower"),
            ("liquid.liquid_repair_step.p99_ms", "ms", "lower")]
for _f in ("advanced_store", "advanced_repair_step", "generate_helpers",
           "move_helpers", "update_helpers", "census", "recoverable_census",
           "assert_advanced_invariant"):
    METRICS += [(f"advanced_liquid.{_f}.calls", "count", "lower"),
                (f"advanced_liquid.{_f}.self_s", "s", "lower")]
for _m in ("on_failure", "on_subop_complete"):
    METRICS += [(f"{_APR}.{_m}.calls", "count", "lower"),
                (f"{_APR}.{_m}.self_s", "s", "lower"),
                (f"{_APR}.{_m}.p50_ms", "ms", "lower"),
                (f"{_APR}.{_m}.p99_ms", "ms", "lower")]
METRICS += [
    ("advanced_liquid.steps", "count", "lower"),
    ("advanced_liquid.futile_steps", "count", "lower"),
    ("advanced_liquid.subop_abort_share", "fraction", "lower"),
    ("sim_engine.run_trial.calls", "count", "lower"),
    ("sim_engine.run_trial.self_s", "s", "lower"),
    ("sim_engine.run_experiment.calls", "count", "lower"),
    ("sim_engine.run_experiment.self_s", "s", "lower"),
    ("sim_engine.write_csv.self_s", "s", "lower"),
    ("sim_engine.write_summary.self_s", "s", "lower"),
    ("sim_engine.events_per_failure", "events/failure", "lower"),
    ("failure_gen.gen_periodic.self_s", "s", "lower"),
    ("failure_gen.gen_poisson.self_s", "s", "lower"),
    ("bounds.poisson_bounds.self_s", "s", "lower"),
    ("cli.load_scenario.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
]
# module totals plus the harness's own share add up to trace.wall_s
METRICS += [(f"{m}.self_s", "s", "lower") for m in MODULES]
METRICS += [("harness.self_s", "s", "lower"),
            ("trace.wall_s", "s", "lower"),
            ("trace.overhead_share", "fraction", "lower")]

# hook counters reported per unit under their own names
_PER_UNIT_COUNTS = ("gf256.matmul.mac_bytes", "erasure.decode.bytes_out",
                    "erasure.encode.bytes_out", "cluster.read_log_entries",
                    "advanced_liquid.steps", "advanced_liquid.futile_steps")
_LATENCIES = ("erasure.decode", "liquid.liquid_repair_step",
              f"{_APR}.on_failure", f"{_APR}.on_subop_complete")


def _share(part, whole):
    return part / whole if whole else 0.0


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _new_trial(tr, args, kwargs):
    tr.trial += 1
    tr.per_trial = {}


def _decode_key(tr, args, kwargs):
    """Count decodes that solve, and those whose (parity EFIs, missing
    columns) key repeats within the trial: the inverse-cache ceiling."""
    fragments, params = _arg(args, kwargs, 0, "fragments"), _arg(args, kwargs, 1, "params")
    if params.backend != "byte":
        return
    k = params.k
    efis = sorted(int(e) for e in fragments)
    have = {e for e in efis if e < k}
    missing = tuple(j for j in range(k) if j not in have)
    if not missing or len(efis) < k:
        return
    key = (tuple(e for e in efis if e >= k)[: len(missing)], missing)
    tr.count("decode.solves")
    seen = tr.per_trial.setdefault("decode_keys", set())
    if key in seen:
        tr.count("decode.repeats")
    seen.add(key)


def _decode_out(tr, args, kwargs, result):
    if result is not None:
        tr.count("erasure.decode.bytes_out", len(result))


def _encode_out(tr, args, kwargs, result):
    tr.count("erasure.encode.bytes_out",
             sum(len(v) for v in result.values() if v is not None))


def _matmul_macs(tr, args, kwargs):
    G, X = _arg(args, kwargs, 0, "G"), _arg(args, kwargs, 1, "X")
    tr.count("gf256.matmul.mac_bytes", G.shape[0] * G.shape[1] * X.shape[1])


def _read_log(tr, args, kwargs, result):
    tr.count("cluster.read_log_entries", len(args[0].read_log))


def _periodic_step(tr, args, kwargs, record):
    tr.count("advanced_liquid.steps")
    tr.count("advanced_liquid.futile_steps", int(record.futile))


def _chain_step(tr, args, kwargs, record):
    tr.count("subops.done")
    if record is not None:
        _periodic_step(tr, args, kwargs, record)


def _maybe_abort(tr, args, kwargs):
    rep, node = args[0], _arg(args, kwargs, 2, "node")
    if rep.subop is not None and node == rep.subop.group:
        tr.count("subops.aborted")


def _backend(tr, args, kwargs, store):
    tr.count(f"backend.{store[1].codec.backend}")


HOOKS = {
    "liquid.liquid_store": (None, _backend),
    "advanced_liquid.advanced_store": (None, _backend),
    "sim_engine.run_trial": (_new_trial, None),
    "erasure.decode": (_decode_key, _decode_out),
    "erasure.encode": (None, _encode_out),
    "gf256.matmul": (_matmul_macs, None),
    f"{_CS}.meter_window": (None, _read_log),
    "advanced_liquid.advanced_repair_step": (None, _periodic_step),
    f"{_APR}.on_subop_complete": (None, _chain_step),
    f"{_APR}.on_failure": (_maybe_abort, None),
}


def install(tracer: Tracer, names=None) -> None:
    """Wrap every public callable of MODULES, or only those named."""
    for mod in MODULES:
        module = importlib.import_module(f"liquidsim.{mod}")
        for owner, attr, name in public_callables(module):
            if names is None or name in names:
                before, after = HOOKS.get(name, (None, None))
                tracer.wrap(owner, attr, name, before=before, after=after)


def reduce(spans, counts, wall_s: float, units: int) -> dict:
    """The per-layer table from all traced units' spans and counters,
    per unit except the shares and latency percentiles; trace.overhead_share
    is left for the caller, who knows the untraced time."""
    calls: dict = {}
    self_s: dict = {}
    durs: dict = {n: [] for n in _LATENCIES}
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        if name in durs:
            durs[name].append((span[2] - span[1]) * 1e3)

    def c(key):
        return counts.get(key, 0)

    out = {}
    for name, _, _ in METRICS:
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls.get(base, 0) / units
        elif stat == "self_s" and base in MODULES:
            out[name] = sum(v for k, v in self_s.items()
                            if k.split(".", 1)[0] == base) / units
        elif stat == "self_s" and base != "harness":
            out[name] = self_s.get(base, 0.0) / units
        elif stat == "p50_ms":
            out[name] = percentile(durs[base], 50)
        elif stat == "p99_ms":
            out[name] = percentile(durs[base], 99)
    for key in _PER_UNIT_COUNTS:
        out[key] = c(key) / units
    out["gf256.matmul.mac_bytes_per_s"] = _share(
        c("gf256.matmul.mac_bytes"), self_s.get("gf256.matmul", 0.0))
    out["erasure.decode.solve_share"] = _share(
        c("decode.solves"), calls.get("erasure.decode", 0))
    out["erasure.decode.repeat_share"] = _share(c("decode.repeats"), c("decode.solves"))
    out["advanced_liquid.subop_abort_share"] = _share(
        c("subops.aborted"), c("subops.done") + c("subops.aborted"))
    failures = (calls.get("liquid.liquid_on_failure", 0)
                + calls.get("advanced_liquid.advanced_fail_node", 0))
    completions = (calls.get("liquid.liquid_on_step_complete", 0)
                   + calls.get("advanced_liquid.advanced_repair_step", 0)
                   + calls.get(f"{_APR}.on_subop_complete", 0))
    out["sim_engine.events_per_failure"] = _share(failures + completions, failures)
    out["trace.wall_s"] = wall_s / units
    out["harness.self_s"] = (wall_s - sum(self_s.values())) / units
    return out
