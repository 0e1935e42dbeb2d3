"""Configuration-driven command line: run experiments, evaluate bounds.

Scenario files are flat INI text.  All randomness flows from the single
`seed` key (overridable with --seed), so a rerun with the same file and
flags reproduces output byte for byte.

Exit codes: 0 success, 2 configuration or validation error, 3 invariant
violation during a run.  Any other exception is a simulator bug and
propagates with its traceback.
"""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

from . import bounds
from .bounds import EpsilonSet, SystemParams
from .errors import ConfigError, InvariantViolation

if TYPE_CHECKING:  # the simulator loads only for `run`
    from .sim_engine import Scenario

_REQUIRED = object()     # a default that makes the key mandatory
_TRACE = "trace.csv"     # the per-step trace `[output] trace = true` writes

# Every scenario key: {section: {key: (type, default, destination)}}.  The
# destination is a Scenario field, a field of its sysParams or eps, a field
# of the OutputSpec ("out."), or None for beta, which only derives xlen.
# Keys are case-insensitive; the spelling here is the one --dump-config
# writes, in this order, leaving out None values.
_KEYS = {
    "system": {
        "N": (int, _REQUIRED, "sysParams.N"),
        "clen": (int, _REQUIRED, "sysParams.clen"),
        "xlen": (int, None, "sysParams.xlen"),
        "beta": (float, None, None),
        "vlen": (int, 0, "sysParams.vlen"),
        "lambda": (float, 0.0, "sysParams.lam"),
    },
    "repairer": {
        "kind": (str, "liquid", "repairer"),
        "variant": (str, "periodic", "variant"),
        "eps_c": (float, 0.1, "eps.epsC"),
        "eps_d": (float, 0.1, "eps.epsD"),
        "eps": (float, 0.1, "eps.eps"),
        "period": (float, 1.0, "period"),
        "r": (int, None, "advancedR"),
        "step_duration": (float, None, "stepDuration"),
    },
    "codec": {"backend": (str, "auto", "codecBackend")},
    "run": {
        "failures": (int, 0, "failureCount"),
        "trials": (int, 1, "trials"),
        "seed": (int, 0, "seed"),
        "assert_every": (int, 1, "assertEvery"),
        "fault_injection": (bool, False, "faultInjection"),
        "peak_window": (float, None, "peakWindow"),
    },
    "output": {
        "csv": (str, "results.csv", "out.csv"),
        "summary": (str, "summary.jsonl", "out.summary"),
        "trace": (bool, False, "out.trace"),
    },
}


@dataclass(frozen=True)
class OutputSpec:
    csv: str        # defaults in _KEYS
    summary: str
    trace: bool


def _key_lines(text: str) -> dict:
    """Map (section, key) and ("[section]", name) to 1-based line numbers."""
    found = {}
    section = None
    for i, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            found.setdefault(("[section]", section), i)
            continue
        cut = min((p for p in (line.find("="), line.find(":")) if p >= 0),
                  default=-1)
        if cut > 0 and section is not None:
            found.setdefault((section, line[:cut].strip().lower()), i)
    return found


def _sections(cp: configparser.ConfigParser, lines: dict, path: str) -> dict:
    """{section: name in the file}; rejects unknown sections and keys and
    sections that differ only in case."""
    names, problems = {}, []
    for name in cp.sections():
        s = name.lower()
        if s in names:
            raise ConfigError(f"{path}: sections [{names[s]}] and [{name}] "
                              f"differ only in case")
        names[s] = name
        if s not in _KEYS:
            n = lines.get(("[section]", s), "?")
            problems.append(f"{path}:{n}: unknown section [{name}]")
            continue
        known = {key.lower() for key in _KEYS[s]}
        for key in cp.options(name):
            if key not in known:
                n = lines.get((s, key), "?")
                problems.append(f"{path}:{n}: unknown key '{key}' in "
                                f"[{name}]")
    if problems:
        raise ConfigError("; ".join(problems))
    return names


def load_scenario(path) -> tuple:
    """Parse and validate a scenario file; returns (Scenario, OutputSpec)."""
    from .sim_engine import Scenario

    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e})") from None
    # "[]" does not parse, so [DEFAULT] is an ordinary, unknown section
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   default_section="")
    cp.read_string(text, source=str(path))
    lines = _key_lines(text)
    names = _sections(cp, lines, str(path))
    if "system" not in names:
        raise ConfigError(f"{path}: missing [system] section")

    get = {int: cp.getint, float: cp.getfloat, bool: cp.getboolean,
           str: cp.get}
    # destination object ("" for Scenario) -> {field: value}
    got = {"": {}, "sysParams": {}, "eps": {}, "out": {}}
    for s, keys in _KEYS.items():
        name = names.get(s)
        given = cp.options(name) if name else ()
        for key, (kind, default, dest) in keys.items():
            key = key.lower()
            try:
                value = (get[kind](name, key)
                         if key in given or default is _REQUIRED else default)
            except ValueError as e:     # a malformed value, not a missing one
                raise ConfigError(f"{path}:{lines.get((s, key), '?')}: "
                                  f"'{key}' in [{s}]: {e}") from None
            if dest is None:        # beta only derives xlen
                beta = value
                continue
            obj, _, field = dest.rpartition(".")
            got[obj][field] = value

    sp = got["sysParams"]
    if sp["xlen"] is not None and beta is not None:
        raise ConfigError(
            f"{path}: [system] must give exactly one of 'xlen' and 'beta' "
            f"(xlen at line {lines.get(('system', 'xlen'), '?')}, "
            f"beta at line {lines.get(('system', 'beta'), '?')})")
    if sp["xlen"] is None:
        if beta is None:
            raise ConfigError(f"{path}: [system] needs 'xlen' or 'beta'")
        if not 0.0 < beta < 1.0:
            raise ConfigError(f"{path}: beta must be in (0, 1)")
        sp["xlen"] = round((1.0 - beta) * sp["N"]) * sp["clen"]
    sp = SystemParams(**sp)

    # checked here, so a name that cannot be written, or that another
    # output file takes, fails before a trial
    files = {_TRACE: "trace"} if got["out"]["trace"] else {}
    for key in ("csv", "summary"):
        name, at = got["out"][key], lines.get(("output", key), "?")
        if name in ("", ".", "..") or Path(name).name != name:
            raise ConfigError(f"{path}:{at}: '{key}' in [output] must be a "
                              f"plain file name, got {name!r}")
        if name in files:
            raise ConfigError(
                f"{path}:{at}: '{key}' in [output] names {name!r}, which "
                f"'{files[name]}' at line "
                f"{lines.get(('output', files[name]), '?')} writes too")
        files[name] = key
    out = OutputSpec(**got["out"])

    scenario = Scenario(sysParams=sp, eps=EpsilonSet(**got["eps"]),
                        collectTrace=out.trace, **got[""])
    return scenario, out


def dump_config(scenario: Scenario, out: OutputSpec) -> str:
    """Canonical scenario text; load_scenario on it reproduces the inputs."""
    objs = {"": scenario, "sysParams": scenario.sysParams,
            "eps": scenario.eps, "out": out}
    lines = []
    for section, keys in _KEYS.items():
        lines.append(f"[{section}]")
        for key, (_, _, dest) in keys.items():
            if dest is None:
                continue
            obj, _, field = dest.rpartition(".")
            value = getattr(objs[obj], field)
            if value is not None:
                text = str(value).lower() if isinstance(value, bool) else value
                lines.append(f"{key} = {text}")
        lines.append("")
    return "\n".join(lines)


def _write_trace(path, results) -> None:
    with open(path, "w") as fh:
        fh.write("trial,time,event,counter,bits_read,bits_written\n")
        for res in results:
            for t, kind, counter, br, bw in res.perStepTrace or ():
                fh.write(f"{res.trial},{t!r},{kind},{counter},{br},{bw}\n")


def cmd_run(args) -> int:
    # "%(message)s" keeps warnings as they print with no handler configured
    logging.basicConfig(level=args.log_level.upper(), format="%(message)s")
    most = os.cpu_count() or 1
    if not 1 <= args.jobs <= most:
        raise ConfigError(f"--jobs must be in [1, {most}], got {args.jobs}")
    scenario, out = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if args.trials is not None:
        scenario = replace(scenario, trials=args.trials)
    if args.dump_config:
        sys.stdout.write(dump_config(scenario, out))
        return 0

    from . import sim_engine

    report = sim_engine.run_experiment(scenario, jobs=args.jobs)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / out.csv
    sim_engine.write_csv(csv_path, report.results)
    sim_engine.write_summary(outdir / out.summary, report)
    if out.trace:
        _write_trace(outdir / _TRACE, report.results)
    print(f"trials={len(report.results)} "
          f"unrecoverable_fraction={report.unrecoverableFraction!r} "
          f"csv={csv_path}")
    return 0


def _beta_sweep(arg: str) -> int:
    try:
        betas = [float(x) for x in arg.split(",") if x.strip()]
    except ValueError as e:
        raise ConfigError(f"--sweep-beta: {e}") from None
    if not betas:
        raise ConfigError("empty sweep list")
    print(f"{'beta':>10} {'readRatio':>14} {'limit 1/(2b)':>14}")
    rows = []
    for b in betas:
        if not 0.0 < b < 0.5:
            raise ConfigError(f"sweep beta {b} outside (0, 0.5)")
        ratio = (1.0 - b) / bounds.lni(2.0 * b)
        rows.append({"beta": b, "readRatio": ratio, "limit": 1.0 / (2.0 * b)})
        print(f"{b:>10.4g} {ratio:>14.6g} {1.0 / (2.0 * b):>14.6g}")
    print(json.dumps({"sweep": rows}, sort_keys=True))
    return 0


def cmd_bounds(args) -> int:
    if args.sweep_beta:
        return _beta_sweep(args.sweep_beta)
    if args.beta is None:
        raise ConfigError("--beta is required (or use --sweep-beta)")
    sys_p, phase = bounds.phase_from_overhead(args.N, args.clen, args.beta,
                                              vlen=args.vlen, lam=args.lam)
    eps = EpsilonSet(args.eps_c, args.eps_d, args.eps)
    rep = bounds.poisson_bounds(sys_p, phase, eps)

    table = {"N": sys_p.N, "clen": sys_p.clen, "xlen": sys_p.xlen,
             "olen": phase.olen, "F": phase.F, "betaPrime": phase.betaPrime,
             "M": phase.M, **rep.summary()}
    for name, value in table.items():
        print(f"{name:<22} {value!r}")
    print(json.dumps(bounds.json_safe(table), sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liquidsim",
        description="Repair-traffic simulator and bound calculator for "
                    "erasure-coded storage under random node failures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("--scenario", required=True, help="scenario file path")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--trials", type=int, default=None,
                       help="override the trial count")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="worker processes for trials")
    p_run.add_argument("--dump-config", action="store_true",
                       help="echo the parsed scenario and exit")
    p_run.add_argument("--log-level", default="warning",
                       choices=("warning", "info", "debug"),
                       help="log messages at this level and above to stderr "
                            "(info names the GF(256) kernel, debug also "
                            "the object it is loaded from)")
    p_run.set_defaults(func=cmd_run)

    p_b = sub.add_parser("bounds", help="evaluate the bound report")
    p_b.add_argument("--N", type=int, default=100)
    p_b.add_argument("--clen", type=int, default=10 ** 6)
    p_b.add_argument("--beta", type=float, default=None)
    p_b.add_argument("--vlen", type=int, default=0)
    p_b.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p_b.add_argument("--eps-c", dest="eps_c", type=float, default=0.1)
    p_b.add_argument("--eps-d", dest="eps_d", type=float, default=0.1)
    p_b.add_argument("--eps", type=float, default=0.1)
    p_b.add_argument("--sweep-beta", default=None,
                     help="comma-separated beta' list; prints the "
                          "read-ratio table instead of a full report")
    p_b.set_defaults(func=cmd_bounds)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, configparser.Error, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except InvariantViolation as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
