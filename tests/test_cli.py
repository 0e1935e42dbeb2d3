"""CLI tests: parsing, exit codes, output files, dump-config round trip."""

import contextlib
import io
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liquidsim import cli, sim_engine
from liquidsim.cli import dump_config, load_scenario, main
from liquidsim.errors import ConfigError
from liquidsim.sim_engine import CSV_HEADER

LIQUID_PERIODIC = """\
[system]
N = 10
clen = 160
beta = 0.2

[repairer]
kind = liquid
variant = periodic

[run]
failures = 20
trials = 2
seed = 5

[output]
csv = out.csv
"""

ADVANCED_POISSON = """\
[system]
N = 20
clen = 90          # r*N + r(r+1)/2 fragment units
beta = 0.25
lambda = 0.05

[repairer]
kind = advancedLiquid
variant = poisson
eps = 0.3
r = 4

[codec]
backend = symbolic

[run]
failures = 60
trials = 2
seed = 9
peak_window = 2.0
"""

# --dump-config of the two scenarios above, byte for byte
LIQUID_PERIODIC_DUMP = """\
[system]
N = 10
clen = 160
xlen = 1280
vlen = 0
lambda = 0.0

[repairer]
kind = liquid
variant = periodic
eps_c = 0.1
eps_d = 0.1
eps = 0.1
period = 1.0

[codec]
backend = auto

[run]
failures = 20
trials = 2
seed = 5
assert_every = 1
fault_injection = false

[output]
csv = out.csv
summary = summary.jsonl
trace = false
"""

ADVANCED_POISSON_DUMP = """\
[system]
N = 20
clen = 90
xlen = 1350
vlen = 0
lambda = 0.05

[repairer]
kind = advancedLiquid
variant = poisson
eps_c = 0.1
eps_d = 0.1
eps = 0.3
period = 1.0
r = 4

[codec]
backend = symbolic

[run]
failures = 60
trials = 2
seed = 9
assert_every = 1
fault_injection = false
peak_window = 2.0

[output]
csv = results.csv
summary = summary.jsonl
trace = false
"""

# every scenario key, each off its default; xlen and beta give the same
# source size, and a file takes one of them
EVERY_KEY = {
    "system": {"N": "20", "clen": "90", "xlen": "1350", "beta": "0.25",
               "vlen": "7", "lambda": "0.05"},
    "repairer": {"kind": "advancedLiquid", "variant": "poisson",
                 "eps_c": "0.2", "eps_d": "0.15", "eps": "0.3",
                 "period": "2.5", "r": "4", "step_duration": "0.5"},
    "codec": {"backend": "symbolic"},
    "run": {"failures": "7", "trials": "3", "seed": "9",
            "assert_every": "2", "fault_injection": "true",
            "peak_window": "2.0"},
    "output": {"csv": "a.csv", "summary": "b.jsonl", "trace": "true"},
}


def scenario_file(tmp_path, text, name="scenario.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadScenario:

    def test_liquid_periodic_parses(self, tmp_path):
        sc, out = load_scenario(scenario_file(tmp_path, LIQUID_PERIODIC))
        assert sc.sysParams.N == 10
        assert sc.sysParams.xlen == 8 * 160
        assert sc.repairer == "liquid"
        assert sc.failureCount == 20
        assert sc.trials == 2
        assert out.csv == "out.csv"

    def test_advanced_poisson_parses(self, tmp_path):
        sc, out = load_scenario(scenario_file(tmp_path, ADVANCED_POISSON))
        assert sc.repairer == "advancedLiquid"
        assert sc.variant == "poisson"
        assert sc.advancedR == 4
        assert sc.eps.eps == 0.3
        assert sc.peakWindow == 2.0
        assert sc.sysParams.lam == 0.05

    def test_both_xlen_and_beta_rejected(self, tmp_path):
        text = LIQUID_PERIODIC.replace("beta = 0.2", "beta = 0.2\nxlen = 1280")
        with pytest.raises(Exception) as err:
            load_scenario(scenario_file(tmp_path, text))
        msg = str(err.value)
        assert "xlen" in msg and "beta" in msg
        assert "line 4" in msg or "line 5" in msg

    def test_neither_xlen_nor_beta_rejected(self, tmp_path):
        text = LIQUID_PERIODIC.replace("beta = 0.2\n", "")
        with pytest.raises(Exception):
            load_scenario(scenario_file(tmp_path, text))

    def test_unknown_key_names_line(self, tmp_path):
        text = LIQUID_PERIODIC.replace("[run]", "[run]\nwarmup = 3")
        f = scenario_file(tmp_path, text)
        with pytest.raises(Exception) as err:
            load_scenario(f)
        assert "warmup" in str(err.value)
        lineno = text.splitlines().index("warmup = 3") + 1
        assert f":{lineno}:" in str(err.value)

    def test_unknown_section_rejected(self, tmp_path):
        text = LIQUID_PERIODIC + "\n[plotting]\nstyle = dark\n"
        with pytest.raises(Exception) as err:
            load_scenario(scenario_file(tmp_path, text))
        assert "plotting" in str(err.value)

    def test_default_section_is_an_unknown_section(self, tmp_path):
        # configparser would lend [DEFAULT]'s keys to every other section
        f = scenario_file(tmp_path,
                          "[DEFAULT]\nseed = 3\n\n" + LIQUID_PERIODIC, "dflt.ini")
        with pytest.raises(ConfigError) as err:
            load_scenario(f)
        assert str(err.value) == f"{f}:1: unknown section [DEFAULT]"

    def test_dump_config_round_trip(self, tmp_path):
        first = load_scenario(scenario_file(tmp_path, ADVANCED_POISSON))
        echoed = scenario_file(tmp_path, dump_config(*first), "echo.ini")
        assert load_scenario(echoed) == first

    @pytest.mark.parametrize("text,dumped", [
        (LIQUID_PERIODIC, LIQUID_PERIODIC_DUMP),
        (ADVANCED_POISSON, ADVANCED_POISSON_DUMP)],
        ids=["liquid_periodic", "advanced_poisson"])
    def test_dump_config_text(self, tmp_path, text, dumped):
        assert dump_config(*load_scenario(scenario_file(tmp_path, text))) \
            == dumped

    @pytest.mark.parametrize("left_out", ["beta", "xlen"])
    def test_every_key_round_trips(self, tmp_path, left_out):
        assert {s: list(keys) for s, keys in EVERY_KEY.items()} == \
            {s: list(keys) for s, keys in cli._KEYS.items()}
        text = "".join(f"[{s}]\n" + "".join(f"{key} = {value}\n"
                                            for key, value in keys.items()
                                            if key != left_out)
                       for s, keys in EVERY_KEY.items())
        first = load_scenario(scenario_file(tmp_path, text))
        dumped = dump_config(*first)
        second = load_scenario(scenario_file(tmp_path, dumped, "echo.ini"))
        assert second == first
        assert dump_config(*second) == dumped
        # every key but beta lands where the dump finds it, off its default
        for s, keys in cli._KEYS.items():
            for key, (_, default, dest) in keys.items():
                value = EVERY_KEY[s][key]
                assert value != str(default).lower(), key
                assert (f"{key} = {value}" in dumped.splitlines()) \
                    == (dest is not None), key

    @pytest.mark.parametrize("section", ["Run", "SYSTEM"])
    def test_section_names_are_case_insensitive(self, tmp_path, section):
        # [Run] once passed the unknown-section check and was then ignored
        text = LIQUID_PERIODIC.replace(f"[{section.lower()}]", f"[{section}]")
        sc, out = load_scenario(scenario_file(tmp_path, text))
        assert (sc.failureCount, sc.trials, sc.seed) == (20, 2, 5)
        assert (sc, out) == load_scenario(
            scenario_file(tmp_path, LIQUID_PERIODIC, "lower.ini"))

    def test_sections_differing_only_in_case_exit_two(self, tmp_path,
                                                      capsys):
        f = scenario_file(tmp_path, LIQUID_PERIODIC + "\n[Run]\nseed = 6\n")
        with pytest.raises(ConfigError, match=r"\[run\] and \[Run\]"):
            load_scenario(f)
        assert main(["run", "--scenario", str(f), "--out",
                     str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "o").exists()

    def test_readme_scenario_block_lists_every_key(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md"
                  ).read_text(encoding="utf-8")
        block = readme.split("### Scenario files", 1)[1]
        block = block.split("```ini\n", 1)[1].split("```", 1)[0]
        for s, keys in cli._KEYS.items():
            section = block.split(f"[{s}]\n", 1)[1].split("\n[", 1)[0]
            for key in keys:
                assert re.search(rf"^[#\s]*{key}\s*=", section,
                                 re.M | re.I), (s, key)
        load_scenario(scenario_file(tmp_path, block))


class TestCmdRun:

    def test_valid_scenario_exit_zero(self, tmp_path, capsys):
        f = scenario_file(tmp_path, LIQUID_PERIODIC)
        assert main(["run", "--scenario", str(f), "--out",
                     str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "out.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert (tmp_path / "o" / "summary.jsonl").exists()
        assert "trials=2" in capsys.readouterr().out

    def _run_fresh(self, tmp_path, *flags):
        """`liquidsim run` on a byte scenario in a fresh interpreter: the
        log configuration is per process, and in this one pytest's log
        capture already holds the root logger."""
        text = LIQUID_PERIODIC.replace("[run]", "[codec]\nbackend = byte\n\n[run]")
        f = scenario_file(tmp_path, text)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                          env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "liquidsim", "run", "--scenario", str(f),
             "--out", str(tmp_path / "o"), *flags],
            env=env, capture_output=True, text=True, timeout=120)

    @pytest.mark.skipif(shutil.which("cc") is None,
                        reason="no C compiler: the numpy kernel warns instead")
    def test_log_level_info_names_gf_kernel(self, tmp_path):
        proc = self._run_fresh(tmp_path, "--log-level", "info")
        assert proc.returncode == 0, proc.stderr
        assert "GF(256) kernel: " in proc.stderr
        assert "GF(256) kernel object: " not in proc.stderr
        assert "trials=2" in proc.stdout

    @pytest.mark.skipif(shutil.which("cc") is None,
                        reason="no C compiler: the numpy kernel warns instead")
    def test_log_level_debug_names_gf_kernel_object(self, tmp_path):
        proc = self._run_fresh(tmp_path, "--log-level", "debug")
        assert proc.returncode == 0, proc.stderr
        assert "GF(256) kernel: " in proc.stderr
        assert "GF(256) kernel object: " in proc.stderr

    def test_default_log_level_prints_no_info(self, tmp_path):
        proc = self._run_fresh(tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "GF(256) kernel: " not in proc.stderr

    def test_unknown_log_level_exit_two(self, tmp_path, capsys):
        f = scenario_file(tmp_path, LIQUID_PERIODIC)
        with pytest.raises(SystemExit) as err:
            main(["run", "--scenario", str(f), "--log-level", "verbose"])
        assert err.value.code == 2
        assert "--log-level" in capsys.readouterr().err

    def test_config_error_exit_two(self, tmp_path, capsys):
        text = LIQUID_PERIODIC.replace("beta = 0.2", "beta = 0.2\nxlen = 1280")
        f = scenario_file(tmp_path, text)
        assert main(["run", "--scenario", str(f)]) == 2
        err = capsys.readouterr().err
        assert "xlen" in err and "beta" in err

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["run", "--scenario", str(tmp_path / "nope.ini")]) == 2

    def test_non_utf8_scenario_exit_two(self, tmp_path, capsys):
        f = tmp_path / "bin.ini"
        f.write_bytes(b"\xff\xfe[system]\n")
        assert main(["run", "--scenario", str(f), "--out",
                     str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(f) in err
        assert "UTF-8" in err

    @pytest.mark.parametrize("key,name", [
        ("csv", ""), ("csv", "sub/x.csv"), ("summary", ""),
        ("summary", "sub/s.jsonl"), ("csv", "."), ("summary", ".."),
        ("csv", "/abs.csv")],
        ids=["empty_csv", "csv_in_dir", "empty_summary", "summary_in_dir",
             "csv_dot", "summary_dotdot", "csv_absolute"])
    def test_unusable_output_name_exit_two_before_trials(
            self, tmp_path, capsys, monkeypatch, key, name):
        def no_run(*a, **kw):
            raise AssertionError("trials ran")
        monkeypatch.setattr(sim_engine, "run_experiment", no_run)
        f = scenario_file(tmp_path, set_key(LIQUID_PERIODIC, "output", key,
                                            name))
        assert main(["run", "--scenario", str(f), "--out",
                     str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"'{key}'" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("values,key,other", [
        ({"csv": "out.txt", "summary": "out.txt"}, "summary", "csv"),
        ({"csv": "trace.csv", "trace": "true"}, "csv", "trace"),
        ({"summary": "trace.csv", "trace": "true"}, "summary", "trace")],
        ids=["csv_summary", "csv_trace", "summary_trace"])
    def test_clashing_output_names_exit_two_before_trials(
            self, tmp_path, capsys, monkeypatch, values, key, other):
        def no_run(*a, **kw):
            raise AssertionError("trials ran")
        monkeypatch.setattr(sim_engine, "run_experiment", no_run)
        text = LIQUID_PERIODIC
        for k, v in values.items():
            text = set_key(text, "output", k, v)
        f = scenario_file(tmp_path, text)
        assert main(["run", "--scenario", str(f), "--out",
                     str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        at = {k: text.splitlines().index(f"{k} = {v}") + 1
              for k, v in values.items()}
        assert f"{f}:{at[key]}: '{key}' in [output]" in err
        assert f"'{other}' at line {at[other]}" in err
        assert not (tmp_path / "o").exists()
        if "trace" in values:   # trace.csv is free while no trace is written
            load_scenario(scenario_file(
                tmp_path, set_key(text, "output", "trace", "false"), "off.ini"))

    @pytest.mark.parametrize("old,new", [
        ("N = 10", "N = ten"),
        ("seed = 5", "seed = 5.5"),
        ("beta = 0.2", "beta = a fifth"),
        ("[run]", "[run]\nfault_injection = maybe"),
    ], ids=["int", "int_from_float", "float", "bool"])
    def test_malformed_value_exit_two(self, tmp_path, capsys, old, new):
        f = scenario_file(tmp_path, LIQUID_PERIODIC.replace(old, new))
        key = new.split("=")[0].split("\n")[-1].strip().lower()
        with pytest.raises(ConfigError, match=f"'{key}'"):
            load_scenario(f)
        assert main(["run", "--scenario", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"'{key}'" in err

    @pytest.mark.parametrize("edits,message", [
        ([("[repairer]", "[repairer]\nperiod = nan")],
         "period must be positive"),
        ([("beta = 0.2", "beta = 0.2\nlambda = nan"),
          ("variant = periodic", "variant = poisson")],
         "lam must be non-negative"),
        ([("[run]", "[run]\npeak_window = nan")],
         "peakWindow must be positive"),
        ([("[repairer]", "[repairer]\nperiod = inf")],
         "period must be positive and finite"),
        ([("beta = 0.2", "beta = 0.2\nlambda = inf"),
          ("variant = periodic", "variant = poisson")],
         "lam must be non-negative, lam finite"),
        ([("[run]", "[run]\npeak_window = inf")],
         "peakWindow must be positive and finite"),
    ], ids=["period", "lambda", "peak_window", "period_inf", "lambda_inf",
            "peak_window_inf"])
    def test_nan_value_exit_two(self, tmp_path, capsys, edits, message):
        text = LIQUID_PERIODIC
        for old, new in edits:
            text = text.replace(old, new)
        f = scenario_file(tmp_path, text)
        assert main(["run", "--scenario", str(f), "--out",
                     str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("r", ["0", "-2"])
    def test_non_positive_r_exit_two(self, tmp_path, capsys, r):
        # r = 0 once fell back to the r derived from beta, silently
        f = scenario_file(tmp_path,
                          ADVANCED_POISSON.replace("r = 4", f"r = {r}"))
        for extra in ([], ["--dump-config"]):
            assert main(["run", "--scenario", str(f), "--out",
                         str(tmp_path / "o"), *extra]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and f"got {r}" in err
        assert not (tmp_path / "o").exists()

    def test_simulator_value_error_is_not_a_config_error(self, tmp_path,
                                                          monkeypatch):
        def broken(*a, **kw):
            raise ValueError("simulator bug")
        monkeypatch.setattr(sim_engine, "run_experiment", broken)
        f = scenario_file(tmp_path, LIQUID_PERIODIC)
        with pytest.raises(ValueError, match="simulator bug"):
            main(["run", "--scenario", str(f), "--out", str(tmp_path / "o")])

    def test_fault_injection_exit_three(self, tmp_path, capsys):
        text = LIQUID_PERIODIC.replace("[run]", "[run]\nfault_injection = on")
        f = scenario_file(tmp_path, text)
        assert main(["run", "--scenario", str(f), "--out",
                     str(tmp_path / "o")]) == 3
        assert "invariant violation" in capsys.readouterr().err

    def test_fault_injection_advanced_poisson_byte(self, tmp_path, capsys):
        # the advanced-poisson-byte benchmark's store: N = 40, r = 8,
        # eps = 0.9, 256-bit fragments; the fault drops two staircases
        text = """\
[system]
N = 40
clen = 91136       # 256 * (r*N + r(r+1)/2)
xlen = 1913856
lambda = 0.025

[repairer]
kind = advancedLiquid
variant = poisson
eps = 0.9
r = 8

[codec]
backend = byte

[run]
failures = 3
seed = 1
fault_injection = true
"""
        f = scenario_file(tmp_path, text)
        assert main(["run", "--scenario", str(f), "--out",
                     str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "invariant violation: witness set has 37 members, need 39" in err
        assert "Traceback" not in err

    def test_seed_and_trials_overrides(self, tmp_path, capsys):
        f = scenario_file(tmp_path, LIQUID_PERIODIC)
        assert main(["run", "--scenario", str(f), "--seed", "99", "--trials",
                     "3", "--dump-config"]) == 0
        text = capsys.readouterr().out
        assert "seed = 99" in text
        assert "trials = 3" in text

    def test_same_seed_bit_identical_csv(self, tmp_path):
        f = scenario_file(tmp_path, ADVANCED_POISSON)
        for d in ("a", "b"):
            assert main(["run", "--scenario", str(f), "--out",
                         str(tmp_path / d)]) == 0
        assert ((tmp_path / "a" / "results.csv").read_bytes()
                == (tmp_path / "b" / "results.csv").read_bytes())

    def test_jobs_do_not_change_output(self, tmp_path, monkeypatch):
        # two workers are allowed on any host, one CPU included
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        f = scenario_file(tmp_path, ADVANCED_POISSON)
        for d, jobs in (("j1", "1"), ("j2", "2")):
            assert main(["run", "--scenario", str(f), "--out",
                         str(tmp_path / d), "--jobs", jobs]) == 0
        assert ((tmp_path / "j1" / "results.csv").read_bytes()
                == (tmp_path / "j2" / "results.csv").read_bytes())
        assert ((tmp_path / "j1" / "summary.jsonl").read_bytes()
                == (tmp_path / "j2" / "summary.jsonl").read_bytes())

    @pytest.mark.parametrize("extra", [0, 1], ids=["zero", "above_cpus"])
    def test_jobs_outside_cpu_range_exit_two(self, tmp_path, capsys,
                                             monkeypatch, extra):
        def no_pool(*a, **kw):
            raise AssertionError("a worker pool was started")
        # run_experiment imports Pool from multiprocessing when it pools
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        jobs = os.cpu_count() + 1 if extra else 0
        f = scenario_file(tmp_path, LIQUID_PERIODIC)
        assert main(["run", "--scenario", str(f), "--out",
                     str(tmp_path / "o"), "--jobs", str(jobs)]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_trace_file_written(self, tmp_path):
        text = LIQUID_PERIODIC.replace("csv = out.csv",
                                       "csv = out.csv\ntrace = yes")
        f = scenario_file(tmp_path, text)
        assert main(["run", "--scenario", str(f), "--out",
                     str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "trace.csv").read_text().splitlines()
        assert lines[0] == "trial,time,event,counter,bits_read,bits_written"
        assert len(lines) > 2


class TestCmdBounds:

    def test_report_prints_table_and_json(self, capsys):
        assert main(["bounds", "--N", "100000", "--clen", str(10 ** 16),
                     "--beta", "0.1", "--vlen", str(10 ** 13)]) == 0
        out = capsys.readouterr().out
        assert "deltaCore" in out
        table = json.loads(out.splitlines()[-1])
        assert table["F"] == 10000
        assert table["deltaCore"] == pytest.approx(3.0697e-7, rel=1e-3)
        assert table["deltaCore"] <= 3e-7 * 1.03

    def test_unsupported_regime_exit_two(self, capsys):
        assert main(["bounds", "--N", "10", "--clen", "1000",
                     "--beta", "0.5"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_non_finite_beta_exit_two(self, beta, capsys):
        assert main(["bounds", "--beta", beta]) == 2
        assert "betaPrime must be finite" in capsys.readouterr().err

    def test_non_positive_n_exit_two(self, capsys):
        assert main(["bounds", "--N", "0", "--beta", "0.1"]) == 2
        assert "N must be >= 1" in capsys.readouterr().err

    def test_beta_required_without_sweep(self, capsys):
        assert main(["bounds"]) == 2

    def test_sweep_ratio_approaches_half_inverse(self, capsys):
        assert main(["bounds", "--sweep-beta", "0.05,0.02,0.01"]) == 0
        out = capsys.readouterr().out
        rows = json.loads(out.splitlines()[-1])["sweep"]
        assert len(rows) == 3
        closeness = [row["readRatio"] / row["limit"] for row in rows]
        assert all(c < 1 for c in closeness)
        assert closeness == sorted(closeness)
        assert closeness[-1] > 0.97

    def test_sweep_rejects_out_of_range(self, capsys):
        assert main(["bounds", "--sweep-beta", "0.7"]) == 2

    def test_sweep_rejects_non_number(self, capsys):
        assert main(["bounds", "--sweep-beta", "0.1,x"]) == 2
        assert "--sweep-beta" in capsys.readouterr().err


def set_key(text, section, key, value):
    """text with key in [section] set to value, the key or the section
    added when absent."""
    lines = text.splitlines()
    head = f"[{section}]"
    if head not in lines:
        lines += ["", head]
    start = lines.index(head) + 1
    end = next((i for i in range(start, len(lines))
                if lines[i].startswith("[")), len(lines))
    for i in range(start, end):
        if lines[i].split("=")[0].strip().lower() == key:
            lines[i] = f"{key} = {value}"
            break
    else:
        lines.insert(start, f"{key} = {value}")
    return "\n".join(lines) + "\n"


# small valid scenarios: N <= 20, 5 failures, one trial
FUZZ_BASES = [text.replace("failures = 20", "failures = 5")
              .replace("failures = 60", "failures = 5")
              .replace("trials = 2", "trials = 1")
              for text in (LIQUID_PERIODIC, ADVANCED_POISSON)]

BAD_VALUES = st.one_of(
    st.sampled_from(["0", "0.0", "nan", "-nan", "inf", "-inf", "1e400",
                     "ten", "", "bogus", "unknownRepairer", "0x10"]),
    st.integers(-10 ** 6, -1).map(str),
    st.floats(-1e6, -1e-9).map(repr))


@st.composite
def bad_scenarios(draw):
    """A small valid scenario with one schema key set to a bad value."""
    section = draw(st.sampled_from(sorted(cli._KEYS)))
    key = draw(st.sampled_from(sorted(k.lower() for k in cli._KEYS[section])))
    return set_key(draw(st.sampled_from(FUZZ_BASES)), section, key,
                   draw(BAD_VALUES))


class TestScenarioFuzz:
    @settings(max_examples=150, deadline=None, database=None)
    @given(bad_scenarios())
    def test_bad_value_exits_zero_or_two(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scenario.ini"
            path.write_text(text)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(["run", "--scenario", str(path), "--out",
                             str(Path(tmp) / "out")])
        assert code in (0, 2), (code, err.getvalue())
        if code == 2:
            assert err.getvalue().startswith("config error:")
