"""Drive an experiment through the command line, the way a batch job would.

Writes a scenario file, runs it twice with the same seed, and checks the
CSV outputs are byte-identical.  Everything downstream of the seed is
deterministic, including the multi-process path (--jobs), so results can
be regenerated from the scenario file alone.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIO = """\
[system]
n = 50
clen = 3000
beta = 0.3
lambda = 0.01

[repairer]
kind = liquid
variant = poisson
eps = 0.4
step_duration = 1.0

[run]
failures = 200
trials = 5
seed = 11

[output]
csv = out.csv
summary = summary.jsonl
"""

def run(work, outdir, extra=()):
    cmd = [sys.executable, "-m", "liquidsim", "run", "--scenario",
           str(work / "scenario.ini"), "--out", str(outdir), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"run failed ({proc.returncode}):\n{proc.stderr}")
    return proc


with tempfile.TemporaryDirectory(prefix="liquidsim_demo_") as tmp:
    work = Path(tmp)
    (work / "scenario.ini").write_text(SCENARIO)
    run(work, work / "a")
    run(work, work / "b", extra=["--jobs", "2"])

    csvA = (work / "a" / "out.csv").read_bytes()
    csvB = (work / "b" / "out.csv").read_bytes()
    print((work / "a" / "out.csv").read_text())
    print("sequential and --jobs 2 CSVs identical:", csvA == csvB)
    assert csvA == csvB

    for line in (work / "a" / "summary.jsonl").read_text().splitlines():
        print(line[:120] + ("..." if len(line) > 120 else ""))

# bounds for an exabyte-scale system, no simulation involved
proc = subprocess.run(
    [sys.executable, "-m", "liquidsim", "bounds", "--N", "100000",
     "--clen", str(10 ** 16), "--beta", "0.1", "--vlen", str(10 ** 13)],
    capture_output=True, text=True)
print()
print(proc.stdout.splitlines()[0])
print("bounds exit code:", proc.returncode)
