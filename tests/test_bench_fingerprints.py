"""The benchmark's recorded outputs: each workload's warm-up unit, at every
seed perfbench/expected.json records, must reproduce the digest of its CSV
and summary recorded there.

The benchmark checks the same digest when it runs; this catches output
drift in the ordinary test run.  Only files under perfbench/ are read.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
EXPECTED = json.loads((BENCH / "expected.json").read_text())


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses resolve the module
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()


def test_every_workload_has_a_recorded_digest():
    assert set(WORKLOADS) == set(EXPECTED)


@pytest.mark.parametrize("name,seed", [
    (name, int(seed)) for name in sorted(EXPECTED) for seed in EXPECTED[name]])
def test_warm_up_unit_matches_recorded_digest(name, seed, tmp_path):
    wl = WORKLOADS[name]
    wl.prepare(seed, tmp_path)
    csv, summary = wl.outputs(wl.call(seed, tmp_path), tmp_path)
    digest = hashlib.sha256((csv + summary).encode()).hexdigest()
    assert digest == EXPECTED[name][str(seed)]
