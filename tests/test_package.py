"""The package's public surface, and what a fresh process loads for it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liquidsim
from liquidsim import gf256

_SRC = str(Path(__file__).resolve().parents[1] / "src")

# prints the names of the modules loaded so far, as the child's last line
_LOADED = "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"


def _fresh(code: str) -> list:
    """Run code in a fresh interpreter on this tree's src; its last line of
    output, parsed as JSON."""
    path = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _ours(loaded: list) -> set:
    return {m for m in loaded if m.split(".")[0] == "liquidsim"}


_RUN = """\
from liquidsim import Scenario, SystemParams, run_experiment
sp = SystemParams(N=10, clen=160, xlen=8 * 160)
run_experiment(Scenario(sysParams=sp, repairer="liquid", variant="periodic",
                        codecBackend={backend!r}, failureCount=20, trials=2,
                        seed=5), jobs=1)
"""


def test_all_names_resolve():
    missing = [n for n in liquidsim.__all__ if not hasattr(liquidsim, n)]
    assert not missing
    assert len(set(liquidsim.__all__)) == len(liquidsim.__all__)
    for gone in ("regenerate", "encode", "decode"):
        assert gone not in liquidsim.__all__
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        liquidsim.nope


def test_import_loads_no_submodule_numpy_or_multiprocessing():
    loaded = _fresh("import liquidsim\n" + _LOADED)
    assert _ours(loaded) == {"liquidsim"}
    assert "numpy" not in loaded
    assert "multiprocessing" not in loaded


def test_names_resolve_lazily_in_dir_and_star_import():
    names, star = _fresh(
        "import json, liquidsim\n"
        "names = dir(liquidsim)\n"
        "ns = {}\n"
        "exec('from liquidsim import *', ns)\n"
        "print(json.dumps([names, sorted(set(ns) - {'__builtins__'})]))\n")
    assert set(liquidsim.__all__) <= set(names)
    assert star == sorted(liquidsim.__all__)


def test_sequential_run_never_imports_multiprocessing():
    loaded = _fresh(_RUN.format(backend="symbolic") + _LOADED)
    assert "liquidsim.sim_engine" in loaded
    assert "multiprocessing" not in loaded


def test_cached_kernel_load_never_imports_subprocess():
    if not gf256.compiled():    # builds the kernel into the cache if need be
        pytest.skip("no C kernel to load")
    loaded = _fresh(_RUN.format(backend="byte")
                    + "from liquidsim import gf256\n"
                    + "assert gf256.KERNEL in gf256.C_KERNELS\n" + _LOADED)
    assert "subprocess" not in loaded


def test_bounds_command_loads_no_simulator():
    loaded = _fresh("from liquidsim import cli\n"
                    "assert cli.main(['bounds', '--beta', '0.1']) == 0\n"
                    + _LOADED)
    assert _ours(loaded) == {"liquidsim", "liquidsim.cli", "liquidsim.bounds",
                             "liquidsim.errors"}
    assert "multiprocessing" not in loaded
