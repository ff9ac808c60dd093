"""What importing the CLI costs and sets: no scipy, no process pool, and one
BLAS/OpenMP thread unless the caller chose a count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _import_cli(env, report):
    """Import deformed_e2.cli in a fresh interpreter; return `report`'s value."""
    env = dict(env, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]))
    code = ("import json, os, sys\nimport deformed_e2.cli\n"
            f"print(json.dumps({report}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_bare_import_loads_no_scipy_and_no_pool():
    heavy = ("scipy.linalg", "scipy.optimize", "concurrent.futures.process")
    loaded = _import_cli(os.environ,
                         f"[m for m in {heavy!r} if m in sys.modules]")
    assert loaded == []


@pytest.mark.parametrize("preset", [None, "2"])
def test_import_sets_unset_thread_variables_to_one(preset):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    want = ["1"] * len(THREAD_VARS)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
        want[THREAD_VARS.index("OPENBLAS_NUM_THREADS")] = preset
    got = _import_cli(env, f"[os.environ.get(k) for k in {THREAD_VARS!r}]")
    assert got == want
