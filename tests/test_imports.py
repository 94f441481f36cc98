"""Import hygiene: SciPy loads only where a method calls into it.

``import fcspin`` loads no SciPy module; the mean-field and static-path
methods run without one, and the exact path loads ``scipy.linalg`` on its
first tridiagonal solve.  Each check runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import fcspin

# the child process imports the same fcspin as this one, installed or not
SRC = str(Path(fcspin.__file__).resolve().parents[1])

_REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


def _scipy_after(code: str) -> list[str]:
    """The SciPy modules loaded once ``code`` has run in a fresh process."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code + _REPORT], capture_output=True,
        text=True, timeout=300, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert _scipy_after("import fcspin, fcspin.cli") == []


def test_mean_field_and_static_path_load_no_scipy():
    code = """
import math, os
import fcspin, fcspin.cli
assert fcspin.cli.main([
    "--n", "100", "--chi", "0.5", "--T", "0.14", "--method", "mfrpa_full",
    "--sweep", "field", "--from", "0.05", "--to", "2.0", "--points", "40",
    "--out", os.devnull]) == 0
p = fcspin.ModelParams(n=6, b=0.5, v_x=1.0, v_y=-0.5, v_z=0.0)
assert math.isfinite(fcspin.cspa_log_partition(p, 1.0))
"""
    assert _scipy_after(code) == []


def test_exact_solve_loads_linalg_only():
    code = """
import fcspin
rep = fcspin.thermal_concurrence(fcspin.ModelParams.from_chi(60, 0.5, 0.5),
                                 0.1)
assert rep.c > 0.0
"""
    loaded = _scipy_after(code)
    assert "scipy.linalg" in loaded
    assert not [m for m in loaded if m.startswith("scipy.optimize")]


def test_cspa_still_resolves_minimize_scalar():
    # perfbench/tracer.py wraps this name as the static-path solver
    code = """
import fcspin.cspa
solver = getattr(fcspin.cspa, "minimize_scalar")
import scipy.optimize
assert solver is scipy.optimize.minimize_scalar
assert not hasattr(fcspin.cspa, "maximize_scalar")
"""
    assert "scipy.optimize" in _scipy_after(code)
