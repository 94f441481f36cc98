"""Import hygiene: every export resolves; SciPy loads only where called.

``import fcspin`` loads no SciPy module; the mean-field and static-path
methods run without one, and the exact path loads ``scipy`` and SciPy's
compiled LAPACK module on its first tridiagonal solve, but not the
``scipy.linalg`` package.  Each SciPy check runs in a fresh interpreter.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
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


def test_every_export_resolves():
    # a stale name in an __all__ otherwise fails only under import *
    for mod in [fcspin] + [importlib.import_module(f"fcspin.{m.name}")
                           for m in pkgutil.iter_modules(fcspin.__path__)]:
        stale = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not stale, (mod.__name__, stale)


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


def test_exact_solve_loads_no_scipy_linalg():
    # n = 600 has staged sub-blocks, so it also makes the range-'I' prefix
    # call
    code = """
import fcspin, fcspin.exact
solve, prefixes = fcspin.exact.eigh_tridiagonal, set()
def spy(diag, off, lowest=None):
    prefixes.add(lowest)
    return solve(diag, off, lowest)
fcspin.exact.eigh_tridiagonal = spy
for n in (60, 600):
    rep = fcspin.thermal_concurrence(fcspin.ModelParams.from_chi(n, 0.5, 0.5),
                                     0.1)
    assert rep.c > 0.0
assert prefixes == {None, fcspin.exact._PREFIX_LEVELS}
"""
    loaded = _scipy_after(code)
    assert "scipy" in loaded
    assert not [m for m in loaded
                if m.startswith(("scipy.linalg", "scipy.optimize"))], loaded


_BITWISE = """
import numpy as np
import fcspin.exact

def compare():
    from scipy.linalg.lapack import dstemr, dstevd
    rng = np.random.default_rng(17)
    for dim in (2, 3, 17, 51, 300):
        diag, off = rng.normal(size=dim), rng.normal(size=dim - 1)
        e = np.zeros(dim)
        e[:-1] = off
        # full solves are dstevd's, prefixes dstemr's range 'I'
        w, v, info = dstevd(diag, off)
        assert info == 0
        pairs = [(None, (w, v))]
        if dim >= 16:
            # dstemr overwrites its off-diagonal argument: pass a copy
            m, w, v, info = dstemr(diag, e.copy(), 2, 0.0, 1.0, 1, 16,
                                   compute_v=1, lwork=18 * dim,
                                   liwork=10 * dim)
            assert info == 0
            pairs.append((16, (w[:m], v[:, :m])))
        for lowest, want in pairs:
            got = fcspin.exact.eigh_tridiagonal(diag, off, lowest)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
"""


def test_direct_dstemr_is_scipys_bitwise_after_a_solve():
    # scipy.linalg loads after the solver loaded its own _flapack
    code = _BITWISE + """
fcspin.exact.eigh_tridiagonal(np.array([1.0, 2.0]), np.array([0.5]))
import scipy.linalg
assert fcspin.exact._flapack is not scipy.linalg._flapack
compare()
"""
    assert "scipy.linalg" in _scipy_after(code)


def test_direct_dstemr_is_scipys_bitwise_with_linalg_loaded_first():
    # the solver loads its own _flapack next to the one scipy.linalg loaded
    code = _BITWISE + """
import scipy.linalg
compare()
"""
    assert "scipy.linalg" in _scipy_after(code)


def test_missing_flapack_raises_import_error():
    code = """
import importlib.machinery
import numpy as np
import scipy
import fcspin.exact
find_spec = importlib.machinery.PathFinder.find_spec
importlib.machinery.PathFinder.find_spec = classmethod(lambda *args: None)
try:
    fcspin.exact.eigh_tridiagonal(np.ones(2), np.ones(1))
except ImportError as exc:
    assert "_flapack" in str(exc)
else:
    raise AssertionError("no ImportError")
finally:
    importlib.machinery.PathFinder.find_spec = find_spec
"""
    assert not [m for m in _scipy_after(code) if m.startswith("scipy.linalg")]


def test_cspa_still_resolves_minimize_scalar():
    # the deformed-axis saddle search is the package's own, called through
    # the module-level name that perfbench/tracer.py wraps, and loads no
    # scipy.optimize
    code = """
import fcspin, fcspin.cspa
search, calls = fcspin.cspa.minimize_scalar, []
assert search.__module__ == "fcspin.cspa"
def counting(*args):
    calls.append(1)
    return search(*args)
fcspin.cspa.minimize_scalar = counting
p = fcspin.ModelParams(n=5, b=0.4, v_x=1.0, v_y=0.3, v_z=-0.3)
fcspin.cspa_log_partition(p, 1.0)
assert calls
"""
    assert not [m for m in _scipy_after(code)
                if m.startswith("scipy.optimize")]
