"""Sign-change scan shared by the grid root searches, and the Brent polish."""

from typing import NamedTuple

import numpy as np

_XTOL = 2e-12
_RTOL = 4 * np.finfo(float).eps
_MAXITER = 100


class Crossing(NamedTuple):
    """A zero node (``lo == hi``) or a bracket ``[lo, hi]`` found by the scan.

    ``before`` and ``after`` are the signs on either side of it: of a node's
    neighbours (0 past the ends of the grid) or of the bracket's ends.
    """

    lo: float
    hi: float
    before: float
    after: float

    def polish(self, solver, f, **tol) -> float:
        """The node itself, or ``solver(f, lo, hi, **tol)`` on the bracket."""
        return (self.lo if self.lo == self.hi
                else solver(f, self.lo, self.hi, **tol))


def _sign_changes(grid, values) -> list[Crossing]:
    """Roots of the tabulated ``values[i] = f(grid[i])``, in grid order.

    A node whose value is exactly 0 is its own root, even where f only
    touches 0; a strict sign change gives the bracket [grid[i], grid[i+1]];
    a pair with a non-finite end gives nothing.  f is not evaluated.
    """
    x, v = np.asarray(grid, dtype=float), np.asarray(values, dtype=float)
    s = np.sign(v)
    ok = np.isfinite(v)
    found = sorted([(i, i) for i in np.flatnonzero(v == 0.0)]
                   + [(i, i + 1) for i in np.flatnonzero(
                       ok[:-1] & ok[1:] & (s[:-1] * s[1:] < 0))])
    pad = np.concatenate([[0.0], s, [0.0]])  # pad[k + 1] is the sign at k
    return [Crossing(float(x[i]), float(x[j]), float(pad[j]),
                     float(pad[i + 2])) for i, j in found]


def _value(f, x: float, args: tuple) -> float:
    """f(x, *args) as a float, with SciPy's NaN check."""
    fx = float(f(x, *args))
    if fx != fx:
        raise ValueError(f"The function value at x={x} is NaN; "
                         "solver cannot continue.")
    return fx


def brentq(f, a, b, args=(), xtol=_XTOL, rtol=_RTOL,
           maxiter=_MAXITER) -> float:
    """A root of f in the sign-changing bracket [a, b] by Brent's method.

    A step-for-step port of ``scipy.optimize.brentq`` (its C ``brentq``
    and Python argument checks), with the same float operations in the
    same order, so roots agree with SciPy's bitwise.  f is called as
    ``f(x, *args)`` with a Python float and its value converted by
    ``float``.  An endpoint where f is exactly 0 is returned as the root.
    Raises ``ValueError`` for xtol <= 0, rtol < 4 eps, maxiter < 0, a NaN
    value or ends of the same sign, and ``RuntimeError`` after ``maxiter``
    iterations.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter should be > 0")
    xtol, rtol = float(xtol), float(rtol)
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _value(f, xpre, args)
    fcur = _value(f, xcur, args)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    # SciPy tests signbit; past the zero and NaN checks that is ``< 0``
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _value(f, xcur, args)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, "
                       f"value is {xcur:f}")
