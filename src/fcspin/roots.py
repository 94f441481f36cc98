"""Sign-change scan shared by the grid root searches; callers polish."""

from typing import NamedTuple

import numpy as np


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
