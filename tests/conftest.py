"""Shared draws and closed-form references for the test suite.

Random model parameters are always produced in the canonical axis labeling
(v_x > 0, |v_y| <= v_x, b >= 0) so every module sees inputs it accepts; the
draw covers negative v_y/v_z, the XXZ line, and b on both sides of b_c.
The sector blocks are written out here once, per sector and in closed form,
as the reference for the package's vectorized sub-block build.
"""

from __future__ import annotations

import math

import numpy as np

from fcspin import ModelParams


def draw_params(rng: np.random.Generator, n: int, *,
                allow_negative: bool = True) -> ModelParams:
    v_x = float(rng.uniform(0.5, 2.0))
    lo = -1.0 if allow_negative else 0.0
    v_y = float(rng.uniform(lo, 1.0)) * v_x
    v_z = float(rng.uniform(lo, 1.0)) * v_x
    b = float(rng.uniform(0.0, 2.5)) * v_x
    return ModelParams(n=n, b=b, v_x=v_x, v_y=v_y, v_z=v_z)


def draw_temperature(rng: np.random.Generator, v_x: float) -> float:
    # log-uniform over the regimes the formulas must cover
    return float(np.exp(rng.uniform(np.log(0.02), np.log(5.0)))) * v_x


def multiplicity(n: int, two_s: int) -> int:
    """Y(S) = C(n, n/2 - S) - C(n, n/2 - S - 1), exact."""
    k = (n - two_s) // 2
    return math.comb(n, k) - (math.comb(n, k - 1) if k else 0)


def closed_form_block(p: ModelParams, two_s: int):
    """(m, diag, ladder, off) of sector 2S, M ascending from -S: ``ladder[j]``
    is <S,M_j+2|S_+^2|S,M_j> and ``off[j]`` the element of H coupling them."""
    n, s = p.n, two_s / 2.0
    m = (np.arange(two_s + 1) * 2 - two_s) / 2.0
    vx, vy, vz = p.v_x, p.v_y, p.v_z
    diag = p.b * m - (0.5 * (vx + vy) * (s * (s + 1) - m * m) + vz * m * m
                      - 0.25 * n * (vx + vy + vz)) / n
    mm = m[:-2]
    ladder = np.sqrt((s - mm) * (s + mm + 1) * (s - mm - 1) * (s + mm + 2))
    return m, diag, ladder, -(vx - vy) / (4.0 * n) * ladder


def parity_halves(p: ModelParams, two_s: int):
    """(parity, m, diag, ladder, off) of each tridiagonal parity half.

    |S,M_j> has parity (-1)^((n - 2S)/2 + j), so a half keeps every second
    index of ``closed_form_block``, the one from M = -S first (2S = 0 has
    one half), copied: a strided dot product rounds differently.
    """
    blk = closed_form_block(p, two_s)
    return [(1 - 2 * (((p.n - two_s) // 2 + first) % 2),
             *(a[first::2].copy() for a in blk))
            for first in range(min(two_s, 1) + 1)]


def flat_levels(sp) -> dict:
    """Per-level arrays of a spectrum, over its sectors in order.

    ``energy``, ``m2x`` ... ``m1z``, ``parity`` and ``k_index`` concatenate
    the fields of ``sp.sectors``; ``two_s`` and ``log_mult`` repeat each
    sector's 2S and ln Y(S) over its 2S + 1 levels.
    """
    secs = sp.sectors
    out = {k: np.concatenate([getattr(s, k) for s in secs])
           for k in ("energy", "m2x", "m2y", "m2z", "m1z", "parity",
                     "k_index")}
    size = [s.two_s + 1 for s in secs]
    out["two_s"] = np.repeat([s.two_s for s in secs], size)
    out["log_mult"] = np.repeat([math.log(s.multiplicity) for s in secs], size)
    return out
