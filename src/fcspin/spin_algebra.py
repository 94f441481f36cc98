"""Symmetry-adapted representation of the fully connected XYZ Hamiltonian.

H commutes with the total spin S^2 and with the parity P = exp[i pi (S_z + n/2)],
so the 2^n-dimensional problem splits into total-spin sectors S = n/2, n/2-1, ...
each entering Y(S) times, and every sector block splits further into two
tridiagonal parity sub-blocks (the anisotropic term S_x^2 - S_y^2 moves M by 2).

Total spins are handled as doubled integers ``two_s = 2S`` throughout so that
odd n needs no floating-point half-integers.
"""

from __future__ import annotations

import numpy as np

from .params import ModelParams

__all__ = [
    "sector_spins",
    "sector_multiplicities",
    "coupling_diagonal",
    "ladder2",
    "off_diagonal_scale",
    "sub_block_elements",
]


def sector_spins(n: int) -> list[int]:
    """Doubled total spins 2S of all sectors, descending: n, n-2, ..., (0 or 1)."""
    return list(range(n, -1, -2))


def sector_multiplicities(n: int) -> list[int]:
    """Y(S) of every sector in ``sector_spins`` order (exact integers).

    Y(S) = C(n, k) - C(n, k-1) with k = n/2 - S, the number of spin-S irreps
    in n spins-1/2; the binomials run the recurrence C(n, k) = C(n, k-1)
    (n-k+1) / k over k, and Python integers keep them exact at any n.
    """
    out, prev, c = [], 0, 1
    for k in range(n // 2 + 1):
        if k:
            c = c * (n - k + 1) // k
        out.append(c - prev)
        prev = c
    return out


def coupling_diagonal(params: ModelParams, two_s, m) -> np.ndarray:
    """The field-free part X of <S,M|H|S,M>, so that the diagonal is b M - X.

    X = (1/n)[(v_x+v_y)/2 (S(S+1) - M^2) + v_z M^2 - (n/4)(v_x+v_y+v_z)],
    elementwise over broadcast arrays of 2S and M.
    """
    n = params.n
    vx, vy, vz = params.v_x, params.v_y, params.v_z
    s = np.divide(two_s, 2.0)
    casimir = s * (s + 1)
    return (0.5 * (vx + vy) * (casimir - m * m) + vz * m * m
            - 0.25 * n * (vx + vy + vz)) / n


def ladder2(two_s, m) -> np.ndarray:
    """<S,M+2|S_+^2|S,M>, elementwise over broadcast arrays of 2S and M.

    Exactly 0 (up to sign) at M = S-1 and M = S, where M+2 leaves the sector.
    """
    s = np.divide(two_s, 2.0)
    c = (s - m) * (s + m + 1) * (s - m - 1) * (s + m + 2)
    return np.sqrt(c)


def off_diagonal_scale(params: ModelParams) -> float:
    """-(v_x - v_y)/(4n): the block couples M to M+2 by this times ``ladder2``."""
    return -(params.v_x - params.v_y) / (4.0 * params.n)


def sub_block_elements(params: ModelParams, two_s, first):
    """Field-free elements of parity sub-blocks (2S, first), laid end to end.

    Sub-block (2S, first) holds the levels M = -S + j, j = first, first + 2,
    ... <= 2S (``first`` is 0 or 1; 2S and first broadcast).  Returns
    per-level (m, x, plus2): the diagonal is b m - x, and plus2[i] is the
    ``ladder2`` element to the next level of the sub-block (0 at its last
    level), so the off-diagonal is ``off_diagonal_scale(params) * plus2``.
    |S,M> has parity (-1)^(M + n/2), so the sub-block's is
    (-1)^((n - 2S)/2 + first).
    """
    two_s, first = np.broadcast_arrays(np.atleast_1d(two_s), first)
    dims = (two_s - first) // 2 + 1
    ts = np.repeat(two_s, dims)
    # level k of sub-block (2S, first) has M = -S + first + 2k
    k = np.arange(dims.sum()) - np.repeat(np.cumsum(dims) - dims, dims)
    m = (4 * k + np.repeat(2 * first - two_s, dims)) / 2.0
    return m, coupling_diagonal(params, ts, m), ladder2(ts, m)

