"""Symmetry-adapted representation of the fully connected XYZ Hamiltonian.

H commutes with the total spin S^2 and with the parity P = exp[i pi (S_z + n/2)],
so the 2^n-dimensional problem splits into total-spin sectors S = n/2, n/2-1, ...
each entering Y(S) times, and every sector block splits further into two
tridiagonal parity sub-blocks (the anisotropic term S_x^2 - S_y^2 moves M by 2).

Total spins are handled as doubled integers ``two_s = 2S`` throughout so that
odd n needs no floating-point half-integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ModelParams

__all__ = [
    "sector_spins",
    "multiplicity",
    "log_multiplicity",
    "SpinBlock",
    "TridiagonalBlock",
    "ParityBlocks",
    "build_block",
    "parity_split",
    "sector_multiplicities",
    "coupling_diagonal",
    "ladder2",
    "off_diagonal_scale",
    "sub_block_elements",
]


def sector_spins(n: int) -> list[int]:
    """Doubled total spins 2S of all sectors, descending: n, n-2, ..., (0 or 1)."""
    return list(range(n, -1, -2))


def _sector_k(n: int, two_s: int) -> int:
    if two_s < 0 or two_s > n or (n - two_s) % 2 != 0:
        raise ValueError(f"invalid sector: n={n}, 2S={two_s}")
    return (n - two_s) // 2


def multiplicity(n: int, two_s: int) -> int:
    """Number of spin-S irreps in n spins-1/2 (exact integer).

    Y(S) = binom(n, n/2 - S) - binom(n, n/2 - S - 1), with the second term
    zero for S = n/2.  Python integers keep this exact at any n.
    """
    k = _sector_k(n, two_s)
    y = math.comb(n, k) - (math.comb(n, k - 1) if k >= 1 else 0)
    return y


def sector_multiplicities(n: int) -> list[int]:
    """Y(S) of every sector in ``sector_spins`` order (exact integers).

    Runs the recurrence C(n, k) = C(n, k-1) (n-k+1) / k over k = n/2 - S
    instead of two binomials per sector; ``multiplicity`` is the reference.
    """
    out, prev, c = [], 0, 1
    for k in range(n // 2 + 1):
        if k:
            c = c * (n - k + 1) // k
        out.append(c - prev)
        prev = c
    return out


def log_multiplicity(n: int, two_s: int) -> float:
    """ln Y(S); exact big-integer path, safe for n ~ 10^4."""
    y = multiplicity(n, two_s)
    # math.log handles arbitrarily large ints without overflow
    return math.log(y)


@dataclass(frozen=True)
class SpinBlock:
    """One total-spin sector of H in the |S,M> basis, banded storage.

    ``diag[j]`` is <S,M_j|H|S,M_j> with M_j ascending from -S; ``off2[j]``
    couples M_j to M_j+2; ``ladder2[j]`` is the bare <S,M_j+2|S_+^2|S,M_j>
    matrix element (kept for moment computations downstream).
    """

    n: int
    two_s: int
    diag: np.ndarray
    off2: np.ndarray
    ladder2: np.ndarray
    multiplicity: int

    @property
    def dim(self) -> int:
        return self.two_s + 1

    @property
    def s(self) -> float:
        return self.two_s / 2.0

    def m_values(self) -> np.ndarray:
        """M_j ascending, -S..S in steps of 1."""
        return (np.arange(self.dim) * 2 - self.two_s) / 2.0

    def to_dense(self) -> np.ndarray:
        h = np.diag(self.diag)
        idx = np.arange(self.dim - 2)
        h[idx, idx + 2] = self.off2
        h[idx + 2, idx] = self.off2
        return h


@dataclass(frozen=True)
class TridiagonalBlock:
    """Fixed-parity sub-block; tridiagonal after the stride-2 reindexing."""

    parity: int  # +1 or -1 eigenvalue of exp[i pi (S_z + n/2)]
    m_values: np.ndarray
    diag: np.ndarray
    off: np.ndarray
    plus2: np.ndarray  # bare S_+^2 elements between consecutive kept states

    @property
    def dim(self) -> int:
        return len(self.diag)


@dataclass(frozen=True)
class ParityBlocks:
    n: int
    two_s: int
    multiplicity: int
    blocks: tuple[TridiagonalBlock, ...]


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
    The entries equal those of ``parity_split(build_block(...))`` bitwise.
    """
    two_s, first = np.broadcast_arrays(np.atleast_1d(two_s), first)
    dims = (two_s - first) // 2 + 1
    ts = np.repeat(two_s, dims)
    # level k of sub-block (2S, first) has M = -S + first + 2k
    k = np.arange(dims.sum()) - np.repeat(np.cumsum(dims) - dims, dims)
    m = (4 * k + np.repeat(2 * first - two_s, dims)) / 2.0
    return m, coupling_diagonal(params, ts, m), ladder2(ts, m)


def build_block(params: ModelParams, two_s: int) -> SpinBlock:
    """Hamiltonian block of the sector with doubled total spin ``two_s``.

    Diagonal: b M - (1/n)[(v_x+v_y)/2 (S(S+1) - M^2) + v_z M^2
    - (n/4)(v_x+v_y+v_z)].  Off-diagonal (M -> M+2):
    -(v_x-v_y)/(4n) <M+2|S_+^2|M>.  Real symmetric by construction.
    """
    n = params.n
    _sector_k(n, two_s)  # validates the (n, 2S) pairing
    m = (np.arange(two_s + 1) * 2 - two_s) / 2.0
    diag = params.b * m - coupling_diagonal(params, two_s, m)
    plus2 = ladder2(two_s, m[:-2])  # M = -S .. S-2
    off2 = off_diagonal_scale(params) * plus2
    return SpinBlock(n=n, two_s=two_s, diag=diag, off2=off2, ladder2=plus2,
                     multiplicity=multiplicity(n, two_s))


def parity_split(block: SpinBlock) -> ParityBlocks:
    """Split a sector block into its two parity-definite tridiagonal halves.

    |S,M> has parity (-1)^(M + n/2); in the M-ascending indexing the state at
    index j carries (n - 2S)/2 + j mod 2.  Sub-blocks take every second index,
    so the parent off2 couplings become their nearest-neighbor couplings.
    """
    n, two_s = block.n, block.two_s
    m = block.m_values()
    base = (n - two_s) // 2
    blocks = []
    for start in (0, 1):
        idx = np.arange(start, block.dim, 2)
        if len(idx) == 0:
            continue
        parity = 1 if (base + start) % 2 == 0 else -1
        blocks.append(TridiagonalBlock(
            parity=parity,
            m_values=m[idx],
            diag=block.diag[idx],
            off=block.off2[idx[:-1]] if len(idx) > 1 else np.zeros(0),
            plus2=block.ladder2[idx[:-1]] if len(idx) > 1 else np.zeros(0),
        ))
    return ParityBlocks(n=n, two_s=two_s, multiplicity=block.multiplicity,
                        blocks=tuple(blocks))
