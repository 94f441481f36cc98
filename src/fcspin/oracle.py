"""Dense 2^n brute-force reference implementation (ground truth for tests).

Everything here is deliberately naive: build the full Hamiltonian from
single-site operators, diagonalize it densely, form the thermal state, trace
out n-2 spins.  Real arithmetic throughout: products s_y^i s_y^j are even in
the imaginary unit, so H is real symmetric when written via the real
antisymmetric k_y = -i s_y.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

import numpy as np

from .errors import SymmetryViolationError
from .exact import (ConcurrenceReport, Correlators, PairDensity,
                    _ground_tolerance, concurrence)
from .params import ModelParams, check_pairs, check_temperature

__all__ = [
    "MAX_ORACLE_N",
    "full_hamiltonian",
    "thermal_density",
    "reduced_pair",
    "wootters_concurrence",
    "oracle_concurrence",
    "oracle_log_partition",
    "oracle_observables",
]

MAX_ORACLE_N = 12  # dense 4096 x 4096 is the largest sane size

_SX = np.array([[0.0, 0.5], [0.5, 0.0]])
_KY = np.array([[0.0, -0.5], [0.5, 0.0]])  # s_y = i k_y
_SZ = np.array([[0.5, 0.0], [0.0, -0.5]])
_ID = np.eye(2)


def _check_n(n: int) -> None:
    if n > MAX_ORACLE_N:
        raise ValueError(f"oracle capped at n <= {MAX_ORACLE_N}, got n={n}")


def _site_op(op: np.ndarray, i: int, n: int) -> np.ndarray:
    mats = [_ID] * n
    mats[i] = op
    return reduce(np.kron, mats)


def _collective(op: np.ndarray, n: int) -> np.ndarray:
    # C_k = C_(k-1) x 1 + 1 x op appends the k-th site; its entries are sums
    # of exact halves, equal to the site-by-site sum's up to the sign of zero
    c = op
    for k in range(1, n):
        c = np.kron(c, _ID) + np.kron(np.eye(2 ** k), op)
    return c


@lru_cache(maxsize=1)
def _collective_ops(n: int) -> tuple[np.ndarray, ...]:
    """S_z, S_x^2, K_y^2 and S_z^2 of n spins, built once per n.

    S_x and K_y serve only their squares and are dropped.  The cached
    arrays are read-only; at n = 12 they hold 4 x 134 MB until n changes.
    """
    sx, ky, sz = (_collective(op, n) for op in (_SX, _KY, _SZ))
    ops = (sz, sx @ sx, ky @ ky, sz @ sz)
    for a in ops:
        a.flags.writeable = False
    return ops


def _trace_product(rho: np.ndarray, a: np.ndarray) -> float:
    """Tr(rho A) as the elementwise sum of rho and A transposed."""
    return float(np.einsum("ij,ji->", rho, a))


def full_hamiltonian(params: ModelParams, form: str = "collective") -> np.ndarray:
    """Dense H, either from collective operators or from the pairwise sum.

    Both forms are mathematically identical; having them independently coded
    lets tests check the construction against itself.
    """
    _check_n(params.n)
    n = params.n
    b, vx, vy, vz = params.b, params.v_x, params.v_y, params.v_z
    dim = 2 ** n
    if form == "collective":
        sz, sx2, ky2, sz2 = _collective_ops(n)
        quarter = 0.25 * n * np.eye(dim)
        # S_y^2 = (i K_y)^2 = -K_y K_y
        return (b * sz
                - (vx * (sx2 - quarter)
                   + vy * (-ky2 - quarter)
                   + vz * (sz2 - quarter)) / n)
    if form == "pairwise":
        h = b * _collective(_SZ, n)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                h -= (vx * _site_op(_SX, i, n) @ _site_op(_SX, j, n)
                      - vy * _site_op(_KY, i, n) @ _site_op(_KY, j, n)
                      + vz * _site_op(_SZ, i, n) @ _site_op(_SZ, j, n)) / n
        return h
    raise ValueError(f"unknown form {form!r}")


def thermal_density(params: ModelParams, T: float) -> np.ndarray:
    """rho = exp(-H/T)/Z by full eigendecomposition; T=0 is the equal-weight
    mixture of all states degenerate with the ground state."""
    check_temperature(T)
    h = full_hamiltonian(params)
    w, v = np.linalg.eigh(h)
    if T == 0:
        mask = w <= w[0] + _ground_tolerance(params)
        p = mask / mask.sum()
    else:
        p = np.exp(-(w - w[0]) / T)
        p /= p.sum()
    return (v * p) @ v.T


def reduced_pair(state: np.ndarray, i: int = 0, j: int = 1) -> PairDensity:
    """Partial trace of a permutation-invariant state down to spins (i, j).

    Parity-forbidden matrix elements must vanish; anything above 1e-10 there
    (or any asymmetry between the two p_0 diagonal entries) signals a
    construction bug and raises SymmetryViolationError.
    """
    if i == j:
        raise ValueError("need two distinct sites")
    n = round(math.log2(state.shape[0]))
    order = [i, j] + [k for k in range(n) if k not in (i, j)]
    perm = order + [n + a for a in order]
    rt = state.reshape((2,) * (2 * n)).transpose(perm)
    rt = rt.reshape(4, 2 ** (n - 2), 4, 2 ** (n - 2))
    rho4 = np.einsum("akbk->ab", rt)

    allowed = np.zeros((4, 4), dtype=bool)
    allowed[np.diag_indices(4)] = True
    allowed[0, 3] = allowed[3, 0] = allowed[1, 2] = allowed[2, 1] = True
    stray = np.abs(np.where(allowed, 0.0, rho4)).max()
    if stray > 1e-10:
        raise SymmetryViolationError(
            f"parity-forbidden pair matrix element of size {stray:g}")
    if abs(rho4[1, 1] - rho4[2, 2]) > 1e-10:
        raise SymmetryViolationError("pair state not permutation symmetric")

    p_plus, p_minus = float(rho4[0, 0]), float(rho4[3, 3])
    p_zero = float(0.5 * (rho4[1, 1] + rho4[2, 2]))
    a_plus = float(0.5 * (rho4[0, 3] + rho4[3, 0]))
    a_minus = float(0.5 * (rho4[1, 2] + rho4[2, 1]))
    return PairDensity(
        n=n,
        p_plus=p_plus,
        p_minus=p_minus,
        p_zero=p_zero,
        alpha_plus=a_plus,
        alpha_minus=a_minus,
        alpha_x=0.5 * (a_plus + a_minus),
        alpha_y=0.5 * (a_minus - a_plus),
        alpha_z=0.25 * (p_plus + p_minus - 2 * p_zero),
        sz=0.5 * (p_plus - p_minus),
    )


def wootters_concurrence(rho4: np.ndarray) -> float:
    """General two-qubit concurrence from the spin-flipped eigenvalues.

    C = max(0, l1 - l2 - l3 - l4) with l_k the decreasing square roots of the
    eigenvalues of rho (sy x sy) rho* (sy x sy).  No X-form assumption.
    """
    sy2 = np.kron(2 * _KY, 2 * _KY)  # sigma_y x sigma_y is real: (i ky)x(i ky) = -ky x ky... sign cancels in the sandwich
    flipped = sy2 @ rho4.conj() @ sy2
    ev = np.linalg.eigvals(rho4 @ flipped)
    lam = np.sqrt(np.clip(ev.real, 0.0, None))
    lam.sort()
    return max(0.0, lam[-1] - lam[-2] - lam[-3] - lam[-4])


def oracle_concurrence(params: ModelParams, T: float, i: int = 0,
                       j: int = 1) -> ConcurrenceReport:
    """Thermal pair concurrence via BOTH the X-form and Wootters' formula.

    The two must agree (they coincide exactly for X states); a gap above
    1e-8 is treated as a bug, not a tolerance issue.
    """
    check_pairs(params.n)
    pd = reduced_pair(thermal_density(params, T), i, j)
    report = concurrence(pd)
    general = wootters_concurrence(pd.matrix())
    if abs(report.c - general) > 1e-8:
        raise SymmetryViolationError(
            f"X-form concurrence {report.c} vs Wootters {general}")
    return report


def oracle_log_partition(params: ModelParams, T: float) -> float:
    _check_n(params.n)
    check_temperature(T)
    w = np.linalg.eigvalsh(full_hamiltonian(params))
    if T == 0:
        mask = w <= w[0] + _ground_tolerance(params)
        return math.log(int(mask.sum()))
    a = -(w - w[0]) / T
    return float(np.log(np.exp(a).sum()) - w[0] / T)


def oracle_observables(params: ModelParams, T: float) -> Correlators:
    """alpha_mu and sz from global collective moments of the dense thermal state."""
    n = params.n
    _check_n(n)
    check_pairs(n)
    rho = thermal_density(params, T)
    sz, sx2, ky2, sz2 = _collective_ops(n)
    denom = n * (n - 1)
    m2x = _trace_product(rho, sx2)
    m2y = -_trace_product(rho, ky2)
    m2z = _trace_product(rho, sz2)
    return Correlators(
        alpha_x=(m2x - 0.25 * n) / denom,
        alpha_y=(m2y - 0.25 * n) / denom,
        alpha_z=(m2z - 0.25 * n) / denom,
        sz=_trace_product(rho, sz) / n,
    )
