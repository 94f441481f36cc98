"""Exact thermodynamics and pairwise entanglement from the sector blocks.

Every quantity follows from the parity-resolved sector spectra: the partition
function is a multiplicity-weighted sum over levels, and because both the
Hamiltonian eigenstates and the thermal state are permutation invariant, the
two-spin reduced state is an X-form matrix fully determined by the collective
correlators

    alpha_mu = (<S_mu^2> - n/4) / (n (n-1)),      sz = <S_z> / n.

Concurrences then come from the closed X-form expressions
C_+ = 2(|alpha_x - alpha_y| - p_0) and C_- = 2(|alpha_x + alpha_y| -
sqrt(p_+ p_-)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvalidStateError
from .params import ModelParams, check_pairs, check_temperature
from .roots import _sign_changes, brentq
from .spin_algebra import (coupling_diagonal, ladder2, off_diagonal_scale,
                           sector_multiplicities, sector_spins,
                           sub_block_elements)

__all__ = [
    "MAX_EXACT_N",
    "SectorSpectrum",
    "Spectra",
    "Correlators",
    "PairDensity",
    "ConcurrenceReport",
    "diagonalize",
    "log_partition",
    "thermal_observables",
    "pair_density",
    "concurrence",
    "formation_entanglement",
    "thermal_concurrence",
    "level_concurrence",
    "LimitTemperatures",
    "limit_temperatures",
    "spectrum_low",
    "parity_transitions",
]

# The largest n a Spectra is built for: the spectrum holds (n/2 + 1)^2
# levels, and its exact multiplicities take 1.4 s and 460 MB at n = 1e5.
MAX_EXACT_N = 100_000

# Levels within this multiple of v_x of the minimum energy, or n eps if that
# is larger (see _ground_tolerance), form the T = 0 equal-weight ground
# manifold (captures the broken-symmetry parity doublet).
GROUND_DEGENERACY_RTOL = 1e-12

# Levels whose log-weight lies more than BOLTZMANN_CUT + ln(level count) below
# the largest one get weight exactly 0, so the dropped Boltzmann mass is below
# e^-BOLTZMANN_CUT of the partition function.
BOLTZMANN_CUT = 50.0

LIMIT_SCAN_POINTS = 400  # temperatures scanned by limit_temperatures

_SCAN_CHUNK = 16  # temperatures per chunk of Spectra._thermal_moments

_VALIDATE_TOL = 1e-10  # PairDensity.validate: trace defect, lowest eigenvalue

# levels per chunk of a sub-block build, which bounds its temporaries
_BUILD_CHUNK = 1 << 15

# sub-blocks of at least _STAGED_DIM levels are solved in two stages, at
# most their lowest _PREFIX_LEVELS levels first (see _solve_stage)
_STAGED_DIM = 256
_PREFIX_LEVELS = 16

_FLOAT = np.finfo(float)


_flapack = None  # SciPy's compiled LAPACK module, loaded on the first solve


def _load_flapack():
    """SciPy's compiled LAPACK module ``_flapack``, for ``dstevd``/``dstemr``.

    ``scipy.linalg.lapack`` only re-exports that module's routines, but
    importing it runs ``scipy/linalg/__init__.py``, which loads some 300
    modules.  So the extension is loaded on its own from SciPy's ``linalg``
    directory, after ``import scipy`` (whose ``__init__`` sets up the
    bundled OpenBLAS library path on some platforms).  A missing
    ``_flapack`` raises ``ImportError``.
    """
    import importlib.machinery
    import importlib.util
    import os

    import scipy
    spec = importlib.machinery.PathFinder.find_spec(
        "_flapack", [os.path.join(d, "linalg") for d in scipy.__path__])
    if spec is None:
        raise ImportError("SciPy's compiled LAPACK module "
                          "scipy/linalg/_flapack was not found")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def eigh_tridiagonal(diag: np.ndarray, off: np.ndarray, lowest=None):
    """Eigenpairs of the tridiagonal matrix (diag, off) from LAPACK.

    Returns the levels in ascending order and their eigenvectors as
    columns; with ``lowest``, only the lowest that many.  A full solve is
    divide and conquer, ``dstevd``, with the workspace of SciPy's wrapper,
    LAPACK's minimum lwork = 1 + 4 N + N^2 and liwork = 3 + 5 N: it is
    ``scipy.linalg.lapack.dstevd(diag, off)``, bitwise.  A prefix is the
    call ``scipy.linalg.eigh_tridiagonal(diag, off, select="i",
    select_range=(0, lowest - 1), lapack_driver="stemr")`` makes, bitwise,
    without its per-call checks and workspace query: ``dstemr`` range 'I',
    the off-diagonal padded to length N as ``?STEMR`` requires, and
    LAPACK's minimum workspace for eigenvectors, lwork = 18 N and liwork =
    10 N.  The input must be finite (``Spectra`` checks it once, through
    its sub-block bounds); a nonzero ``info`` raises
    ``np.linalg.LinAlgError``.  Both routines come from SciPy's compiled
    LAPACK module, loaded on the first call (``_load_flapack``), so
    ``import fcspin`` loads no SciPy module and no solve loads
    ``scipy.linalg``.

    Every sub-block solve goes through this module-level name, so wrapping
    it counts the solves and the levels they return (``perfbench/tracer.py``
    does, for ``exact.tridiag_calls`` and ``exact.levels``).
    """
    global _flapack
    if _flapack is None:
        _flapack = _load_flapack()
    if lowest is None:
        w, v, info = _flapack.dstevd(diag, off)
        if info:
            raise np.linalg.LinAlgError(f"dstevd failed with info = {info}")
        return w, v
    dim = len(diag)
    e = np.zeros(dim)
    e[:-1] = off
    # range 'I' (2) with LAPACK's 1-based il, iu; vl, vu unused
    m, w, v, info = _flapack.dstemr(diag, e, 2, 0.0, 1.0, 1, lowest,
                                    compute_v=1, lwork=18 * dim,
                                    liwork=10 * dim)
    if info:
        raise np.linalg.LinAlgError(f"dstemr failed with info = {info}")
    return w[:m], v[:, :m]


def _solve_stage(diag: np.ndarray, off: np.ndarray, solved: int = 0):
    """Eigenpairs of a sub-block's next stage, given ``solved`` levels so far.

    Returns the levels ``solved, solved + 1, ...``, their eigenvectors on
    rows ``lo, lo + 1, ...`` of the block (zero on every other row) and
    ``lo``.  A sub-block of fewer than ``_STAGED_DIM`` levels is solved
    whole in one call, by divide and conquer (``dstevd``).  A larger one is
    solved in two stages: a prefix of at most ``_PREFIX_LEVELS`` of its
    lowest levels (``_solve_prefix``), then one full ``dstevd`` solve that
    supplies the rest and drops its own copy of the prefix.  How many
    levels the prefix keeps is a function of the block's elements alone,
    so a level always comes from the same call, whatever solved its
    sub-block's other levels.  Each call goes through the module global
    ``eigh_tridiagonal``, never a local alias: the benchmark's tracer
    counts solves and levels by wrapping that name.
    """
    if len(diag) == 1:
        return diag.astype(float), np.ones((1, 1)), 0
    if len(diag) < _STAGED_DIM:
        return (*eigh_tridiagonal(diag, off), 0)
    if not solved:
        return _solve_prefix(diag, off)
    w, v = eigh_tridiagonal(diag, off)
    return w[solved:], v[:, solved:], 0


def _solve_prefix(diag: np.ndarray, off: np.ndarray):
    """The certified lowest levels of a staged block, solved on a window.

    The lowest ``_PREFIX_LEVELS`` levels of these blocks live on a band of
    rows around the minimum of the diagonal and decay outside it, so they
    are solved (``dstemr`` range 'I') on the rows that ``_prefix_window``
    picks, their padding doubled until every returned vector v meets
    |off_edge v_edge| <= tol = dim eps norm at both window edges.  Padded
    with zeros, the vectors are Ritz vectors of the whole block whose
    residual has only those two rows, of norm r, so their levels lie
    within r of as many levels of the block (Kahan's residual bound;
    Parlett, *The Symmetric Eigenvalue Problem*, chs. 4 and 11).
    ``_certified_count`` keeps the lowest of them that a Sturm count of the
    whole block confirms: no level was skipped below them, and the next
    lies more than r + tol above the last kept, so a pair degenerate to
    rounding is never split between this call and the full solve.  If
    none is confirmed, the whole block is solved for the same levels, and
    if a cluster leaves no confirmed cut even there, the block is solved
    whole by ``dstevd`` at once.  Returns (levels, eigenvectors, lo) as
    ``_solve_stage`` does.
    """
    dim, count = len(diag), _PREFIX_LEVELS
    a = np.abs(off)
    radius = np.append(a, 0.0)
    radius[1:] += a
    # a zero block would make tol 0; its levels are one cluster anyway
    tol = dim * _FLOAT.eps * (float((np.abs(diag) + radius).max()) or 1.0)
    e2 = off * off
    lo, hi, pad = _prefix_window(diag, a, diag - radius, count, tol)
    while True:
        top, end = max(lo - pad[0], 0), min(hi + pad[1], dim)
        w, v = eigh_tridiagonal(diag[top:end], off[top:end - 1],
                                lowest=count)
        left = a[top - 1] * v[0] if top else np.zeros(len(w))
        right = a[end - 1] * v[-1] if end < dim else np.zeros(len(w))
        if (top, end) == (0, dim) or max(np.abs(left).max(),
                                         np.abs(right).max()) <= tol:
            break
        pad = (max(2 * pad[0], 16), max(2 * pad[1], 16))
    r = math.sqrt(left @ left + right @ right)
    kept = _certified_count(diag, e2, w, r + tol)
    if not kept and (top, end) != (0, dim):
        top = 0
        w, v = eigh_tridiagonal(diag, off, lowest=count)
        kept = _certified_count(diag, e2, w, tol)
    if not kept:
        return (*eigh_tridiagonal(diag, off), 0)
    return w[:kept], v[:, :kept], top


def _prefix_window(diag, a, lower, count: int, tol: float):
    """Rows [lo, hi) holding the peaks of the block's ``count`` lowest
    levels, and the padding (left, right) their decay calls for.

    An eigenvector peaks on a row whose Gershgorin lower bound ``lower``
    lies at or below its level, so the rows whose bound lies at or below
    an upper bound on level ``count`` hold every such peak; the window is
    their hull.  The upper bound takes no solve: the vectors sin(pi i /
    (m + 1)), i = 1 .. m, with signs that make every off-diagonal term
    negative, on ``count`` runs of m rows one row apart, are orthogonal
    and T is diagonal on their span, so their largest Rayleigh quotient
    bounds level ``count`` from above (Courant-Fischer).  The runs are
    placed around the lowest ``lower`` and m runs over powers of two; the
    least bound is kept.  Outside the hull a vector at a level below the
    bound U decays by about exp(-kappa) per row, cosh kappa = (diag - U) /
    (2 sqrt|off_left off_right|) (the WKB rate, for elements that vary
    slowly from row to row), and the padding on each side is the rows
    this takes to bring an amplitude of 1 down to tol / max|off|.
    ``_solve_prefix`` widens a window whose vectors decay more slowly.
    """
    dim = len(diag)
    centre = int(lower.argmin())
    bound, m = np.inf, 1
    while count * (m + 1) - 1 <= dim:
        rows, x2, xx = _trial_runs(count, m)
        # the runs centred on the lowest row, as far as the block allows
        rows = rows + min(max(centre - rows[-1, -1] // 2, 0),
                          dim - 1 - rows[-1, -1])
        q = float((diag[rows] @ x2 - a[rows[:, :-1]] @ xx).max())
        if q >= bound:
            break
        bound, m = q, 2 * m
    bound += tol  # the quotients' own rounding
    seed = np.flatnonzero(lower <= bound)
    lo, hi = int(seed[0]), int(seed[-1]) + 1
    # decay rate per row at the bound, on the rows outside the hull
    g = np.empty(dim)  # sqrt|off_left off_right|
    g[0], g[-1] = a[0], a[-1]
    np.sqrt(a[:-1] * a[1:], out=g[1:-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.arccosh(np.maximum((diag - bound) / (2.0 * g), 1.0))
    need = math.log(max(float(a.max()), tol) / tol)
    pad = (int(np.searchsorted(np.cumsum(kappa[lo - 1::-1] if lo else []),
                               need)) + 1,
           int(np.searchsorted(np.cumsum(kappa[hi:]), need)) + 1)
    return lo, hi, pad


@lru_cache(maxsize=None)
def _trial_runs(count: int, m: int):
    """``count`` runs of m rows one row apart, as rows from 0, and the
    weights of a Rayleigh quotient on each: x_i^2 and 2 |x_i x_i+1|, both
    over |x|^2, for x_i = sin(pi i / (m + 1))."""
    x = np.sin(np.pi / (m + 1) * np.arange(1, m + 1))
    x /= math.sqrt(x @ x)
    rows = (m + 1) * np.arange(count)[:, None] + np.arange(m)
    return (_read_only(rows), _read_only(x * x),
            _read_only(2.0 * x[:-1] * x[1:]))


def _certified_count(diag, e2, w, slack: float) -> int:
    """How many of the lowest levels w of a block a Sturm count confirms.

    The levels w lie within their residual bound of as many levels of the
    block (diag, off), e2 = off^2, and ``slack`` is that bound plus the
    tolerance.  The lowest k are confirmed when the block has exactly k
    levels below w[k - 1] + slack: none was skipped, and the next lies
    above that.  Tries k = len(w), then once k below the last gap of w
    wider than ``slack``, which leaves out a pair degenerate to rounding
    that straddles the first cut.  Returns 0 if neither is confirmed.
    """
    k = len(w)
    for _ in range(2):
        if _sturm_count(diag, e2, float(w[k - 1]) + slack) == k:
            return k
        wide = np.flatnonzero(np.diff(w[:k]) > slack)
        if not len(wide):
            return 0
        k = int(wide[-1]) + 1
    return 0


def _sturm_count(diag, e2, x: float) -> int:
    """Levels of the tridiagonal block (diag, off) below x, e2 = off^2.

    The negative pivots of the LDL^T factorization of T - x I (Sylvester's
    inertia), in the recurrence of LAPACK's ``dstebz`` (Barth, Martin &
    Wilkinson 1967), pivots of magnitude below ``pivmin`` set to -pivmin.
    """
    pivmin = _FLOAT.tiny * max(1.0, float(e2.max()))
    count, q = 0, 1.0
    for d, b in zip((diag - x).tolist(), [0.0, *e2.tolist()]):
        q = d - b / q
        if q < pivmin:
            if q > -pivmin:
                q = -pivmin
            count += 1
    return count


def _lowest_level_bounds(params: ModelParams, two_s, first, dims):
    """Gershgorin lower bound on the lowest level of each parity sub-block.

    In closed form, for the sub-blocks (2S, first) of ``dims`` levels: diag
    - |off| exactly on the two end rows, and on the rows between from
    ladder2(M) <= S(S+1) - (M+1)^2 (AM-GM on its factors (S + 1/2)^2 - x^2
    and (S + 1/2)^2 - (x + 1)^2, x = M + 1/2), a quadratic in M least at
    their ends or at its vertex clipped to them.  Widened by the solver's
    backward error dim eps 3 ||H||, as no row sum exceeds 3 ||H|| <= 3 (|b|
    n/2 + n (|v_x| + |v_y| + |v_z|)/4); returns the bounds and that
    widening.  It holds the elements' largest terms (their M = 0 and end
    rows), so a bound that is not finite raises ``ValueError``, and the
    solver, which checks nothing, never sees an inf or NaN.
    """
    n, b = params.n, params.b
    scale, s = abs(off_diagonal_scale(params)), two_s / 2.0
    ends = (first - s, first - s + 2.0 * (dims - 1))  # M of the end rows
    low = np.minimum(*(b * m - coupling_diagonal(params, two_s, m) - scale
                       * (ladder2(two_s, m) + ladder2(two_s, m - 2.0))
                       for m in ends))
    # between: diag - |off| >= b M + coef M^2 - X(0) - 2 scale (S(S+1) - 1)
    coef, rows = (params.v_x - params.v_z) / n, [ends[0] + 2.0, ends[1] - 2.0]
    if coef > 0:
        rows.append(np.clip(-0.5 * b / coef, *rows))
    inner = (np.min([(b + coef * m) * m for m in rows], axis=0)
             - coupling_diagonal(params, two_s, 0.0)
             - 2.0 * scale * (s * (s + 1.0) - 1.0))
    norm = 0.5 * abs(b) * n + 0.25 * n * sum(map(abs, params.couplings))
    slack = dims * _FLOAT.eps * 3.0 * norm
    low = np.where(dims > 2, np.minimum(low, inner), low) - slack
    if not np.isfinite(low).all():
        raise ValueError("sub-block elements must not contain infs or NaNs")
    return low, slack


def _ground_tolerance(params: ModelParams) -> float:
    """Levels this close to the minimum energy form the T = 0 ground manifold.

    max(GROUND_DEGENERACY_RTOL, n eps) v_x: the solver's rounding grows
    with the block norm, about n v_x, so a fixed multiple of v_x would split
    the broken-symmetry parity doublet at large n.
    """
    return max(GROUND_DEGENERACY_RTOL,
               params.n * np.finfo(float).eps) * params.v_x


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SectorSpectrum:
    """Parity-labeled levels of one total-spin sector with eigenstate moments.

    Arrays run over the sector's 2S+1 levels, parity groups concatenated and
    ascending in energy within each group; ``k_index`` numbers levels inside
    their parity group.
    """

    two_s: int
    multiplicity: int
    parity: np.ndarray
    k_index: np.ndarray
    energy: np.ndarray
    m2x: np.ndarray
    m2y: np.ndarray
    m2z: np.ndarray
    m1z: np.ndarray

    @property
    def s(self) -> float:
        return self.two_s / 2.0


class Spectra:
    """Parity-resolved spectrum of a parameter set, solved on demand.

    Construction computes a lower bound on the lowest level of every
    (S, parity) sub-block in closed form (``_lowest_level_bounds``); it
    solves none and keeps only per-sub-block data (and the elements, if
    they fit one build chunk).  A thermal evaluation at T solves only what
    can hold a level inside the Boltzmann window (see ``BOLTZMANN_CUT``),
    building those sub-blocks' elements, and keeps their levels and
    moments, in one store, for later temperatures: small
    sub-blocks whole, by divide and conquer (``dstevd``), large ones in two
    stages (``_solve_stage``).  The first solves the lowest
    ``_PREFIX_LEVELS`` levels by MRRR (``dstemr``) on the rows they live
    on, and keeps those that a residual bound and a Sturm count of the
    whole block certify (``_solve_prefix``); the second, one ``dstevd``
    solve, supplies the rest, only when the window reaches past them.  How
    many levels the first keeps depends on the block alone, so each level
    always comes from the same solver call; a thermal sum runs over the
    levels inside the cut only, in a fixed order, so a result depends on
    (params, T) alone, not on the temperatures evaluated before.  The
    moments of a level come from the rows its eigenvector was solved on.

    ``sectors`` is the one full-spectrum view: it solves every sub-block
    and hands out each sector's rows of the store, in ``sector_spins``
    order.  ``ground_energy`` solves only the T = 0 window.  Every array
    handed out is read-only.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        n = params.n
        if n > MAX_EXACT_N:
            raise ValueError(
                f"exact spectrum capped at n <= {MAX_EXACT_N}, got n={n}")
        # the n + 1 sub-blocks (2S, first kept M index): both halves of each
        # sector, but 2S = 0 has no odd half
        self._sub_two_s = np.repeat(sector_spins(n), 2)[:n + 1]
        self._sub_first = np.arange(n + 1) % 2
        # |S,M_j> has parity (-1)^((n - 2S)/2 + j)
        self._sub_parity = 1 - 2 * (((n - self._sub_two_s) // 2
                                     + self._sub_first) % 2)
        self._dims = (self._sub_two_s - self._sub_first) // 2 + 1
        self._multiplicity = sector_multiplicities(n)
        log_y = np.array([math.log(y) for y in self._multiplicity])
        self._sub_log_mult = log_y[(n - self._sub_two_s) // 2]  # by sector
        self._off_scale = off_diagonal_scale(params)
        # lower bound on each sub-block's lowest unsolved level: the
        # closed-form Gershgorin bound, then the solved prefix's last level
        # less the same widening, then +inf once the sub-block is complete
        self._low, self._slack = _lowest_level_bounds(
            params, self._sub_two_s, self._sub_first, self._dims)
        levels = int(self._dims.sum())
        # a spectrum that fits one build chunk (n <= 360) keeps its elements,
        # at most 2 x _BUILD_CHUNK floats: slicing them beats rebuilding them
        # for its many small rounds.  A larger one builds those of the
        # sub-blocks each round solves
        self._kept = (next(self._build(np.arange(n + 1)))[1:]
                      if levels <= _BUILD_CHUNK else None)
        self._ground = np.full(n + 1, np.inf)  # lowest level, once solved
        self._open = n + 1  # sub-blocks not yet complete
        self._cut = BOLTZMANN_CUT + math.log(levels)
        # the solved levels, by sub-block and ascending within each (a
        # sub-block's solved levels are its lowest): rows energy, m2x, m2y,
        # m2z, m1z and ln Y
        self._offset = np.cumsum(self._dims) - self._dims  # flat index of k = 0
        self._count = np.zeros(n + 1, dtype=int)  # levels solved per sub-block
        self._levels = _read_only(np.empty((6, 0)))
        self._last = None  # see _window_weights

    def _build(self, blocks: np.ndarray):
        """(blocks, diag, plus2) per run of about ``_BUILD_CHUNK`` levels.

        Runs of whole sub-blocks of ``blocks``, in order, with their
        elements laid end to end (see ``sub_block_elements``); the chunks
        bound the build's temporaries.
        """
        start = np.append(0, np.cumsum(self._dims[blocks]))
        edges = [0, len(blocks)]
        if start[-1] > _BUILD_CHUNK:
            edges = np.unique(np.append(np.searchsorted(
                start, np.arange(0, start[-1], _BUILD_CHUNK)), len(blocks)))
        for a, b in zip(edges[:-1], edges[1:]):
            m, x, plus2 = sub_block_elements(
                self.params, self._sub_two_s[blocks[a:b]],
                self._sub_first[blocks[a:b]])
            diag = np.multiply(self.params.b, m, out=m)
            diag -= x
            yield blocks[a:b], diag, plus2

    def _elements(self, blocks: np.ndarray):
        """(j, diag, plus2) of each sub-block j of ``blocks``, in order."""
        if self._kept is not None:
            runs = [(blocks, *self._kept, self._offset[blocks])]
        else:
            runs = ((chunk, diag, plus2,
                     np.cumsum(self._dims[chunk]) - self._dims[chunk])
                    for chunk, diag, plus2 in self._build(blocks))
        for chunk, diag, plus2, start in runs:
            for j, lo, dim in zip(chunk.tolist(), start.tolist(),
                                  self._dims[chunk].tolist()):
                yield j, diag[lo:lo + dim], plus2[lo:lo + dim]

    def _advance(self, blocks) -> None:
        """Solve the next stage of each sub-block of ``blocks``, ascending.

        See ``_solve_stage``.  The new levels are merged into the store in
        order: a sub-block's new levels go in as one run.
        """
        blocks = np.asarray(blocks)
        at = np.cumsum(self._count)[blocks].tolist()  # after each one's own
        parts, lo = [], 0
        for hi, (j, diag, plus2) in zip(at, self._elements(blocks)):
            parts += [self._levels[:, lo:hi],
                      self._solve_next(j, diag, plus2[:-1])]
            lo = hi
        self._levels = _read_only(np.concatenate(
            parts + [self._levels[:, lo:]], axis=1))
        self._last = None

    def _solve_next(self, j: int, diag: np.ndarray,
                    plus2: np.ndarray) -> np.ndarray:
        """Sub-block j's next stage: its new levels as columns of the store."""
        done = int(self._count[j])
        # the eigenvectors live on rows lo .. hi - 1 of the sub-block
        w, v, lo = _solve_stage(diag, self._off_scale * plus2, done)
        hi = lo + len(v)
        p = v * v
        s = self._sub_two_s[j] / 2.0
        m = np.arange(self._sub_first[j] - s, s + 1.0, 2.0)[lo:hi]  # M, exact
        mz2 = (m * m) @ p
        # <S_+^2 + S_-^2> = 2 sum_j c_j v_j v_{j+1} for real eigenvectors
        pp = (2.0 * (plus2[lo:hi - 1] @ (v[:-1] * v[1:])) if hi > lo + 1
              else 0.0)
        half = 0.5 * (s * (s + 1.0) - mz2)
        new = np.empty((6, len(w)))
        new[0], new[1], new[2] = w, half + 0.25 * pp, half - 0.25 * pp
        new[3], new[4], new[5] = mz2, m @ p, self._sub_log_mult[j]
        if not done:
            self._ground[j] = w[0]
        self._count[j] = done = done + len(w)
        if done < len(diag):
            self._low[j] = w[-1] - self._slack[j]
        else:
            self._low[j] = np.inf
            self._open -= 1
        return new

    def _block(self, j: int) -> np.ndarray:
        """Sub-block j's solved levels: rows energy, m2x, m2y, m2z, m1z."""
        lo = int(self._count[:j].sum())
        return self._levels[:5, lo:lo + self._count[j]]

    @property
    def _complete(self) -> bool:
        return not self._open

    def _log_weights(self, e: np.ndarray, t: np.ndarray) -> np.ndarray:
        """ln Y - E/T per sub-block (rows, energies e) and T of t (columns).

        At T = 0, which comes alone (``t == [0]``), it is -E, the order of
        the ground manifold.
        """
        if t[0] == 0:
            return -e[:, None]
        return self._sub_log_mult[:, None] - e[:, None] / t

    def _solve_window(self, t: np.ndarray) -> np.ndarray:
        """Solve every level that can lie inside the window at some T of t.

        A fixed point over the bounds on the sub-blocks' lowest unsolved
        levels: each round advances every sub-block whose bound comes
        within the window of the top at some T, until none does; the first
        starts from the best bound.  The others stay out as the top grows,
        so a round that completes every sub-block it advances is the last.
        Returns the top, the largest log-weight of a level at each T:
        within a sub-block Y is fixed, so it is that of a ground level.
        """
        width = (_ground_tolerance(self.params) if t[0] == 0
                 else self._cut)
        settled = False
        while True:
            top = self._log_weights(self._ground, t).max(axis=0)
            if settled or self._complete:
                return top
            best = self._log_weights(self._low, t)
            if top[0] == -np.inf:  # nothing solved yet
                self._advance([int(best[:, 0].argmax())])
                continue
            todo = np.flatnonzero((best >= top - width).any(axis=1))
            if not len(todo):
                return top
            self._advance(todo)
            settled = (self._low[todo] == np.inf).all()

    def _window_weights(self, t: np.ndarray):
        """Boltzmann weights of the levels inside the window, per T of t.

        Returns (top, idx, w): ``top[i]`` is the largest log-weight at t[i],
        ``idx`` the store positions of the levels inside the window
        at some T of t, ascending, and ``w[i]`` their weights Y e^(-E/t[i])
        / e^top[i], exactly 0 more than the cut below the top.  At T = 0,
        which comes alone, the levels are those of the ground manifold,
        weighted by Y alone.  Which other levels earlier calls solved
        changes neither the levels in ``idx`` nor their order, so sums over
        them depend on (params, t) alone.  This is the one weighting path of
        ``log_partition``, ``thermal_observables`` and ``_thermal_moments``.
        The last result is kept until the next solve: a caller that wants
        both ln Z and the correlators at one T weighs once.
        """
        key = t.tobytes()
        if self._last is not None and self._last[0] == key:
            return self._last[1]
        self._last = None  # freed before the new weights are made
        if len(t) == 1:  # every solved level, each less the top
            # kept apart from the chunk branch on purpose (n = 100, 2-core
            # VM): one T > 0 through that branch made a cached 200-T sweep
            # take 17 -> 28 ms, and scan columns bitwise equal to this branch
            # made a fresh limit_temperatures take 24 -> 31-46 ms
            if not self._complete:
                self._solve_window(t)
            e, lm = self._levels[0], self._levels[5]
            if t[0] == 0:
                a = np.where(e <= self._ground.min()
                             + _ground_tolerance(self.params), lm, -np.inf)
            else:
                a = np.divide(e, t[0])
                np.subtract(lm, a, out=a)
            # at T > 0 also the window's top: within a sub-block the ground
            # level weighs most
            top = a.max(keepdims=True)
            a -= top[0]
            idx = np.flatnonzero(a >= -self._cut)
            w = np.exp(a.take(idx))[None, :]
        else:
            top = self._solve_window(t)
            e, lm = self._levels[0], self._levels[5]
            # ln Y - E/T is linear in 1/T, so a level peaks over the chunk
            # at its coldest or hottest T; the slack of 1 absorbs rounding
            peak = np.maximum(lm - e / t.min(), lm - e / t.max())
            idx = np.flatnonzero(peak >= top.min() - self._cut - 1.0)
            # log-weights, one row per T, each less its own top
            a = np.divide(e.take(idx), t[:, None])
            np.subtract(lm.take(idx), a, out=a)
            a -= top[:, None]
            keep = (a >= -self._cut).any(axis=0)
            a, idx = a[:, keep], idx[keep]
            drop = a < -self._cut
            w = np.exp(a, out=a)
            w[drop] = 0.0
        self._last = (key, (top, idx, w))
        return top, idx, w

    def _thermal_moments(self, temps) -> np.ndarray:
        """Weighted moments (m2x, m2y, m2z, m1z), one column per positive T.

        Temperatures go in chunks of ``_SCAN_CHUNK``, and each column keeps
        its own top and zeroes the levels more than the cut below it, so
        the result depends on (params, temps) alone, not on earlier calls.
        """
        temps = np.asarray(temps, dtype=float)
        if not np.all(temps > 0):
            raise ValueError("batched temperatures must be positive")
        return np.hstack([self._chunk_moments(temps[i:i + _SCAN_CHUNK])
                          for i in range(0, len(temps), _SCAN_CHUNK)])

    def _chunk_moments(self, t: np.ndarray) -> np.ndarray:
        """Weighted moments at the temperatures of t, one column each.

        ``_thermal_moments`` for one chunk; ``thermal_observables`` calls it
        with its one T, which may be 0.
        """
        _, idx, w = self._window_weights(t)
        moments = self._levels[1:5]
        if len(idx) < moments.shape[1]:  # else all of them, in order
            moments = moments.take(idx, axis=1)
        if len(t) == 1:
            return (moments @ w[0] / w.sum())[:, None]
        # one matrix-vector product per moment: a matrix product would make
        # resident BLAS level-3 code and buffers that nothing else here uses
        return np.array([w @ m for m in moments]) / w.sum(axis=1)

    def _solve_lowest(self, count: int) -> None:
        """Solve the ``count`` lowest levels and every level tied with them.

        Advances stages, lowest bound first, until the ``count`` lowest
        solved levels lie strictly below every unsolved level's bound.
        """
        count = min(count, int(self._dims.sum()))
        while not self._complete:
            e = self._levels[0]
            kth = (np.partition(e, count - 1)[count - 1] if len(e) >= count
                   else np.inf)
            j = int(self._low.argmin())
            if self._low[j] > kth:
                return
            self._advance([j])

    def _solve_all(self) -> None:
        while not self._complete:
            self._advance(np.flatnonzero(self._low < np.inf))

    @cached_property
    def sectors(self) -> tuple[SectorSpectrum, ...]:
        # sector i is sub-blocks 2i and 2i + 1, laid end to end in the store
        self._solve_all()
        out = []
        for i, ts in enumerate(sector_spins(self.params.n)):
            subs, lo = slice(2 * i, 2 * i + 2), int(self._offset[2 * i])
            dims = self._dims[subs]
            out.append(SectorSpectrum(
                ts, self._multiplicity[i],
                _read_only(np.repeat(self._sub_parity[subs], dims)),
                _read_only(np.concatenate([np.arange(d) for d in dims])),
                *self._levels[:5, lo:lo + ts + 1]))
        return tuple(out)

    @property
    def ground_energy(self) -> float:
        self._solve_window(np.zeros(1))
        return float(self._ground.min())


@lru_cache(maxsize=4)
def diagonalize(params: ModelParams) -> Spectra:
    """Build every (S, parity) sub-block; levels are solved on demand.

    Results are cached on the (hashable, frozen) parameter set, so a
    temperature scan on one parameter set solves each sub-block at most
    once.  The arrays it hands out are read-only.
    """
    return Spectra(params)


def _one_temperature(T: float) -> np.ndarray:
    check_temperature(T)
    return np.array([T], dtype=float)


def log_partition(spectra: Spectra, T: float) -> float:
    """ln Z = ln sum_S Y(S) sum_k exp(-E/T), exact in log domain.

    Sums the levels inside the Boltzmann window, which misses at most a
    fraction e^-50 of Z.  At T = 0, where ln Z itself diverges, returns the
    ground-manifold regularization ln(sum of Y over states within the
    degeneracy tolerance of the minimum energy), i.e. the log ground
    degeneracy.
    """
    top, _, w = spectra._window_weights(_one_temperature(T))
    return float(top[0]) + math.log(w.sum(axis=1)[0])


@dataclass(frozen=True)
class Correlators:
    """Intensive pair correlators: alpha_mu = <s_mu^i s_mu^j> (i != j), sz = <s_z^i>."""

    alpha_x: float
    alpha_y: float
    alpha_z: float
    sz: float


def _correlators(moments, n: int) -> Correlators:
    """Correlators from the moments (m2x, m2y, m2z, m1z), floats or arrays."""
    m2x, m2y, m2z, m1z = moments
    denom = n * (n - 1)
    return Correlators(alpha_x=(m2x - 0.25 * n) / denom,
                       alpha_y=(m2y - 0.25 * n) / denom,
                       alpha_z=(m2z - 0.25 * n) / denom, sz=m1z / n)


def thermal_observables(spectra: Spectra, T: float) -> Correlators:
    """Thermal alpha_mu and sz from multiplicity-weighted eigenstate moments."""
    n = spectra.params.n
    check_pairs(n)
    moments = spectra._chunk_moments(_one_temperature(T))
    return _correlators(moments[:, 0].tolist(), n)


@dataclass(frozen=True)
class PairDensity:
    """Two-spin reduced density matrix of a permutation-invariant parity-definite state.

    In the standard product basis (uu, ud, du, dd) the matrix is

        [[p_+,  0,    0,    a_+],
         [0,    p_0,  a_-,  0  ],
         [0,    a_-,  p_0,  0  ],
         [a_+,  0,    0,    p_-]]

    with p_pm = 1/4 + alpha_z +- sz, p_0 = 1/4 - alpha_z, a_+ = alpha_x -
    alpha_y, a_- = alpha_x + alpha_y.
    """

    n: int
    p_plus: float
    p_minus: float
    p_zero: float
    alpha_plus: float
    alpha_minus: float
    alpha_x: float
    alpha_y: float
    alpha_z: float
    sz: float

    def matrix(self) -> np.ndarray:
        return np.array([
            [self.p_plus, 0.0, 0.0, self.alpha_plus],
            [0.0, self.p_zero, self.alpha_minus, 0.0],
            [0.0, self.alpha_minus, self.p_zero, 0.0],
            [self.alpha_plus, 0.0, 0.0, self.p_minus],
        ])

    def eigenvalues(self) -> np.ndarray:
        """Analytic X-form eigenvalues (two 2x2 blocks)."""
        mean = 0.5 * (self.p_plus + self.p_minus)
        r = math.hypot(0.5 * (self.p_plus - self.p_minus), self.alpha_plus)
        return np.sort(np.array([
            mean - r, mean + r,
            self.p_zero - self.alpha_minus, self.p_zero + self.alpha_minus,
        ]))

    def validate(self) -> None:
        """Assert the physicality invariants; raises InvalidStateError."""
        if abs(self.p_plus + self.p_minus + 2 * self.p_zero - 1.0) > _VALIDATE_TOL:
            raise InvalidStateError("pair probabilities do not sum to 1")
        lo = -1.0 / (4 * (self.n - 1)) - 1e-12
        for a in (self.alpha_x, self.alpha_y, self.alpha_z):
            if not lo <= a <= 0.25 + 1e-12:
                raise InvalidStateError(f"correlator {a} outside [{lo}, 0.25]")
        if self.eigenvalues()[0] < -_VALIDATE_TOL:
            raise InvalidStateError("pair density not positive semidefinite")


def pair_density(corr: Correlators, n: int) -> PairDensity:
    """Assemble the X-form two-spin state from collective correlators."""
    return PairDensity(
        n=n,
        p_plus=0.25 + corr.alpha_z + corr.sz,
        p_minus=0.25 + corr.alpha_z - corr.sz,
        p_zero=0.25 - corr.alpha_z,
        alpha_plus=corr.alpha_x - corr.alpha_y,
        alpha_minus=corr.alpha_x + corr.alpha_y,
        alpha_x=corr.alpha_x,
        alpha_y=corr.alpha_y,
        alpha_z=corr.alpha_z,
        sz=corr.sz,
    )


@dataclass(frozen=True)
class ConcurrenceReport:
    c_plus: float
    c_minus: float
    c: float
    kind: str  # parallel | antiparallel | separable


def _signed_concurrences(pd: PairDensity):
    """Signed (C_+, C_-) of an X-form state whose fields are floats or arrays."""
    rad = pd.p_plus * pd.p_minus
    if np.min(rad) < -1e-10:
        raise InvalidStateError(
            f"p_+ p_- = {np.min(rad)} < 0: sz exceeds the compatible range")
    c_plus = 2.0 * (abs(pd.alpha_plus) - pd.p_zero)
    c_minus = 2.0 * (abs(pd.alpha_minus) - np.sqrt(np.maximum(rad, 0.0)))
    return c_plus, c_minus


def concurrence(pd: PairDensity) -> ConcurrenceReport:
    """Concurrence of an X-form pair state.

    C_+ = 2(|a_+| - p_0) detects parallel (uu/dd) entanglement, C_- =
    2(|a_-| - sqrt(p_+ p_-)) antiparallel; at most one can be positive and
    C = max(C_+, C_-, 0).
    """
    c_plus, c_minus = map(float, _signed_concurrences(pd))
    c = max(c_plus, c_minus, 0.0)
    if c_plus > 0.0:
        kind = "parallel"
    elif c_minus > 0.0:
        kind = "antiparallel"
    else:
        kind = "separable"
    return ConcurrenceReport(c_plus=c_plus, c_minus=c_minus, c=c, kind=kind)


def formation_entanglement(c: float) -> float:
    """Entanglement of formation E(C) = h((1 + sqrt(1 - C^2))/2), h binary entropy (base 2)."""
    if not -1e-12 <= c <= 1.0 + 1e-12:
        raise ValueError(f"concurrence {c} outside [0, 1]")
    c = min(max(c, 0.0), 1.0)
    if c == 0.0:
        return 0.0
    if c == 1.0:
        return 1.0
    q = 0.5 * (1.0 + math.sqrt(1.0 - c * c))
    return -(q * math.log2(q) + (1.0 - q) * math.log2(1.0 - q))


def thermal_concurrence(params: ModelParams, T: float) -> ConcurrenceReport:
    """Exact thermal pair concurrence at temperature T."""
    spectra = diagonalize(params)
    corr = thermal_observables(spectra, T)
    return concurrence(pair_density(corr, params.n))


def level_concurrence(spectra: Spectra, two_s: int, k: int,
                      parity: int) -> ConcurrenceReport:
    """Concurrence of the Y(S)-fold degenerate mixture of one level.

    The equal-weight mixture over the multiplicity copies of level (S, k, nu)
    is permutation invariant and parity definite, so the same X-form
    reduction applies with that eigenstate's moments.
    """
    n = spectra.params.n
    check_pairs(n)
    hit = np.flatnonzero((spectra._sub_two_s == two_s)
                         & (spectra._sub_parity == parity))
    if len(hit) != 1 or k not in range(spectra._dims[hit[0]]):
        raise ValueError(f"no level with 2S={two_s}, k={k}, parity={parity:+d}")
    # advance only the level's own sub-block, as far as the level
    j = int(hit[0])
    while spectra._count[j] <= k:
        spectra._advance([j])
    corr = _correlators(spectra._block(j)[1:, k].tolist(), n)
    return concurrence(pair_density(corr, n))


# ---------------------------------------------------------------------------
# limit temperatures, low spectrum, parity transitions


@dataclass(frozen=True)
class LimitTemperatures:
    """Temperature intervals with positive parallel / antiparallel concurrence."""

    plus: tuple[tuple[float, float], ...]
    minus: tuple[tuple[float, float], ...]

    @property
    def t_plus(self) -> float | None:
        return max((hi for _, hi in self.plus), default=None)

    @property
    def t_minus(self) -> float | None:
        return max((hi for _, hi in self.minus), default=None)


def _signed_c_of_t(spectra: Spectra, T: float) -> tuple[float, float]:
    rep = concurrence(pair_density(thermal_observables(spectra, T),
                                   spectra.params.n))
    return rep.c_plus, rep.c_minus


def _signed_c_between(T: float, spectra: Spectra, comp: int,
                      table: dict) -> float:
    """C_+ (comp 0) or C_- (comp 1) at T, for ``brentq(..., args=...)``.

    A scanned T reads its row of ``table``, so the polish starts from the
    signs the scan found; only a T strictly inside a bracket is evaluated.
    The spectrum travels in ``args``, not in a closure: ``roots.brentq``
    holds the callable and its arguments only in its own frame, so the
    spectrum dies with its ``diagonalize`` cache entry, without waiting for
    a GC run (``tests/test_exact.py`` checks this with the collector off).
    """
    return (table[T] if T in table else _signed_c_of_t(spectra, T))[comp]


def _signed_c_on_grid(spectra: Spectra, grid) -> np.ndarray:
    """Signed (C_+, C_-) at every positive T of grid, one row each.

    The grid goes in chunks through the same weighting as
    ``thermal_observables`` (``Spectra._window_weights``).
    """
    n = spectra.params.n
    corr = _correlators(spectra._thermal_moments(grid), n)
    return np.column_stack(_signed_concurrences(pair_density(corr, n)))


def limit_temperatures(params: ModelParams) -> LimitTemperatures:
    """All temperature intervals where C_+ > 0 and where C_- > 0.

    Tabulates C_pm at T = 0 (the ground manifold) and, in one batched pass,
    on ``LIMIT_SCAN_POINTS`` geometric nodes in [1e-4, 2] v_x, extended at
    the grid's ratio by a doubling (28 nodes) while a branch is positive at
    the top.  That ends: as T -> inf the pair density tends to 1/4 and C_pm
    to -1/2.  Each interval end comes from one sign-change scan of the table
    (``roots._sign_changes``): a zero node is itself an end, and a bracket
    is polished by ``brentq`` from its tabulated ends to 1e-5 v_x, but the
    bracket [0, 1e-4 v_x], whose root may lie far below 1e-5 v_x, to 1e-5 of
    that root.  On 40 seeded draws at n <= 60, ten just above the factorizing
    field, the intervals match a 20 000-point scan (``tests/test_roots.py``).
    """
    spectra = diagonalize(params)
    vx = params.v_x
    t = np.concatenate(([0.0], np.geomspace(1e-4 * vx, 2.0 * vx,
                                            LIMIT_SCAN_POINTS)))
    vals = np.vstack((_signed_c_of_t(spectra, 0.0),
                      _signed_c_on_grid(spectra, t[1:])))
    while (vals[-1] > 0).any():
        t = np.append(t, t[-1] * (t[2] / t[1]) ** np.arange(1, 29))
        vals = np.vstack((vals, _signed_c_on_grid(spectra, t[-28:])))
    table = dict(zip(t.tolist(), vals.tolist()))

    out = []
    for comp in (0, 1):
        col = vals[:, comp]
        args = (spectra, comp, table)
        # alternating starts and ends of the positive runs
        edges = [0.0] if col[0] > 0 else []
        for c in _sign_changes(t, col):
            # the bracket from T = 0 may hold a root far below 1e-5 v_x: to
            # 1e-5 of that root, over a floor of eps 1e-5 v_x that keeps
            # brentq within its 100 iterations
            tol = ({"xtol": 1e-5 * vx} if c.lo > 0.0
                   else {"xtol": _FLOAT.eps * 1e-5 * vx, "rtol": 1e-5})
            x = c.polish(brentq, _signed_c_between, args=args, **tol)
            edges += [x] * ((c.before > 0) + (c.after > 0))
        out.append(tuple(zip(edges[::2], edges[1::2])))
    return LimitTemperatures(plus=out[0], minus=out[1])


def spectrum_low(spectra: Spectra, count: int) -> list[tuple[int, int, int, float]]:
    """Lowest ``count`` excitations above the global ground state.

    Returns (two_s, k, parity, delta_e) tuples sorted by excitation energy;
    the ground level itself is excluded but its (near-)degenerate partners
    are kept, with delta_e ~ 0.  Solves only as much of the spectrum as
    the ``count + 1`` lowest levels need.
    """
    spectra._solve_lowest(count + 1)
    e = spectra._levels[0]
    order = np.argsort(e, kind="stable")
    idx = order[1:count + 1]
    # label each level by its sub-block j, which ends the store's first
    # run of ``end[j]`` levels
    end = np.cumsum(spectra._count)
    j = np.searchsorted(end, idx, side="right")
    return [(int(ts), int(k), int(par), float(e[i] - e[order[0]]))
            for i, ts, k, par in zip(idx, spectra._sub_two_s[j],
                                     idx - end[j] + spectra._count[j],
                                     spectra._sub_parity[j])]


def parity_transitions(params: ModelParams,
                       b_range: tuple[float, float] | None = None) -> list[float]:
    """Fields where the maximum-spin ground state's parity flips.

    Below the factorizing field b_s = (v_x - v_z) sqrt(chi) the two parities
    of the maximum-spin sector are quasi-degenerate and their ground levels
    cross floor(n/2) times, equally spaced at

        b_k = b_s (n + 1 - 2k) / n,    k = 1 .. floor(n/2),

    the last at the finite-size factorizing field (1 - 1/n) b_s.  At chi = 1
    this is exact (the blocks are diagonal and E(M+1) - E(M) = b + (v_x -
    v_z)(2M + 1)/n).  At chi < 1 it is a numerical finding, not a proof: a
    90-digit Sturm bisection of both parity blocks finds the even-odd gap
    alternating in sign between consecutive b_k at n = 11, 40 and 100
    (chi = 1/4) and n = 30 (chi = 1/100), and at n <= 40 each sign change
    within 1e-20 relative of its b_k
    (``test_parity_gap_alternates_between_closed_form_nodes`` in
    ``tests/test_exact.py``); a float64 scan of the gap agrees where it
    resolves it, at small n.  At n = 100 that gap is down to 6e-57 between
    the nodes, far below float64 roundoff.

    Returns the b_k in ascending order; with ``b_range`` only those in the
    closed interval, including the mirrored -b_k (the field b -> -b is an
    S_z flip).
    """
    d = params.v_x - params.v_z
    chi = params.chi
    if not (d > 0 and 0.0 < chi <= 1.0):
        raise ValueError("parity transitions require anisotropy chi in (0, 1]")
    n = params.n
    b_s = d * math.sqrt(chi)
    nodes = [b_s * (n + 1 - 2 * k) / n for k in range(n // 2, 0, -1)]
    if b_range is None:
        return nodes
    lo, hi = b_range
    mirrored = [-b for b in reversed(nodes)] + nodes
    return [b for b in mirrored if lo <= b <= hi]
