"""Sector-resolved thermodynamics against the dense oracle and closed limits."""

from __future__ import annotations

import gc
import math
import tracemalloc
import weakref
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import eigh, eigh_tridiagonal, eigvalsh_tridiagonal
from scipy.linalg.lapack import dstevd
from scipy.optimize import brentq
from scipy.special import logsumexp

from fcspin import (
    Correlators,
    InvalidStateError,
    ModelParams,
    Spectra,
    concurrence,
    diagonalize,
    factorizing_field,
    formation_entanglement,
    full_hamiltonian,
    level_concurrence,
    limit_temperatures,
    log_partition,
    oracle_concurrence,
    oracle_log_partition,
    oracle_observables,
    pair_density,
    parity_transitions,
    sector_spins,
    spectrum_low,
    thermal_concurrence,
    thermal_observables,
)
import fcspin.exact
from fcspin.exact import (GROUND_DEGENERACY_RTOL, _correlators,
                          _ground_tolerance, _signed_c_of_t,
                          _signed_c_on_grid, _solve_stage)
from fcspin.roots import _sign_changes
from fcspin.spin_algebra import off_diagonal_scale, sub_block_elements
from tests.conftest import (draw_params, draw_temperature, multiplicity,
                            parity_halves)

ATOL = 1e-9


# ---------------------------------------------------------------------------
# agreement with the dense oracle


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_matches_oracle(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(6):
        p = draw_params(rng, n)
        T = draw_temperature(rng, p.v_x)
        sp = diagonalize(p)
        assert math.isclose(log_partition(sp, T), oracle_log_partition(p, T),
                            rel_tol=ATOL, abs_tol=ATOL)
        got = thermal_observables(sp, T)
        want = oracle_observables(p, T)
        for f in ("alpha_x", "alpha_y", "alpha_z", "sz"):
            assert math.isclose(getattr(got, f), getattr(want, f),
                                abs_tol=ATOL), f
        assert math.isclose(thermal_concurrence(p, T).c,
                            oracle_concurrence(p, T).c, abs_tol=ATOL)


def test_matches_oracle_at_zero_temperature():
    rng = np.random.default_rng(42)
    for n in (4, 6):
        p = draw_params(rng, n)
        for b in (0.0, 0.4 * p.v_x, 2.0 * p.v_x):
            q = p.with_field(b)
            assert math.isclose(thermal_concurrence(q, 0.0).c,
                                oracle_concurrence(q, 0.0).c, abs_tol=1e-8)


def test_spectrum_multiset_matches_dense():
    # eigenvalues repeated by sector multiplicity exhaust the 2^n spectrum
    rng = np.random.default_rng(3)
    p = draw_params(rng, 6)
    sp = diagonalize(p)
    expanded = np.sort(np.concatenate(
        [np.repeat(s.energy, s.multiplicity) for s in sp.sectors]))
    dense = np.sort(eigh(full_hamiltonian(p), eigvals_only=True))
    assert np.allclose(expanded, dense, atol=1e-11 * p.v_x)


# ---------------------------------------------------------------------------
# thermodynamic identities


def test_correlators_are_coupling_derivatives():
    # alpha_mu = T dlnZ/dv_mu / (n - 1), sz = -T dlnZ/db / n
    p = ModelParams(n=6, b=0.45, v_x=1.0, v_y=0.35, v_z=-0.2)
    T = 0.31
    h = 1e-6
    corr = thermal_observables(diagonalize(p), T)
    for f, name in (("alpha_x", "v_x"), ("alpha_y", "v_y"), ("alpha_z", "v_z")):
        kw = {"n": p.n, "b": p.b, "v_x": p.v_x, "v_y": p.v_y, "v_z": p.v_z}
        up, dn = dict(kw), dict(kw)
        up[name] += h
        dn[name] -= h
        der = (log_partition(diagonalize(ModelParams(**up)), T)
               - log_partition(diagonalize(ModelParams(**dn)), T)) / (2 * h)
        assert math.isclose(getattr(corr, f), T * der / (p.n - 1), abs_tol=1e-8)
    der_b = (log_partition(diagonalize(p.with_field(p.b + h)), T)
             - log_partition(diagonalize(p.with_field(p.b - h)), T)) / (2 * h)
    assert math.isclose(corr.sz, -T * der_b / p.n, abs_tol=1e-8)


def test_weak_coupling_limit():
    # v -> 0 leaves n free spins in a field: ln Z -> n ln 2cosh(b/2T)
    p = ModelParams(n=9, b=0.8, v_x=1e-12, v_y=0.0, v_z=0.0)
    T = 0.6
    want = 9 * math.log(2 * math.cosh(0.8 / (2 * T)))
    assert math.isclose(log_partition(diagonalize(p), T), want, rel_tol=1e-10)
    corr = thermal_observables(diagonalize(p), T)
    assert math.isclose(corr.sz, -0.5 * math.tanh(0.8 / (2 * T)), abs_tol=1e-10)


def test_scale_invariance():
    rng = np.random.default_rng(17)
    p = draw_params(rng, 7)
    T = draw_temperature(rng, p.v_x)
    s = 4.3
    a = thermal_observables(diagonalize(p), T)
    b = thermal_observables(diagonalize(p.scaled(s)), s * T)
    for f in ("alpha_x", "alpha_y", "alpha_z", "sz"):
        assert math.isclose(getattr(a, f), getattr(b, f), abs_tol=1e-10), f
    assert math.isclose(log_partition(diagonalize(p), T),
                        log_partition(diagonalize(p.scaled(s)), s * T),
                        rel_tol=1e-10)
    assert math.isclose(thermal_concurrence(p, T).c,
                        thermal_concurrence(p.scaled(s), s * T).c,
                        abs_tol=1e-10)


def test_per_level_moments_close_the_casimir():
    rng = np.random.default_rng(23)
    p = draw_params(rng, 8)
    for s in diagonalize(p).sectors:
        s_val = s.two_s / 2.0
        total = s.m2x + s.m2y + s.m2z
        assert np.allclose(total, s_val * (s_val + 1.0), atol=1e-10)


def test_pair_density_physicality():
    rng = np.random.default_rng(29)
    for _ in range(10):
        p = draw_params(rng, 6)
        T = draw_temperature(rng, p.v_x)
        pd = pair_density(thermal_observables(diagonalize(p), T), p.n)
        pd.validate()  # raises on any violation


def test_monogamy_bound():
    # pairwise concurrence of a permutation-invariant state cannot beat 2/n
    rng = np.random.default_rng(37)
    for n in (4, 7, 10):
        for _ in range(5):
            p = draw_params(rng, n)
            T = draw_temperature(rng, p.v_x)
            assert thermal_concurrence(p, T).c <= 2.0 / n + 1e-12


# ---------------------------------------------------------------------------
# named levels and special fields


@pytest.mark.parametrize("n", [4, 6, 10])
def test_one_excitation_level_concurrence(n):
    # |S = n/2, M = -(n/2 - 1)> is an eigenstate on the XX line; its Y = 1
    # mixture is the W state with pairwise concurrence exactly 2/n
    p = ModelParams(n=n, b=0.9, v_x=1.0, v_y=1.0, v_z=0.2)
    sp = diagonalize(p)
    sec = next(s for s in sp.sectors if s.two_s == n)
    k = int(np.argmin(np.abs(sec.m1z + (n / 2 - 1))))
    rep = level_concurrence(sp, n, int(sec.k_index[k]), int(sec.parity[k]))
    assert math.isclose(rep.c, 2.0 / n, abs_tol=1e-10)
    assert rep.kind == "antiparallel"


def test_ground_manifold_at_the_finite_n_factorizing_field():
    # at b* the two parity partners cross; the T = 0 equal mixture keeps a
    # residual concurrence from their overlap, exponentially small in n (it
    # would vanish only in the basis of the two product states themselves)
    for n, chi in ((6, 0.5), (8, 0.5), (10, 0.7)):
        p = ModelParams.from_chi(n, 0.0, chi)
        b_star = factorizing_field(p).finite_n
        c_star = thermal_concurrence(p.with_field(b_star), 0.0).c
        assert c_star < chi ** (n - 2)
        if n <= 8:
            assert math.isclose(
                c_star, oracle_concurrence(p.with_field(b_star), 0.0).c,
                abs_tol=1e-10)
        # a sharp dip: both neighbors are several times higher
        for db in (-0.05, 0.05):
            c_near = thermal_concurrence(p.with_field(b_star + db), 0.0).c
            assert c_near > 5.0 * c_star


def test_parity_transitions_count_and_accumulation():
    p = ModelParams.from_chi(6, 0.0, 0.5)
    cross = parity_transitions(p)
    assert len(cross) == 3
    assert math.isclose(cross[-1], factorizing_field(p).finite_n, abs_tol=1e-6)


def _reference_parity_gap(params: ModelParams, b: float) -> float:
    """E0(even) - E0(odd) of the maximum-spin block rebuilt at field b."""
    lows = {}
    for parity, _, diag, _, off in parity_halves(params.with_field(b),
                                                  params.n):
        lows[parity] = float(diag[0] if len(diag) == 1 else eigh_tridiagonal(
            diag, off, eigvals_only=True, select="i", select_range=(0, 0))[0])
    return lows[1] - lows[-1]


def _reference_parity_transitions(params: ModelParams, b_range):
    """The scan that rebuilt the block at every field, kept as reference."""
    b_c = params.v_x - params.v_z
    grid = np.linspace(*b_range, max(400, 24 * params.n))
    gap = lambda b: _reference_parity_gap(params, b)
    return [c.polish(brentq, gap, xtol=1e-12 * b_c)
            for c in _sign_changes(grid, [gap(b) for b in grid])]


def _parity_scan_draws():
    # draws where the float64 scan resolves the gap, all at chi >= 0.25 (n up
    # to 39 from the first seed, n <= 14 from the second); at smaller chi the
    # gap sinks to roundoff, and the decimal oracle below covers it instead
    rng = np.random.default_rng(71)
    for i in range(8):
        n = int(rng.integers(1, 41))
        chi = 1.0 if i % 4 == 0 else float(rng.uniform(0.05, 1.0))
        v_z = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.6))
        p = ModelParams.from_chi(n, 0.0, chi, v_z=v_z)
        b_c = p.v_x - p.v_z
        lo, hi = np.sort(rng.uniform(0.0, 1.0, 2)) * b_c
        if chi >= 0.25:
            yield p, (float(lo), float(hi))
    rng = np.random.default_rng(72)
    for i in range(12):
        n = int(rng.integers(2, 15))
        chi = 1.0 if i % 4 == 0 else float(rng.uniform(0.25, 1.0))
        v_z = float(rng.uniform(-0.6, 0.6)) if i % 2 else 0.0
        p = ModelParams.from_chi(n, 0.0, chi, v_z=v_z)
        lo, hi = np.sort(rng.uniform(0.0, 1.0, 2)) * (p.v_x - p.v_z)
        yield p, (float(lo), float(hi))
    # a range through b = 0, where ModelParams folds the field
    yield ModelParams.from_chi(7, 0.0, 0.4, v_z=0.2), (-0.5, 0.3)


@pytest.mark.parametrize("p, b_range", list(_parity_scan_draws()),
                         ids=lambda v: (f"n{v.n}-chi{v.chi:.2f}"
                                        if isinstance(v, ModelParams)
                                        else f"{v[0]:.2f}-{v[1]:.2f}"))
def test_parity_scan_matches_the_per_field_rebuild(p, b_range):
    # the closed form against the float64 scan where that scan is resolved
    got = parity_transitions(p, b_range)
    want = _reference_parity_transitions(p, b_range)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert math.isclose(g, w, rel_tol=1e-8)


def test_parity_transitions_at_n100():
    # a float64 scan of the gap finds 1129 crossings here, where the gap is
    # below roundoff
    p = ModelParams.from_chi(100, 0.0, 0.5)
    cross = parity_transitions(p)
    assert len(cross) == 50
    assert math.isclose(cross[-1], (1 - 1 / 100) * math.sqrt(0.5),
                        rel_tol=1e-12)
    # b_range is a closed interval and takes in the mirrored crossings
    assert parity_transitions(p, (cross[0], cross[-1])) == cross
    assert parity_transitions(p, (-cross[-1], cross[-1])) == \
        [-b for b in reversed(cross)] + cross


def _exact_sqrt(q: Fraction) -> Fraction:
    r = Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))
    assert r * r == q
    return r


def _max_spin_halves(n: int, vx: Fraction, vy: Fraction, vz: Fraction):
    """(M, field-free part X, squared off-diagonals) of both parity halves.

    Exact: the diagonal is b M - X and the squared couplings are rational.
    """
    two_s, scale2 = n, ((vx - vy) / (4 * n)) ** 2
    casimir = Fraction(two_s * (two_s + 2), 4)
    halves = []
    for first in (0, 1):
        tm = range(2 * first - two_s, two_s + 1, 4)  # 2M
        x = [((vx + vy) / 2 * (casimir - Fraction(t * t, 4))
              + vz * Fraction(t * t, 4) - Fraction(n, 4) * (vx + vy + vz)) / n
             for t in tm]
        e2 = [scale2 * Fraction((two_s - t) * (two_s + t + 2) * (two_s - t - 2)
                                * (two_s + t + 4), 16) for t in tm[:-1]]
        halves.append(([Fraction(t, 2) for t in tm], x, e2))
    return halves


def _sturm_lowest(diag: list[Decimal], e2: list[Decimal]) -> Decimal:
    """Lowest eigenvalue by 300 bisections of the Sturm count."""
    def below(x):  # number of eigenvalues below x
        count, q = 0, None
        for i, d in enumerate(diag):
            q = d - x if i == 0 else d - x - e2[i - 1] / q
            if q == 0:
                q = Decimal("1e-200")
            count += q < 0
        return count
    radius = [Decimal(0)] * len(diag)
    for i, v in enumerate(e2):
        radius[i] += v.sqrt()
        radius[i + 1] += v.sqrt()
    lo = min(d - r for d, r in zip(diag, radius))
    hi = max(d + r for d, r in zip(diag, radius))
    for _ in range(300):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if below(mid) else (mid, hi)
    return (lo + hi) / 2


@pytest.mark.parametrize("n, vx, vy, vz", [
    (40, Fraction(1), Fraction(1, 4), Fraction(0)),
    (100, Fraction(1), Fraction(1, 4), Fraction(0)),
    (11, Fraction(1), Fraction(-1, 8), Fraction(-1, 2)),
    (30, Fraction(1), Fraction(1, 100), Fraction(0)),
], ids=["n40", "n100", "n11-vz", "n30-chi0.01"])
def test_parity_gap_alternates_between_closed_form_nodes(n, vx, vy, vz):
    # b_s = sqrt((v_x - v_z)(v_y - v_z)) is rational on these draws, so the
    # nodes b_s (n + 1 - 2k)/n and the fields between them are exact; between
    # the nodes the even-odd gap is down to 6e-57 at n = 100 and 6e-39 at
    # chi = 0.01, far below float64
    p = ModelParams(n, 0.0, float(vx), float(vy), float(vz))
    b_s = _exact_sqrt((vx - vz) * (vy - vz))
    nodes = [b_s * (n + 1 - 2 * k) / n for k in range(n // 2, 0, -1)]
    got = parity_transitions(p)
    assert len(got) == len(nodes)
    for g, w in zip(got, nodes):
        assert math.isclose(g, float(w), rel_tol=1e-15)
    halves = _max_spin_halves(n, vx, vy, vz)
    # the same Hamiltonian as the package's sub-blocks
    m, x, plus2 = sub_block_elements(p, n, [0, 1])
    off2 = (off_diagonal_scale(p) * plus2) ** 2
    cut = n // 2 + 1
    for (hm, hx, he2), sl in zip(halves, (slice(0, cut), slice(cut, None))):
        assert np.array_equal(np.array(hm, dtype=float), m[sl])
        assert np.allclose(np.array(hx, dtype=float), x[sl],
                           rtol=1e-14, atol=0.0)
        assert np.allclose(np.array(he2, dtype=float), off2[sl][:-1],
                           rtol=1e-13, atol=0.0)
    with localcontext() as ctx:
        ctx.prec = 90
        dec = [[[Decimal(v.numerator) / v.denominator for v in col]
                for col in half] for half in halves]

        def gap_sign(b: Fraction) -> int:
            b = Decimal(b.numerator) / b.denominator
            even, odd = (_sturm_lowest([b * mi - xi for mi, xi in zip(ms, xs)],
                                       e2s) for ms, xs, e2s in dec)
            return (even > odd) - (even < odd)

        # one field below the first node, one between each pair, one above
        # the last: the sign of the gap alternates across them
        edges = [Fraction(0)] + nodes + [b_s]
        signs = [gap_sign((lo + hi) / 2) for lo, hi in zip(edges, edges[1:])]
        assert 0 not in signs
        assert all(a == -b for a, b in zip(signs, signs[1:]))
        # and each sign change lies within 1e-20 of its node (n = 100 skips
        # this to keep the test short)
        if n < 100:
            for b_k in nodes:
                below, above = (gap_sign(b_k * (1 + eps))
                                for eps in (Fraction(-1, 10**20),
                                            Fraction(1, 10**20)))
                assert below == -above != 0


def test_spectrum_low_matches_dense_gaps():
    rng = np.random.default_rng(41)
    p = draw_params(rng, 6)
    sp = diagonalize(p)
    low = spectrum_low(sp, 6)
    dense = np.sort(eigh(full_hamiltonian(p), eigvals_only=True))
    gaps = dense - dense[0]
    for _, _, _, de in low:
        assert np.min(np.abs(gaps - de)) < 1e-10 * p.v_x
    assert all(low[i][3] <= low[i + 1][3] for i in range(len(low) - 1))


def test_level_concurrence_unknown_level():
    sp = diagonalize(ModelParams(n=4, b=0.1, v_x=1.0, v_y=0.5, v_z=0.0))
    with pytest.raises(ValueError):
        level_concurrence(sp, 3, 0, 1)  # no such sector for even n


def test_scalar_results_are_python_floats():
    # the CLI prints repr, and repr of a NumPy scalar reads np.float64(...)
    p = ModelParams.from_chi(12, 0.4, 0.5, v_z=-0.2)
    sp = diagonalize(p)
    for T in (0.0, 0.2):
        corr = thermal_observables(sp, T)
        assert all(type(v) is float for v in vars(corr).values())
        assert all(type(v) is float for v in _signed_c_of_t(sp, T))
    for rep in (thermal_concurrence(p, 0.2),
                level_concurrence(sp, 12, 0, 1),
                level_concurrence(sp, 10, 1, -1)):
        assert type(rep.c_plus) is float and type(rep.c_minus) is float
        assert type(rep.c) is float
        assert type(formation_entanglement(rep.c)) is float


def test_incompatible_sz_raises_on_scalar_and_grid_paths():
    bad = Correlators(alpha_x=0.0, alpha_y=0.0, alpha_z=-0.2, sz=0.3)
    with pytest.raises(InvalidStateError, match="p_\\+ p_- = -0.0875"):
        concurrence(pair_density(bad, 10))
    grid = Correlators(*(np.array([0.0, v]) for v in vars(bad).values()))
    with pytest.raises(InvalidStateError, match="p_\\+ p_- = -0.0875"):
        fcspin.exact._signed_concurrences(pair_density(grid, 10))


def test_roundoff_negative_p_plus_p_minus_clips_to_zero():
    # -1e-10 < p_+ p_- < 0 is roundoff: sqrt(p_+ p_-) counts as 0, not as
    # sqrt|p_+ p_-| (about 4e-6 here), and no InvalidStateError is raised
    tiny = Correlators(alpha_x=0.1, alpha_y=0.05, alpha_z=0.0,
                       sz=0.25 + 4e-11)
    pd = pair_density(tiny, 10)
    assert -1e-10 < pd.p_plus * pd.p_minus < 0.0
    assert concurrence(pd).c_minus == 2.0 * abs(pd.alpha_minus)
    grid = Correlators(alpha_x=np.array([0.1, -0.2]),
                       alpha_y=np.array([0.05, 0.1]), alpha_z=np.zeros(2),
                       sz=0.25 + np.array([4e-11, 1e-11]))
    pd = pair_density(grid, 10)
    assert np.all((-1e-10 < pd.p_plus * pd.p_minus)
                  & (pd.p_plus * pd.p_minus < 0.0))
    c_minus = fcspin.exact._signed_concurrences(pd)[1]
    assert np.array_equal(c_minus, 2.0 * np.abs(pd.alpha_minus))


# ---------------------------------------------------------------------------
# formation entanglement and limit temperatures


def test_formation_entanglement_frozen():
    assert formation_entanglement(0.0) == 0.0
    assert formation_entanglement(1.0) == 1.0
    assert math.isclose(formation_entanglement(0.5), 0.35457890266527003,
                        rel_tol=1e-12)
    grid = np.linspace(0.0, 1.0, 41)
    vals = [formation_entanglement(float(c)) for c in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_limit_temperature_is_where_concurrence_dies():
    p = ModelParams.from_chi(10, 0.2, 0.5)
    lt = limit_temperatures(p)
    assert lt.t_plus is None  # weak field: no parallel entanglement
    t_l = lt.t_minus
    assert t_l > 0.0
    below = thermal_concurrence(p, t_l - 1e-3)
    above = thermal_concurrence(p, t_l + 1e-3)
    assert below.c_minus > 0.0 > above.c_minus


def test_limit_temperature_strong_field_is_parallel():
    p = ModelParams.from_chi(10, 2.0, 0.5)
    lt = limit_temperatures(p)
    assert lt.t_minus is None
    assert lt.t_plus > 0.0
    assert thermal_concurrence(p, lt.t_plus - 1e-3).c_plus > 0.0
    assert thermal_concurrence(p, lt.t_plus + 1e-3).c_plus < 0.0


# ---------------------------------------------------------------------------
# Boltzmann window against the fully solved spectrum


def _unpruned(sp, T):
    """ln Z and correlators summed over every level of a solved spectrum."""
    n = sp.params.n
    if T == 0:
        tol = _ground_tolerance(sp.params)
        a = np.where(sp.energy <= sp.energy.min() + tol, sp.log_mult, -np.inf)
    else:
        a = sp.log_mult - sp.energy / T
    ln_z = float(logsumexp(a))
    w = np.exp(a - ln_z)
    denom = n * (n - 1)
    return ln_z, {"alpha_x": (w @ sp.m2x - 0.25 * n) / denom,
                  "alpha_y": (w @ sp.m2y - 0.25 * n) / denom,
                  "alpha_z": (w @ sp.m2z - 0.25 * n) / denom,
                  "sz": w @ sp.m1z / n}


def _window_draws():
    rng = np.random.default_rng(53)
    for n in (2, 7, 60, 151, 400):
        p = draw_params(rng, n)
        yield p
        yield p.with_field(0.0)  # parity doublet below b_c


@pytest.mark.parametrize("p", list(_window_draws()),
                         ids=lambda p: f"n{p.n}-b{p.b:.2f}")
def test_window_matches_full_spectrum(p):
    full = Spectra(p)
    full.energy  # solves every sub-block
    for t in (0.0, 0.05, 0.2, 1.0, 5.0):
        T = t * p.v_x
        windowed = Spectra(p)
        ln_z = log_partition(windowed, T)
        corr = thermal_observables(windowed, T)
        want_ln_z, want = _unpruned(full, T)
        assert math.isclose(ln_z, want_ln_z, rel_tol=1e-12, abs_tol=1e-12)
        for f, v in want.items():
            assert abs(getattr(corr, f) - v) <= 1e-12, (T, f)


def test_ground_tolerance_scales_with_n():
    # GROUND_DEGENERACY_RTOL v_x up to n = 4503, n eps v_x from 4504 on
    eps = np.finfo(float).eps
    for n, rtol in ((2, GROUND_DEGENERACY_RTOL), (4503, GROUND_DEGENERACY_RTOL),
                    (4504, 4504 * eps), (10_000, 10_000 * eps)):
        p = ModelParams(n=n, b=0.0, v_x=2.0, v_y=1.0, v_z=0.0)
        assert _ground_tolerance(p) == rtol * 2.0, n


def test_window_solves_few_sectors_when_cold():
    p = ModelParams.from_chi(400, 0.8, 0.5)
    sp = Spectra(p)
    thermal_observables(sp, 0.1)
    assert 0 < sp._solved.sum() < 0.2 * len(sp._solved)


def _block_bound(diag, off) -> float:
    """Per-block statement of the Gershgorin bound the spectra vectorize."""
    radius = np.zeros(len(diag))
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    norm = float(np.max(np.abs(diag) + radius))
    eps = np.finfo(float).eps
    return float(np.min(diag - radius)) - len(diag) * eps * norm


def _sub_blocks(p):
    """(diag, off) of every parity sub-block, in closed form, in level order."""
    return [(diag, off) for ts in sector_spins(p.n)
            for _, _, diag, _, off in parity_halves(p, ts)]


def test_level_bound_is_below_the_lowest_level():
    rng = np.random.default_rng(59)
    for n in (1, 2, 5, 40, 201):
        for _ in range(3):
            p = draw_params(rng, n)
            sp = Spectra(p)
            bounds = sp._low.copy()  # before any solve
            sp.energy  # solves every sub-block
            for j, (diag, off) in enumerate(_sub_blocks(p)):
                solved = sp._block(j)[0, 0]  # lowest level of block j
                lowest = (diag[0] if len(diag) == 1 else
                          eigvalsh_tridiagonal(diag, off)[0])
                assert bounds[j] <= solved and bounds[j] <= lowest


def test_level_bounds_equal_the_per_block_formula():
    # the segmented reductions reproduce the per-block formula bitwise
    rng = np.random.default_rng(61)
    draws = [ModelParams(n=n, b=0.0, v_x=1.0, v_y=-0.7, v_z=-0.4)
             for n in (1, 2, 3, 10)]
    draws += [draw_params(rng, int(n)) for n in rng.integers(1, 301, 12)]
    draws += [d.with_field(0.0) for d in draws[-4:]]
    for p in draws:
        want = [_block_bound(*sub) for sub in _sub_blocks(p)]
        assert Spectra(p)._low.tolist() == want, p


def _per_sector_reference(p: ModelParams) -> dict:
    """Flat arrays from the closed-form parity halves of each sector, each
    solved in full, stage by stage, with the flat build's solver and moment
    expressions."""
    out = {k: [] for k in ("_low", "log_mult", "two_s", "parity", "k_index",
                           "energy", "m2x", "m2y", "m2z", "m1z")}
    for ts in sector_spins(p.n):
        ln_y = math.log(multiplicity(p.n, ts))
        for parity, m, diag, ladder, off in parity_halves(p, ts):
            dim = len(diag)
            for k, a in (("_low", [_block_bound(diag, off)]),
                         ("log_mult", np.full(dim, ln_y)),
                         ("two_s", np.full(dim, ts)),
                         ("parity", np.full(dim, parity)),
                         ("k_index", np.arange(dim))):
                out[k].append(np.asarray(a))
            solved = 0
            while solved < dim:
                w, v, lo = _solve_stage(diag, off, solved)
                solved += len(w)
                hi = lo + len(v)  # the rows the eigenvectors live on
                pr = v * v
                mz2 = (m[lo:hi] * m[lo:hi]) @ pr
                pp = (2.0 * (ladder[lo:hi - 1] @ (v[:-1] * v[1:]))
                      if hi > lo + 1 else 0.0)
                s = ts / 2.0
                half = 0.5 * (s * (s + 1.0) - mz2)
                for k, a in (("energy", w), ("m2x", half + 0.25 * pp),
                             ("m2y", half - 0.25 * pp), ("m2z", mz2),
                             ("m1z", m[lo:hi] @ pr)):
                    out[k].append(np.asarray(a))
    return {k: np.concatenate(v) for k, v in out.items()}


def _flat_build_draws():
    rng = np.random.default_rng(73)
    yield ModelParams(n=1, b=0.0, v_x=1.0, v_y=-0.5, v_z=-0.2), None
    yield ModelParams(n=2, b=0.0, v_x=1.0, v_y=1.0, v_z=0.4), None
    yield ModelParams(n=11, b=0.7, v_x=1.3, v_y=1.3, v_z=-0.6), 5
    yield ModelParams(n=400, b=0.4, v_x=1.0, v_y=-0.8, v_z=-0.9), None
    for i, n in enumerate((3, 24, 57, 130, 201, 288, 399)):
        p = draw_params(rng, n)
        yield (p if i % 3 else p.with_field(0.0)), (None if i % 2 else 37)


@pytest.mark.parametrize("p, chunk", list(_flat_build_draws()),
                         ids=lambda v: (f"n{v.n}-b{v.b:.2f}"
                                        if isinstance(v, ModelParams)
                                        else f"chunk{v}"))
def test_flat_build_matches_the_per_sector_build(p, chunk, monkeypatch):
    # bitwise, also when the build runs in several chunks of levels
    if chunk is not None:
        monkeypatch.setattr(fcspin.exact, "_BUILD_CHUNK", chunk)
    want = _per_sector_reference(p)
    sp = Spectra(p)
    assert sp._low.tobytes() == want["_low"].tobytes()  # bounds, pre-solve
    for k, a in want.items():
        if k != "_low":
            got = getattr(sp, k)
            assert got.dtype == a.dtype and got.tobytes() == a.tobytes(), k
    lo = 0
    for sec, ts in zip(sp.sectors, sector_spins(p.n)):
        hi = lo + ts + 1
        assert (sec.two_s, sec.multiplicity) == (ts, multiplicity(p.n, ts))
        for k in ("parity", "k_index", "energy", "m2x", "m2y", "m2z", "m1z"):
            assert getattr(sec, k).tobytes() == want[k][lo:hi].tobytes(), k
        lo = hi
    assert lo == len(sp.energy)


@pytest.mark.parametrize("p", [ModelParams(n=11, b=0.7, v_x=1.3, v_y=1.3,
                                            v_z=-0.6),
                                draw_params(np.random.default_rng(79), 130)],
                         ids=lambda p: f"n{p.n}-b{p.b:.2f}")
def test_staged_flat_build_matches_the_per_sector_build(p, monkeypatch):
    # with small stages, so that the blocks solve in two calls
    monkeypatch.setattr(fcspin.exact, "_STAGED_DIM", 4)
    monkeypatch.setattr(fcspin.exact, "_PREFIX_LEVELS", 2)
    test_flat_build_matches_the_per_sector_build(p, None, monkeypatch)


def test_limit_temperatures_leaves_no_spectrum_alive():
    # the brentq polish must not hold the spectrum in a reference cycle,
    # where it would outlive the cache until the cyclic collector runs
    p = ModelParams.from_chi(12, 0.6, 0.5)
    gc.collect()
    gc.disable()
    try:
        diagonalize.cache_clear()
        ivs = limit_temperatures(p)
        assert ivs.plus or ivs.minus  # some sign change was polished
        ref = weakref.ref(diagonalize(p))
        diagonalize.cache_clear()
        assert ref() is None
    finally:
        gc.enable()


def test_limit_temperatures_propagate_a_failure_below_the_scan(monkeypatch):
    # C_pm > 0 at T = 0 and <= 0 on the whole grid sends the search below
    # grid[0]; an InvalidStateError there must reach the caller instead of
    # reading as "no sliver"
    p = ModelParams.from_chi(8, 0.3, 0.5)
    floor = 1e-4 * p.v_x

    def c_of_t(spectra, T):
        if T == 0.0:
            return 0.1, 0.1
        if T < floor:
            raise InvalidStateError("pair density not positive semidefinite")
        return -0.1, -0.1

    monkeypatch.setattr(fcspin.exact, "_signed_c_of_t", c_of_t)
    monkeypatch.setattr(fcspin.exact, "_signed_c_on_grid",
                        lambda spectra, grid: np.full((len(grid), 2), -0.1))
    with pytest.raises(InvalidStateError, match="semidefinite"):
        limit_temperatures(p)


def _batch_draws():
    rng = np.random.default_rng(67)
    for n, top in ((2, 3.0), (7, 0.1), (60, 3.0), (151, 3.0), (151, 0.1),
                   (400, 0.1)):
        p = draw_params(rng, n)
        yield p, top
        yield p.with_field(0.0), top
    yield ModelParams(n=90, b=0.4, v_x=1.0, v_y=-0.6, v_z=-0.3), 3.0


@pytest.mark.parametrize("p, top", list(_batch_draws()),
                         ids=lambda v: (f"n{v.n}-b{v.b:.2f}"
                                        if isinstance(v, ModelParams)
                                        else f"to{v}"))
def test_batched_scan_matches_the_scalar_path(p, top):
    # a grid ending at 0.1 v_x leaves the spectrum incomplete
    grid = np.geomspace(1e-3, top, 45) * p.v_x
    n, denom = p.n, p.n * (p.n - 1)
    sp, scalar = Spectra(p), Spectra(p)
    m2x, m2y, m2z, m1z = sp._thermal_moments(grid)
    signed = _signed_c_on_grid(sp, grid)
    if n >= 60 and top < 1.0:
        assert not sp._solved.all()
    for i, T in enumerate(grid):
        want = thermal_observables(scalar, T)
        got = ((m2x[i] - 0.25 * n) / denom, (m2y[i] - 0.25 * n) / denom,
               (m2z[i] - 0.25 * n) / denom, m1z[i] / n)
        for f, g in zip(("alpha_x", "alpha_y", "alpha_z", "sz"), got):
            assert abs(g - getattr(want, f)) <= 1e-13, (T, f)
        c = np.array(_signed_c_of_t(scalar, T))
        big = np.abs(c) > 1e-10
        assert np.array_equal(np.sign(signed[i][big]), np.sign(c[big])), T
    # the batch leaves the scalar path as a fresh spectrum has it
    for T in (0.0, grid[7], 0.5 * top * p.v_x, 2.0 * top * p.v_x):
        assert thermal_observables(sp, T) == thermal_observables(Spectra(p),
                                                                 T), T


def test_results_do_not_depend_on_earlier_temperatures():
    p = ModelParams(n=300, b=0.6, v_x=1.0, v_y=-0.3, v_z=0.2)
    sp = Spectra(p)
    thermal_observables(sp, 2.0)
    got = (thermal_observables(sp, 0.1), log_partition(sp, 0.1))
    diagonalize.cache_clear()
    fresh = diagonalize(p)
    assert (thermal_observables(fresh, 0.1), log_partition(fresh, 0.1)) == got
    assert log_partition(Spectra(p), 0.1) == got[1]
    # and after the scan and root polish of limit_temperatures, which solve
    # the cached spectrum much further
    limit_temperatures(p)
    assert diagonalize(p) is fresh
    assert (thermal_observables(fresh, 0.1), log_partition(fresh, 0.1)) == got


def test_cached_arrays_are_read_only():
    p = ModelParams(n=12, b=0.3, v_x=1.0, v_y=0.4, v_z=-0.2)
    sp = diagonalize(p)
    before = {f: getattr(sp, f).copy() for f in
              ("energy", "m2x", "m2y", "m2z", "m1z", "log_mult", "two_s",
               "parity", "k_index")}
    sec = sp.sectors[0]
    arrays = [getattr(sp, f) for f in before] + [
        sec.parity, sec.k_index, sec.energy, sec.m2x, sec.m2y, sec.m2z,
        sec.m1z]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 7.0
    again = diagonalize(p)
    for f, v in before.items():
        assert np.array_equal(getattr(again, f), v), f


# ---------------------------------------------------------------------------
# staged sub-block solves: the lowest levels first, the rest on demand


@pytest.fixture
def small_stages(monkeypatch):
    """Stage every sub-block of 8 or more levels, its lowest 3 first."""
    monkeypatch.setattr(fcspin.exact, "_STAGED_DIM", 8)
    monkeypatch.setattr(fcspin.exact, "_PREFIX_LEVELS", 3)


def _level_moments(s, m, ladder, v) -> np.ndarray:
    """m2x, m2y, m2z and m1z of each eigenvector column of v."""
    pr = v * v
    mz2 = (m * m) @ pr
    pp = 2.0 * (ladder @ (v[:-1] * v[1:]))
    half = 0.5 * (s * (s + 1.0) - mz2)
    return np.array([half + 0.25 * pp, half - 0.25 * pp, mz2, m @ pr])


def _block_norm(diag, off) -> float:
    radius = np.abs(np.append(off, 0.0)) + np.abs(np.insert(off, 0, 0.0))
    return float(np.max(np.abs(diag) + radius))


def _plain_solve(sp, j):
    """Sub-block j's levels and moments from one full dstevd solve; its
    norm."""
    _, diag, plus2 = next(sp._elements(np.array([j])))
    plus2 = plus2[:-1]
    off = sp._off_scale * plus2
    w, v, info = dstevd(diag, off)
    assert info == 0
    s = sp._sub_two_s[j] / 2.0
    m = np.arange(sp._sub_first[j] - s, s + 1.0, 2.0)
    return w, _level_moments(s, m, plus2, v), _block_norm(diag, off)


def _assert_staged_matches_plain(sp, blocks):
    # worst seen on these draws: 4e-14 of the block norm (energies) and
    # 1.3e-13 of S(S+1) (moments)
    staged = 0
    for j in blocks:
        if sp._dims[j] < fcspin.exact._STAGED_DIM:
            continue
        while sp._low[j] < np.inf:
            sp._advance([j])
        w, moments, norm = _plain_solve(sp, j)
        s = sp._sub_two_s[j] / 2.0
        assert np.max(np.abs(sp._block(j)[0] - w)) <= 1e-12 * norm, j
        assert (np.max(np.abs(sp._block(j)[1:] - moments))
                <= 1e-11 * s * (s + 1.0)), j
        staged += 1
    assert staged


def test_staged_solves_match_the_plain_full_solve(small_stages):
    rng = np.random.default_rng(97)
    for n in (20, 60, 150, 300):
        for _ in range(2):
            p = draw_params(rng, n)
            for q in (p, p.with_field(0.0)):
                sp = Spectra(q)
                _assert_staged_matches_plain(sp, range(len(sp._solved)))


def test_staged_solves_match_the_plain_full_solve_at_full_size():
    # the stage sizes as shipped, on the four largest sub-blocks of n = 600
    rng = np.random.default_rng(101)
    p = draw_params(rng, 600)
    for q in (p, p.with_field(0.0)):
        _assert_staged_matches_plain(Spectra(q), range(4))


@pytest.mark.parametrize("p", list(_window_draws())[4:],
                         ids=lambda p: f"n{p.n}-b{p.b:.2f}")
def test_staged_window_matches_full_spectrum(p, monkeypatch):
    # against sub-blocks solved whole: the bound on a staged sub-block's
    # next level must keep every level inside the window solved
    full = Spectra(p)
    full.energy
    monkeypatch.setattr(fcspin.exact, "_STAGED_DIM", 8)
    monkeypatch.setattr(fcspin.exact, "_PREFIX_LEVELS", 3)
    for t in (0.0, 0.05, 0.2, 1.0, 5.0):
        T = t * p.v_x
        windowed = Spectra(p)
        ln_z = log_partition(windowed, T)
        corr = thermal_observables(windowed, T)
        want_ln_z, want = _unpruned(full, T)
        assert math.isclose(ln_z, want_ln_z, rel_tol=1e-12, abs_tol=1e-12)
        for f, v in want.items():
            assert abs(getattr(corr, f) - v) <= 1e-12, (T, f)


def test_staged_bound_is_below_the_next_level(small_stages):
    rng = np.random.default_rng(109)
    for n in (16, 60, 201):
        p = draw_params(rng, n)
        for q in (p, p.with_field(0.0)):
            sp = Spectra(q)
            for j in np.flatnonzero(sp._dims >= 8):
                sp._advance([j])
                bound = sp._low[j]
                sp._advance([j])
                # the prefix's last level, widened by the backward error
                last = sp._block(j)[0, 2]
                assert last - sp._slack[j] <= bound <= last


def _staged_blocks(sp) -> np.ndarray:
    """Sub-blocks with their prefix solved and the rest not."""
    return np.flatnonzero(sp._solved & (sp._low < np.inf))


def test_staged_results_do_not_depend_on_earlier_temperatures(small_stages):
    # the scalar path, with sub-blocks crossing from prefix to complete
    p = ModelParams(n=300, b=0.6, v_x=1.0, v_y=-0.3, v_z=0.2)
    cold, warm = 0.1, 0.6
    sp = Spectra(p)
    got_cold = (thermal_observables(sp, cold), log_partition(sp, cold))
    prefix = _staged_blocks(sp)
    assert len(prefix)
    got_warm = (thermal_observables(sp, warm), log_partition(sp, warm))
    assert not set(prefix) & set(_staged_blocks(sp))  # now complete
    again = (thermal_observables(sp, cold), log_partition(sp, cold))
    fresh = Spectra(p)
    assert (thermal_observables(fresh, warm), log_partition(fresh, warm)
            ) == got_warm
    assert got_cold == again
    for T in (0.0, cold):
        assert thermal_observables(Spectra(p), T) == thermal_observables(sp, T)
    assert Spectra(p).ground_energy == sp.ground_energy


def test_staged_batched_results_do_not_depend_on_earlier_temperatures(
        small_stages):
    p = ModelParams(n=300, b=0.6, v_x=1.0, v_y=-0.3, v_z=0.2)
    cold = np.geomspace(0.02, 0.1, 40)
    warm = np.geomspace(0.1, 0.8, 40)
    sp = Spectra(p)
    got_cold = sp._thermal_moments(cold)
    prefix = _staged_blocks(sp)
    assert len(prefix)
    got_warm = sp._thermal_moments(warm)
    assert not set(prefix) & set(_staged_blocks(sp))
    thermal_observables(sp, 1.5)  # and the scalar path further out
    assert np.array_equal(sp._thermal_moments(cold), got_cold)
    assert np.array_equal(Spectra(p)._thermal_moments(warm), got_warm)


def test_zero_field_magnetization_vanishes_in_a_staged_spectrum():
    # at b = 0 the flip M -> -M is a symmetry, so sz = 0.  Near the XX line
    # the low levels come in tunnelling pairs, and levels 15 and 16 of the
    # largest sub-block are one, degenerate to rounding.  Split between the
    # prefix and the full solve, each call would rotate the pair its own
    # way (m1z 0.72 and 15.7, where the pair's sum is 0) and sz would read
    # -8.2e-5, so the prefix keeps only the levels below a certified gap.
    p = ModelParams(n=600, b=0.0, v_x=1.0, v_y=0.999, v_z=0.0)
    assert abs(thermal_observables(Spectra(p), 0.2).sz) <= 1e-12


# ---------------------------------------------------------------------------
# windowed prefixes: the lowest levels of a staged block, solved on the rows
# they live on


def _recording_solver(monkeypatch):
    """Wrap the module-level solver; returns its (rows, lowest) per call."""
    solver, calls = fcspin.exact.eigh_tridiagonal, []

    def recording(diag, off, lowest=None):
        calls.append((len(diag), lowest))
        return solver(diag, off, lowest)

    monkeypatch.setattr(fcspin.exact, "eigh_tridiagonal", recording)
    return calls


def _tolerance(diag, off) -> float:
    return len(diag) * np.finfo(float).eps * _block_norm(diag, off)


def _assert_prefix_matches_the_whole_block(diag, off, m, ladder, s):
    """The windowed prefix against the whole-block dstemr prefix: levels to
    1e-12 of the block norm, a gap above the last kept level, the residual
    of the zero-padded vectors, and moments per isolated level and summed
    over each run of levels closer than 1e-6 of the norm, to 1e-9 S(S+1).
    Returns the window's rows."""
    prefix = fcspin.exact._PREFIX_LEVELS
    norm = _block_norm(diag, off)
    w, v, lo = _solve_stage(diag, off)
    hi = lo + len(v)
    k = len(w)
    want_w, want_v = fcspin.exact.eigh_tridiagonal(diag, off,
                                                    lowest=prefix + 1)
    assert 0 < k <= prefix and v.shape == (hi - lo, k)
    assert np.max(np.abs(w - want_w[:k])) <= 1e-12 * norm
    assert want_w[k] - w[-1] > _tolerance(diag, off)
    # zero-padded, the window's vectors are the whole block's to its
    # tolerance dim eps norm: |T x - w x| (worst seen 0.18 of it)
    x = np.zeros((len(diag), k))
    x[lo:hi] = v
    res = diag[:, None] * x - w * x
    res[:-1] += off[:, None] * x[1:]
    res[1:] += off[:, None] * x[:-1]
    assert np.max(np.linalg.norm(res, axis=0)) <= _tolerance(diag, off)
    got = _level_moments(s, m[lo:hi], ladder[lo:hi - 1], v)
    want = _level_moments(s, m, ladder, want_v[:, :k])
    run = np.append(0, np.cumsum(np.diff(want_w) > 1e-6 * norm))
    inside = run[:k] < run[k]  # runs that the cut does not split
    sums = [np.array([np.bincount(run[:k][inside], weights=row[inside])
                      for row in a]) for a in (got, want)]
    assert np.max(np.abs(sums[0] - sums[1])) <= 1e-9 * s * (s + 1.0)
    return hi - lo


def _prefix_draws():
    """Seeded staged-size draws: broken and normal phase, b = 0, b near b_c
    = v_x - v_z, and v_z < 0."""
    rng = np.random.default_rng(113)
    for n in (520, 2000, 8000):
        chi = float(rng.uniform(0.1, 0.9))
        yield ModelParams.from_chi(n, float(rng.uniform(0.1, 0.9)), chi)
        yield ModelParams.from_chi(n, float(rng.uniform(1.1, 2.0)), chi)
        yield ModelParams.from_chi(n, 0.0, chi)
        yield ModelParams.from_chi(n, 1.0 - 1e-3, chi)
        yield ModelParams(n=n, b=float(rng.uniform(0.0, 1.5)), v_x=1.0,
                          v_y=float(rng.uniform(-1.0, 1.0)),
                          v_z=float(rng.uniform(-1.0, -0.1)))


def test_windowed_prefix_matches_the_whole_block_prefix(monkeypatch):
    # two sectors of each draw, both parity halves: the largest and one
    # 5% of n below it (at n = 520, the smallest staged one); every prefix
    # is one call on fewer rows than the block, and at n = 8000 on fewer
    # than a third of them
    calls = _recording_solver(monkeypatch)
    for p in _prefix_draws():
        for ts in (p.n, max(p.n - 2 * (p.n // 40), 512)):
            for _, m, diag, ladder, off in parity_halves(p, ts):
                calls.clear()
                rows = _assert_prefix_matches_the_whole_block(
                    diag, off, m, ladder, ts / 2.0)
                assert calls[0] == (rows, fcspin.exact._PREFIX_LEVELS)
                assert len(calls) == 2  # and the reference call
                assert rows < (len(diag) if p.n < 8000 else len(diag) / 3)


def _slow_decay_block():
    """A quadratic well whose levels leak, past row 130, into a chain of
    alternating couplings 10 and 0.1: there they decay far slower than the
    window's padding, which assumes slowly varying elements, predicts."""
    r = np.arange(300)
    diag, off = 0.002 * (r - 100.0) ** 2, np.ones(299)
    off[130:] = np.where(r[130:-1] % 2, 0.1, 10.0)
    # the chain's Gershgorin lower bound is 1, above the 16th level
    diag[130], diag[131:] = 12.0, 11.1
    return diag, off


def test_a_window_whose_vectors_reach_its_edge_is_widened(monkeypatch):
    # the first window's vectors fail the residual test at its right edge,
    # so its padding doubles once; the result is still the whole block's
    calls = _recording_solver(monkeypatch)
    diag, off = _slow_decay_block()
    m = np.arange(len(diag), dtype=float)
    rows = _assert_prefix_matches_the_whole_block(diag, off, m,
                                                  np.ones(len(off)), 150.0)
    prefix = fcspin.exact._PREFIX_LEVELS
    assert calls[:2] == [(calls[0][0], prefix), (rows, prefix)]
    assert calls[0][0] < rows < len(diag)


def test_a_level_outside_the_window_reaches_the_whole_block_prefix(
        monkeypatch):
    # v_z above (v_x + v_y)/2 bends the diagonal down at both ends of a
    # sub-block: two wells, with the lowest levels in both.  Their hull
    # holds both, so the window is cut to the first half of the block
    # here; the Sturm count then finds the levels of the other well
    # missing and the prefix falls back to one whole-block call
    p = ModelParams(n=600, b=0.002, v_x=1.0, v_y=0.5, v_z=2.0)
    _, _, diag, _, off = parity_halves(p, p.n)[0]
    window = fcspin.exact._prefix_window

    def first_half(diag, *args):
        lo, hi, pad = window(diag, *args)
        return lo, min(hi, len(diag) // 2), pad

    monkeypatch.setattr(fcspin.exact, "_prefix_window", first_half)
    calls = _recording_solver(monkeypatch)
    w, v, lo = _solve_stage(diag, off)
    prefix = fcspin.exact._PREFIX_LEVELS
    assert calls == [(calls[0][0], prefix), (len(diag), prefix)]
    assert calls[0][0] < len(diag)
    want_w, want_v = fcspin.exact.eigh_tridiagonal(diag, off, lowest=prefix)
    assert lo == 0 and len(w) == prefix
    assert w.tobytes() == want_w.tobytes() and v.tobytes() == want_v.tobytes()
    # and the levels of both wells are among them
    weight = v * v
    half = len(diag) // 2
    assert (weight[half:].sum(axis=0) > 0.5).any()
    assert (weight[:half].sum(axis=0) > 0.5).any()


def test_a_cluster_without_a_certified_gap_is_solved_whole(monkeypatch):
    # 40 levels exactly at 0 (uncoupled rows): no cut inside the cluster is
    # certified by the window's call or the whole block's prefix, so the
    # stage solves the whole block with dstevd and completes it
    diag = np.append(np.zeros(40), 1.0 + 0.01 * np.arange(260))
    off = np.append(np.zeros(40), np.full(259, 0.1))
    calls = _recording_solver(monkeypatch)
    w, v, lo = _solve_stage(diag, off)
    prefix = fcspin.exact._PREFIX_LEVELS
    assert calls == [(calls[0][0], prefix), (300, prefix), (300, None)]
    assert calls[0][0] < 300 and lo == 0
    want_w, want_v, _ = dstevd(diag, off)
    assert w.tobytes() == want_w.tobytes() and v.tobytes() == want_v.tobytes()


def test_a_straddling_pair_stays_with_the_full_solve():
    # levels 15 and 16 of the largest sub-block of the b = 0 draw of
    # test_zero_field_magnetization_vanishes_in_a_staged_spectrum are a
    # pair degenerate to rounding: the prefix keeps levels 0-14 and the
    # full solve supplies both of the pair
    p = ModelParams(n=600, b=0.0, v_x=1.0, v_y=0.999, v_z=0.0)
    sp = Spectra(p)
    sp._advance([0])
    prefix = fcspin.exact._PREFIX_LEVELS
    assert sp._count[0] == prefix - 1
    sp._advance([0])
    e = sp._block(0)[0]
    assert e[prefix] - e[prefix - 1] <= sp._slack[0]
    assert e[prefix - 1] - e[prefix - 2] > sp._slack[0]


def test_cold_window_solves_few_levels_at_n2000():
    # the lowest levels of the large sub-blocks carry the weight at low T
    sp = Spectra(ModelParams.from_chi(2000, 0.5, 0.5))
    thermal_observables(sp, 0.14)
    touched = int(sp._dims[sp._solved].sum())
    solved = int(sp._count.sum())
    assert 0 < solved < 0.05 * touched


def _arrays(obj):
    """Every ndarray reachable through containers from obj."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for v in obj:
            yield from _arrays(v)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _arrays(v)


def test_a_cold_spectrum_holds_only_its_solved_levels_at_n2000():
    # per sub-block data (n + 1 entries) and the solved levels, no array
    # with an entry for every one of the n^2/4 levels
    n = 2000
    sp = Spectra(ModelParams.from_chi(n, 0.5, 0.5))
    thermal_observables(sp, 0.14)
    solved = int(sp._count.sum())
    assert sp._levels.shape == (6, solved)
    assert 0 < 6 * solved < 0.01 * (n // 2 + 1) ** 2
    arrays = list(_arrays(vars(sp)))
    assert any(a is sp._levels for a in arrays)
    for a in arrays:
        assert a.size <= max(n + 1, 6 * solved), a.shape


@pytest.mark.parametrize("b", [0.0, 0.3])
def test_parity_doublet_at_zero_temperature_at_n10000(b):
    # below b_s = 0.71 the two parity ground levels of the maximum spin are
    # a doublet: split by 9.1e-13 at b = 0, under n eps = 2.2e-12 though
    # over 1e-12; the T = 0 state is their equal-weight mixture
    n = 10_000
    fcspin.exact.eigh_tridiagonal(np.ones(2), np.ones(1))  # loads _flapack
    tracemalloc.start()
    try:
        sp = Spectra(ModelParams.from_chi(n, b, 0.5))
        corr = thermal_observables(sp, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert log_partition(sp, 0.0) == math.log(2.0)  # Y = 1 each
    assert list(sp._sub_two_s[:2]) == [n, n]  # both parities of 2S = n
    pair = sp._block(0)[1:, 0] + sp._block(1)[1:, 0]
    want = _correlators((pair / 2.0).tolist(), n)
    for f in ("alpha_x", "alpha_y", "alpha_z", "sz"):
        assert math.isclose(getattr(corr, f), getattr(want, f),
                            rel_tol=1e-14, abs_tol=1e-16), f
    # n^2/4 levels would take 1.6 GB.  Both prefixes are windowed, so no
    # call returns the dstemr wrapper's zero-filled dim x dim eigenvector
    # array (dim = n/2 + 1, 200 MB), which a whole-block prefix would add
    assert peak <= 64 * 2**20


def test_level_concurrence_solves_only_the_levels_sub_block():
    sp = Spectra(ModelParams.from_chi(1000, 0.5, 0.5))
    rep = level_concurrence(sp, 1000, 0, 1)
    assert sp._solved.sum() == 1
    assert rep == level_concurrence(sp, 1000, 0, 1)


def test_level_concurrence_matches_the_solved_spectrum(small_stages):
    # each level has a fixed source, so a lone sub-block gives it bitwise;
    # found from the sub-block offsets, it is the level that the flat label
    # arrays name, and those arrays stay unbuilt
    rng = np.random.default_rng(103)
    for n in (9, 40, 300):
        p = draw_params(rng, n)
        full = Spectra(p)
        full.energy  # every stage of every sub-block
        for i in rng.choice(len(full.energy), 10, replace=False):
            level = [int(a[i]) for a in (full.two_s, full.k_index, full.parity)]
            corr = _correlators([float(getattr(full, k)[i]) for k in
                                 ("m2x", "m2y", "m2z", "m1z")], n)
            sp = Spectra(p)
            assert level_concurrence(sp, *level) == concurrence(
                pair_density(corr, n))
        for bad in ((n, n // 2 + 1, 1), (n, -1, 1), (n, 0, 0), (n - 1, 0, 1)):
            with pytest.raises(ValueError, match="no level"):
                level_concurrence(sp, *bad)
        spectrum_low(sp, 20)
        assert not {"two_s", "parity", "k_index"} & vars(sp).keys()


def test_spectrum_low_matches_the_solved_spectrum(small_stages):
    # rows bitwise, ties included: v_x = v_y at b = 0 makes every sub-block
    # diagonal and doubles its levels across parities
    rng = np.random.default_rng(107)
    draws = [ModelParams(n=40, b=0.0, v_x=1.0, v_y=1.0, v_z=0.3),
             ModelParams.from_chi(60, 0.0, 0.5)]
    draws += [draw_params(rng, n) for n in (7, 50, 200)]
    for p in draws:
        full = Spectra(p)
        e = full.energy
        order = np.argsort(e, kind="stable")
        for count in (1, 6, 40, len(e)):
            want = [(int(full.two_s[i]), int(full.k_index[i]),
                     int(full.parity[i]), float(e[i] - e[order[0]]))
                    for i in order[1:count + 1]]
            sp = Spectra(p)
            assert spectrum_low(sp, count) == want, (p, count)
            if count < 40 and p.n >= 50:
                assert not sp._complete


# ---------------------------------------------------------------------------
# the direct LAPACK solver


def _lapack_draws():
    """(params, stride): seeded draws (negative v_y and v_z among them) from
    n = 2 to 800, most also at b = 0, then points near b_c = v_x - v_z and
    on the XXZ line; the test checks every stride-th sub-block."""
    rng = np.random.default_rng(109)
    draws = [draw_params(rng, n) for n in (2, 3, 8, 31, 100, 257, 520)]
    draws += [p.with_field(0.0) for p in draws[:-1]]
    draws += [ModelParams(n=n, b=(1.0 + d) * (1.3 + 0.4), v_x=1.3, v_y=-0.5,
                          v_z=-0.4) for n, d in ((40, 1e-9), (300, -1e-6))]
    draws += [ModelParams(n=n, b=b, v_x=1.0, v_y=1.0, v_z=vz)
              for n, b, vz in ((5, 0.0, 0.3), (60, 0.7, -0.5))]
    # every sub-block of n = 800 would take seconds: every 16th, the
    # largest first
    return [(p, 1) for p in draws] + [(draw_params(rng, 800), 16)]


def test_direct_stemr_is_scipys_bitwise():
    # the full solve (dstevd) and the prefix (dstemr), each against SciPy's
    # wrapper of the same LAPACK routine
    solve, prefix = fcspin.exact.eigh_tridiagonal, fcspin.exact._PREFIX_LEVELS
    dims = []
    for p, stride in _lapack_draws():
        for diag, off in _sub_blocks(p)[::stride]:
            dim = len(diag)
            if dim == 1:
                continue
            k = min(prefix, dim)
            pairs = ((solve(diag, off), dstevd(diag, off)[:2]),
                     (solve(diag, off, lowest=k),
                      eigh_tridiagonal(diag, off, select="i",
                                       select_range=(0, k - 1),
                                       lapack_driver="stemr")))
            for got, want in pairs:
                for a, b in zip(got, want):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), (
                        p, dim)
            dims.append(dim)
    assert 2 in dims and max(dims) >= fcspin.exact._STAGED_DIM


def test_full_solve_matches_the_stemr_solve_it_replaced():
    # Levels to 1e-12 of the block norm (worst seen 4.4e-15).  An
    # eigenvector is fixed only up to eps norm / gap, and a quasi-degenerate
    # pair rotates freely within its plane: in
    # ModelParams.from_chi(20, 0.0, 0.9) the top pair of the maximum-spin
    # sub-block is 1.4e-15 apart (1.7 from the level below), and its upper
    # level's m1z is 6.19 by dstevd and -9.76 by dstemr, while the pair's
    # sum is 0 by both.  So per-level moments are compared only for levels
    # more than 1e-6 of the norm from both neighbours, and the rest as sums
    # over each run of levels closer than that; 1e-9 of S(S+1) leaves room
    # for eps / 1e-6 (worst seen 4.4e-11).
    draws = _lapack_draws() + [(ModelParams.from_chi(20, 0.0, 0.9), 1)]
    clusters = 0
    for p, stride in draws:
        halves = [(ts, *h[1:]) for ts in sector_spins(p.n)
                  for h in parity_halves(p, ts)]
        for ts, m, diag, ladder, off in halves[::stride]:
            if len(diag) == 1:
                continue
            norm = _block_norm(diag, off)
            s = ts / 2.0
            wa, va = fcspin.exact.eigh_tridiagonal(diag, off)
            wb, vb = eigh_tridiagonal(diag, off, lapack_driver="stemr")
            assert np.max(np.abs(wa - wb)) <= 1e-12 * norm, (p, ts)
            run = np.append(0, np.cumsum(np.diff(wa) > 1e-6 * norm))
            clusters += int((np.bincount(run) > 1).sum())
            sums = [np.array([np.bincount(run, weights=row) for row in
                              _level_moments(s, m, ladder, v)])
                    for v in (va, vb)]
            assert (np.max(np.abs(sums[0] - sums[1]))
                    <= 1e-9 * s * (s + 1.0)), (p, ts)
    assert clusters


def test_thermal_results_match_the_stemr_solves_they_replaced(monkeypatch):
    # the draws up to n = 520 (b = 0, near b_c, v_z < 0, staged sub-blocks
    # at n = 520), each solved with either routine for its full solves
    solve = fcspin.exact.eigh_tridiagonal

    def stemr(diag, off, lowest=None):
        if lowest is None:
            return eigh_tridiagonal(diag, off, lapack_driver="stemr")
        return solve(diag, off, lowest)

    for p, stride in _lapack_draws():
        if stride > 1:
            continue
        for t in (0.0, 0.05, 0.2, 1.0):
            T = t * p.v_x
            got = []
            for solver in (solve, stemr):
                with monkeypatch.context() as mp:
                    mp.setattr(fcspin.exact, "eigh_tridiagonal", solver)
                    sp = Spectra(p)
                    got.append((log_partition(sp, T),
                                thermal_observables(sp, T)))
            (ln_z, corr), (want_ln_z, want) = got
            assert math.isclose(ln_z, want_ln_z, rel_tol=1e-12,
                                abs_tol=1e-12), (p, T)
            for f in ("alpha_x", "alpha_y", "alpha_z", "sz"):
                assert abs(getattr(corr, f) - getattr(want, f)) <= 1e-12, (
                    p, T, f)


@pytest.mark.parametrize("staged", [False, True])
def test_every_solve_goes_through_the_module_level_solver(staged,
                                                          monkeypatch):
    # perfbench/tracer.py counts solves and levels by wrapping this name
    if staged:
        monkeypatch.setattr(fcspin.exact, "_STAGED_DIM", 8)
        monkeypatch.setattr(fcspin.exact, "_PREFIX_LEVELS", 3)
    solver, advance = fcspin.exact.eigh_tridiagonal, Spectra._solve_next
    levels, stages = [], []

    def counting_solver(*args, **kwargs):
        w, v = solver(*args, **kwargs)
        levels.append(len(w))
        return w, v

    def counting_advance(sp, j, diag, plus2):
        stages.append(len(diag))
        return advance(sp, j, diag, plus2)

    monkeypatch.setattr(fcspin.exact, "eigh_tridiagonal", counting_solver)
    monkeypatch.setattr(Spectra, "_solve_next", counting_advance)
    p = ModelParams.from_chi(100, 0.6, 0.5)
    diagonalize.cache_clear()
    thermal_concurrence(p, 0.3)
    sp = diagonalize(p)
    dims = sp._dims
    solved = sp._count
    assert len(levels) == sum(d > 1 for d in stages) > 0
    # a staged sub-block's full solve returns its prefix again
    resolved = (dims >= fcspin.exact._STAGED_DIM) & (sp._low == np.inf)
    assert sum(levels) == (solved[dims > 1].sum()
                           + fcspin.exact._PREFIX_LEVELS * resolved.sum())
    assert staged == (len(stages) > sp._solved.sum())


def test_non_finite_block_elements_raise_value_error():
    # the diagonal overflows in the first draw, the off-diagonal scale in
    # the second; neither may reach LAPACK
    draws = (ModelParams(n=100, b=0, v_x=1e307, v_y=-1e307, v_z=-1e307),
             ModelParams(n=4, b=0, v_x=1.7e308, v_y=-1.7e308, v_z=0.0))
    for p in draws:
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="infs or NaNs"):
                thermal_concurrence(p, 1.0)
