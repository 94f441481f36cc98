"""The shared sign-change scan and the root searches built on it."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

import fcspin.exact
import fcspin.rpa
from fcspin import (
    ModelParams,
    critical_constants,
    full_concurrence,
    limit_temperature_rpa,
    limit_temperatures,
    parity_transitions,
    rpa_energy_determinant,
    separable_window,
    solve_mean_field,
)
from fcspin.roots import _sign_changes, brentq


def _sign(v: float) -> float:
    return float(np.sign(v))


def _reference(grid, values) -> list[tuple]:
    """Brute-force statement of the scan convention, one pair at a time."""
    out = []
    last = len(values) - 1
    for i, v in enumerate(values):
        if v == 0.0:
            before = _sign(values[i - 1]) if i > 0 else 0.0
            after = _sign(values[i + 1]) if i < last else 0.0
            out.append((grid[i], grid[i], before, after))
        elif i < last:
            w = values[i + 1]
            if (math.isfinite(v) and math.isfinite(w) and w != 0.0
                    and (v > 0.0) != (w > 0.0)):
                out.append((grid[i], grid[i + 1], _sign(v), _sign(w)))
    return out


def _draw(rng: np.random.Generator, size: int) -> np.ndarray:
    # small integers make exact and touching zeros common
    pool = np.array([-2.0, -1.0, 0.0, 0.0, 1.0, 2.0, np.nan, np.inf, -np.inf])
    v = rng.choice(pool, size=size, p=[.15, .15, .15, .1, .15, .15, .05,
                                       .05, .05])
    mixed = rng.random(size) < 0.3
    v[mixed] = rng.normal(size=int(mixed.sum()))
    return v


def test_scan_matches_brute_force_reference():
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        size = int(rng.integers(1, 25))
        grid = np.cumsum(rng.uniform(0.1, 1.0, size))
        values = _draw(rng, size)
        got = [tuple(c) for c in _sign_changes(grid, values)]
        # repr compares NaN signs as equal
        assert repr(got) == repr(_reference(grid.tolist(), values.tolist()))


@pytest.mark.parametrize("values, want", [
    ([1.0, 0.0, 1.0], [(1.0, 1.0, 1.0, 1.0)]),      # touching from above
    ([-1.0, 0.0, -1.0], [(1.0, 1.0, -1.0, -1.0)]),  # touching from below
    ([0.0, -1.0, 1.0], [(0.0, 0.0, 0.0, -1.0), (1.0, 2.0, -1.0, 1.0)]),
    ([1.0, np.nan, -1.0], []),                     # non-finite pairs skipped
    ([1.0, -np.inf, 0.0], [(2.0, 2.0, -1.0, 0.0)]),
])
def test_scan_convention_cases(values, want):
    got = [tuple(c) for c in _sign_changes([0.0, 1.0, 2.0], values)]
    assert got == want


def test_polish_solves_only_brackets():
    calls = []

    def solver(f, lo, hi, **tol):
        calls.append((lo, hi, tol))
        return 0.5 * (lo + hi)

    node, bracket = _sign_changes([0.0, 1.0, 2.0], [0.0, 1.0, -1.0])
    assert node.polish(solver, None, xtol=1.0) == 0.0
    assert bracket.polish(solver, None, xtol=1.0) == 1.5
    assert calls == [(1.0, 2.0, {"xtol": 1.0})]


# ---------------------------------------------------------------------------
# the in-package Brent method against SciPy's, bitwise


def _cubic(x, r0, r1, r2):
    return (x - r0) * (x - r1) * (x - r2)


def _gap(lam, offset, c, T):
    # the form of meanfield._solve_gap
    return lam - offset - c * math.tanh(lam / (2.0 * T))


def _exp(x, k, s):
    return np.exp(k * x) - s  # an np.float64


def _outcome(solver, f, a, b, **kw):
    try:
        return solver(f, a, b, **kw)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def _same(got, want) -> bool:
    if isinstance(want, type):
        return got is want
    return (type(got) is float and got == want
            and math.copysign(1.0, got) == math.copysign(1.0, want))


def test_brentq_is_bitwise_scipys():
    rng = np.random.default_rng(31)
    quarters = lambda size: tuple(rng.integers(-12, 13, size) / 4.0)
    forms = ((_cubic, lambda: tuple(rng.normal(size=3))),
             # on a lattice of quarters, where the method's ties happen
             (_cubic, lambda: quarters(3)),
             (_gap, lambda: (rng.uniform(-1.0, 1.0), rng.uniform(0.1, 3.0),
                             rng.uniform(0.01, 2.0))),
             (_exp, lambda: (rng.uniform(0.1, 5.0), rng.uniform(0.5, 5.0))))
    converged = 0
    for i in range(3000):
        f, draw = forms[i % 4]
        args = draw()
        a, b = ((rng.uniform(-3.0, 0.0), rng.uniform(0.0, 3.0)) if i % 4 != 1
                else quarters(2))
        kw = dict(args=args, xtol=10.0 ** rng.uniform(-16.0, -6.0),
                  rtol=(8.9e-16, 1e-15, 1e-10)[i // 4 % 3])
        want = _outcome(scipy_brentq, f, a, b, **kw)
        assert _same(_outcome(brentq, f, a, b, **kw), want), (i, kw)
        converged += not isinstance(want, type)
    assert converged > 1500


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x, 0.0, 1.0),
    (lambda x: x, -0.0, 1.0),
    (lambda x: x - 1.0, -2.0, 1.0),
    (lambda x: np.exp(x) - 1.0, -1.0, 0.0),
], ids=["zero-at-a", "minus-zero-at-a", "zero-at-b", "float64-zero-at-b"])
def test_brentq_endpoint_zero_is_scipys(f, a, b):
    assert _same(brentq(f, a, b), scipy_brentq(f, a, b))


@pytest.mark.parametrize("f, a, b, kw", [
    (lambda x: x * x + 1.0, -1.0, 1.0, {}),                  # equal signs
    (lambda x: x - 0.3 if x != 1.0 else math.nan, 0.0, 1.0, {}),
    (lambda x: math.nan if 0.2 < x < 0.9 else x - 0.5, 0.0, 1.0, {}),
    (lambda x: x - 0.3, 0.0, 1.0, {"xtol": 0.0}),
    (lambda x: x - 0.3, 0.0, 1.0, {"xtol": -1e-12}),
    (lambda x: x - 0.3, 0.0, 1.0, {"rtol": 3.9 * np.finfo(float).eps}),
    (lambda x: math.exp(x) - 2.0, 0.0, 5.0, {"maxiter": 1}),
    (lambda x: math.exp(x) - 2.0, 0.0, 5.0, {"maxiter": 2}),
    (lambda x: math.exp(x) - 2.0, 0.0, 5.0, {"maxiter": 3}),
], ids=["equal-signs", "nan-at-b", "nan-inside", "xtol-0", "xtol-negative",
        "rtol-small", "maxiter-1", "maxiter-2", "maxiter-3"])
def test_brentq_raises_where_scipy_does(f, a, b, kw):
    want = _outcome(scipy_brentq, f, a, b, **kw)
    assert isinstance(want, type)
    assert _outcome(brentq, f, a, b, **kw) is want


# ---------------------------------------------------------------------------
# golden values of every scanning site, recorded before the scans were
# merged into one; rel 1e-12


def _spy(monkeypatch, module) -> list[int]:
    """Record the grid length of every scan the module makes."""
    sizes = []
    scan = module._sign_changes

    def spied(grid, values):
        sizes.append(len(grid))
        return scan(grid, values)

    monkeypatch.setattr(module, "_sign_changes", spied)
    return sizes


def test_limit_temperatures_just_above_the_factorizing_field(monkeypatch):
    # b_s = sqrt(0.5) < b < b_s + 0.05 v_x: the plain 400-point grid
    # resolves the low-T window
    sizes = _spy(monkeypatch, fcspin.exact)
    lt = limit_temperatures(ModelParams.from_chi(100, 0.72, 0.5))
    assert sizes == [fcspin.exact.LIMIT_SCAN_POINTS] * 2
    assert lt.minus == ()
    (lo, hi), = lt.plus
    assert lo == 0.0
    assert math.isclose(hi, 0.10188299219423406, rel_tol=1e-12)


def _positive_runs(grid, values) -> list[tuple[float, float, float, float]]:
    """Brackets (lo_a, lo_b, hi_a, hi_b) of the edges of each positive run."""
    pos = np.append(np.insert(values > 0, 0, False), False).astype(int)
    starts = np.flatnonzero(np.diff(pos) == 1)
    ends = np.flatnonzero(np.diff(pos) == -1) - 1
    last = len(grid) - 1
    return [(grid[max(a - 1, 0)], grid[a], grid[b], grid[min(b + 1, last)])
            for a, b in zip(starts, ends)]


def test_limit_temperatures_match_a_dense_scan():
    # every interval edge lies in the bracket of a 20 000-point geometric
    # scan of the batched core, to xtol, on seeded draws; a quarter of them
    # at b_s < b < b_s + 0.1 (v_x - v_z), just above the factorizing field
    rng = np.random.default_rng(89)
    fine = np.geomspace(1e-4, 2.0, 20_000)
    windows = 0
    for i in range(40):
        n, chi = int(rng.integers(4, 61)), float(rng.uniform(0.05, 0.95))
        v_z = float(rng.uniform(-0.5, 0.5))
        p = ModelParams.from_chi(n, 0.0, chi, v_z=v_z)
        d = p.v_x - p.v_z
        b_s = d * math.sqrt(chi)
        b = (b_s + d * 10 ** float(rng.uniform(-3.0, -1.0)) if i % 4 == 0
             else float(rng.uniform(0.0, 2.0)) * p.v_x)
        p = p.with_field(b)
        xtol = 1e-5 * p.v_x
        lt = limit_temperatures(p)
        grid = fine * p.v_x
        vals = fcspin.exact._signed_c_on_grid(fcspin.diagonalize(p), grid)
        for comp, ivs in enumerate((lt.plus, lt.minus)):
            # a sliver below the scan's first node is not the scan's to see
            ivs = [(max(lo, grid[0]), hi) for lo, hi in ivs if hi > grid[0]]
            runs = _positive_runs(grid, vals[:, comp])
            assert len(ivs) == len(runs), (p, comp, ivs, runs)
            for (lo, hi), (lo_a, lo_b, hi_a, hi_b) in zip(ivs, runs):
                assert lo_a - xtol <= lo <= lo_b + xtol, (p, comp)
                assert hi_a - xtol <= hi <= hi_b + xtol, (p, comp)
            windows += len(runs)
    assert windows >= 40


# the closed form b_s (n + 1 - 2k)/n, k = n/2 .. 1, with b_s = sqrt(chi)
PARITY_N20 = [math.sqrt(0.5) * (21 - 2 * k) / 20 for k in range(10, 0, -1)]


def test_parity_transitions_golden_n20():
    got = parity_transitions(ModelParams.from_chi(20, 0.0, 0.5))
    assert len(got) == 10
    for g, w in zip(got, PARITY_N20):
        assert math.isclose(g, w, rel_tol=1e-12)


def test_termination_field_golden():
    p = ModelParams.from_chi(19, 0.915078094966738, 0.9950290542093373)
    res = full_concurrence(p, 0.006585955927449272)
    assert res.complex_terminated and res.c_minus is None
    assert math.isclose(res.b_f, 0.904432512867008, rel_tol=1e-12)


@pytest.mark.parametrize("n, b, chi, which, want", [
    (119, 0.9128, 0.8595, 1, 0.048602821910906265),
    (314, 1.1472, 0.8736, 0, 0.10509601448918546),
])
def test_limit_t_fallback_scan_golden(monkeypatch, n, b, chi, which, want):
    # the damped iteration oscillates here, so the root comes from the scan
    sizes = _spy(monkeypatch, fcspin.rpa)
    got = limit_temperature_rpa(ModelParams.from_chi(n, b, chi))
    assert sizes == [800]
    assert got[1 - which] is None
    assert math.isclose(got[which], want, rel_tol=1e-12)


def test_separable_window_grid_branch_golden(monkeypatch):
    sizes = _spy(monkeypatch, fcspin.rpa)
    with pytest.raises(ValueError, match="no self-consistent upper edge"):
        separable_window(ModelParams.from_chi(10, 0.0, 0.8), 0.3)
    assert sizes == []


def test_separable_window_upper_edge_against_a_dense_scan():
    # the window raises exactly when the closed-form k_up has no sign change
    # on a 20 000-point grid over [b_s, b_c (1 - 1e-9)]; where it returns,
    # its upper edge lies in that scan's bracket
    rng = np.random.default_rng(11)
    raised = returned = 0
    for _ in range(200):
        n = int(rng.integers(5, 301))
        chi, T = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.01, 0.5))
        p = ModelParams.from_chi(n, 0.0, chi)
        u = 2.0 * (n - 1) * math.exp(-p.v_x / T)
        if u >= 1.0:
            continue  # outside the window form, a different refusal
        b_c = critical_constants(p).b_c
        c2 = (p.v_x - p.v_y) * (p.v_x - p.v_z)
        grid = np.linspace(b_c * math.sqrt(chi), b_c * (1.0 - 1e-9), 20_000)
        s = 1.0 - (grid / b_c) ** 2
        k = s - (1.0 - chi) * (np.tanh(0.5 * np.sqrt(s * c2) / T)
                               * (1.0 - u)) ** 2
        brackets = np.flatnonzero(k[:-1] * k[1:] <= 0.0)
        if len(brackets) == 0:
            with pytest.raises(ValueError, match="no self-consistent upper"):
                separable_window(p, T)
            raised += 1
        else:
            i = brackets[0]
            _, upper = separable_window(p, T)
            assert grid[i] <= upper <= grid[i + 1]
            returned += 1
    assert raised >= 10 and returned >= 10


@pytest.mark.parametrize("n, b, chi, T, r, want", [
    (50, 0.3, 0.5, 0.1, None, 0.6744695143923585),
    (20, 1.3, 0.4, 0.2, (0.2, 0.1, -0.3), 0.8767571602690802),
    (100, 0.6, 0.8, 0.05, None, 0.35777087409552666),
])
def test_rpa_energy_determinant_golden(n, b, chi, T, r, want):
    p = ModelParams.from_chi(n, b, chi)
    got = rpa_energy_determinant(r or solve_mean_field(p, T).r, p, T)
    assert math.isclose(got, want, rel_tol=1e-12)


def _old_positive_intervals(grid, values, f, xtol):
    """The per-pair interval assembly the scan replaced, kept as reference."""
    from scipy.optimize import brentq

    intervals = []
    open_at = float(grid[0]) if values[0] > 0 else None
    for i in range(len(grid) - 1):
        fa, fb = values[i], values[i + 1]
        if open_at is None and fb > 0:
            open_at = float(brentq(f, grid[i], grid[i + 1], xtol=xtol)
                            if fa < 0 else grid[i])
        elif open_at is not None and fb <= 0:
            end = (brentq(f, grid[i], grid[i + 1], xtol=xtol)
                   if fa > 0 > fb else grid[i + 1])
            intervals.append((open_at, float(end)))
            open_at = None
    if open_at is not None:
        intervals.append((open_at, float(grid[-1])))
    return intervals


def test_limit_temperature_intervals_match_pairwise_assembly(monkeypatch):
    # C_pm(T) replaced by piecewise-linear curves through random node values
    # with exact and touching zeros (and no ground-state entanglement, so no
    # extension to T = 0); the intervals must equal the old pair-by-pair
    # assembly, bitwise
    p = ModelParams.from_chi(4, 0.0, 0.5)
    grid = np.geomspace(1e-4, 2.0, fcspin.exact.LIMIT_SCAN_POINTS)
    rng = np.random.default_rng(7)
    for _ in range(20):
        signs = rng.choice([-1.0, 0.0, 1.0], size=(len(grid), 2),
                           p=[0.45, 0.1, 0.45])
        nodes = signs * rng.uniform(0.5, 2.0, signs.shape)

        def signed(spectra, T, nodes=nodes):
            if T == 0.0:
                return -1.0, -1.0
            return tuple(float(np.interp(T, grid, nodes[:, k]))
                         for k in (0, 1))

        monkeypatch.setattr(fcspin.exact, "_signed_c_of_t", signed)
        monkeypatch.setattr(
            fcspin.exact, "_signed_c_on_grid",
            lambda spectra, ts, signed=signed: np.array(
                [signed(spectra, t) for t in ts]))
        got = limit_temperatures(p)
        for k, ivs in enumerate((got.plus, got.minus)):
            f = lambda t, k=k: signed(None, t)[k]
            want = _old_positive_intervals(grid, nodes[:, k], f, 1e-5)
            assert len(want) > 5
            assert list(ivs) == want
