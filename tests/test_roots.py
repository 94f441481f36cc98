"""The shared sign-change scan and the root searches built on it."""

from __future__ import annotations

import math

import numpy as np
import pytest

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
from fcspin.roots import _sign_changes


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


def test_limit_temperatures_patch_branch(monkeypatch):
    # just above the factorizing field the geometric grid gets a 1500-point
    # linear patch at low T
    sizes = _spy(monkeypatch, fcspin.exact)
    lt = limit_temperatures(ModelParams.from_chi(100, 0.72, 0.5))
    assert sizes and all(s > 1800 for s in sizes)
    assert lt.minus == ()
    (lo, hi), = lt.plus
    assert lo == 0.0
    assert math.isclose(hi, 0.10188299219423406, rel_tol=1e-12)


PARITY_N20 = [0.03535533922835933, 0.10606601716612636, 0.17677669537332072,
              0.24748737339511032, 0.3181980515357766, 0.3889087296887038,
              0.4596194077763415, 0.5303300858930291, 0.6010407640088519,
              0.6717514421272275]


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
        got = limit_temperatures(p)
        for k, ivs in enumerate((got.plus, got.minus)):
            f = lambda t, k=k: signed(None, t)[k]
            want = _old_positive_intervals(grid, nodes[:, k], f, 1e-5)
            assert len(want) > 5
            assert list(ivs) == want
