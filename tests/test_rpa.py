"""Large-n concurrence formulas against the exact solution and their own limits."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fcspin import (
    DELTA_C,
    DivergenceError,
    ModelParams,
    anomalous_tl,
    asymptotic_concurrence,
    critical_constants,
    factorizing_field,
    full_concurrence,
    limit_temperature_rpa,
    limit_temperatures,
    near_critical_cminus,
    separable_window,
    side_limits_at_bs,
    solve_mean_field,
    thermal_concurrence,
)


# ---------------------------------------------------------------------------
# leading-order pair


def test_branch_continuity_at_the_critical_field():
    # lam and omega close continuously at b_c, so C_+ must too
    p = ModelParams.from_chi(1000, 0.0, 0.5)
    below = asymptotic_concurrence(p.with_field(1.0 - 1e-9), 0.1)
    above = asymptotic_concurrence(p.with_field(1.0 + 1e-9), 0.1)
    assert math.isclose(below[0], above[0], abs_tol=1e-10)
    assert above[1] is None  # antiparallel branch ends at b_c


def test_matches_exact_at_moderate_n():
    # scaled difference |n C_exact - n C_asym| stays small by b regime
    p = ModelParams.from_chi(100, 0.0, 0.5)
    T = 0.14
    for b in (0.4, 0.6, 1.5, 2.0):
        cp, cm = asymptotic_concurrence(p.with_field(b), T)
        rep = thermal_concurrence(p.with_field(b), T)
        got = p.n * max(cp, cm if cm is not None else cp, 0.0)
        want = p.n * rep.c
        assert abs(got - want) <= 0.05, b


def test_far_field_tail():
    # b >> b_c: (n-1) C_+ -> (1 - chi) b_c / (2b)
    p = ModelParams.from_chi(10**4, 50.0, 0.5)
    cp, cm = asymptotic_concurrence(p, 1e-3)
    assert cm is None
    assert math.isclose((p.n - 1) * cp, 0.5 * 0.5 / 50.0, rel_tol=0.02)


def test_xxz_antiparallel_limit_is_finite():
    # at v_y = v_x the 0/0 in the antiparallel factor has a finite limit
    p = ModelParams(n=1000, b=0.3, v_x=1.0, v_y=1.0, v_z=0.0)
    cp, cm = asymptotic_concurrence(p, 0.05)
    assert cm is not None and math.isfinite(cm)
    assert cp == -math.inf  # parallel factor diverges there


# ---------------------------------------------------------------------------
# limit temperatures


def _rpa_draws(count: int):
    """Seeded points: n log-uniform in [2, 1e6], v_z != 0, b up to 8 b_c.

    A quarter of them sit within 1e-6..1e-1 relative of b_s, on either
    side, a quarter likewise of b_c, and a quarter below b_s, where the
    antiparallel branch lives.  Where no factorizing field exists b_s is
    read as b_c, and where v_z >= v_x (no ordered phase) b_c as v_x.
    """
    rng = np.random.default_rng(131)
    for i in range(count):
        n = int(round(10 ** rng.uniform(math.log10(2.0), 6.0)))
        v_x = float(10 ** rng.uniform(-1.0, 1.0))
        v_y = float(rng.uniform(-0.95, 0.95)) * v_x
        v_z = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 1.5)) * v_x
        p = ModelParams(n, 0.0, v_x, v_y, v_z)
        pc = critical_constants(p)
        b_c = v_x if pc.normal_only else pc.b_c
        near = 1.0 + float(rng.choice([-1.0, 1.0])
                           * 10 ** rng.uniform(-6.0, -1.0))
        has_bs = not pc.normal_only and 0.0 < pc.chi < 1.0
        b_s = b_c * math.sqrt(pc.chi) if has_bs else b_c
        if i % 4 == 0:
            b = float(rng.uniform(0.0, 8.0)) * b_c
        elif i % 4 == 1:
            b = b_s * near
        elif i % 4 == 2:
            b = b_c * near
        else:
            b = float(rng.uniform(0.0, 1.0)) * b_s
        yield p.with_field(b)


def test_limit_temperature_solves_its_equation():
    # T_L solves T ln[2(n-1)/D(T)] = lam, D(T) = 1 - r^{pm 1} coth(omega/2T)
    # with r = omega/(lam - v_y), all rebuilt here from the T = 0 mean field
    values = {1: 0, -1: 0}
    for p in _rpa_draws(400):
        sol = solve_mean_field(p, 0.0)
        lam, om = sol.gap, sol.omega
        two_n = 2.0 * (p.n - 1)
        for sign, t in zip((1, -1), limit_temperature_rpa(p)):
            if sign == -1 and sol.phase == "normal":
                assert t is None, p
                continue
            r = (om / (lam - p.v_y)) ** sign

            def d_of(T, r=r):
                return 1.0 - r / np.tanh(0.5 * om / np.asarray(T))

            # no entanglement of that type at any T exactly when D(0) <= 0
            assert (t is None) == (1.0 - r <= 0.0), p
            if t is None:
                continue
            values[sign] += 1
            d = float(d_of(t))
            assert abs(d - two_n * math.exp(-lam / t)) <= 1e-12, (p, sign)
            # the log form loses digits where the root sits on D -> 0+
            if d >= 1e-4:
                resid = t * math.log(two_n / d) - lam
                assert abs(resid) <= 1e-11 * lam, (p, sign, resid)
            # T - rhs(T) changes sign once, in the scan bracket of T_L
            grid = np.geomspace(1e-10 * lam, 2.0 * lam, 2000)
            dg = d_of(grid)
            with np.errstate(divide="ignore", invalid="ignore"):
                g = np.where(dg > 0.0, grid - lam / np.log(two_n / dg), grid)
            flips = np.flatnonzero(np.sign(g[:-1]) != np.sign(g[1:]))
            assert len(flips) == 1, (p, sign, flips)
            assert grid[flips[0]] <= t <= grid[flips[0] + 1], (p, sign)
    assert min(values.values()) >= 50, values


def test_limit_temperature_below_the_old_scan_floor():
    # XXZ point just below b_c: omega = 0, so D(T) = 1 - 2T/[(1 - (b/b_c)^2)
    # (v_x - v_z)] falls to 0 at T* ~ 1e-13 v_x and T_L^- sits there, below
    # the 1e-8 lam bottom of a coarse geometric scan
    p = ModelParams(n=1000, b=1.0 - 1e-13, v_x=1.0, v_y=1.0, v_z=0.0)
    _, t_minus = limit_temperature_rpa(p)
    t_star = 0.5 * (1.0 - p.b * p.b)
    assert t_minus is not None
    assert abs(t_minus - t_star) <= 1e-15 * p.v_x
    assert asymptotic_concurrence(p, 0.5 * t_star)[1] > 0.0
    assert asymptotic_concurrence(p, 2.0 * t_star)[1] < 0.0


def test_limit_temperature_tracks_exact():
    p = ModelParams.from_chi(100, 0.5, 0.5)
    _, t_minus = limit_temperature_rpa(p)
    exact = limit_temperatures(p).t_minus
    assert math.isclose(t_minus, exact, rel_tol=0.05)


def test_limit_temperature_scaling_in_n():
    # T_L ~ lam / ln(a n): the product T_L ln n approaches lam slowly; check
    # the fitted form stays within 2% across three decades
    chi, b = 0.5, 0.5
    ns = [10**3, 10**4, 10**5, 10**6]
    ts = []
    for n in ns:
        p = ModelParams.from_chi(n, b, chi)
        ts.append(limit_temperature_rpa(p)[1])
    lam = solve_mean_field(ModelParams.from_chi(10**3, b, chi), 0.0).gap
    # solve lam/T = ln(a n) for a from the first point, predict the rest
    a = math.exp(lam / ts[0]) / ns[0]
    for n, t in zip(ns[1:], ts[1:]):
        pred = lam / math.log(a * n)
        assert abs(pred - t) / t < 0.02, n


def test_strong_field_limit_temperature_seed():
    # far above b_c the bracket [0, 2 lam] still holds the parallel root
    p = ModelParams.from_chi(100, 8.0, 0.5)
    t_plus, t_minus = limit_temperature_rpa(p)
    assert t_minus is None
    assert t_plus is not None and 0.0 < t_plus < p.b + p.v_z


# ---------------------------------------------------------------------------
# separable window


def test_separable_window_low_t_expansion():
    # edges b_s [1 +- (1/chi - 1) u], u = 2(n-1) e^{-v_x/T}, for small u
    p = ModelParams.from_chi(10**4, 0.0, 0.1)
    T = 0.04
    u = 2.0 * (p.n - 1) * math.exp(-p.v_x / T)
    b_s = critical_constants(p).b_c * math.sqrt(0.1)
    lo, hi = separable_window(p, T)
    dev = (1.0 / 0.1 - 1.0) * u
    assert math.isclose((hi - b_s) / b_s, dev, rel_tol=5e-3)
    assert math.isclose((lo - b_s) / b_s, -dev, rel_tol=5e-3)


def test_separable_window_collapses_at_zero_temperature():
    p = ModelParams.from_chi(200, 0.0, 0.5)
    b_s = critical_constants(p).b_c * math.sqrt(0.5)
    lo, hi = separable_window(p, 0.0)
    assert math.isclose(lo, b_s, rel_tol=1e-12)
    assert math.isclose(hi, b_s, rel_tol=1e-12)


def test_separable_window_brackets_exact_death_zone():
    # inside the window the exact concurrence of both types is gone
    p = ModelParams.from_chi(100, 0.0, 0.5)
    T = 0.1
    lo, hi = separable_window(p, T)
    mid = 0.5 * (lo + hi)
    assert thermal_concurrence(p.with_field(mid), T).c == 0.0
    assert thermal_concurrence(p.with_field(lo - 0.05), T).c > 0.0
    assert thermal_concurrence(p.with_field(hi + 0.05), T).c > 0.0


def test_separable_window_needs_a_gap():
    # thermal occupation comparable to the gap: no window to report
    p = ModelParams.from_chi(100, 0.0, 0.5)
    with pytest.raises(ValueError):
        separable_window(p, 1.0)


# ---------------------------------------------------------------------------
# factorizing-field neighborhood


def test_side_limits_frozen_values():
    # delta = 2: delta/(e^{delta/2} -+ 1) = 2/(e - 1), 2/(e + 1)
    cm, cp = side_limits_at_bs(100, 0.98)
    assert math.isclose(cm, 2.0 / (math.e - 1.0), rel_tol=1e-12)
    assert math.isclose(cp, 2.0 / (math.e + 1.0), rel_tol=1e-12)
    cm0, cp0 = side_limits_at_bs(100, 1.0)
    assert cm0 == 2.0 and cp0 == 0.0


def test_near_critical_termination_point():
    p = ModelParams.from_chi(100, 0.0, 1.0 - 2.0 / 100)
    out = near_critical_cminus(0.0, 1.0, 0.0, ModelParams.from_chi(100, 0.0, 1.0))
    assert out.eps_f == 4.0
    assert math.isclose(out.c_at_bf, 2.0 / 100, rel_tol=1e-12)
    # the printed local fit misses the exact root badly far from delta_c
    assert abs(out.eps_f_printed - out.eps_f) > 0.3
    # near delta_c they agree
    close = near_critical_cminus(0.55, 1.0, 0.0, p)
    assert math.isclose(close.eps_f, close.eps_f_printed, abs_tol=0.02)


def test_near_critical_concurrence_exceeds_one_over_n():
    # for delta <= 0.48 the terminal concurrence beats the generic 1/n scale
    for delta in (0.1, 0.3, 0.48):
        out = near_critical_cminus(delta, 1.0, 0.0,
                                   ModelParams.from_chi(1000, 0.0, 0.5))
        assert 1000 * out.c_at_bf > 1.0, delta
    assert 0.54 < DELTA_C < 0.56


def test_anomalous_reentry_scale():
    # the linear estimate matches the exact reentrant window top within x3
    p = ModelParams.from_chi(100, 0.0, 0.98)
    b_s = factorizing_field(p).mean_field
    b = b_s + 0.01
    est = anomalous_tl(b, b_s, 2.0)
    exact = limit_temperatures(p.with_field(b)).t_minus
    assert exact is not None
    assert est / 3.0 < exact < est * 3.0
    # vanishes approaching the factorizing field from above
    assert anomalous_tl(b_s + 1e-9, b_s, 2.0) < 1e-6


# ---------------------------------------------------------------------------
# full appendix forms


def test_full_matches_leading_order_at_low_temperature():
    p = ModelParams.from_chi(10**4, 0.5, 0.5)
    full = full_concurrence(p, 0.05)
    cp, cm = asymptotic_concurrence(p, 0.05)
    assert math.isclose(full.c_minus, cm, rel_tol=1e-3)
    assert math.isclose(full.c_plus, cp, rel_tol=1e-4)


def test_expanded_form_is_equivalent_at_large_n():
    p = ModelParams.from_chi(10**4, 0.5, 0.5)
    a = full_concurrence(p, 0.1)
    b = full_concurrence(p, 0.1, expanded=True)
    assert abs(a.c_minus - b.c_minus) <= 10.0 / p.n**2


def test_full_form_terminates_before_the_factorizing_field():
    p = ModelParams.from_chi(10, 0.9, 0.98)
    out = full_concurrence(p, 0.0)
    assert out.complex_terminated and out.c_minus is None
    b_s = factorizing_field(p).mean_field
    assert 0.5 < out.b_f < b_s
    ok = full_concurrence(p.with_field(0.5), 0.0)
    assert not ok.complex_terminated and ok.c_minus is not None


def test_full_form_rejects_the_xxz_valley():
    p = ModelParams(n=100, b=0.3, v_x=1.0, v_y=1.0, v_z=0.0)
    with pytest.raises(DivergenceError):
        full_concurrence(p, 0.1)


def test_normal_phase_full_form_handles_zero_vz():
    p = ModelParams.from_chi(100, 1.5, 0.5)
    out = full_concurrence(p, 0.1)
    assert out.phase == "normal"
    assert out.c_minus is None
    assert math.isfinite(out.c_plus)
