"""Acceptance checks: the package's headline guarantees at full scale.

One test per guarantee, numbered so ``pytest -v`` prints one pass/fail line
per criterion.  Where a guarantee carries a runtime promise the test asserts
the wall-clock bound as well.  Tolerances are fixed here, calibrated once
against the dense oracle and the closed forms; they are not to be loosened
to absorb regressions.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import fcspin.cspa
from fcspin import (
    BreakdownError,
    ModelParams,
    asymptotic_concurrence,
    cspa_concurrence,
    cspa_log_partition,
    cspa_result,
    diagonalize,
    level_concurrence,
    limit_temperatures,
    log_partition,
    oracle_concurrence,
    oracle_log_partition,
    oracle_observables,
    pair_density,
    parity_transitions,
    rpa_energy_determinant,
    rpa_energy_general,
    side_limits_at_bs,
    solve_mean_field,
    spectrum_low,
    thermal_concurrence,
    thermal_observables,
)
from tests.conftest import draw_params, draw_temperature


def _ok(num: int, detail: str) -> None:
    print(f"[acceptance {num:02d}] PASS: {detail}")


# 1. block solver against the dense oracle ----------------------------------


def test_01_block_solver_matches_dense_oracle():
    rng = np.random.default_rng(20260816)
    tol = 1e-9
    start = time.monotonic()
    checked = 0
    for n in range(2, 11):
        for _ in range(6 if n <= 6 else 5):
            p = draw_params(rng, n)
            T = draw_temperature(rng, p.v_x)
            sp = diagonalize(p)
            assert log_partition(sp, T) == pytest.approx(
                oracle_log_partition(p, T), abs=tol)
            got = thermal_observables(sp, T)
            want = oracle_observables(p, T)
            for field in ("alpha_x", "alpha_y", "alpha_z", "sz"):
                assert getattr(got, field) == pytest.approx(
                    getattr(want, field), abs=tol)
            assert thermal_concurrence(p, T).c == pytest.approx(
                oracle_concurrence(p, T).c, abs=tol)
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 50
    assert elapsed < 120.0
    _ok(1, f"50 draws over n=2..10 agree to {tol:g} in {elapsed:.1f}s")


# 2. one-excitation Dicke level ----------------------------------------------


def test_02_single_excitation_level_reaches_the_pair_bound():
    # v_y = v_x keeps S_z sharp, so the level is exactly |S=n/2, M=n/2-1>
    for n in (4, 10, 50):
        p = ModelParams(n=n, b=0.8, v_x=1.0, v_y=1.0, v_z=0.0)
        sp = diagonalize(p)
        sec = next(s for s in sp.sectors if s.two_s == n)
        k = int(np.argmin(np.abs(sec.m1z - (n / 2 - 1))))
        rep = level_concurrence(sp, n, int(sec.k_index[k]), int(sec.parity[k]))
        assert rep.c == pytest.approx(2.0 / n, abs=1e-10)
    _ok(2, "level concurrence equals 2/n to 1e-10 for n in {4, 10, 50}")


# 3. concurrence side limits at the factorizing point ------------------------


def test_03_side_limits_at_the_factorizing_point():
    n, chi = 100, 0.98
    # ground-state parity crossing closest to the separability point
    b_star = (1.0 - 1.0 / n) * math.sqrt(chi)
    # the parity doublet splits by ~8.5e-5 at these offsets; T must sit far
    # below that or the thermal state straddles the crossing
    T = 1e-5
    below = thermal_concurrence(ModelParams.from_chi(n, b_star - 1e-4, chi), T)
    above = thermal_concurrence(ModelParams.from_chi(n, b_star + 1e-4, chi), T)
    assert below.kind == "antiparallel"
    assert n * below.c == pytest.approx(1.16, abs=0.02)
    assert above.kind == "parallel"
    assert n * above.c == pytest.approx(0.54, abs=0.02)
    lim_minus, lim_plus = side_limits_at_bs(n, chi)
    assert lim_minus == pytest.approx(1.16, abs=5e-3)
    assert lim_plus == pytest.approx(0.54, abs=5e-3)
    _ok(3, f"nC jumps {n * below.c:.3f} -> {n * above.c:.3f} across the "
           f"crossing; closed form gives {lim_minus:.3f} / {lim_plus:.3f}")


# 4. zero-field limit temperature --------------------------------------------


def test_04_zero_field_limit_temperature_landmark():
    start = time.monotonic()
    lt = limit_temperatures(ModelParams.from_chi(100, 0.0, 0.5))
    elapsed = time.monotonic() - start
    assert lt.t_minus is not None
    assert 0.14 <= lt.t_minus <= 0.16
    assert elapsed < 60.0
    _ok(4, f"T_L = {lt.t_minus:.4f} v_x in [0.14, 0.16] ({elapsed:.1f}s)")


# 5. fluctuation-corrected concurrence off the critical region ---------------


def test_05_corrected_concurrence_accuracy_off_critical():
    n, T = 100, 0.14
    worst = 0.0
    for b in (0.4, 0.6, 1.5, 2.0):
        p = ModelParams.from_chi(n, b, 0.5)
        exact_c = thermal_concurrence(p, T).c
        cp, cm = asymptotic_concurrence(p, T)
        approx_c = max(cp, cm if cm is not None else cp, 0.0)
        worst = max(worst, n * abs(exact_c - approx_c))
    assert worst <= 0.05
    _ok(5, f"max |nC_exact - nC_approx| = {worst:.4f} <= 0.05")


# 6. static-path concurrence across the whole field range --------------------


def test_06_static_path_concurrence_tracks_exact():
    n, T = 100, 0.14
    grid = np.linspace(0.05, 2.0, 40)
    grid[19] = 1.0  # one point exactly at the critical field
    start = time.monotonic()
    worst = 0.0
    for b in grid:
        p = ModelParams.from_chi(n, float(b), 0.5)
        dev = n * abs(thermal_concurrence(p, T).c - cspa_concurrence(p, T).c)
        worst = max(worst, dev)
    elapsed = time.monotonic() - start
    assert worst <= 0.02
    assert elapsed < 300.0
    _ok(6, f"max |nC_cspa - nC_exact| = {worst:.4f} over 40 fields "
           f"({elapsed:.0f}s)")


# 7. collective mode: closed form against the determinant root ---------------


def test_07_mode_energy_closed_form_vs_determinant():
    rng = np.random.default_rng(11)
    found, tries, worst = 0, 0, 0.0
    while found < 100:
        tries += 1
        assert tries < 400
        p = draw_params(rng, 60)
        T = draw_temperature(rng, p.v_x)
        sol = solve_mean_field(p, T)
        r = sol.r + rng.uniform(-0.3, 0.3, size=3) * p.v_x
        en = rpa_energy_general(r, p, T)
        if en.squared <= 1e-6:  # softened mode: no real root to compare
            continue
        root = rpa_energy_determinant(r, p, T)
        if root is None:
            continue
        worst = max(worst, abs(en.value - root))
        found += 1
    assert worst <= 1e-8
    _ok(7, f"100 static points agree to {worst:.2e}")


# 8. low excitations against the collective frequencies ----------------------


def test_08_low_excitations_match_collective_frequencies():
    p = ModelParams.from_chi(100, 0.5, 0.5)
    omega = solve_mean_field(p, 1e-6).omega
    sp = diagonalize(p)
    rows = spectrum_low(sp, 40)
    # drop the quasi-degenerate parity partner of the ground state
    gap_top = min(de for s2, _, _, de in rows
                  if s2 == 100 and de > 1e-6 * p.v_x)
    gap_sub = min(de for s2, _, _, de in rows if s2 == 98)
    assert abs(gap_top - omega) / omega <= 0.02
    assert abs(gap_sub - p.v_x) / p.v_x <= 0.02
    _ok(8, f"gaps {gap_top:.4f} / {gap_sub:.4f} track omega={omega:.4f} "
           f"and lambda={p.v_x:.1f} within 2%")


# 9. ground-state parity crossings -------------------------------------------


def test_09_parity_crossing_count_and_last_position():
    p = ModelParams.from_chi(10, 0.5, 0.5)
    crossings = parity_transitions(p)
    assert len(crossings) == 5
    b_star = (1.0 - 1.0 / 10) * math.sqrt(0.5)
    assert crossings[-1] == pytest.approx(b_star, abs=1e-6)
    _ok(9, f"5 crossings, last at {crossings[-1]:.8f} vs (1-1/n) b_s")


# 10. logarithmic size scaling of the limit temperature -----------------------


def test_10_limit_temperature_log_scaling():
    sizes = (50, 100, 200, 400, 800)
    t_limit = []
    for n in sizes:
        lt = limit_temperatures(ModelParams.from_chi(n, 0.5, 0.5))
        t_limit.append(max(t for t in (lt.t_plus, lt.t_minus)
                           if t is not None))
    # T = lam / ln(a n)  <=>  1/T linear in ln n
    x = np.log(sizes)
    y = 1.0 / np.asarray(t_limit)
    slope, intercept = np.polyfit(x, y, 1)
    assert slope > 0
    fitted = 1.0 / (slope * x + intercept)
    residual = float(np.max(np.abs(fitted - t_limit) / t_limit))
    assert residual <= 0.02
    _ok(10, f"lam/ln(a n) fit residual {residual:.4f} over n=50..800")


# 11. limit temperature keeps growing above the critical field ----------------


def test_11_high_field_limit_temperature_grows():
    t_plus = []
    for b in (1.0, 2.0, 4.0):
        lt = limit_temperatures(ModelParams.from_chi(100, b, 0.5))
        assert lt.t_plus is not None
        t_plus.append(lt.t_plus)
    assert t_plus[0] < t_plus[1] < t_plus[2]
    _ok(11, "T_L+ = " + " < ".join(f"{t:.3f}" for t in t_plus))


# 12. the lower-spin ground level stays separable -----------------------------


def test_12_lower_spin_ground_level_is_separable():
    n = 100
    for b in np.linspace(0.1, 2.0, 20):
        sp = diagonalize(ModelParams.from_chi(n, float(b), 0.5))
        sec = next(s for s in sp.sectors if s.two_s == n - 2)
        k = int(np.argmin(sec.energy))
        rep = level_concurrence(sp, n - 2, int(sec.k_index[k]),
                                int(sec.parity[k]))
        assert rep.c <= 1e-10
    _ok(12, "lowest S = n/2 - 1 level has C = 0 on a 20-point field grid")


# 13. structural invariants ---------------------------------------------------


def test_13_structural_invariants_hold():
    rng = np.random.default_rng(5)

    # scale invariance: energies and T scale together, nothing else moves
    p = draw_params(rng, 8)
    T = draw_temperature(rng, p.v_x)
    sp, sp3 = diagonalize(p), diagonalize(p.scaled(3.0))
    assert log_partition(sp3, 3.0 * T) == pytest.approx(
        log_partition(sp, T), rel=1e-12)
    assert thermal_concurrence(p.scaled(3.0), 3.0 * T).c == pytest.approx(
        thermal_concurrence(p, T).c, abs=1e-12)

    # derivative identity: alpha_x is the conjugate of v_x
    q = ModelParams(n=8, b=0.45, v_x=1.0, v_y=0.35, v_z=-0.2)
    h, Tq = 1e-6, 0.31
    up = log_partition(diagonalize(ModelParams(n=8, b=0.45, v_x=1.0 + h,
                                               v_y=0.35, v_z=-0.2)), Tq)
    dn = log_partition(diagonalize(ModelParams(n=8, b=0.45, v_x=1.0 - h,
                                               v_y=0.35, v_z=-0.2)), Tq)
    want = Tq * (up - dn) / (2 * h) / (q.n - 1)
    assert thermal_observables(diagonalize(q), Tq).alpha_x == pytest.approx(
        want, abs=1e-8)

    # pair density is a physical state for arbitrary draws
    for _ in range(5):
        q = draw_params(rng, 7)
        Tq = draw_temperature(rng, q.v_x)
        pair_density(thermal_observables(diagonalize(q), Tq), q.n).validate()

    # parallel branch continuous across the critical field
    big = ModelParams.from_chi(1000, 0.0, 0.5)
    below = asymptotic_concurrence(big.with_field(1.0 - 1e-9), 0.1)
    above = asymptotic_concurrence(big.with_field(1.0 + 1e-9), 0.1)
    assert math.isclose(below[0], above[0], abs_tol=1e-10)

    # quadrature node doubling leaves the static-path answer fixed
    pc = ModelParams.from_chi(100, 0.5, 0.5)
    r1 = cspa_result(pc, 0.14)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fcspin.cspa, "_MIN_NODES", 2 * r1.nodes_per_axis)
        r2 = cspa_result(pc, 0.14)
    assert abs(r2.ln_z - r1.ln_z) <= 1e-8 * abs(r1.ln_z)

    # validity boundary is enforced, healthy points report their margin
    assert r1.validity_margin > 0.0
    with pytest.raises(BreakdownError):
        cspa_log_partition(pc, 0.02)

    _ok(13, "scaling, conjugacy, state validity, branch continuity, "
            "quadrature convergence, breakdown detection")
