"""Self-consistent field, collective mode, and Gaussian-corrected ln Z."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fcspin import (
    DivergenceError,
    ModelParams,
    concurrence,
    critical_constants,
    diagonalize,
    log_partition,
    log_partition_mfrpa,
    mfrpa_observables,
    oracle_observables,
    pair_density,
    rpa_energy_determinant,
    rpa_energy_general,
    solve_mean_field,
)
from tests.conftest import draw_params, draw_temperature


def gap_residual(sol, p: ModelParams, T: float) -> float:
    lam = sol.gap
    th = math.tanh(lam / (2 * T)) if T > 0 else 1.0
    if sol.phase == "symmetry_breaking":
        return abs(lam - p.v_x * th)
    return abs(lam - p.b - p.v_z * th)


# ---------------------------------------------------------------------------
# the self-consistent solution


def test_gap_equation_residual():
    rng = np.random.default_rng(5)
    for _ in range(25):
        p = draw_params(rng, 50)
        T = draw_temperature(rng, p.v_x)
        sol = solve_mean_field(p, T)
        assert gap_residual(sol, p, T) <= 1e-12 * p.v_x


def test_zero_temperature_polarization():
    p = ModelParams.from_chi(100, 0.5, 0.5)
    sb = solve_mean_field(p, 0.0)
    assert sb.phase == "symmetry_breaking"
    assert math.isclose(sb.gap, p.v_x, rel_tol=1e-14)
    assert math.isclose(np.hypot(sb.m[0], sb.m[2]), 1.0, rel_tol=1e-12)
    nm = solve_mean_field(p.with_field(2.0), 0.0)
    assert nm.phase == "normal"
    assert math.isclose(nm.gap, 2.0 + p.v_z, rel_tol=1e-14)
    assert nm.m[2] == -1.0


def test_phase_boundary_continuity():
    # the order parameter closes continuously at T_c(b)
    p = ModelParams.from_chi(200, 0.4, 0.5)
    t_c = critical_constants(p).critical_temperature(p.b)
    below = solve_mean_field(p, t_c * (1 - 1e-9))
    above = solve_mean_field(p, t_c * (1 + 1e-9))
    assert below.phase == "symmetry_breaking"
    assert above.phase == "normal"
    assert abs(below.m[0]) < 1e-3
    assert math.isclose(below.gap, above.gap, rel_tol=1e-6)
    assert math.isclose(below.m[2], above.m[2], rel_tol=1e-6)


def test_critical_temperature_frozen_values():
    pc = critical_constants(ModelParams.from_chi(100, 0.0, 0.5))
    # b = b_c/2: T_c = v_x/(2 ln 3); b = 0: v_x/2 (the analytic limit)
    assert math.isclose(pc.critical_temperature(0.5), 0.5 / math.log(3.0),
                        rel_tol=1e-14)
    assert pc.critical_temperature(0.0) == 0.5
    assert pc.critical_temperature(pc.b_c) == 0.0
    assert pc.critical_temperature(1.7) == 0.0


def test_normal_only_when_z_dominates():
    p = ModelParams(n=50, b=0.1, v_x=1.0, v_y=0.5, v_z=1.4)
    assert critical_constants(p).normal_only
    assert solve_mean_field(p, 0.01).phase == "normal"
    assert critical_constants(p).critical_temperature(0.05) == 0.0


def test_zero_field_corner_above_tc():
    # b = 0, T >= T_c: lam = 0 and the mode factors become beta v_mu / 2
    p = ModelParams.from_chi(100, 0.0, 0.5)
    sol = solve_mean_field(p, 0.8)
    assert sol.phase == "normal" and sol.gap == 0.0
    assert np.allclose(sol.f, [1 / 1.6, 0.5 / 1.6, 0.0], rtol=1e-12)


# ---------------------------------------------------------------------------
# collective mode: closed form vs determinant root


@pytest.mark.parametrize("seed", range(4))
def test_mode_energy_matches_determinant_root(seed):
    rng = np.random.default_rng(200 + seed)
    p = draw_params(rng, 80)
    T = draw_temperature(rng, p.v_x)
    sol = solve_mean_field(p, T)
    en = rpa_energy_general(sol.r, p, T)
    if en.squared <= 0.0:
        pytest.skip("mode softened for this draw")
    root = rpa_energy_determinant(sol.r, p, T)
    if root is None:
        pytest.skip("root outside the scanned window")
    assert math.isclose(en.value, root, rel_tol=1e-8, abs_tol=1e-8 * p.v_x)


def test_mode_consistency_of_the_solution():
    p = ModelParams.from_chi(100, 0.3, 0.5)
    sol = solve_mean_field(p, 0.2)
    x = sol.r[0]
    want = x * x * (1 - sol.f[1]) * (1 - sol.f[2])
    assert math.isclose(sol.omega_sq, want, rel_tol=1e-12)
    assert math.isclose(sol.omega, math.sqrt(want), rel_tol=1e-12)


# ---------------------------------------------------------------------------
# corrected partition function and observables


def test_log_partition_close_to_exact():
    # Gaussian-corrected ln Z is accurate to O(1/n) away from T_c
    p0 = ModelParams.from_chi(100, 0.0, 0.5)
    for b, T in ((0.5, 0.14), (0.5, 0.3), (1.5, 0.14), (0.0, 1.0)):
        p = p0.with_field(b)
        mf = log_partition_mfrpa(p, T)
        ex = log_partition(diagonalize(p), T)
        assert abs(mf - ex) / abs(ex) < 0.01, (b, T)


def test_params_replace_validates_like_a_new_instance():
    # the one perturbation helper: folds b, rejects the axis convention's
    # violations and unknown fields, leaves the original untouched
    p = ModelParams.from_chi(10, 0.5, 0.5)
    assert p.replace(b=-0.3) == ModelParams(n=10, b=0.3, v_x=1.0, v_y=0.5)
    assert p.replace(v_z=0.2).v_z == 0.2 and p.v_z == 0.0
    with pytest.raises(ValueError):
        p.replace(v_y=1.5)
    with pytest.raises(TypeError):
        p.replace(chi=0.1)


def test_log_partition_guards():
    p = ModelParams.from_chi(100, 0.0, 0.5)
    with pytest.raises(ValueError):
        log_partition_mfrpa(p, 0.0)
    with pytest.raises(DivergenceError):
        # at T_c the transverse fluctuation diverges
        log_partition_mfrpa(p, critical_constants(p).critical_temperature(0.0))


def test_xxz_fluctuations_diverge():
    # v_x = v_y: the broken phase has a flat valley, zeta -> 1
    p = ModelParams(n=100, b=0.3, v_x=1.0, v_y=1.0, v_z=0.0)
    with pytest.raises(DivergenceError):
        log_partition_mfrpa(p, 0.2)


def test_observables_against_oracle():
    # n large enough for O(1/n) closure but solvable exactly: compare trends
    p = ModelParams.from_chi(10, 0.4, 0.5)
    T = 0.25
    got = mfrpa_observables(p, T)
    want = oracle_observables(p, T)
    assert math.isclose(got.sz, want.sz, abs_tol=0.02)
    assert got.sz < 0.0
    for f in ("alpha_x", "alpha_y", "alpha_z"):
        assert math.isclose(getattr(got, f), getattr(want, f), abs_tol=0.02), f


def test_hartree_only_concurrence_tail():
    # without the mode correction both concurrences reduce to the classical
    # activation tail -2 e^{-lam/T}
    p = ModelParams.from_chi(4000, 0.5, 0.5)
    T = 0.2
    sol = solve_mean_field(p, T)
    rep = concurrence(pair_density(mfrpa_observables(p, T, include_rpa=False),
                                   p.n))
    tail = -2.0 * math.exp(-sol.gap / T)
    assert math.isclose(rep.c_plus, tail, rel_tol=0.02)
    assert math.isclose(rep.c_minus, tail, rel_tol=0.02)
    assert rep.c == 0.0


def test_corrected_observables_beat_hartree():
    # the mode correction must narrow the gap to the exact correlators
    p = ModelParams.from_chi(10, 0.3, 0.5)
    T = 0.3
    bare = mfrpa_observables(p, T, include_rpa=False)
    corr = mfrpa_observables(p, T)
    want = oracle_observables(p, T)
    err_bare = abs(bare.alpha_y - want.alpha_y)
    err_corr = abs(corr.alpha_y - want.alpha_y)
    assert err_corr < err_bare
