"""Static-path quadrature: accuracy targets, validity boundary, observables."""

from __future__ import annotations

import math

import numpy as np
import pytest

import fcspin.cspa
from fcspin import (
    BreakdownError,
    CspaConfig,
    ModelParams,
    cspa_concurrence,
    cspa_log_integrand,
    cspa_log_partition,
    cspa_observables,
    cspa_result,
    diagonalize,
    log_partition,
    log_partition_mfrpa,
    oracle_log_partition,
    solve_mean_field,
    thermal_concurrence,
    thermal_observables,
)

P100 = ModelParams.from_chi(100, 0.5, 0.5)


def find_breakdown_onset(p: ModelParams, grid) -> float:
    """First grid temperature (descending) where the quadrature refuses."""
    for T in grid:
        try:
            cspa_log_partition(p, float(T))
        except BreakdownError:
            return float(T)
    raise AssertionError("no breakdown on the scanned grid")


# ---------------------------------------------------------------------------
# accuracy targets


def test_accuracy_cold():
    # 0.1% of exact at T = 0.14 in the broken phase
    ex = log_partition(diagonalize(P100), 0.14)
    got = cspa_log_partition(P100, 0.14)
    assert abs(got - ex) / abs(ex) < 1e-3


def test_accuracy_hot():
    # 1e-6 of exact at T = 5
    ex = log_partition(diagonalize(P100), 5.0)
    got = cspa_log_partition(P100, 5.0)
    assert abs(got - ex) / abs(ex) < 1e-6


@pytest.mark.parametrize("b", [0.8, 1.0, 1.2])
def test_beats_the_gaussian_correction_near_criticality(b):
    # quadrature handles the soft mode the Gaussian expansion struggles with
    p = P100.with_field(b)
    T = 0.14
    ex = log_partition(diagonalize(p), T)
    err_cspa = abs(cspa_log_partition(p, T) - ex)
    err_mfrpa = abs(log_partition_mfrpa(p, T) - ex)
    assert err_cspa <= err_mfrpa


def test_node_doubling_is_converged():
    r1 = cspa_result(P100, 0.14)
    cfg = CspaConfig(min_nodes=2 * r1.nodes_per_axis)
    r2 = cspa_result(P100, 0.14, cfg)
    assert abs(r2.ln_z - r1.ln_z) <= 1e-8 * abs(r1.ln_z)


def test_deterministic():
    assert cspa_log_partition(P100, 0.14) == cspa_log_partition(P100, 0.14)


# ---------------------------------------------------------------------------
# validity boundary


def test_breakdown_below_finite_temperature():
    grid = np.linspace(0.14, 0.01, 27)
    t_star = find_breakdown_onset(P100, grid)
    assert 0.01 < t_star < 0.14
    with pytest.raises(BreakdownError):
        cspa_log_partition(P100, t_star / 2.0)
    # just above the onset the result is healthy and the margin positive
    res = cspa_result(P100, t_star + 0.01)
    assert res.validity_margin > 0.0
    ex = log_partition(diagonalize(P100), t_star + 0.01)
    assert abs(res.ln_z - ex) / abs(ex) < 1e-3


def test_integrand_refuses_points_past_the_boundary():
    # deep in the unstable region at low T the mode is imaginary and large
    with pytest.raises(BreakdownError):
        cspa_log_integrand((0.3, 0.0, 0.0), P100, 0.01)


def test_margin_reported_when_modes_go_soft():
    res = cspa_result(P100, 0.14)
    assert 0.0 < res.validity_margin < 2.0 * math.pi  # some imaginary modes
    res_hot = cspa_result(P100, 5.0)
    assert res_hot.validity_margin == pytest.approx(2.0 * math.pi)


# ---------------------------------------------------------------------------
# integrand structure


def test_integrand_reflection_symmetry():
    T = 0.3
    base = cspa_log_integrand((0.4, 0.2, 0.1), P100, T)
    assert cspa_log_integrand((-0.4, 0.2, 0.1), P100, T) == pytest.approx(base)
    assert cspa_log_integrand((0.4, -0.2, 0.1), P100, T) == pytest.approx(base)


def test_integrand_matches_static_weight_at_the_saddle():
    # assemble the weight at the self-consistent field from its definition
    p, T = P100, 0.2
    beta = 1.0 / T
    sol = solve_mean_field(p, T)
    lam, w2 = sol.gap, sol.omega_sq

    def phi(s):
        return math.log(math.sinh(beta * math.sqrt(s) / 2.0) / math.sqrt(s))

    want = (-0.25 * beta * (p.n * sum(r * r / v for r, v
                                      in zip(sol.r, p.couplings) if v != 0.0)
                            + sum(p.couplings))
            + p.n * math.log(2.0 * math.cosh(0.5 * beta * lam))
            + phi(lam * lam) - phi(w2))
    got = cspa_log_integrand(sol.r, p, T)
    assert math.isclose(got, want, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# observables


def test_correlators_match_exact():
    got = cspa_observables(P100, 0.14)
    want = thermal_observables(diagonalize(P100), 0.14)
    for f in ("alpha_x", "alpha_y", "alpha_z", "sz"):
        assert math.isclose(getattr(got, f), getattr(want, f),
                            abs_tol=2e-4), f


def test_displayed_alpha_is_the_coupling_derivative():
    # alpha_x must equal T dlnZ/dv_x / (n-1) of the quadrature itself
    p, T = P100, 0.3
    h = 1e-4
    up = ModelParams(n=p.n, b=p.b, v_x=p.v_x + h, v_y=p.v_y, v_z=p.v_z)
    dn = ModelParams(n=p.n, b=p.b, v_x=p.v_x - h, v_y=p.v_y, v_z=p.v_z)
    der = (cspa_log_partition(up, T) - cspa_log_partition(dn, T)) / (2 * h)
    alpha = cspa_observables(p, T).alpha_x
    assert math.isclose(alpha, T * der / (p.n - 1), rel_tol=1e-5)


def test_concurrence_tracks_exact():
    T = 0.14
    for b in (0.4, 0.8, 1.2):
        p = P100.with_field(b)
        got = p.n * cspa_concurrence(p, T).c
        want = p.n * thermal_concurrence(p, T).c
        assert abs(got - want) <= 0.02, b


def test_high_temperature_correlators_vanish():
    got = cspa_observables(P100, 100.0)
    want = thermal_observables(diagonalize(P100), 100.0)
    for f in ("alpha_x", "alpha_y", "alpha_z", "sz"):
        assert math.isclose(getattr(got, f), getattr(want, f),
                            abs_tol=1e-6), f
    assert abs(got.alpha_x) < 1e-3


# ---------------------------------------------------------------------------
# coupling-sign handling


def test_negative_y_coupling_against_oracle():
    p = ModelParams(n=8, b=0.4, v_x=1.0, v_y=-0.6, v_z=0.3)
    T = 0.5
    got = cspa_log_partition(p, T)
    want = oracle_log_partition(p, T)
    assert abs(got - want) / abs(want) < 2e-3


def test_negative_z_coupling_against_oracle():
    p = ModelParams(n=8, b=0.4, v_x=1.0, v_y=0.2, v_z=-0.8)
    T = 0.5
    got = cspa_log_partition(p, T)
    want = oracle_log_partition(p, T)
    assert abs(got - want) / abs(want) < 2e-3


def test_negative_couplings_can_be_disabled():
    p = ModelParams(n=8, b=0.4, v_x=1.0, v_y=-0.6, v_z=0.0)
    with pytest.raises(ValueError):
        cspa_log_partition(p, 0.5, CspaConfig(allow_negative_couplings=False))


def test_zero_y_coupling_axis_is_omitted():
    # chi = 0 line: the y axis carries no weight and must be skipped cleanly
    p = ModelParams(n=50, b=0.4, v_x=1.0, v_y=0.0, v_z=0.0)
    T = 0.3
    ex = log_partition(diagonalize(p), T)
    assert abs(cspa_log_partition(p, T) - ex) / abs(ex) < 1e-3


# ---------------------------------------------------------------------------
# kernels on the base nodes against differences of ln Z


@pytest.mark.parametrize("params, axis", [
    (P100, "v_z"),
    (ModelParams(n=50, b=0.4, v_x=1.0, v_y=0.0, v_z=0.0), "v_y"),  # chi = 0
])
def test_zero_axis_alpha_is_the_one_sided_coupling_derivative(params, axis):
    # a v_mu = 0 axis has no field; its alpha comes from the first order of
    # the axis Gaussian.  Reference: second-order one-sided difference of the
    # quadrature into v_mu > 0, where the axis is integrated.  rel 1e-5.
    T, h = 0.3, 1e-5
    f0, f1, f2 = (cspa_log_partition(params.replace(**{axis: k * h}), T)
                  for k in (0, 1, 2))
    der = (4.0 * f1 - 3.0 * f0 - f2) / (2.0 * h)
    got = getattr(cspa_observables(params, T), "alpha_" + axis[-1])
    assert math.isclose(got, T * der / (params.n - 1), rel_tol=1e-5)


def test_spin_average_is_the_field_derivative():
    # without a z field, sz = -T dlnZ/db / n from the same nodes; reference:
    # central b-difference of the quadrature.  rel 1e-5.
    T, h = 0.3, 1e-5
    der = (cspa_log_partition(P100.with_field(P100.b + h), T)
           - cspa_log_partition(P100.with_field(P100.b - h), T)) / (2.0 * h)
    got = cspa_observables(P100, T).sz
    assert math.isclose(got, -T * der / P100.n, rel_tol=1e-5)


def test_result_at_zero_vz_makes_no_extra_quadrature(monkeypatch):
    # every correlator at v_z = 0 comes from the one base quadrature
    calls = []
    integrate = fcspin.cspa._integrate

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("re-quadrature of ln Z")

    monkeypatch.setattr(fcspin.cspa, "_integrate", counted)
    monkeypatch.setattr(fcspin.cspa, "cspa_log_partition", refuse)
    res = cspa_result(P100, 0.3)
    assert len(calls) == 1
    assert math.isfinite(res.corr.alpha_z) and math.isfinite(res.corr.sz)


# ---------------------------------------------------------------------------
# deformed (negative-coupling) axes


def test_one_axis_negative_y_against_oracle():
    # v_y < 0, v_z = 0: only x is integrated, y sits at its saddle.  2e-3.
    p = ModelParams(n=8, b=0.4, v_x=1.0, v_y=-0.6, v_z=0.0)
    T = 0.5
    got = cspa_log_partition(p, T)
    want = oracle_log_partition(p, T)
    assert abs(got - want) / abs(want) < 2e-3


def test_deformed_alpha_at_the_domain_edge():
    # v_y = -v_x is a valid edge: a central step would leave the domain, so
    # alpha_y is one-sided.  Reference: second-order one-sided difference of
    # the quadrature into the domain with step 1e-4.  rel 1e-4.
    p = ModelParams(n=6, b=0.5, v_x=1.0, v_y=-1.0, v_z=0.0)
    T, h = 1.0, 1e-4
    res = cspa_result(p, T)
    assert all(math.isfinite(getattr(res.corr, k))
               for k in ("alpha_x", "alpha_y", "alpha_z", "sz"))
    f0, f1, f2 = (cspa_log_partition(p.replace(v_y=p.v_y + k * h), T)
                  for k in (0, 1, 2))
    der = (4.0 * f1 - 3.0 * f0 - f2) / (2.0 * h)
    assert math.isclose(res.corr.alpha_y, T * der / (p.n - 1), rel_tol=1e-4)


@pytest.mark.parametrize("n, b, v_y, T", [
    (6, 0.5, -0.9, 1.0), (8, 0.3, -0.5, 1.2), (5, 1.0, -0.2, 0.9),
    (7, 0.0, -0.3, 1.1),
])
def test_deformed_alpha_inside_the_domain(n, b, v_y, T):
    # the deformed-axis ln Z carries ~1e-10 relative noise in v_y, so the
    # reference is a central difference with a step well above it: 3e-3 of
    # min(v_x, |v_y|/2).  rel 5e-5
    p = ModelParams(n=n, b=b, v_x=1.0, v_y=v_y, v_z=0.0)
    h = 3e-3 * min(p.v_x, 0.5 * abs(v_y))
    up, down = (cspa_log_partition(p.replace(v_y=v_y + s), T)
                for s in (h, -h))
    want = T * (up - down) / (2.0 * h) / (n - 1)
    assert math.isclose(cspa_result(p, T).corr.alpha_y, want, rel_tol=5e-5)


# ln Z of the per-node scalar saddle sweep (scipy bounded minimization at
# every node) that the vectorized sweep replaced
SCALAR_SWEEP_LN_Z = [
    (ModelParams(n=7, b=0.6, v_x=1.0, v_y=-0.3, v_z=0.0), 1.1,
     5.165411547192617),
    (ModelParams(n=6, b=0.5, v_x=1.0, v_y=0.3, v_z=-0.3), 1.2,
     4.325370138006521),
    (ModelParams(n=8, b=0.4, v_x=1.0, v_y=0.2, v_z=-0.8), 0.5,
     6.383935636180357),
    (ModelParams(n=8, b=0.4, v_x=1.0, v_y=-0.6, v_z=0.3), 0.5,
     6.76720527317935),
    (ModelParams(n=6, b=0.5, v_x=1.0, v_y=-0.4, v_z=-0.3), 1.0,
     4.396852260392956),
]


@pytest.mark.parametrize("p, T, want", SCALAR_SWEEP_LN_Z)
def test_vectorized_saddle_matches_scalar_sweep(p, T, want):
    # rel 1e-9: the stationary z is located to ~1e-8 by either search (the
    # log-weight is flat there to double precision), which moves the
    # stencil curvature and ln Z by well under that
    assert math.isclose(cspa_log_partition(p, T), want, rel_tol=1e-9)


def test_golden_search_meets_its_tolerance():
    # one search for a whole array of minimizers, each to within xatol
    centers = np.linspace(-0.9, 0.7, 13)
    xatol = 1e-10
    got = fcspin.cspa._golden_min(lambda x: np.abs(x - centers), -1.3, 1.3,
                                  xatol, centers.shape)
    assert np.max(np.abs(got - centers)) <= xatol
