"""Static-path quadrature: accuracy targets, validity boundary, observables."""

from __future__ import annotations

import math

import numpy as np
import pytest

import fcspin.cspa
from fcspin import (
    BreakdownError,
    NumericalError,
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


def test_node_doubling_is_converged(monkeypatch):
    r1 = cspa_result(P100, 0.14)
    monkeypatch.setattr(fcspin.cspa, "_MIN_NODES", 2 * r1.nodes_per_axis)
    r2 = cspa_result(P100, 0.14)
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


def one_quadrature_result(monkeypatch, p: ModelParams, T: float):
    """cspa_result(p, T), failing unless it runs exactly one quadrature."""
    calls = []
    integrate = fcspin.cspa._integrate

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("re-quadrature of ln Z")

    monkeypatch.setattr(fcspin.cspa, "_integrate", counted)
    monkeypatch.setattr(fcspin.cspa, "cspa_log_partition", refuse)
    res = cspa_result(p, T)
    assert len(calls) == 1
    return res


def test_result_at_zero_vz_makes_no_extra_quadrature(monkeypatch):
    # every correlator at v_z = 0 comes from the one base quadrature
    res = one_quadrature_result(monkeypatch, P100, 0.3)
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
    # reference: a central difference of ln Z in v_y with step 3e-3 of
    # min(v_x, |v_y|/2), whose truncation stays well under the tolerance.
    # rel 5e-5
    p = ModelParams(n=n, b=b, v_x=1.0, v_y=v_y, v_z=0.0)
    h = 3e-3 * min(p.v_x, 0.5 * abs(v_y))
    up, down = (cspa_log_partition(p.replace(v_y=v_y + s), T)
                for s in (h, -h))
    want = T * (up - down) / (2.0 * h) / (n - 1)
    assert math.isclose(cspa_result(p, T).corr.alpha_y, want, rel_tol=5e-5)


# a deformed y (v_z = 0), a deformed z, and both deformed
DEFORMED = [
    (ModelParams(n=8, b=0.4, v_x=1.0, v_y=-0.6, v_z=0.0), 0.5),
    (ModelParams(n=8, b=0.4, v_x=1.0, v_y=0.2, v_z=-0.8), 0.5),
    (ModelParams(n=6, b=0.5, v_x=1.0, v_y=-0.4, v_z=-0.3), 1.0),
]
DEFORMED_IDS = ["y", "z", "yz"]


@pytest.mark.parametrize("p, T", DEFORMED, ids=DEFORMED_IDS)
def test_result_on_a_deformed_axis_makes_no_extra_quadrature(monkeypatch, p,
                                                              T):
    # a deformed axis differences the node weights of the one quadrature
    res = one_quadrature_result(monkeypatch, p, T)
    assert all(math.isfinite(getattr(res.corr, k))
               for k in ("alpha_x", "alpha_y", "alpha_z", "sz"))


@pytest.mark.parametrize("p, T", DEFORMED[1:], ids=DEFORMED_IDS[1:])
def test_deformed_z_alpha_inside_the_domain(p, T):
    # alpha on every deformed axis against a central difference of ln Z, as
    # in test_deformed_alpha_inside_the_domain: step 3e-3 of
    # min(v_x, |v_mu|/2), rel 5e-5
    res = cspa_result(p, T)
    for axis in ("v_y", "v_z"):
        v = getattr(p, axis)
        if v >= 0.0:
            continue
        h = 3e-3 * min(p.v_x, 0.5 * abs(v))
        up, down = (cspa_log_partition(p.replace(**{axis: v + s}), T)
                    for s in (h, -h))
        want = T * (up - down) / (2.0 * h) / (p.n - 1)
        got = getattr(res.corr, "alpha_" + axis[-1])
        assert math.isclose(got, want, rel_tol=5e-5), axis


def test_deformed_z_alpha_does_not_depend_on_the_node_count(monkeypatch):
    # the saddle z is polished by a Newton step after the golden-section
    # search, whose sqrt(eps) error the kernel's difference divides by its
    # step: alpha_z spread 1.8e-5 relative over these node counts without it
    p = ModelParams(n=6, b=0.5, v_x=1.0, v_y=-1.0, v_z=-0.4)
    got = []
    for m in (24, 48, 96, 192, 384):
        monkeypatch.setattr(fcspin.cspa, "_MIN_NODES", m)
        got.append(cspa_result(p, 1.0).corr.alpha_z)
    assert max(got) - min(got) <= 1e-9 * abs(got[0]), got


@pytest.mark.parametrize("p, T", DEFORMED, ids=DEFORMED_IDS)
def test_spin_average_is_the_field_derivative_on_a_deformed_axis(p, T):
    # sz = -T dlnZ/db / n also where the -ln(P'')/2 curvature terms move
    # with b; step and tolerance as in test_deformed_alpha_inside_the_domain,
    # with b in place of |v_mu|: 3e-3 of min(v_x, b/2), rel 5e-5
    h = 3e-3 * min(p.v_x, 0.5 * p.b)
    up, down = (cspa_log_partition(p.with_field(p.b + s), T) for s in (h, -h))
    want = -T * (up - down) / (2.0 * h) / p.n
    assert math.isclose(cspa_result(p, T).corr.sz, want, rel_tol=5e-5)


# two inputs whose ln Z once jittered by ~2e-10 between node counts, past the
# doubling tolerance (1e-10), so the quadrature failed at 768 nodes per
# axis; want is ln Z from the analytic curvatures
JITTERED = [
    (ModelParams(n=5, b=0.36363891218317623, v_x=1.0,
                 v_y=-0.26705536726046397, v_z=-0.22732107643014876),
     1.3615219434124648, 3.5402886619748037),
    (ModelParams(n=4, b=0.08000487224653248, v_x=1.0,
                 v_y=-0.23726400107921364, v_z=-0.007241200149922621),
     1.6253052659250817, 2.793758368784396),
]


@pytest.mark.parametrize("p, T, want", JITTERED, ids=["n5", "n4"])
def test_deformed_quadrature_converges(p, T, want):
    # both entry points converge, on the same ln Z; rel 1e-9 as in
    # test_vectorized_saddle_matches_scalar_sweep
    got = cspa_log_partition(p, T)
    res = cspa_result(p, T)
    assert res.ln_z == got
    assert math.isclose(got, want, rel_tol=1e-9)
    assert res.nodes_per_axis <= 96


def test_deformed_quadrature_converges_on_seeded_draws():
    # every draw has a deformed z and about half a deformed y: each result
    # converges by 96 nodes per axis
    rng = np.random.default_rng(0)
    nodes = []
    for _ in range(40):
        p = ModelParams(n=int(rng.integers(4, 10)), b=rng.uniform(0.0, 1.2),
                        v_x=1.0, v_y=rng.uniform(-1.0, 0.9),
                        v_z=rng.uniform(-0.9, 0.0))
        res = cspa_result(p, rng.uniform(0.8, 2.0))
        nodes.append(res.nodes_per_axis)
    assert max(nodes) <= 96, nodes


@pytest.mark.parametrize("p, T", [
    (ModelParams(n=8, b=0.7688716303325693, v_x=1.0,
                 v_y=-0.014244700234776198, v_z=-0.878814952567329),
     1.868859521054467),
    (ModelParams(n=7, b=0.8069408257478874, v_x=1.0,
                 v_y=-0.017131703567490386, v_z=-0.42701865408307127),
     1.1922072864614),
])
def test_small_deformed_coupling_alpha(p, T):
    # |v_y| below 0.02 beside a deformed z, where alpha_y is about 1e-4:
    # reference a central difference of ln Z with step 1e-2 |v_y| (a step of
    # 5e-3 |v_y| agrees to about 1e-4).  rel 2e-2
    h = 1e-2 * abs(p.v_y)
    up, down = (cspa_log_partition(p.replace(v_y=p.v_y + s), T)
                for s in (h, -h))
    want = T * (up - down) / (2.0 * h) / (p.n - 1)
    assert math.isclose(cspa_result(p, T).corr.alpha_y, want, rel_tol=2e-2)


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
    # curvature terms and ln Z by well under that
    assert math.isclose(cspa_log_partition(p, T), want, rel_tol=1e-9)


def test_golden_search_meets_its_tolerance():
    # one search for a whole array of minimizers, each to within xatol
    centers = np.linspace(-0.9, 0.7, 13)
    xatol = 1e-10
    got = fcspin.cspa.minimize_scalar(lambda x: np.abs(x - centers), -1.3,
                                      1.3, xatol, centers.shape)
    assert np.max(np.abs(got - centers)) <= xatol


# ---------------------------------------------------------------------------
# node rules: the first two share one sweep, the kernels run once


def _libm_fingerprint() -> str:
    # the transcendental ufuncs of the node function on fixed arguments
    x = np.linspace(0.01, 3.0, 301)
    return repr(float(sum(np.sum(f(x)) for f in (
        np.exp, np.log, np.log1p, np.expm1, np.tanh, np.tan, np.sin))))


# the fingerprint of the platform the goldens below were recorded on
# (x86-64 with AVX-512, NumPy 2.4); where it differs, libm rounds some
# node values differently and the goldens hold to rel 1e-8 only
GOLDEN_LIBM = "4166.177438477822"
BREAKDOWN_12 = ("|omega|/T >= 2 pi at a sampled static point (validity "
                "margin -12): the quantum correction factor has a pole inside "
                "the integration region, T is below the breakdown "
                "temperature T*")
# repr of the outputs of the sweep that ran one node rule per call: ln Z of
# cspa_log_partition, then cspa_result's ln Z, alpha_x, alpha_y, alpha_z, sz
# and validity margin, and its nodes per axis; or the error both raise
GOLDEN = [
    # deformed y at v_z = 0, the second with b < 0.2 T (Taylor branches)
    (ModelParams(n=8, b=0.4, v_x=1.0, v_y=-0.6, v_z=0.0), 0.5,
     "6.569789494381606",
     ("6.569789494381606", "0.06389572726888847", "-0.0111691822965611",
      "0.0341750246883913", "-0.17861563803096303", "6.283185307179586"),
     48),
    (ModelParams(n=7, b=0.05, v_x=1.0, v_y=-0.3, v_z=0.0), 1.1,
     "4.912497394764716",
     ("4.912497394764716", "0.0229998805601912", "-0.004017017412370223",
      "0.001022945778394485", "-0.011249291432468436", "6.283185307179586"),
     48),
    # deformed z, then both axes deformed
    (ModelParams(n=6, b=0.5, v_x=1.0, v_y=0.0, v_z=-0.4), 1.0,
     "4.387328936857641",
     ("4.387328936857641", "0.028333845303840668", "0.0010679312477786752",
      "0.004719684416760195", "-0.10377848219686193", "6.283185307179586"),
     48),
    (ModelParams(n=6, b=0.5, v_x=1.0, v_y=-0.4, v_z=-0.3), 1.0,
     "4.396852261008389",
     ("4.396852261008389", "0.028139599795335615", "-0.006942067678876446",
      "0.007259365056408229", "-0.10798295228179595", "6.283185307179586"),
     48),
    # v_y > 0, v_z < 0: a saddle search on the x, y grid
    (ModelParams(n=8, b=0.4, v_x=1.0, v_y=0.2, v_z=-0.8), 0.5,
     "6.383935634154675",
     ("6.383935634154675", "0.06877276869589372", "0.009782408560860767",
      "-0.0007891807617157226", "-0.10718772039708616", "6.283185307179586"),
     48),
    # positive x, y grid at v_z = 0 (margin below 2 pi)
    (ModelParams.from_chi(20, 0.5, 0.5), 0.3,
     "22.123704636867252",
     ("22.123704636867252", "0.1149852948715132", "0.007723282419319641",
      "0.07126406858049257", "-0.26622737689950576", "5.46098347221734"),
     48),
    # integrated z (the slab loop), positive and beside a deformed y; both
    # need 96 nodes, so the pair fails and the doubling goes on
    (ModelParams(n=6, b=0.5, v_x=1.0, v_y=0.3, v_z=0.2), 1.2,
     "4.346280119072834",
     ("4.346280119072834", "0.02265164782969714", "0.00602126135998391",
      "0.015938942311080208", "-0.1082412167229638", "6.283185307179586"),
     96),
    (ModelParams(n=8, b=0.4, v_x=1.0, v_y=-0.6, v_z=0.3), 0.5,
     "6.767205271517464",
     ("6.767205271517464", "0.06047634312181631", "-0.012332520165981178",
      "0.05995012627888509", "-0.22334945450043467", "6.283185307179586"),
     96),
    (P100, 0.3,
     "108.59385416538733",
     ("108.59385416538733", "0.1372527910885326", "0.0013266923286074726",
      "0.06441432972927717", "-0.2536913415899234", "5.460909346900442"),
     96),
    # failures keep their type and message
    (P100, 0.02, BreakdownError, BREAKDOWN_12, None),
    (ModelParams(n=8, b=0.1, v_x=1.0, v_y=-0.6, v_z=0.0), 0.05,
     BreakdownError, BREAKDOWN_12.replace("-12", "-5.85"), None),
    (ModelParams(n=7, b=1.403386338076548, v_x=1.0, v_y=-0.12423791737699963,
                 v_z=0.20494485800163242), 0.08564716473570183,
     NumericalError, "nonpositive curvature on a deformed axis", None),
]
GOLDEN_IDS = ["y", "y-small-b", "z", "yz", "y-grid-z", "xy", "xyz", "y-xz",
              "n100", "breakdown", "breakdown-y", "curvature"]


@pytest.mark.parametrize("p, T, ln_z, result, nodes", GOLDEN, ids=GOLDEN_IDS)
def test_outputs_equal_the_recorded_ones(p, T, ln_z, result, nodes):
    if isinstance(ln_z, type):
        for f in (cspa_log_partition, cspa_result):
            with pytest.raises(ln_z) as info:
                f(p, T)
            assert str(info.value) == result
        return
    if _libm_fingerprint() == GOLDEN_LIBM:
        def same(got, want):
            return repr(got) == want
    else:
        def same(got, want):
            return math.isclose(got, float(want), rel_tol=1e-8,
                                abs_tol=1e-12)
    assert same(cspa_log_partition(p, T), ln_z)
    res = cspa_result(p, T)
    got = (res.ln_z, res.corr.alpha_x, res.corr.alpha_y, res.corr.alpha_z,
           res.corr.sz, res.validity_margin)
    assert all(same(g, w) for g, w in zip(got, result)), got
    assert res.nodes_per_axis == nodes


@pytest.mark.parametrize("p, T", [g[:2] for g in GOLDEN[:9]],
                         ids=GOLDEN_IDS[:9])
def test_paired_rules_equal_their_own_sweeps(p, T):
    # on any platform: the 24- and 48-node rules of one sweep give what each
    # gives alone, bitwise, kernel averages included
    quad, spa = fcspin.cspa._split_axes(p)
    paired = list(fcspin.cspa._sweep(p, T, (24, 48), quad, spa, True))
    for m, got in zip((24, 48), paired):
        alone = next(fcspin.cspa._sweep(p, T, (m,), quad, spa, True))
        assert got[:3] == alone[:3]
        assert got[3]() == alone[3]()


def count_calls(monkeypatch, name: str) -> list:
    calls = []
    f = getattr(fcspin.cspa, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return f(*args, **kwargs)

    monkeypatch.setattr(fcspin.cspa, name, counted)
    return calls


def test_deformed_z_grid_makes_one_saddle_search(monkeypatch):
    # the deformed-z input of the CI smoke step stops at 48 nodes: its 24-
    # and 48-node rules share one search (one each before they shared a
    # sweep), and the kernels add the two at v_z +- h on the 48-node rule
    p = ModelParams(n=8, b=0.4, v_x=1.0, v_y=0.2, v_z=-0.8)
    searches = count_calls(monkeypatch, "minimize_scalar")
    cspa_log_partition(p, 0.5)
    assert len(searches) == 1
    res = cspa_result(p, 0.5)
    assert res.nodes_per_axis == 48 and len(searches) == 1 + 3


@pytest.mark.parametrize("p, T, nodes", [(P100, 0.3, 96),
                                         (DEFORMED[2][0], DEFORMED[2][1], 48)],
                         ids=["n100", "yz"])
def test_kernels_run_on_the_returned_rule_only(monkeypatch, p, T, nodes):
    kernels = count_calls(monkeypatch, "_kernels")
    assert cspa_result(p, T).nodes_per_axis == nodes
    assert len(kernels) == 1
    cspa_log_partition(p, T)
    assert len(kernels) == 1


@pytest.mark.parametrize("p, T, cap, at", [
    (P100, 0.3, 24, 24), (P100, 0.3, 30, 48), (P100, 0.3, 48, 48),
    (DEFORMED[1][0], 0.5, 24, 24),
], ids=["24", "30", "48", "y-grid-z"])
def test_node_cap_below_the_converged_count(monkeypatch, p, T, cap, at):
    # the same error as when each rule had a sweep of its own: P100 at
    # T = 0.3 converges at 96 nodes, the deformed-z grid at 48
    monkeypatch.setattr(fcspin.cspa, "_MAX_NODES", cap)
    for f in (cspa_log_partition, cspa_result):
        with pytest.raises(NumericalError) as info:
            f(p, T)
        assert str(info.value) == ("static-path quadrature not converged at "
                                   f"{at} nodes per axis")


def test_gauss_legendre_cache_is_read_only():
    # every quadrature at m nodes shares the cached arrays
    for a in fcspin.cspa._gl(24):
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("derivs, q", [
    (fcspin.cspa._lnsinhc_derivs, [-3.0, -5e-3, 0.0, 2e-3, 0.5, 9e-3, 40.0]),
    (fcspin.cspa._tanhc_derivs, [0.0, 1e-4, 0.02, 9.9e-3, 3.0, 5e-3]),
])
def test_taylor_branches_are_per_node(derivs, q):
    # the series run on the small entries only, with the arithmetic each
    # entry gets on its own
    both = derivs(np.array(q))
    for i, qi in enumerate(q):
        alone = derivs(np.array([qi]))
        assert both[0][i] == alone[0][0] and both[1][i] == alone[1][0]
