"""Partition function from a full quadrature over the static auxiliary fields.

The static-path approximation keeps the complete, non-Gaussian integral over
the time-independent components of the decoupling fields and multiplies each
static configuration by its small-amplitude quantum correction
omega sinh(lam/2T) / (lam sinh(omega/2T)).  It therefore stays finite through
the mean-field transition, where the purely Gaussian treatment diverges, and
becomes exact for vanishing couplings and at high temperature.

The correction factor continues to sin(|omega|/2T) where the squared mode
energy is negative (unstable static regions).  That continuation bounds the
validity of the whole scheme: at |omega|/T = 2 pi the frequency sum behind
the correction factor diverges, the integrand develops a non-integrable
pole, and any quadrature value would depend on where the nodes happen to
fall.  A sampled static point at or past that boundary therefore raises
BreakdownError instead of returning a number.  This failure sets in below a
finite temperature T* and is the low-temperature limit of the method.

Axes with a vanishing coupling carry no auxiliary field and are omitted from
the quadrature.  Axes with a negative coupling require an imaginary-axis
contour and are treated in the Gaussian saddle-point approximation around the
real stationary point, found for all nodes of the remaining quadrature at
once.  The correlators are weighted averages of kernels over the nodes of
the same quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import BreakdownError, NumericalError
from .exact import (ConcurrenceReport, Correlators, _read_only, concurrence,
                    pair_density)
from .params import ModelParams, check_pairs, check_temperature

__all__ = [
    "CspaResult",
    "cspa_log_integrand",
    "cspa_log_partition",
    "cspa_observables",
    "cspa_concurrence",
    "cspa_result",
]


_TWO_PI = 2.0 * math.pi
_INVPHI = 0.5 * (math.sqrt(5.0) - 1.0)
# |q| below which _lnsinhc_derivs and _tanhc_derivs use their Taylor series:
# the closed forms cancel like 1/q^2 there, the truncated series are good to
# about 1e-9 relative at the switch
_SERIES_Q = 1e-2
# the two other axes of each axis, in the cyclic order of omega^2
_OTHERS = ((1, 2), (2, 0), (0, 1))
# central-difference step of the node log-weights in a deformed coupling,
# times min(v_x, |v_mu|/2), and of the deformed curvatures in z, times v_x:
# a shorter step amplifies the rounding of a node weight, a longer one
# truncates the 1/v_mu terms of a small coupling
_DEFORMED_STEP = 5e-4
# quadrature policy: node counts are per axis, and the count doubles from
# _MIN_NODES until ln Z moves by less than _REL_TOL (relative), failing past
# _MAX_NODES.  The cutoff r_max = v_mu + _CUTOFF_SIGMAS sqrt(v_mu/(beta n))
# per axis covers the static saddle (always inside |r_mu| <= v_mu) plus the
# Gaussian tail; the bare-Gaussian mass outside is < 1e-12 for any cutoff of
# 11 sigmas or more
_REL_TOL = 1e-10
_MIN_NODES = 24
_MAX_NODES = 768
_CUTOFF_SIGMAS = 12.0


@dataclass(frozen=True)
class CspaResult:
    """ln Z with correlators and quadrature diagnostics.

    ``validity_margin`` is the minimum of 2 pi - |omega(r)|/T over sampled
    static points whose mode has gone imaginary (2 pi if none has).  It is
    positive by construction: a sampled point at or past the boundary raises
    BreakdownError, so no result is ever returned for it.
    """

    ln_z: float
    corr: Correlators
    validity_margin: float
    nodes_per_axis: int


# ---------------------------------------------------------------------------
# core integrand pieces, vectorized


def _ln_2cosh_arr(a: np.ndarray) -> np.ndarray:
    # valid for a >= 0 (a = beta lam / 2 here)
    return a + np.log1p(np.exp(-2.0 * a))


def _ln_sinh_arr(y: np.ndarray) -> np.ndarray:
    return y - math.log(2.0) + np.log(-np.expm1(-2.0 * y))


def _phi_gap(s, beta: float) -> np.ndarray:
    """ln[ sinh(beta sqrt(s)/2)/sqrt(s) ] for s >= 0, series near s = 0."""
    s = np.asarray(s, dtype=float)
    tiny = beta * beta * s < 1e-6
    rt = np.sqrt(np.where(tiny, 1.0, s))
    val = _ln_sinh_arr(0.5 * beta * rt) - np.log(rt)
    return np.where(tiny, math.log(0.5 * beta) + beta * beta * s / 24.0, val)


def _phi_mode(s, beta: float):
    """Same as _phi_gap continued to s < 0 via sin(beta sqrt(-s)/2).

    Returns (phi, bad, margin): ``bad`` marks points at or past the validity
    boundary beta sqrt(-s) >= 2 pi (phi set to +inf there; callers must
    raise BreakdownError when any sampled point is bad), ``margin`` is
    2 pi - beta sqrt(-s) at imaginary-mode points, bad ones included, and
    2 pi elsewhere.
    """
    s = np.asarray(s, dtype=float)
    tiny = beta * beta * np.abs(s) < 1e-6
    pos = (s > 0.0) & ~tiny
    neg = (s < 0.0) & ~tiny

    rt = np.sqrt(np.where(pos, s, 1.0))
    v_pos = _ln_sinh_arr(0.5 * beta * rt) - np.log(rt)

    t = np.sqrt(np.where(neg, -s, 1.0))
    arg = 0.5 * beta * t
    bad = neg & (arg >= math.pi * (1.0 - 1e-6))
    arg_safe = np.where(bad | ~neg, 0.5 * math.pi, arg)
    v_neg = np.log(np.sin(arg_safe)) - np.log(t)

    out = np.where(tiny, math.log(0.5 * beta) + beta * beta * s / 24.0,
                   np.where(pos, v_pos, v_neg))
    out = np.where(bad, np.inf, out)

    return out, bad, np.where(neg, _TWO_PI - 2.0 * arg, _TWO_PI)


def _lnsinhc_derivs(q):
    """(h', h'') of h(q) = ln[sinh(sqrt q)/sqrt q], continued to q < 0.

    With q = beta^2 s/4, h is _phi_gap/_phi_mode up to a constant, so
    d(phi)/ds = beta^2 h'/4.  Uses u = sqrt(q) coth(sqrt q), which is
    sqrt(-q) cot(sqrt(-q)) for q < 0.  Points at or past the pole
    (-q >= pi^2) raise BreakdownError before any derivative is taken.
    """
    q = np.asarray(q, dtype=float)
    small = np.abs(q) < _SERIES_Q
    qs = np.where(small, 1.0, q)
    a = np.sqrt(np.abs(qs))
    u = a / np.where(qs > 0.0, np.tanh(a), np.tan(a))
    h1 = (u - 1.0) / (2.0 * qs)
    h2 = (2.0 - u - (u * u - qs)) / (4.0 * qs * qs)
    if small.any():
        q = q[small]
        h1[small] = 1 / 6 + q * (-1 / 90 + q * (1 / 945 + q * (-1 / 9450
                                                             + q / 93555)))
        h2[small] = -1 / 90 + q * (2 / 945 + q * (-1 / 3150 + q * 4 / 93555))
    return h1, h2


def _tanhc_derivs(q):
    """(tau', tau'') of tau(q) = tanh(sqrt q)/sqrt q for q >= 0."""
    q = np.asarray(q, dtype=float)
    small = q < _SERIES_Q
    qs = np.where(small, 1.0, q)
    a = np.sqrt(qs)
    th = np.tanh(a)
    sech2 = 1.0 - th * th
    d1 = (sech2 - th / a) / (2.0 * qs)
    d2 = -(3.0 * d1 + sech2 * th / a) / (2.0 * qs)
    if small.any():
        q = q[small]
        d1[small] = -1 / 3 + q * (4 / 15 + q * (-17 / 105 + q * (
            248 / 2835 - q * 6910 / 155925)))
        d2[small] = 4 / 15 + q * (-34 / 105 + q * (744 / 2835
                                                   - q * 27640 / 155925))
    return d1, d2


def _core_fields(lx2, ly2, lz2, couplings, n: int, beta: float):
    """Static-point mode data from the squared effective-field components.

    The components may be negative on a deformed (imaginary) axis; the total
    lam^2 must stay nonnegative.  Returns (static, phi_w, bad, margin, aux)
    where ``static`` = n ln 2cosh(beta lam/2) + phi(lam^2) is the part that
    never diverges and aux = (lam2, w2, (fx, fy, fz), tl) feeds the
    observables.
    """
    lam2 = np.maximum(np.asarray(lx2 + ly2 + lz2, dtype=float), 0.0)
    lam = np.sqrt(lam2)
    vx, vy, vz = couplings
    x = 0.5 * beta * lam
    small = x < 1e-4
    tl = np.where(small, 0.5 * beta * (1.0 - x * x / 3.0),
                  np.tanh(x) / np.where(lam == 0.0, 1.0, lam))
    fx, fy, fz = vx * tl, vy * tl, vz * tl
    w2 = (lx2 * (1.0 - fy) * (1.0 - fz)
          + ly2 * (1.0 - fz) * (1.0 - fx)
          + lz2 * (1.0 - fx) * (1.0 - fy))
    static = n * _ln_2cosh_arr(x) + _phi_gap(lam2, beta)
    phi_w, bad, margin = _phi_mode(w2, beta)
    return static, phi_w, bad, margin, (lam2, w2, (fx, fy, fz), tl)


def _field_slopes(idx: int, ls, aux, hw, couplings, n: int, beta: float,
                  second: bool = True):
    """dG/dL and d2G/dL2 at every node, for G = static - phi_w, L = ls[idx].

    L enters through lam^2 = sum(ls) (the 2cosh power, phi(lam^2) and
    f_mu = v_mu t(lam^2) with t = tanh(beta lam/2)/lam) and through its own
    term of omega^2 = sum_mu ls[mu] (1 - f_j)(1 - f_k).  ``hw`` is
    _lnsinhc_derivs at beta^2 omega^2/4.  Without ``second``, d2G/dL2 is
    None and left uncomputed.
    """
    lam2, _, f, tl = aux
    v = couplings
    bq = 0.25 * beta * beta
    q = bq * lam2
    tau1, tau2 = _tanhc_derivs(q)
    t1 = 0.5 * beta * bq * tau1
    # d/dt of each (1 - f_j)(1 - f_k), and omega^2's t-derivative
    g = [1.0 - fm for fm in f]
    dc = [-(v[j] * g[k] + v[k] * g[j]) for j, k in _OTHERS]
    w_t = sum(l * d for l, d in zip(ls, dc))
    j, k = _OTHERS[idx]
    w_l = g[j] * g[k] + w_t * t1
    hs1, hs2 = _lnsinhc_derivs(q)
    hw1, hw2 = hw
    g_l = 0.25 * beta * n * tl + bq * (hs1 - hw1 * w_l)
    if not second:
        return g_l, None
    t2 = 0.5 * beta * bq * bq * tau2
    w_tt = 2.0 * sum(ls[mu] * v[j] * v[k] for mu, (j, k) in enumerate(_OTHERS))
    w_ll = 2.0 * dc[idx] * t1 + w_tt * t1 * t1 + w_t * t2
    g_ll = (0.25 * beta * n * t1 + bq * bq * (hs2 - hw2 * w_l * w_l)
            - bq * hw1 * w_ll)
    return g_l, g_ll


# ---------------------------------------------------------------------------
# quadrature sweep


def _split_axes(params: ModelParams):
    """(integrated axes, deformed axes): those with v_mu > 0 and v_mu < 0."""
    v = params.couplings
    return ([i for i in range(3) if v[i] > 0.0],
            [i for i in range(3) if v[i] < 0.0])


@lru_cache(maxsize=16)
def _gl(m: int):
    return tuple(_read_only(a) for a in leggauss(m))


def _axis_nodes(v: float, m: int, beta: float, n: int, sigmas: float,
                full_range: bool):
    rmax = v + sigmas * math.sqrt(v / (beta * n))
    x, w = _gl(m)
    if full_range:
        return rmax * x, rmax * w
    return 0.5 * rmax * (x + 1.0), 0.5 * rmax * w


def _const_terms(params: ModelParams, beta: float, quad, spa) -> float:
    n = params.n
    out = -0.25 * beta * sum(params.couplings)
    for idx in quad:
        v = params.couplings[idx]
        out += 0.5 * math.log(n * beta / (4.0 * math.pi * v))
        if idx != 2:
            out += math.log(2.0)  # x, y integrands are even: half range times 2
    for idx in spa:
        v = abs(params.couplings[idx])
        out += 0.5 * math.log(n * beta / (2.0 * v))
    return out


def _check(bad, margin, ok):
    """BreakdownError if a node is ``bad`` (past the validity boundary, with
    margins ``margin``), NumericalError if one is not ``ok`` (curvature)."""
    if np.any(bad):
        raise BreakdownError(
            "|omega|/T >= 2 pi at a sampled static point (validity margin "
            f"{float(np.min(margin)):.3g}): the quantum correction factor has "
            "a pole inside the integration region, T is below the breakdown "
            "temperature T*")
    if not np.all(ok):
        raise NumericalError("nonpositive curvature on a deformed axis")


def _part(x, cut):
    """x with every array in it (tuples walked) cut to the nodes ``cut``."""
    if isinstance(x, tuple):
        return tuple(_part(a, cut) for a in x)
    return x[cut] if np.ndim(x) else x


def _combine(slabs, margin, m):
    """(ln integral, margin, m, averages) of one rule from its slabs (smax,
    exp-sum, kernel sums or a callable that evaluates them on kept nodes)."""
    if not slabs:
        raise NumericalError("empty quadrature")
    shift = max(s[0] for s in slabs)
    if not math.isfinite(shift):
        raise NumericalError("integrand vanished on every node")
    total = 0.0
    for smax, i_s, _ in slabs:
        total += i_s * math.exp(smax - shift)

    def averages():
        sums = {}
        for smax, _, k_s in slabs:
            for k, s in (k_s() if callable(k_s) else k_s).items():
                sums[k] = sums.get(k, 0.0) + s * math.exp(smax - shift)
        return {k: s / total for k, s in sums.items()}

    return shift + math.log(total), margin, m, averages


def _kernels(params: ModelParams, T: float, ls, aux, z):
    """Node terms whose weighted averages give the correlators.

    alpha_mu = (<k_mu> - 1/2) / (2(n-1)) and sz = <k_sz>; k_mu of a deformed
    axis comes from _sweep.  On an integrated axis (v_mu > 0), k_mu =
    n m_mu^2/2 - T/v_mu + R dw^2/dv_mu from differentiating ln Z.  An axis
    without a field (v_mu = 0) takes the first order in v_mu of a Gaussian
    of variance 2 v_mu/(beta n) over its field r, which gives
    d(ln Z)/dv_mu = -beta/4 + <dg/dv_mu + (g_rr + g_r^2)/(beta n)> at r = 0.
    Without a z field, sz = -T/n <dg/db>: the nodes do not depend on b, and g
    depends on it only through (z - b)^2; _sweep adds how its -ln(P'')/2
    terms move with b.  Nodes with a deformed axis are evaluated at its
    saddle point, and these kernels leave out how those terms move with
    v_mu: there alpha_mu is not exactly T d(ln Z)/dv_mu / (n - 1) (alpha_x
    0.5-3% off it on five inputs), but closer to the exact correlators
    than that derivative is.
    """
    beta = 1.0 / T
    n = params.n
    _, w2, f, tl = aux
    hw = _lnsinhc_derivs(0.25 * beta * beta * w2)
    resp = -0.5 * beta * hw[0]  # R(w2) = 2T d(-phi_w)/d(w2)
    out = {}
    for idx, v in enumerate(params.couplings):
        if v < 0.0:
            continue
        j, k = _OTHERS[idx]
        rdw = resp * (-tl) * (ls[j] * (1.0 - f[k]) + ls[k] * (1.0 - f[j]))
        if v > 0.0:
            r2 = z * z if idx == 2 else ls[idx]
            out[idx] = 0.5 * n * r2 / (v * v) - T / v + rdw
        elif v == 0.0:
            g_l, g_ll = _field_slopes(idx, ls, aux, hw, params.couplings, n,
                                         beta)
            # g_rr + g_r^2 at r = 0, with L = r^2 (x, y) or (r - b)^2 (z)
            curv = 2.0 * g_l + 4.0 * ls[idx] * (g_ll + g_l * g_l)
            out[idx] = rdw + 2.0 * T * T * curv / n
            if idx == 2:
                out["sz"] = -2.0 * T * params.b * g_l / n
    if params.v_z != 0.0:
        out["sz"] = 0.5 * z / params.v_z
    return out


def minimize_scalar(f, lo: float, hi: float, xatol: float, shape):
    """Minimizer of f on (lo, hi) to within xatol, for a whole array at once.

    Golden-section search: every step keeps, node by node, the part of the
    interval around the smaller interior value, at one evaluation of f on
    the array per step.  ``_sweep`` calls it through this module-level
    name, so wrapping the name counts the saddle searches
    (``perfbench/tracer.py`` does, for ``cspa.saddle_solves``).
    """
    a = np.full(shape, lo)
    b = np.full(shape, hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(math.ceil(math.log(xatol / (hi - lo)) / math.log(_INVPHI))):
        left = fc < fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        fx = f(x)
        c, d, fc, fd = (np.where(left, x, d), np.where(left, c, x),
                        np.where(left, fx, fd), np.where(left, fc, fx))
    return 0.5 * (a + b)


def _sweep(params: ModelParams, T: float, ms, quad, spa, want_obs: bool):
    """The quadratures at m nodes per integrated axis for each m in ms.

    Yields one _combine tuple per rule, in the order of ms.  Without an
    integrated z all rules share the one slab z = 0 and one node call; each
    rule reduces and checks its own nodes, as its own sweep would.  Kernels
    run on the kept node data of the returned rule only, or slab by slab
    with an integrated z (m slabs of node data would take m^3 memory).

    A deformed variable is fixed, at every node of the integrated axes, at
    the real stationary point of its log-weight P along the real axis: y at
    0 by symmetry, z by a golden-section search over all nodes at once
    and one Newton step on P_z = 2cz/|v_z| + 2 (z - b) G_z.  Its Gaussian
    cross-section contributes -ln(P'')/2, with P_yy =
    2(c/|v_y| + G_y) and P_zz = 2c/|v_z| + 2 G_z + 4 (z - b)^2 G_zz from the
    slopes of G = static - phi_w in y^2 and (z - b)^2 (_field_slopes); mixed
    curvature terms vanish because the stationary y is 0.  These terms
    depend on z and b through z - b alone, so sz takes their rate in b from
    one central difference in z.  The integrated axes' nodes do not depend
    on a deformed coupling v_d, so its kernel T (g(v_d + h) - g(v_d - h)) /
    h - T/v_d differences the node log-weights g at the same nodes; -T/v_d
    is the v_d-derivative of the constant terms, in kernel units.
    """
    beta = 1.0 / T
    n, b = params.n, params.b
    vx, vy, vz = params.couplings
    c = 0.25 * beta * n
    sig = _CUTOFF_SIGMAS
    one = (np.array([0.0]), np.array([1.0]))
    y_def, z_def = 1 in spa, 2 in spa

    def rule(m):
        # x^2, y^2, well and ln weight of the x, y nodes, x outermost, in 1-D
        xs, wx = _axis_nodes(vx, m, beta, n, sig, False)
        ys, wy = _axis_nodes(vy, m, beta, n, sig, False) if 1 in quad else one
        k = len(ys)
        g_quad = np.repeat(-c * (xs * xs / vx), k)
        if 1 in quad:
            g_quad = g_quad + np.tile(-c * (ys * ys / vy), m)
        return (np.repeat(xs * xs, k), np.tile(ys * ys, m), g_quad,
                np.repeat(np.log(wx), k) + np.tile(np.log(wy), m))

    def p_real(v, zq, lx2, ly2):
        # log-weight along the real axis of a deformed z, +inf past the
        # pole; its minimum is the contour crossing
        static, phi_w, bad, _, _ = _core_fields(lx2, ly2, (zq - b) ** 2, v,
                                                n, beta)
        return np.where(bad, np.inf, c * zq * zq / abs(v[2]) + static - phi_w)

    def curvatures(v, ls, aux):
        # ln(P_yy P_zz) over the deformed axes (0 where not ok, both > 0),
        # P_zz (1 off a deformed z) and ok
        hw = _lnsinhc_derivs(0.25 * beta * beta * aux[1])
        p_yy = p_zz = 1.0
        if y_def:
            g_l = _field_slopes(1, ls, aux, hw, v, n, beta, second=False)[0]
            p_yy = 2.0 * (c / abs(v[1]) + g_l)
        if z_def:
            g_l, g_ll = _field_slopes(2, ls, aux, hw, v, n, beta)
            p_zz = 2.0 * c / abs(v[2]) + 2.0 * g_l + 4.0 * ls[2] * g_ll
        ok = (p_yy > 0.0) & (p_zz > 0.0)
        return np.log(np.where(ok, p_yy * p_zz, 1.0)), p_zz, ok

    def node(v, z, xy):
        # log-weights of nodes xy in slab z at couplings v (maybe off the
        # ModelParams domain), the saddle z, kernel data, P_zz and faults
        lx2, ly2, g_quad, lnw = xy
        if z_def:
            zlim = abs(v[2]) + sig * math.sqrt(abs(v[2]) / (beta * n))
            z = minimize_scalar(lambda zq: p_real(v, zq, lx2, ly2), -zlim,
                                zlim, 1e-10 * max(abs(v[2]), v[0]),
                                g_quad.shape)
            # the search finds z to about sqrt(eps) of its scale only, and
            # -ln(P'')/2 is not stationary there: one Newton step on P_z
            ls = (lx2, ly2, (z - b) ** 2)
            aux = _core_fields(*ls, v, n, beta)[4]
            g_l, g_ll = _field_slopes(2, ls, aux, _lnsinhc_derivs(
                0.25 * beta * beta * aux[1]), v, n, beta)
            z = z - ((2.0 * c * z / abs(v[2]) + 2.0 * (z - b) * g_l)
                     / (2.0 * c / abs(v[2]) + 2.0 * g_l + 4.0 * ls[2] * g_ll))
        ls = (lx2, ly2, (z - b) ** 2)
        static, phi_w, bad, mrg, aux = _core_fields(*ls, v, n, beta)
        g_z = -c * z * z / v[2] if v[2] != 0.0 else 0.0
        gw = static + g_quad + g_z + lnw - phi_w
        p_zz, ok = None, True
        if spa:
            lnp, p_zz, ok = curvatures(v, ls, aux)
            gw = gw - 0.5 * lnp
        return xy, gw, z, ls, aux, p_zz, (bad, mrg, ok)

    def kernels(z, xy, z_node, ls, aux, p_zz, e):
        # the kernels of one slab's nodes, summed with weights e
        kern = _kernels(params, T, ls, aux, z_node)
        for d in spa:
            v = list(params.couplings)
            h = _DEFORMED_STEP * min(vx, 0.5 * abs(v[d]))
            g = [node(v[:d] + [v[d] + s] + v[d + 1:], z, xy) for s in (h, -h)]
            for out in g:
                _check(*out[-1])
            kern[d] = T * (g[0][1] - g[1][1]) / h - T / v[d]
        if z_def or (y_def and vz == 0.0):
            # -T/n d/db of -ln(P_yy P_zz)/2, a function of z - b, whose
            # saddle value has d/db = -(2c/|v_z|)/P_zz (-1 at v_z = 0)
            h = _DEFORMED_STEP * vx
            lnp = []
            for s in (h, -h):
                lq = (ls[0], ls[1], (z_node + s - b) ** 2)
                lnp.append(curvatures(params.couplings, lq, _core_fields(
                    *lq, params.couplings, n, beta)[4]))
                _check(False, None, lnp[-1][2])
            du = -2.0 * c / abs(vz) / p_zz if z_def else -1.0
            kern["sz"] = (kern["sz"] + T * du * (lnp[0][0] - lnp[1][0])
                          / (4.0 * n * h))
        return {name: float(np.sum(e * np.where(e > 0.0, arr, 0.0)))
                for name, arr in kern.items()}

    for group in [(m,) for m in ms] if 2 in quad else [ms]:
        xy = tuple(map(np.concatenate, zip(*map(rule, group))))
        ends = np.cumsum([0] + [m * (m if 1 in quad else 1) for m in group])
        zs, wz = (_axis_nodes(vz, group[0], beta, n, sig, True) if 2 in quad
                  else one)
        slabs, margins = [[] for _ in group], [_TWO_PI] * len(group)
        for iz, z in enumerate(zs):
            out = node(params.couplings, z,
                       xy[:3] + (xy[3] + math.log(wz[iz]),))
            for j, m in enumerate(group):
                xyj, gw, z_node, ls, aux, p_zz, faults = _part(
                    out, slice(ends[j], ends[j + 1]))
                _check(*faults)
                margins[j] = min(margins[j], float(np.min(faults[1])))
                smax = float(np.max(gw))
                if smax != -math.inf:
                    e = np.exp(gw - smax)
                    k_s = partial(kernels, z, xyj, z_node, ls, aux, p_zz, e)
                    k_s = (k_s() if 2 in quad else k_s) if want_obs else {}
                    slabs[j].append((smax, float(np.sum(e)), k_s))
                if iz == len(zs) - 1:
                    yield _combine(slabs[j], margins[j], m)


def _integrate(params: ModelParams, T: float, quad, spa, want_obs: bool):
    """The first rule (m = _MIN_NODES, doubling) whose ln of the integral is
    within _REL_TOL of the one before; the first two share one _sweep."""
    m, prev = _MIN_NODES, None
    ms = (m, 2 * m) if m < _MAX_NODES else (m,)
    while True:
        for cur in _sweep(params, T, ms, quad, spa, want_obs):
            ln, _, m, _ = cur
            if prev is not None and (abs(ln - prev)
                                     <= _REL_TOL * max(1.0, abs(ln))):
                return cur
            if m >= _MAX_NODES:
                raise NumericalError("static-path quadrature not converged "
                                     f"at {m} nodes per axis")
            prev = ln
        ms = (2 * m,)


# ---------------------------------------------------------------------------
# public interface


def cspa_log_integrand(r, params: ModelParams, T: float) -> float:
    """ln of the static-path weight at auxiliary field r = (x, y, z).

    This is the bare integrand (without the Gaussian normalization
    prefactors): the quadratic well in r, the Hartree 2cosh power, and the
    quantum correction factor.  Past the validity boundary it raises
    BreakdownError regardless of weight.
    """
    check_temperature(T, positive=True)
    beta = 1.0 / T
    lx2, ly2 = r[0] * r[0], r[1] * r[1]
    lz2 = (r[2] - params.b) ** 2
    static, phi_w, bad, _, _ = _core_fields(lx2, ly2, lz2, params.couplings,
                                            params.n, beta)
    if bad:
        raise BreakdownError(
            "|omega(r)|/T >= 2 pi: static point outside the validity region")
    quad = sum(params.n * rv * rv / v
               for rv, v in zip(r, params.couplings) if v != 0.0)
    return -0.25 * beta * (quad + sum(params.couplings)) + float(static - phi_w)


def cspa_log_partition(params: ModelParams, T: float) -> float:
    """ln Z in the static-path approximation.

    Raises BreakdownError below the breakdown temperature T* and
    NumericalError if the quadrature cannot reach its tolerance.
    """
    check_temperature(T, positive=True)
    quad, spa = _split_axes(params)
    ln = _integrate(params, T, quad, spa, want_obs=False)[0]
    return ln + _const_terms(params, 1.0 / T, quad, spa)


def cspa_result(params: ModelParams, T: float) -> CspaResult:
    """ln Z together with the pair correlators and quadrature diagnostics.

    alpha_mu = T d(ln Z)/dv_mu / (n - 1) and sz = -T d(ln Z)/db / n come
    from kernels averaged over the nodes of the ln Z quadrature itself, one
    quadrature for every input (see _kernels and _sweep).  With a deformed
    axis, the other axes' alpha_mu leave out how its saddle curvature moves
    with v_mu, and are a few percent off that derivative (see _kernels).
    """
    check_temperature(T, positive=True)
    check_pairs(params.n)
    quad, spa = _split_axes(params)
    ln, margin, nodes, averages = _integrate(params, T, quad, spa, True)
    ln_z = ln + _const_terms(params, 1.0 / T, quad, spa)
    avg = averages()
    inv = 1.0 / (2.0 * (params.n - 1))
    alphas = [inv * (avg[idx] - 0.5) for idx in range(3)]
    corr = Correlators(alpha_x=alphas[0], alpha_y=alphas[1],
                       alpha_z=alphas[2], sz=avg["sz"])
    return CspaResult(ln_z, corr, margin, nodes)


def cspa_observables(params: ModelParams, T: float) -> Correlators:
    return cspa_result(params, T).corr


def cspa_concurrence(params: ModelParams, T: float) -> ConcurrenceReport:
    """Concurrence of the static-path thermal state (via the pair density)."""
    return concurrence(pair_density(cspa_observables(params, T), params.n))
