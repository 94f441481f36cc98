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
once.  The correlators are weighted averages of closed-form kernels over the
nodes of the same quadrature; only a deformed axis differentiates ln Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import BreakdownError, NumericalError
from .exact import ConcurrenceReport, Correlators, concurrence, pair_density
from .meanfield import _fd_stencil
from .params import ModelParams

__all__ = [
    "CspaConfig",
    "CspaResult",
    "cspa_integrand",
    "cspa_log_integrand",
    "cspa_log_partition",
    "cspa_observables",
    "cspa_concurrence",
    "cspa_result",
]


def __getattr__(name: str):
    # not called: perfbench/tracer.py wraps ``minimize_scalar`` as the
    # static-path solver, so the name resolves, but SciPy loads only then
    if name == "minimize_scalar":
        from scipy.optimize import minimize_scalar
        return minimize_scalar
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_TWO_PI = 2.0 * math.pi
_INVPHI = 0.5 * (math.sqrt(5.0) - 1.0)
# |q| below which _lnsinhc_derivs and _tanhc_derivs use their Taylor series:
# the closed forms cancel like 1/q^2 there, the truncated series are good to
# about 1e-9 relative at the switch
_SERIES_Q = 1e-2
# the two other axes of each axis, in the cyclic order of omega^2
_OTHERS = ((1, 2), (2, 0), (0, 1))
# relative step of the differences of ln Z on a deformed axis, central or
# one-sided at v_y = -v_x: the curvature stencil of the sweep leaves ~1e-10
# relative noise in ln Z, which a shorter step amplifies past 1e-5 in alpha
_DEFORMED_STEP = 1e-3


@dataclass(frozen=True)
class CspaConfig:
    """Quadrature resolution and validity policy.

    Node counts are per axis; the count doubles until ln Z moves by less than
    ``rel_tol`` (relative).  ``cutoff_sigmas`` fixes the integration cutoff
    r_max = v_mu + cutoff_sigmas * sqrt(v_mu/(beta n)) per axis, which covers
    the static saddle (always inside |r_mu| <= v_mu) plus the Gaussian tail;
    the bare-Gaussian mass outside is < 1e-12 for any cutoff_sigmas >= 11.
    """

    rel_tol: float = 1e-10
    min_nodes: int = 24
    max_nodes: int = 768
    cutoff_sigmas: float = 12.0
    allow_negative_couplings: bool = True


@dataclass(frozen=True)
class CspaResult:
    """ln Z with correlators and quadrature diagnostics.

    ``validity_margin`` is the minimum of 2 pi - |omega(r)|/T over sampled
    static points whose mode has gone imaginary (2 pi if none has).  It is
    positive by construction: a sampled point at or past the boundary raises
    BreakdownError, so no result is ever returned for it.
    """

    ln_z: float
    corr: Correlators | None
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
    raise BreakdownError when any sampled point is bad), ``margin`` the
    minimum of 2 pi - beta sqrt(-s) over imaginary-mode points, bad ones
    included (2 pi when there are none).
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

    margin = float(np.min(np.where(neg, _TWO_PI - 2.0 * arg, _TWO_PI)))
    return out, bad, margin


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
    h1s = 1 / 6 + q * (-1 / 90 + q * (1 / 945 + q * (-1 / 9450 + q / 93555)))
    h2s = -1 / 90 + q * (2 / 945 + q * (-1 / 3150 + q * 4 / 93555))
    return np.where(small, h1s, h1), np.where(small, h2s, h2)


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
    d1s = -1 / 3 + q * (4 / 15 + q * (-17 / 105 + q * (248 / 2835
                                                      - q * 6910 / 155925)))
    d2s = 4 / 15 + q * (-34 / 105 + q * (744 / 2835 - q * 27640 / 155925))
    return np.where(small, d1s, d1), np.where(small, d2s, d2)


def _core_fields(lx2, ly2, lz2, params: ModelParams, beta: float):
    """Static-point mode data from the squared effective-field components.

    The components may be negative on a deformed (imaginary) axis; the total
    lam^2 must stay nonnegative.  Returns (static, phi_w, bad, margin, aux)
    where ``static`` = n ln 2cosh(beta lam/2) + phi(lam^2) is the part that
    never diverges and aux = (lam2, w2, (fx, fy, fz), tl) feeds the
    observables.
    """
    lam2 = np.maximum(np.asarray(lx2 + ly2 + lz2, dtype=float), 0.0)
    lam = np.sqrt(lam2)
    vx, vy, vz = params.couplings
    x = 0.5 * beta * lam
    small = x < 1e-4
    tl = np.where(small, 0.5 * beta * (1.0 - x * x / 3.0),
                  np.tanh(x) / np.where(lam == 0.0, 1.0, lam))
    fx, fy, fz = vx * tl, vy * tl, vz * tl
    w2 = (lx2 * (1.0 - fy) * (1.0 - fz)
          + ly2 * (1.0 - fz) * (1.0 - fx)
          + lz2 * (1.0 - fx) * (1.0 - fy))
    static = params.n * _ln_2cosh_arr(x) + _phi_gap(lam2, beta)
    phi_w, bad, margin = _phi_mode(w2, beta)
    return static, phi_w, bad, margin, (lam2, w2, (fx, fy, fz), tl)


def _field_slopes(idx: int, ls, aux, hw, params: ModelParams, beta: float):
    """dG/dL and d2G/dL2 at every node, for G = static - phi_w, L = ls[idx].

    L enters through lam^2 = sum(ls) (the 2cosh power, phi(lam^2) and
    f_mu = v_mu t(lam^2) with t = tanh(beta lam/2)/lam) and through its own
    term of omega^2 = sum_mu ls[mu] (1 - f_j)(1 - f_k).  ``hw`` is
    _lnsinhc_derivs at beta^2 omega^2/4.
    """
    lam2, _, f, tl = aux
    v = params.couplings
    bq = 0.25 * beta * beta
    q = bq * lam2
    tau1, tau2 = _tanhc_derivs(q)
    t1 = 0.5 * beta * bq * tau1
    t2 = 0.5 * beta * bq * bq * tau2
    # d/dt of each (1 - f_j)(1 - f_k), and omega^2's t-derivatives
    dc = [-(v[j] * (1.0 - f[k]) + v[k] * (1.0 - f[j])) for j, k in _OTHERS]
    w_t = sum(l * d for l, d in zip(ls, dc))
    w_tt = 2.0 * sum(ls[mu] * v[j] * v[k] for mu, (j, k) in enumerate(_OTHERS))
    j, k = _OTHERS[idx]
    w_l = (1.0 - f[j]) * (1.0 - f[k]) + w_t * t1
    w_ll = 2.0 * dc[idx] * t1 + w_tt * t1 * t1 + w_t * t2
    hs1, hs2 = _lnsinhc_derivs(q)
    hw1, hw2 = hw
    g_l = 0.25 * beta * params.n * tl + bq * (hs1 - hw1 * w_l)
    g_ll = (0.25 * beta * params.n * t1 + bq * bq * (hs2 - hw2 * w_l * w_l)
            - bq * hw1 * w_ll)
    return g_l, g_ll


# ---------------------------------------------------------------------------
# quadrature sweep


def _split_axes(params: ModelParams, cfg: CspaConfig):
    quad, spa = [], []
    for idx, v in enumerate(params.couplings):
        if v > 0.0:
            quad.append(idx)
        elif v < 0.0:
            if not cfg.allow_negative_couplings:
                raise ValueError("negative couplings disabled by configuration")
            spa.append(idx)
    return quad, spa


@lru_cache(maxsize=16)
def _gl(m: int):
    return leggauss(m)


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


class _SweepOut:
    __slots__ = ("ln_integral", "averages", "margin", "nodes")

    def __init__(self, ln_integral, averages, margin, nodes):
        self.ln_integral = ln_integral
        self.averages = averages
        self.margin = margin
        self.nodes = nodes


def _breakdown(margin: float) -> BreakdownError:
    return BreakdownError(
        "|omega|/T >= 2 pi at a sampled static point (validity margin "
        f"{margin:.3g}): the quantum correction factor has a pole inside "
        "the integration region, T is below the breakdown temperature T*")


def _combine(slabs, kernel_names, margin, m):
    if not slabs:
        raise NumericalError("empty quadrature")
    shift = max(s[0] for s in slabs)
    if not math.isfinite(shift):
        raise NumericalError("integrand vanished on every node")
    total = 0.0
    sums = {k: 0.0 for k in kernel_names}
    for smax, i_s, k_s in slabs:
        scale = math.exp(smax - shift)
        total += i_s * scale
        for k in kernel_names:
            sums[k] += k_s[k] * scale
    averages = {k: sums[k] / total for k in kernel_names}
    return _SweepOut(shift + math.log(total), averages, margin, m)


def _kernels(params: ModelParams, T: float, ls, aux, z):
    """Node terms whose weighted averages give the correlators.

    alpha_mu = (<k_mu> - 1/2) / (2(n-1)) on every axis that is not deformed,
    and sz = <k_sz>.  On an integrated axis (v_mu > 0), k_mu =
    n m_mu^2/2 - T/v_mu + R dw^2/dv_mu from differentiating ln Z.  An axis
    without a field (v_mu = 0) takes the first order in v_mu of a Gaussian
    of variance 2 v_mu/(beta n) over its field r, which gives
    d(ln Z)/dv_mu = -beta/4 + <dg/dv_mu + (g_rr + g_r^2)/(beta n)> at r = 0.
    Without a z field, sz = -T/n <dg/db>: the nodes do not depend on b, and g
    depends on it only through (z - b)^2.  Nodes with a deformed axis are
    evaluated at its saddle point.
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
            g_l, g_ll = _field_slopes(idx, ls, aux, hw, params, beta)
            # g_rr + g_r^2 at r = 0, with L = r^2 (x, y) or (r - b)^2 (z)
            curv = 2.0 * g_l + 4.0 * ls[idx] * (g_ll + g_l * g_l)
            out[idx] = rdw + 2.0 * T * T * curv / n
            if idx == 2:
                out["sz"] = -2.0 * T * params.b * g_l / n
    if params.v_z != 0.0:
        out["sz"] = 0.5 * z / params.v_z
    return out


def _golden_min(f, lo: float, hi: float, xatol: float, shape):
    """Minimizer of f on (lo, hi) to within xatol, for a whole array at once.

    Golden-section search: every step keeps, node by node, the part of the
    interval around the smaller interior value, at one evaluation of f on
    the array per step.
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


def _sweep(params: ModelParams, T: float, cfg: CspaConfig, m: int,
           quad, spa, want_obs: bool) -> _SweepOut:
    """The quadrature at m nodes per integrated axis, one z slab at a time.

    A deformed variable is fixed, at every node of the integrated axes, at
    the real stationary point of its log-weight P along the real axis: y at
    0 by symmetry, z by a golden-section search over all nodes at once.
    Its Gaussian cross-section contributes -ln(P'')/2, P'' from a
    three-point stencil; mixed curvature terms vanish because the
    stationary y is 0.
    """
    beta = 1.0 / T
    n, b = params.n, params.b
    vx, vy, vz = params.couplings
    c = 0.25 * beta * n
    sig = cfg.cutoff_sigmas
    one = (np.array([0.0]), np.array([1.0]))

    xs, wx = _axis_nodes(vx, m, beta, n, sig, False)
    ys, wy = _axis_nodes(vy, m, beta, n, sig, False) if 1 in quad else one
    zs, wz = _axis_nodes(vz, m, beta, n, sig, True) if 2 in quad else one

    lx2 = (xs * xs)[:, None]
    ly2 = (ys * ys)[None, :]
    g_quad = -c * (xs * xs / vx)[:, None]
    if 1 in quad:
        g_quad = g_quad + (-c * (ys * ys / vy))[None, :]
    lnw_xy = np.log(wx)[:, None] + np.log(wy)[None, :]

    y_def, z_def = 1 in spa, 2 in spa
    hy = 1e-3 * math.sqrt(2.0 * abs(vy) / (beta * n))
    hz = 1e-3 * math.sqrt(2.0 * abs(vz) / (beta * n))
    zlim = abs(vz) + sig * math.sqrt(abs(vz) / (beta * n))

    def p_real(ly2q, zq):
        # log-weight along the real axis of the deformed variables, +inf
        # past the pole; its minimum is the contour crossing
        g = c * ly2q / abs(vy) if y_def else 0.0
        if z_def:
            g = g + c * zq * zq / abs(vz)
        static, phi_w, bad, _, _ = _core_fields(lx2, ly2q, (zq - b) ** 2,
                                                params, beta)
        return np.where(bad, np.inf, g + static - phi_w)

    slabs = []
    kernel_names = []
    margin = _TWO_PI
    for iz, z in enumerate(zs):
        if z_def:
            z = _golden_min(lambda zq: p_real(ly2, zq), -zlim, zlim,
                            1e-10 * max(abs(vz), vx), g_quad.shape)
        ls = (lx2, ly2, (z - b) ** 2)
        static, phi_w, bad, mrg, aux = _core_fields(*ls, params, beta)
        if bad.any():
            raise _breakdown(mrg)
        margin = min(margin, mrg)
        if z_def:
            g_z = c * z * z / abs(vz)
        else:
            g_z = -c * z * z / vz if 2 in quad else 0.0
        lnw = lnw_xy + math.log(wz[iz])
        gw = static + g_quad + g_z + lnw - phi_w
        if spa:
            p0 = (g_z if z_def else 0.0) + static - phi_w
        if y_def:
            hyy = 2.0 * (p_real(hy * hy, z) - p0) / (hy * hy)
            if not np.all(hyy > 0.0):
                raise NumericalError(
                    "nonpositive curvature on the deformed y axis")
            gw = gw - 0.5 * np.log(hyy)
        if z_def:
            hzz = (p_real(ly2, z + hz) - 2.0 * p0
                   + p_real(ly2, z - hz)) / (hz * hz)
            if not np.all(hzz > 0.0):
                raise NumericalError(
                    "nonpositive curvature on the deformed z axis")
            gw = gw - 0.5 * np.log(hzz)
        smax = float(np.max(gw))
        if smax == -math.inf:
            continue
        e = np.exp(gw - smax)
        i_s = float(np.sum(e))
        k_s = {}
        if want_obs:
            kern = _kernels(params, T, ls, aux, z)
            kernel_names = list(kern)
            for name, arr in kern.items():
                k_s[name] = float(np.sum(e * np.where(e > 0.0, arr, 0.0)))
        slabs.append((smax, i_s, k_s))
    return _combine(slabs, kernel_names, margin, m)


def _integrate(params: ModelParams, T: float, cfg: CspaConfig, quad, spa,
               want_obs: bool) -> _SweepOut:
    m = cfg.min_nodes
    prev = None
    while True:
        cur = _sweep(params, T, cfg, m, quad, spa, want_obs)
        if prev is not None and (abs(cur.ln_integral - prev.ln_integral)
                                 <= cfg.rel_tol * max(1.0, abs(cur.ln_integral))):
            return cur
        if m >= cfg.max_nodes:
            raise NumericalError(
                f"static-path quadrature not converged at {m} nodes per axis")
        prev = cur
        m *= 2


# ---------------------------------------------------------------------------
# public interface


def cspa_log_integrand(r, params: ModelParams, T: float) -> float:
    """ln of the static-path weight at auxiliary field r = (x, y, z).

    This is the bare integrand (without the Gaussian normalization
    prefactors): the quadratic well in r, the Hartree 2cosh power, and the
    quantum correction factor.  Past the validity boundary it raises
    BreakdownError regardless of weight.
    """
    if T <= 0:
        raise ValueError("static-path weight needs T > 0")
    beta = 1.0 / T
    lx2, ly2 = r[0] * r[0], r[1] * r[1]
    lz2 = (r[2] - params.b) ** 2
    static, phi_w, bad, _, _ = _core_fields(lx2, ly2, lz2, params, beta)
    if bad:
        raise BreakdownError(
            "|omega(r)|/T >= 2 pi: static point outside the validity region")
    quad = sum(params.n * rv * rv / v
               for rv, v in zip(r, params.couplings) if v != 0.0)
    return -0.25 * beta * (quad + sum(params.couplings)) + float(static - phi_w)


def cspa_integrand(r, params: ModelParams, T: float) -> float:
    """exp of cspa_log_integrand; inf if the weight overflows a float."""
    try:
        return math.exp(cspa_log_integrand(r, params, T))
    except OverflowError:
        return math.inf


def cspa_log_partition(params: ModelParams, T: float,
                       cfg: CspaConfig | None = None) -> float:
    """ln Z in the static-path approximation.

    Raises BreakdownError below the breakdown temperature T* and
    NumericalError if the quadrature cannot reach the configured tolerance.
    """
    cfg = cfg or CspaConfig()
    if T <= 0:
        raise ValueError("static-path partition function needs T > 0")
    quad, spa = _split_axes(params, cfg)
    out = _integrate(params, T, cfg, quad, spa, want_obs=False)
    return out.ln_integral + _const_terms(params, 1.0 / T, quad, spa)


def cspa_result(params: ModelParams, T: float,
                cfg: CspaConfig | None = None) -> CspaResult:
    """ln Z together with the pair correlators and quadrature diagnostics.

    alpha_mu = T d(ln Z)/dv_mu / (n - 1) and sz = -T d(ln Z)/db / n come
    from kernels averaged over the nodes of the ln Z quadrature itself
    (see _kernels); a deformed axis (v_mu < 0) differences ln Z.
    """
    cfg = cfg or CspaConfig()
    if T <= 0:
        raise ValueError("static-path partition function needs T > 0")
    if params.n < 2:
        raise ValueError("pair correlators need n >= 2")
    quad, spa = _split_axes(params, cfg)
    out = _integrate(params, T, cfg, quad, spa, want_obs=True)
    ln_z = out.ln_integral + _const_terms(params, 1.0 / T, quad, spa)
    inv = 1.0 / (2.0 * (params.n - 1))
    alphas = [_alpha_deformed(params, T, cfg, idx, ln_z) if idx in spa
              else inv * (out.averages[idx] - 0.5) for idx in range(3)]
    corr = Correlators(alpha_x=alphas[0], alpha_y=alphas[1],
                       alpha_z=alphas[2], sz=out.averages["sz"])
    return CspaResult(ln_z, corr, out.margin, out.nodes)


def cspa_observables(params: ModelParams, T: float,
                     cfg: CspaConfig | None = None) -> Correlators:
    return cspa_result(params, T, cfg).corr


def cspa_concurrence(params: ModelParams, T: float,
                     cfg: CspaConfig | None = None,
                     formation: bool = False) -> ConcurrenceReport:
    """Concurrence of the static-path thermal state (via the pair density)."""
    corr = cspa_observables(params, T, cfg)
    return concurrence(pair_density(corr, params.n), formation=formation)


def _alpha_deformed(params: ModelParams, T: float, cfg: CspaConfig,
                    idx: int, ln_z: float) -> float:
    """alpha_mu = T d(ln Z)/d(v_mu) / (n - 1) on a deformed axis (v_mu < 0).

    The saddle-point cross-section has no node kernel, so ln Z is differenced
    inside the negative range, one-sided from ``ln_z`` at v_y = -v_x.
    """
    v = params.couplings[idx]
    name = ("v_x", "v_y", "v_z")[idx]
    scale = min(params.v_x, 0.5 * abs(v))
    at = lambda step: (cspa_log_partition(
        params.replace(**{name: v + step}), T, cfg),)
    (diff,), width = _fd_stencil(at, (ln_z,), params, name,
                                 _DEFORMED_STEP * scale)
    return T / (params.n - 1) * diff / width
