"""Closed-form entanglement estimates built on the mean-field + RPA solution.

Everything in this module is analytic: the large-n asymptotic concurrence
pair, the full O(1/n) fluctuation-corrected forms, the limit temperatures
obtained from the logarithmic self-consistency, the separable field window,
and the near-critical finite-size expressions.  The exact-diagonalization
module is the arbiter for all of them.

Conventions: C_+ is the parallel concurrence (dominant above the factorizing
field), C_- the antiparallel one (below it).  A branch that does not exist in
the current regime is reported as None; a branch pushed to an actual
divergence of the formulas raises DivergenceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .meanfield import _is_xxz, critical_constants, solve_mean_field
from .params import ModelParams, check_pairs, check_temperature
from .roots import _sign_changes, brentq

__all__ = [
    "DELTA_C",
    "FactorizingField",
    "FullConcurrence",
    "NearCritical",
    "factorizing_field",
    "asymptotic_concurrence",
    "full_concurrence",
    "limit_temperature_rpa",
    "separable_window",
    "near_critical_cminus",
    "side_limits_at_bs",
    "anomalous_tl",
]

# Scaled anisotropy gap delta = n(1 - chi) below which the near-critical
# antiparallel branch terminates in a complex square root at T = 0.  Exact
# value 12^3/5^5: the double root of the termination radicand.
DELTA_C = 1728.0 / 3125.0


@dataclass(frozen=True)
class FactorizingField:
    """Field where the ground state becomes an exact product state."""

    mean_field: float  # b_c sqrt(chi)
    finite_n: float    # (1 - 1/n) times that: exact location at finite n


def factorizing_field(params: ModelParams) -> FactorizingField | None:
    """Ground-state factorizing field, or None when no such field exists.

    Requires 0 < chi < 1; at chi >= 1 or in z-dominated systems the
    concurrence never changes type and nothing factorizes.
    """
    pc = critical_constants(params)
    if pc.normal_only or not 0.0 < pc.chi < 1.0:
        return None
    b_s = pc.b_c * math.sqrt(pc.chi)
    return FactorizingField(mean_field=b_s,
                            finite_n=(1.0 - 1.0 / params.n) * b_s)


def _omega_coth(omega: float, T: float) -> float:
    """omega * coth(omega/2T): -> omega at T = 0 and -> 2T as omega -> 0."""
    if T == 0.0:
        return omega
    if omega == 0.0:
        return 2.0 * T
    return omega / math.tanh(0.5 * omega / T)


@dataclass(frozen=True)
class _Branch:
    """Gap and mode energy of one mean-field phase, in ratio-safe form.

    ``den`` is the transverse-channel gap lam - v_y (its vanishing marks the
    XXZ degeneracy); ``minus_scale`` stores den/omega^2 with the common
    (v_x - v_y) factor cancelled analytically so the antiparallel branch
    stays finite through the XXZ point.
    """

    in_sb: bool
    lam: float
    omega: float
    den: float
    minus_scale: float


def _zero_t_branch(p: ModelParams) -> _Branch:
    pc = critical_constants(p)
    if not pc.normal_only and p.b < pc.b_c:
        bt = p.b / pc.b_c
        w2 = (1.0 - bt * bt) * (p.v_x - p.v_y) * (p.v_x - p.v_z)
        return _Branch(True, p.v_x, math.sqrt(w2), p.v_x - p.v_y,
                       1.0 / ((1.0 - bt * bt) * (p.v_x - p.v_z)))
    lam = p.b + p.v_z
    w2 = (lam - p.v_x) * (lam - p.v_y)
    return _Branch(False, lam, math.sqrt(max(w2, 0.0)), lam - p.v_y, 0.0)


def _fac_plus(br: _Branch, T: float) -> float:
    if br.den <= 0.0:
        # XXZ degeneracy: omega/den diverges, except right at the critical
        # point at T = 0 where both vanish at the same rate
        if not br.in_sb and T == 0.0 and br.omega == 0.0:
            return 1.0
        return math.inf
    return _omega_coth(br.omega, T) / br.den


def _fac_minus(br: _Branch, T: float) -> float:
    return _omega_coth(br.omega, T) * br.minus_scale


def asymptotic_concurrence(params: ModelParams,
                           T: float) -> tuple[float, float | None]:
    """Large-n concurrence pair (C_+, C_-).

    C_pm = [1 - (omega/(lam - v_y))^{pm 1} coth(omega/2T)]/(n-1) - 2 e^{-lam/T},
    with lam and omega taken at their T = 0 values (the thermal shift of both
    is exponentially small wherever the result is positive) while the coth
    factor keeps the full T dependence.

    C_- is returned as None outside the symmetry-breaking branch, where only
    parallel entanglement exists.  At the XXZ point the antiparallel value
    goes through its finite limit and C_+ diverges to -inf.
    """
    check_temperature(T)
    check_pairs(params.n)
    br = _zero_t_branch(params)
    tail = 2.0 * math.exp(-br.lam / T) if T > 0 else 0.0
    inv = 1.0 / (params.n - 1)
    c_plus = (1.0 - _fac_plus(br, T)) * inv - tail
    if not br.in_sb:
        return c_plus, None
    return c_plus, (1.0 - _fac_minus(br, T)) * inv - tail


# ---------------------------------------------------------------------------
# full O(1/n) forms

@dataclass(frozen=True)
class FullConcurrence:
    """Concurrence pair from the complete fluctuation corrections.

    ``c_minus`` is None in the normal phase and when the antiparallel
    square root turns complex; the latter case is flagged by
    ``complex_terminated`` together with the terminating field ``b_f``
    (where the antiparallel branch is maximal).
    """

    c_plus: float
    c_minus: float | None
    phase: str
    complex_terminated: bool = False
    b_f: float | None = None


def full_concurrence(params: ModelParams, T: float, *,
                     expanded: bool = False) -> FullConcurrence:
    """Concurrence pair keeping every O(1/n) fluctuation term.

    Inputs are rescaled internally so v_x = 1 (the result is scale
    invariant).  In the symmetry-breaking phase the antiparallel value uses
    the full square-root form by default; ``expanded`` switches to its
    1/n expansion, valid away from the critical field.
    """
    check_temperature(T)
    check_pairs(params.n)
    q = params.scaled(1.0 / params.v_x)
    t = T / params.v_x
    sol = solve_mean_field(q, t)
    if sol.phase == "symmetry_breaking":
        if _is_xxz(q):
            raise DivergenceError(
                "degenerate XXZ valley (v_y = v_x): the fluctuation "
                "corrections sit on a zero mode")
        return _full_sb(q, t, sol, expanded, params.v_x)
    return _full_normal(q, t, sol)


def _sb_radicand(n: int, lam: float, bt: float, k2: float) -> float:
    """Radicand of the antiparallel square root (k2 = (1-v_y) coth(w/2T)/w)."""
    half_sum = 0.5 * (lam * lam + bt * bt)
    a = 0.5 * (1.0 + bt * bt) + (k2 * half_sum - 0.5 * (1.0 - bt * bt)) / (n - 1)
    bb = bt * (1.0 + k2 / n)  # 1/n here, not 1/(n-1)
    return a * a - bb * bb


def _full_sb(q: ModelParams, t: float, sol, expanded: bool,
             unit: float) -> FullConcurrence:
    n = q.n
    lam = sol.gap  # equals tanh(lam/2t); 1 at t = 0
    if sol.zeta >= 1.0 - 1e-10:
        raise DivergenceError("zeta -> 1: critical boundary")
    bt = q.b / sol.constants.b_c
    vy, vz = q.v_y, q.v_z
    zr = sol.zeta / (1.0 - sol.zeta)
    oc = _omega_coth(math.sqrt(sol.omega_sq), t)
    lam2 = lam * lam
    x2 = lam2 - bt * bt  # > 0 strictly inside the phase
    k2 = (1.0 - vy) * oc / sol.omega_sq
    tfac = zr * zr * (1.0 - (3.0 - sol.zeta) * t)
    inv = 1.0 / (n - 1)
    c_plus = (-0.5 * (1.0 - lam2)
              + inv * (1.0
                       - (oc / (1.0 - vy)) * (1.0 + zr * (1.0 - vy) * lam2 / x2)
                       - tfac))
    if expanded:
        c_minus = (-0.5 * (1.0 - lam2)
                   + inv * (1.0
                            - k2 * (x2 / (1.0 - bt * bt) + zr * (1.0 - vz) * lam2)
                            - tfac))
        return FullConcurrence(c_plus, c_minus, "symmetry_breaking")
    rad = _sb_radicand(n, lam, bt, k2)
    if rad < 0.0:
        return FullConcurrence(c_plus, None, "symmetry_breaking",
                               complex_terminated=True,
                               b_f=_termination_field(q, t, sol) * unit)
    half_sum = 0.5 * (lam2 + bt * bt)
    c_minus = (0.5 * x2
               + inv * (0.5 * (1.0 - bt * bt)
                        - k2 * (half_sum + zr * lam2 * (1.0 - vz))
                        - tfac)
               - math.sqrt(rad))
    return FullConcurrence(c_plus, c_minus, "symmetry_breaking")


def _termination_field(q: ModelParams, t: float, sol) -> float:
    """Largest field below q.b where the antiparallel radicand crosses zero.

    The gap does not depend on b inside the symmetry-breaking phase, so only
    the mode energy is re-evaluated along the scan.
    """
    n, lam = q.n, sol.gap
    bc = sol.constants.b_c
    vy, vz = q.v_y, q.v_z

    def rad(bq: float) -> float:
        btl = bq / bc
        w2 = (lam * lam - btl * btl) * (1.0 - vy) * (1.0 - vz)
        k2 = (1.0 - vy) * _omega_coth(math.sqrt(w2), t) / w2
        return _sb_radicand(n, lam, btl, k2)

    grid = np.linspace(0.0, q.b, 400)
    falls = [c for c in _sign_changes(grid, [rad(x) for x in grid])
             if c.before > 0]  # falls from a positive radicand
    # rad(0) > 0 and rad(q.b) < 0, so q.b is only a roundoff guard
    return (falls[-1].polish(brentq, rad, xtol=1e-15, rtol=8.9e-16)
            if falls else q.b)


def _full_normal(q: ModelParams, t: float, sol) -> FullConcurrence:
    n = q.n
    th = -sol.m[2]
    fx, fy = sol.f[0], sol.f[1]
    if sol.zeta >= 1.0 - 1e-10:
        raise DivergenceError("zeta -> 1: critical boundary")
    if sol.omega_sq < 0.0:
        raise DivergenceError("unstable normal mode (omega^2 < 0)")
    if fy >= 1.0:
        raise DivergenceError("transverse channel instability (f_y -> 1)")
    oc = _omega_coth(math.sqrt(sol.omega_sq), t)
    ths = 1.0 - th * th
    main = oc * fx / (1.0 - fy)
    if t == 0.0:
        corr = last = 0.0  # zeta vanishes identically with the gap saturated
    else:
        beta = 1.0 / t
        zr = sol.zeta / (1.0 - sol.zeta)
        corr = 0.0
        for f_mu, v_mu in ((fx, q.v_x), (fy, q.v_y)):
            if 1.0 - f_mu <= 0.0:
                raise DivergenceError("omega -> 0 at the critical temperature")
            g_mu = 0.5 * beta * v_mu * ths  # zeta v_mu / v_z in v_z-free form
            corr += 0.5 * (oc * fx / (1.0 - f_mu)) * (g_mu - zr)
        last = 1.5 * ths / (1.0 - sol.zeta)  # (zeta/(1-zeta)) 3T/v_z likewise
    c_plus = -0.5 * ths + (1.0 - main + corr - last) / (n - 1)
    return FullConcurrence(c_plus, None, "normal")


# ---------------------------------------------------------------------------
# limit temperatures and the separable window

def limit_temperature_rpa(
        params: ModelParams) -> tuple[float | None, float | None]:
    """Limit temperatures (T_L^+, T_L^-) of the two concurrence types.

    Each solves the self-consistency T = lam/ln[2(n-1)/D(T)] with
    D(T) = 1 - (omega/(lam - v_y))^{pm 1} coth(omega/2T) by one bracketed
    Brent solve on [0, 2 lam].  A branch whose T -> 0 numerator D(0) is
    already nonpositive carries no entanglement of that type at any
    temperature -> None.
    """
    check_pairs(params.n)
    br = _zero_t_branch(params)
    t_plus = _limit_t(br, params.n, _fac_plus)
    t_minus = _limit_t(br, params.n, _fac_minus) if br.in_sb else None
    return t_plus, t_minus


def _limit_t(br: _Branch, n: int, fac) -> float | None:
    """Root of g(T) = T - lam/ln[2(n-1)/D(T)], or None when D(0) <= 0.

    The root is unique: omega coth(omega/2T) grows with T, so D falls and
    the right-hand side falls with it, and g rises strictly.  Past the
    point where D reaches 0 the right-hand side is taken as its limit 0+,
    so g = T there.  With D(0) > 0 (and D <= 1), g(0) = -lam/ln[2(n-1)/D(0)]
    < 0, and g(2 lam) > 0 because the right-hand side is at most lam/ln 2:
    [0, 2 lam] always brackets the one sign change.
    """
    lam = br.lam
    if lam <= 0.0 or 1.0 - fac(br, 0.0) <= 0.0:
        return None

    def g(t: float) -> float:
        d = 1.0 - fac(br, t)
        return t - lam / math.log(2.0 * (n - 1) / d) if d > 0.0 else t

    return brentq(g, 0.0, 2.0 * lam, xtol=1e-15 * lam, rtol=8.9e-16)


def separable_window(params: ModelParams, T: float,
                     ) -> tuple[float | None, float]:
    """Field window (b_L^-, b_L^+) with no pairwise entanglement of any type.

    Solves b = b_c sqrt(1 - (1-chi)[tanh(omega(b)/2T)(1 - 2(n-1)e^{-v_x/T})]^{pm 2})
    self-consistently, with omega(b) the T = 0 collective energy.  The window
    collapses to the factorizing field at T = 0 and widens with T; once the
    lower equation loses its root the window has absorbed b = 0 and the lower
    edge is reported as None (half-open window).
    """
    pc = critical_constants(params)
    if pc.normal_only or not 0.0 < pc.chi < 1.0:
        raise ValueError("separable window needs 0 < chi < 1")
    check_temperature(T)
    b_s = pc.b_c * math.sqrt(pc.chi)
    if T == 0.0:
        return b_s, b_s
    u = 2.0 * (params.n - 1) * math.exp(-params.v_x / T)
    if u >= 1.0:
        raise ValueError(
            "temperature too high for the window form: 2(n-1)e^{-v_x/T} >= 1")
    beta = 1.0 / T
    c2 = (params.v_x - params.v_y) * (params.v_x - params.v_z)
    one_chi = 1.0 - pc.chi

    def bracket(bq: float) -> float:
        w = math.sqrt(max(1.0 - (bq / pc.b_c) ** 2, 0.0) * c2)
        return math.tanh(0.5 * beta * w) * (1.0 - u)

    # squaring the self-consistency removes the spurious attractor at b_c:
    # roots of k_pm are exactly the fields with b^2 = b_c^2 (1 - (1-chi) br^{pm 2})
    def k_up(bq: float) -> float:
        return 1.0 - (bq / pc.b_c) ** 2 - one_chi * bracket(bq) ** 2

    def k_lo(bq: float) -> float:
        return 1.0 - (bq / pc.b_c) ** 2 - one_chi / bracket(bq) ** 2

    hi = pc.b_c * (1.0 - 1e-9)
    # k_up also vanishes at b_c itself.  With s = 1 - (b/b_c)^2,
    # a = beta sqrt(c2)/2, t = a sqrt(s) and A = (1-chi)(1-u)^2 a^2,
    # k_up = s [1 - A (tanh t / t)^2].  tanh t / t decreases strictly, so
    # k_up/s increases strictly with s: k_up(hi) >= 0 means k_up > 0 on all
    # of [b_s, hi), and no grid scan below b_c can find a falling crossing
    if k_up(hi) >= 0.0:
        raise ValueError(
            "no self-consistent upper edge below b_c: T exceeds the"
            " critical-field limit temperature")
    upper = brentq(k_up, b_s, hi, xtol=1e-15 * pc.b_c, rtol=8.9e-16)
    lower = None
    if k_lo(0.0) >= 0.0:  # otherwise the window has swallowed b = 0
        lower = brentq(k_lo, 0.0, b_s, xtol=1e-15 * pc.b_c, rtol=8.9e-16)
    return lower, upper


# ---------------------------------------------------------------------------
# near-critical finite-size forms

@dataclass(frozen=True)
class NearCritical:
    """Antiparallel concurrence near the critical field at delta = O(1).

    ``eps_f`` is the exact termination root of the T = 0 radicand (None when
    the radicand stays positive), ``eps_f_printed`` the closed-form
    approximation 2.4 + (5/3) sqrt(DELTA_C - delta) kept for cross-reference,
    ``b_f`` the corresponding field and ``c_at_bf`` = eps_f^2/(8n) the
    concurrence right at termination.
    """

    c_minus: float | None
    is_complex: bool
    eps_f: float | None = None
    eps_f_printed: float | None = None
    b_f: float | None = None
    c_at_bf: float | None = None


def near_critical_cminus(delta: float, epsilon: float, T: float,
                         params: ModelParams) -> NearCritical:
    """Antiparallel concurrence at chi = 1 - delta/n, (b/b_c)^2 = 1 - eps/n.

    n C_- = eps/2 - sqrt(delta/eps) coth(omega/2T)
            - sqrt(2 sqrt(delta/eps) coth(omega/2T) + eps(eps-4)/4) - 2n e^{-v_x/T},
    with omega = sqrt(eps delta)(v_x - v_z)/n.  A negative radicand means the
    square root has gone complex (the branch terminates); at T = 0 with
    delta < DELTA_C the termination point eps_f and the (maximal) concurrence
    there are reported as well.
    """
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive (fields below b_c)")
    check_temperature(T)
    n = params.n
    pc = critical_constants(params)
    scale = params.v_x - params.v_z
    omega = math.sqrt(epsilon * delta) * scale / n
    # sqrt(delta/eps) coth(omega/2T), with the delta -> 0 limit taken through
    # the product (coth alone diverges there)
    s_cth = n * _omega_coth(omega, T) / (epsilon * scale)
    rad = 2.0 * s_cth + 0.25 * epsilon * (epsilon - 4.0)
    tail = 2.0 * math.exp(-params.v_x / T) if T > 0 else 0.0
    if rad < 0.0:
        c_minus, is_complex = None, True
    else:
        c_minus = (0.5 * epsilon - s_cth - math.sqrt(rad)) / n - tail
        is_complex = False
    out = NearCritical(c_minus=c_minus, is_complex=is_complex)
    if T == 0.0 and delta < DELTA_C:
        if delta == 0.0:
            eps_f = 4.0
        else:
            f = lambda e: 2.0 * math.sqrt(delta / e) + 0.25 * e * (e - 4.0)
            eps_f = brentq(f, 2.4, 4.0, xtol=1e-14, rtol=8.9e-16)
        out = NearCritical(
            c_minus=c_minus,
            is_complex=is_complex,
            eps_f=eps_f,
            eps_f_printed=2.4 + (5.0 / 3.0) * math.sqrt(DELTA_C - delta),
            b_f=pc.b_c * math.sqrt(max(1.0 - eps_f / n, 0.0)),
            c_at_bf=eps_f * eps_f / (8.0 * n),
        )
    return out


def side_limits_at_bs(n: int, chi: float) -> tuple[float, float]:
    """Scaled side limits (n C_-, n C_+) of the concurrence at the factorizing field.

    n C_pm -> delta/(e^{delta/2} -+ 1) with delta = n(1 - chi); at delta = 0
    this is (2, 0) and both limits die off for large delta.
    """
    if not 0.0 < chi <= 1.0:
        raise ValueError("side limits need 0 < chi <= 1")
    delta = n * (1.0 - chi)
    if delta == 0.0:
        return 2.0, 0.0
    em = math.expm1(0.5 * delta)
    return delta / em, delta / (em + 2.0)


def anomalous_tl(b: float, b_s: float, delta: float) -> float:
    """Reentry scale of the limit temperature just above the factorizing field.

    T_L ~ (b - b_s) delta e^{-delta/2} / [(1 - e^{-delta}) ln coth(delta/4)],
    the linear-in-(b - b_s) estimate of the thermally revived antiparallel
    region; meaningful only for small b - b_s > 0 and finite delta.
    """
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ValueError("delta must be positive and finite")
    if b <= b_s:
        raise ValueError("estimate applies above the factorizing field")
    alpha = math.log(1.0 / math.tanh(0.25 * delta))
    return (b - b_s) * delta * math.exp(-0.5 * delta) / (
        -math.expm1(-delta) * alpha)
