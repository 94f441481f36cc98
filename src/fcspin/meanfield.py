"""Mean-field phase structure and the collective RPA mode.

The linearized partition function is dominated by static auxiliary fields
r = (x, y, z) at the extremum of a Hartree-like free energy.  Below the
critical field b_c = v_x - v_z and temperature T_c(b) the minimum breaks the
parity symmetry (x != 0, symmetry-breaking phase); otherwise it sits on the
z axis (normal phase).  Small-amplitude fluctuations around the minimum form
a single collective mode of energy omega, and the Gaussian static
fluctuations contribute the factor 1/sqrt(1 - zeta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, NumericalError
from .exact import Correlators
from .params import ModelParams
from .roots import _sign_changes, brentq

__all__ = [
    "PhaseConstants",
    "MeanFieldSolution",
    "RpaEnergy",
    "critical_constants",
    "solve_mean_field",
    "rpa_energy_general",
    "rpa_energy_determinant",
    "log_partition_mfrpa",
    "mfrpa_observables",
    "ln_2cosh",
    "ln_sinh",
]


def ln_2cosh(x: float) -> float:
    """ln(2 cosh x), overflow-safe."""
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax))


def ln_sinh(x: float) -> float:
    """ln sinh x for x > 0, overflow-safe."""
    if x <= 0:
        raise ValueError("ln_sinh needs x > 0")
    return x - math.log(2.0) + math.log(-math.expm1(-2.0 * x))


def _coth(x: float) -> float:
    return 1.0 / math.tanh(x)


def _is_xxz(params: ModelParams) -> bool:
    return params.v_x - params.v_y <= 1e-14 * params.v_x


@dataclass(frozen=True)
class PhaseConstants:
    """Critical field/temperature of the mean-field phase diagram."""

    b_c: float
    chi: float
    normal_only: bool
    v_x: float

    def critical_temperature(self, b: float) -> float:
        """T_c(b) below which the symmetry-breaking minimum exists.

        T_c(b) = (v_x b/b_c) / ln[(1 + b/b_c)/(1 - b/b_c)], decreasing from
        v_x/2 at b = 0 (the analytic limit) to 0 at b_c.
        """
        if self.normal_only:
            return 0.0
        u = abs(b) / self.b_c
        if u >= 1.0:
            return 0.0
        if u == 0.0:
            return 0.5 * self.v_x
        return self.v_x * u / math.log((1.0 + u) / (1.0 - u))


def critical_constants(params: ModelParams) -> PhaseConstants:
    return PhaseConstants(
        b_c=params.v_x - params.v_z,
        chi=params.chi,
        normal_only=params.v_z >= params.v_x,
        v_x=params.v_x,
    )


@dataclass(frozen=True)
class MeanFieldSolution:
    """Self-consistent static point with its RPA mode.

    ``r`` are the static fields, ``m`` the magnetization components
    r_mu / v_mu (kept separately so v_mu -> 0 stays finite), ``gap`` the
    quasiparticle gap lambda, ``omega_sq`` the signed squared RPA energy
    (``omega`` is None when negative), ``zeta`` the static Gaussian
    fluctuation strength and ``f`` the RPA reduction factors.
    """

    phase: str  # "symmetry_breaking" | "normal"
    r: tuple[float, float, float]
    m: tuple[float, float, float]
    gap: float
    omega_sq: float
    omega: float | None
    zeta: float
    f: tuple[float, float, float]
    constants: PhaseConstants


def _solve_gap(coupling: float, offset: float, T: float) -> float:
    """Largest root of lambda = offset + coupling * tanh(lambda/(2T))."""
    if T == 0:
        return max(offset + coupling, 0.0)
    beta = 1.0 / T
    g = lambda lam: lam - offset - coupling * math.tanh(0.5 * beta * lam)
    hi = offset + abs(coupling) + 1.0
    if offset > 0:
        return brentq(g, 0.0, hi, xtol=1e-15, rtol=1e-15)
    # offset = 0: nontrivial root exists only for coupling * beta/2 > 1
    if coupling <= 0 or 0.5 * beta * coupling <= 1.0:
        return 0.0
    return brentq(g, 1e-300, hi, xtol=1e-15, rtol=1e-15)


def solve_mean_field(params: ModelParams, T: float) -> MeanFieldSolution:
    """Select the stable phase and solve its gap equation.

    Symmetry-breaking branch (|b| < b_c, T < T_c(b)): lambda solves
    lambda = v_x tanh(lambda/2T) (so lambda = v_x at T = 0), the static point
    is x = sqrt(lambda^2 - (v_x b/b_c)^2), z = -v_z b/b_c, and
    omega = x sqrt((1 - v_y/v_x)(1 - v_z/v_x)).  Normal branch: lambda =
    b + v_z tanh(lambda/2T), x = 0, omega = lambda sqrt((1 - f_x)(1 - f_y))
    with f_mu = v_mu tanh(lambda/2T)/lambda.
    """
    if T < 0:
        raise ValueError("temperature must be nonnegative")
    pc = critical_constants(params)
    b, vx, vy, vz = params.b, params.v_x, params.v_y, params.v_z
    in_sb = (not pc.normal_only and b < pc.b_c
             and T < pc.critical_temperature(b))
    if in_sb:
        lam = vx if T == 0 else _solve_gap(vx, 0.0, T)
        bx = vx * b / pc.b_c  # transverse-field projection on the gap
        x = math.sqrt(max(lam * lam - bx * bx, 0.0))
        z = -vz * b / pc.b_c
        f = (1.0, vy / vx, vz / vx)
        omega_sq = x * x * (1.0 - f[1]) * (1.0 - f[2])
        th = lam / vx  # tanh(lambda/2T) by the gap equation
        zeta = 0.0 if T == 0 else 0.5 * (vx / T) * (1.0 - th * th)
        return MeanFieldSolution(
            phase="symmetry_breaking",
            r=(x, 0.0, z),
            m=(x / vx, 0.0, -b / pc.b_c),
            gap=lam,
            omega_sq=omega_sq,
            omega=math.sqrt(omega_sq),
            zeta=zeta,
            f=f,
            constants=pc,
        )
    lam = _solve_gap(vz, b, T)
    if lam > 0:
        th = math.tanh(0.5 * lam / T) if T > 0 else 1.0
        f = (vx * th / lam, vy * th / lam, vz * th / lam)
    else:
        # lambda = 0 only happens at T > 0 (b = 0 above T_c)
        f = (0.5 * vx / T, 0.5 * vy / T, 0.5 * vz / T)
        th = 0.0
    z = -vz * th
    omega_sq = lam * lam * (1.0 - f[0]) * (1.0 - f[1])
    zeta = 0.0 if T == 0 else 0.5 * (vz / T) * (1.0 - th * th)
    return MeanFieldSolution(
        phase="normal",
        r=(0.0, 0.0, z),
        m=(0.0, 0.0, -th),
        gap=lam,
        omega_sq=omega_sq,
        omega=math.sqrt(omega_sq) if omega_sq >= 0 else None,
        zeta=zeta,
        f=f,
        constants=pc,
    )


@dataclass(frozen=True)
class RpaEnergy:
    squared: float
    value: float | None


def rpa_energy_general(r: tuple[float, float, float], params: ModelParams,
                       T: float) -> RpaEnergy:
    """Collective RPA energy around an arbitrary static point r.

    omega^2 = sum_mu lam_mu^2 (1 - f_mu')(1 - f_mu'') over cyclic (mu, mu',
    mu''), with lam = (r_x, r_y, r_z - b) and f_mu = v_mu tanh(lam/2T)/lam.
    The sign of omega^2 is meaningful (negative inside the unstable static
    region); ``value`` is set only when omega^2 >= 0.
    """
    lx, ly, lz = r[0], r[1], r[2] - params.b
    lam = math.sqrt(lx * lx + ly * ly + lz * lz)
    if lam == 0.0:
        if T <= 0:
            raise ValueError("RPA energy undefined at lambda = 0, T = 0")
        t_over = 0.5 / T
    else:
        t_over = (math.tanh(0.5 * lam / T) if T > 0 else 1.0) / lam
    f = tuple(v * t_over for v in params.couplings)
    comps = (lx * lx * (1 - f[1]) * (1 - f[2]),
             ly * ly * (1 - f[2]) * (1 - f[0]),
             lz * lz * (1 - f[0]) * (1 - f[1]))
    w2 = comps[0] + comps[1] + comps[2]
    return RpaEnergy(squared=w2, value=math.sqrt(w2) if w2 >= 0 else None)


_FD_STEP = 1e-5  # mean-field finite-difference step, in units of v_x
DETERMINANT_SCAN_POINTS = 799  # frequencies scanned by rpa_energy_determinant

_S_HALF = (
    np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex),
    np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
)


def rpa_energy_determinant(r: tuple[float, float, float], params: ModelParams,
                           T: float) -> float | None:
    """RPA energy as the root of the 3x3 response determinant.

    Builds the two-level static Hamiltonian -lam.s, its thermal populations
    p_a, and the kernel K_{mu nu}(omega) = 2 v_mu sum_{a != b} <a|s_mu|b>
    <b|s_nu|a> (p_b - p_a)/(eps_a - eps_b - omega); omega solves
    det(I - K) = 0.  The determinant is evaluated with the pole at
    omega = lam cleared by the factor (lam^2 - omega^2), then scanned on
    ``DETERMINANT_SCAN_POINTS`` frequencies in [1e-6 lam, 2 lam].  Returns
    the first root of the scan (``roots._sign_changes``), or None.
    """
    lam_vec = np.array([r[0], r[1], r[2] - params.b])
    lam = float(np.linalg.norm(lam_vec))
    if lam <= 0:
        raise ValueError("determinant route needs lambda(r) > 0")
    h1 = -sum(c * s for c, s in zip(lam_vec, _S_HALF))
    eps, states = np.linalg.eigh(h1)
    if T > 0:
        p = np.exp(-(eps - eps.min()) / T)
        p /= p.sum()
    else:
        p = np.array([1.0, 0.0])
    # transition matrix elements <a|s_mu|b> for the two a != b pairs
    smu = [states.conj().T @ s @ states for s in _S_HALF]
    v = params.couplings

    def cleared_det(w: float) -> float:
        k = np.zeros((3, 3), dtype=complex)
        for a, bb in ((0, 1), (1, 0)):
            for mu in range(3):
                for nu in range(3):
                    k[mu, nu] += (2.0 * v[mu] * smu[mu][a, bb] * smu[nu][bb, a]
                                  * (p[bb] - p[a]) / (eps[a] - eps[bb] - w))
        d = np.linalg.det(np.eye(3) - k)
        return float(((lam * lam - w * w) * d).real)

    grid = np.linspace(1e-6 * lam, 2.0 * lam, DETERMINANT_SCAN_POINTS)
    roots = _sign_changes(grid, [cleared_det(w) for w in grid])
    return roots[0].polish(brentq, cleared_det, xtol=1e-14 * lam,
                           rtol=8.9e-16) if roots else None


def _fluctuation_log(sol: MeanFieldSolution, params: ModelParams,
                     T: float) -> float:
    """ln of the RPA correction factor: -1/2 ln(1-zeta) + ln[sinh(beta lam/2)/sinh(beta omega/2)]."""
    if sol.zeta >= 1.0 - 1e-10:
        raise DivergenceError(
            "static fluctuation factor diverges (zeta -> 1): critical boundary")
    beta = 1.0 / T
    lam = sol.gap
    if sol.omega_sq <= 0.0:
        if sol.phase == "symmetry_breaking" and _is_xxz(params):
            raise DivergenceError(
                "omega = 0: degenerate XXZ valley (v_y = v_x); the isolated-"
                "minimum RPA correction does not apply")
        if lam == 0.0 and sol.omega_sq == 0.0:
            # b = 0 normal phase: both energies vanish, the sinh ratio is finite
            g = (1.0 - sol.f[0]) * (1.0 - sol.f[1])
            if g <= 0.0:
                raise DivergenceError("omega -> 0 at the critical temperature")
            return -0.5 * math.log1p(-sol.zeta) - 0.5 * math.log(g)
        raise DivergenceError(
            "omega -> 0: critical field/temperature, RPA correction diverges")
    return (-0.5 * math.log1p(-sol.zeta)
            + ln_sinh(0.5 * beta * lam) - ln_sinh(0.5 * beta * sol.omega))


def _hartree_log(sol: MeanFieldSolution, params: ModelParams, T: float) -> float:
    """ln Z at the static point: -(beta/4) sum(n r_mu m_mu + v_mu) + n ln 2cosh(beta lam/2)."""
    beta = 1.0 / T
    n = params.n
    quad = sum(n * r * m + v for r, m, v in
               zip(sol.r, sol.m, params.couplings))
    return -0.25 * beta * quad + n * ln_2cosh(0.5 * beta * sol.gap)


def log_partition_mfrpa(params: ModelParams, T: float) -> float:
    """MF+RPA ln Z: Hartree saddle plus static-Gaussian and RPA mode factors.

    Diverges (raises DivergenceError) at the critical boundary (omega -> 0 or
    zeta -> 1) and in the degenerate XXZ case; T = 0 is rejected since ln Z
    itself is infinite there.
    """
    if T <= 0:
        raise ValueError("log_partition_mfrpa needs T > 0")
    sol = solve_mean_field(params, T)
    return _hartree_log(sol, params, T) + _fluctuation_log(sol, params, T)


# ---------------------------------------------------------------------------
# observables with the O(1/n) RPA corrections


def _coth_dlam(sol: MeanFieldSolution, params: ModelParams, T: float,
               eta: str) -> float:
    """coth(beta lam/2) d(lam)/d(eta), analytic via the gap equation.

    In the SB phase lambda depends only on v_x; in the normal phase only on
    b and v_z.  Implicit differentiation brings in the same 1/(1 - zeta)
    enhancement for both.
    """
    lam = sol.gap
    if T == 0:
        if sol.phase == "symmetry_breaking":
            return 1.0 if eta == "v_x" else 0.0
        return 1.0 if eta in ("b", "v_z") else 0.0
    if lam == 0.0:
        return 0.0
    coth = _coth(0.5 * lam / T)
    if sol.phase == "symmetry_breaking":
        if eta != "v_x":
            return 0.0
        return coth * (lam / params.v_x) / (1.0 - sol.zeta)
    if eta == "b":
        return coth / (1.0 - sol.zeta)
    if eta == "v_z":
        # coth * tanh = 1 collapses the product exactly
        return 1.0 / (1.0 - sol.zeta)
    return 0.0


def _fd_stencil(f, f0, params: ModelParams, eta: str, h: float):
    """(differences, width): d f/d eta = difference / width, f0 = f(0).

    ``f(step)`` is a tuple of quantities at eta + step.  Central stencil
    when the domain allows, one-sided second order against a domain edge
    (the near-XXZ corner for v_x, v_y).  b is
    unconstrained: negative fields fold back canonically and every MF
    quantity is even in b, so central differences through b = 0 are exact.
    """
    # how far eta may move (down, up) before leaving the parameter domain
    down, up = {"v_x": (params.v_x - abs(params.v_y), math.inf),
                "v_y": (params.v_x + params.v_y, params.v_x - params.v_y),
                }.get(eta, (math.inf, math.inf))
    if min(down, up) > 2.0 * h:
        return [a - b for a, b in zip(f(h), f(-h))], 2 * h
    room = max(down, up)
    if room <= 0:
        raise DivergenceError(f"no room to differentiate along {eta} (XXZ edge)")
    sgn = 1.0 if up >= down else -1.0
    hh = sgn * min(h, 0.25 * room)
    return [4 * a - 3 * a0 - b
            for a, a0, b in zip(f(hh), f0, f(2 * hh))], 2 * hh


def _delta_eta(sol: MeanFieldSolution, params: ModelParams, T: float,
               eta: str) -> float:
    """delta_eta = coth(bl/2) dlam/deta - coth(bw/2) domega/deta + T/(1-z) dzeta/deta.

    dlam is analytic (implicit differentiation of the gap equation); domega
    and dzeta come from finite differences of the re-solved mean field.
    """
    if sol.gap == 0.0:
        # b = 0 above T_c: lambda = omega = 0 with a finite sinh ratio; the
        # fluctuation log is -ln((1-f_x)(1-f_y))/2 - ln(1-zeta)/2 exactly
        if eta == "b":
            return 0.0  # even in b
        fx, fy = sol.f[0], sol.f[1]
        if fx >= 1.0 or fy >= 1.0:
            raise DivergenceError("omega -> 0 at the critical temperature")
        if eta == "v_x":
            return 0.5 / (1.0 - fx)
        if eta == "v_y":
            return 0.5 / (1.0 - fy)
        return 0.5 / (1.0 - sol.zeta)
    if sol.omega_sq <= 0:
        raise DivergenceError("omega -> 0: RPA corrections diverge")

    def at(step: float) -> tuple[float, float]:
        s = solve_mean_field(
            params.replace(**{eta: getattr(params, eta) + step}), T)
        if s.omega_sq <= 0:
            raise DivergenceError("omega -> 0 inside the differentiation stencil")
        return math.sqrt(s.omega_sq), s.zeta

    (d_omega, d_zeta), width = _fd_stencil(
        at, (math.sqrt(sol.omega_sq), sol.zeta), params, eta,
        _FD_STEP * params.v_x)
    domega, dzeta = d_omega / width, d_zeta / width
    out = _coth_dlam(sol, params, T, eta)
    if T == 0:
        return out - domega  # coth -> 1 and zeta vanishes identically
    beta = 1.0 / T
    out -= _coth(0.5 * beta * math.sqrt(sol.omega_sq)) * domega
    out += T / (1.0 - sol.zeta) * dzeta
    return out


def mfrpa_observables(params: ModelParams, T: float,
                      include_rpa: bool = True) -> Correlators:
    """Pair correlators and sz with the O(1/n) RPA corrections.

    alpha_mu = (n m_mu^2/2 - 1/2 + delta_{v_mu}) / (2(n-1)) and
    sz = m_z/2 - delta_b/(2n); with ``include_rpa`` False the delta terms are
    dropped (bare Hartree truncation).
    """
    if params.n < 2:
        raise ValueError("pair correlators need n >= 2")
    sol = solve_mean_field(params, T)
    if include_rpa:
        if sol.phase == "symmetry_breaking" and _is_xxz(params):
            raise DivergenceError("degenerate XXZ valley: RPA corrections invalid")
        if sol.zeta >= 1.0 - 1e-10:
            raise DivergenceError("zeta -> 1: critical boundary")
        deltas = {eta: _delta_eta(sol, params, T, eta)
                  for eta in ("v_x", "v_y", "v_z", "b")}
    else:
        deltas = {eta: 0.0 for eta in ("v_x", "v_y", "v_z", "b")}
    n = params.n
    mx, my, mz = sol.m
    half = 1.0 / (2.0 * (n - 1))

    def alpha(m_mu: float, eta: str) -> float:
        return half * (0.5 * n * m_mu * m_mu - 0.5 + deltas[eta])

    return Correlators(
        alpha_x=alpha(mx, "v_x"),
        alpha_y=alpha(my, "v_y"),
        alpha_z=alpha(mz, "v_z"),
        sz=0.5 * mz - deltas["b"] / (2.0 * n),
    )
