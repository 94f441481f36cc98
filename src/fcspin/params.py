"""Model parameters for the fully connected anisotropic XYZ array.

The Hamiltonian of n spins-1/2 with uniform couplings is

    H = b S_z - (1/n) sum_mu v_mu (S_mu^2 - n/4),    mu in {x, y, z},

with collective operators S_mu = sum_i s_mu^i.  Energies (b, v_mu, T) are
all measured in the same arbitrary unit.  Without loss of generality the
axes are labeled so that v_x > 0 and |v_y| <= v_x, and the field can be
taken b >= 0 (flipping S_z -> -S_z maps b -> -b and leaves every pairwise
quantity invariant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def check_temperature(T: float, *, positive: bool = False) -> None:
    """The temperature rule of the library entry points: T must be finite
    and nonnegative, or finite and positive with ``positive`` (where ln Z or
    the static-path weight needs 1/T); ValueError otherwise."""
    if not (0.0 < T if positive else 0.0 <= T) or T == math.inf:
        raise ValueError("temperature must be finite and "
                         + ("positive" if positive else "nonnegative"))


def check_pairs(n: int) -> None:
    """The pair rule of the pair-correlator and concurrence entry points:
    ValueError unless there are n >= 2 spins."""
    if n < 2:
        raise ValueError("pair correlators need n >= 2")


@dataclass(frozen=True)
class ModelParams:
    """Validated, canonicalized model parameters.

    Parameters
    ----------
    n : int
        Number of spins, n >= 1 (pairwise quantities need n >= 2).
    b : float
        Transverse field.  Negative values are folded to ``abs(b)``.
    v_x, v_y, v_z : float
        Coupling strengths.  Must satisfy v_x > 0 and |v_y| <= v_x; inputs
        violating the axis convention are rejected rather than relabeled.
    """

    n: int
    b: float
    v_x: float
    v_y: float
    v_z: float = 0.0

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not self.v_x > 0:
            raise ValueError(
                f"v_x must be positive (axis convention: label the strongest "
                f"in-plane coupling x), got v_x={self.v_x}"
            )
        if abs(self.v_y) > self.v_x:
            raise ValueError(
                f"|v_y| <= v_x required (relabel the x/y axes so the dominant "
                f"coupling is v_x), got v_x={self.v_x}, v_y={self.v_y}"
            )
        for name in ("b", "v_x", "v_y", "v_z"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        # b -> -b is a unitary S_z flip; fold to the b >= 0 half-line.
        if self.b < 0:
            object.__setattr__(self, "b", -self.b)

    @property
    def chi(self) -> float:
        """Anisotropy chi = (v_y - v_z)/(v_x - v_z); nan when v_x == v_z."""
        d = self.v_x - self.v_z
        if d == 0.0:
            return math.nan
        return (self.v_y - self.v_z) / d

    @property
    def couplings(self) -> tuple[float, float, float]:
        return (self.v_x, self.v_y, self.v_z)

    @classmethod
    def from_chi(cls, n: int, b: float, chi: float, v_x: float = 1.0,
                 v_z: float = 0.0) -> "ModelParams":
        """Build params from the anisotropy chi instead of v_y."""
        return cls(n=n, b=b, v_x=v_x, v_y=v_z + chi * (v_x - v_z), v_z=v_z)

    def replace(self, **kw) -> "ModelParams":
        """Copy with the named fields changed, validated like a new instance."""
        return ModelParams(**{**vars(self), **kw})

    def with_field(self, b: float) -> "ModelParams":
        return ModelParams(self.n, b, self.v_x, self.v_y, self.v_z)

    def scaled(self, s: float) -> "ModelParams":
        """Scale every energy by s > 0 (temperatures scale alongside)."""
        if not s > 0:
            raise ValueError("scale factor must be positive")
        return ModelParams(self.n, s * self.b, s * self.v_x, s * self.v_y,
                           s * self.v_z)
