"""Physical parameters and the dimensionless quantum-strength numbers.

Everything is carried in arbitrary consistent units; temperature enters only
through the inverse temperature beta. The two dimensionless numbers H and Q
fully parameterize the transport results, so no unit registry exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalParams:
    """Particle mass, inverse temperature and Planck constant.

    hbar = 0 is legal and selects exact classical code paths everywhere;
    no evaluation route divides by hbar.
    """

    m: float
    beta: float
    hbar: float

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.m, self.beta, self.hbar)):
            raise ValueError(f"parameters must be finite, got {self}")
        if not self.m > 0:
            raise ValueError(f"mass must be positive, got {self.m}")
        if not self.beta > 0:
            raise ValueError(f"inverse temperature must be positive, got {self.beta}")
        if self.hbar < 0:
            raise ValueError(f"hbar must be nonnegative, got {self.hbar}")


@dataclass(frozen=True)
class DimensionlessParams:
    """Quantum-strength numbers, always computed from the primitive inputs."""

    H: float
    Q: float


def dimensionless(params: PhysicalParams, barrier) -> DimensionlessParams:
    """Quantum-strength numbers for a square barrier of height v0, half-width l.

    H = sqrt(beta/m) hbar / L drives the smoothed-barrier transport model;
    Q = hbar / (sqrt(2 m V0) L) = 1/(k0 L) drives the quantum mixture
    average, whose sub-barrier exponent is 2 kappa L = 2 sqrt(1 - x^2)/Q.
    Both scale linearly in hbar and vanish in the classical limit.
    """
    H = math.sqrt(params.beta / params.m) * params.hbar / barrier.l
    Q = params.hbar / (math.sqrt(2.0 * params.m * barrier.v0) * barrier.l)
    return DimensionlessParams(H=H, Q=Q)
