"""Transmission and reflection coefficients, effective and exact quantum.

The effective coefficients are threshold-based: a uniform beam of energies
between the asymptotic level and the barrier top either surpasses the
smoothed barrier or does not, so t is the surviving fraction of that beam.
They are analogs of the quantum coefficients, not amplitudes; the two sides
are compared through the dimensionless parameters H and Q. Every coefficient
here is a transmission t; the reflection is always 1 - t.

The quantum side carries three independent routes that must agree:

- the closed sub-barrier transmission for one eigenstate, written in the
  manifestly positive form 4 k^2 kappa^2 / (4 k^2 kappa^2 + k0^4 sinh^2(2 kappa l));
- a transfer-matrix scattering solve over piecewise-constant segments;
- the mixture average, both as the dimensionless x-integral in Q and as the
  k-space average of the single-state coefficient against the ensemble
  density rho(k) = hbar^2 k / (m v0) on [0, k0].
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError
from .lowmomentum import LowMomentumModel, tunneling_threshold
from .physical import PhysicalParams, Record
from .potential import Shape, SquareBarrier, _require_finite, asymptotic_level, classical_max
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate_adaptive

SINH_OVERFLOW = 350.0  # beyond this, sinh^2 is replaced by its leading exponential


class CoefficientPair(Record):
    """Transmission coefficient t in [0, 1] and its reflection r = 1 - t."""

    __slots__ = _fields = ("t",)

    def __init__(self, t: float):
        object.__setattr__(self, "t", t)
        if not 0.0 <= t <= 1.0:  # nan and +-inf fail it too
            raise ValueError(f"transmission coefficient {t!r} outside [0, 1]")

    @property
    def r(self) -> float:
        return 1.0 - self.t


def effective_t_of_H(H: float) -> float:
    """Surviving beam fraction 1 - erf(sqrt(2)/H) for the smoothed square barrier."""
    _require_finite("H", (H,))
    if H < 0:
        raise DomainError("H must be nonnegative")
    if H == 0:
        return 0.0
    return 1.0 - math.erf(math.sqrt(2.0) / H)


def effective_coefficients(model: LowMomentumModel) -> CoefficientPair:
    """Threshold-based coefficients for a uniform beam on (base, max V).

    t is the beam fraction above the tunneling threshold, measured from the
    asymptotic level; for the square barrier that is the closed form
    1 - erf(sqrt(2)/H) of effective_t_of_H, to roundoff. At hbar = 0 the
    threshold is the bare barrier top, so t is exactly 0.
    """
    pot = model.pot
    base = asymptotic_level(pot)
    top = classical_max(pot)
    if top <= base:
        raise DomainError("potential has no barrier above its asymptotic level")
    threshold = tunneling_threshold(model)
    t = max(0.0, 1.0 - (threshold - base) / (top - base))
    return CoefficientPair(min(1.0, t))


# ------------------------------------------------------------- quantum routes


def quantum_t_single(barrier: SquareBarrier, params: PhysicalParams, k: float) -> float:
    """Sub-barrier transmission of one eigenstate with wavenumber k.

    Positive rewriting of the textbook result; the printed negative-over-
    negative form has both numerator and denominator < 0 below the barrier.
    """
    _require_finite("wavenumber", (k,))
    if params.hbar <= 0:
        raise DomainError("quantum transmission needs hbar > 0")
    k0 = math.sqrt(2.0 * params.m * barrier.v0) / params.hbar
    if k <= 0 or k > k0:
        raise DomainError(f"wavenumber {k:g} outside the sub-barrier range (0, {k0:g}]")
    if k == k0:
        k0l = k0 * barrier.l
        return 1.0 / (1.0 + k0l * k0l)
    kappa = math.sqrt(k0 * k0 - k * k)
    arg = 2.0 * kappa * barrier.l
    num = 4.0 * k * k * kappa * kappa
    if arg > SINH_OVERFLOW:
        # sinh^2 dominates; keep the ratio in floating range
        return 4.0 * num * math.exp(-2.0 * arg) / k0**4
    s = math.sinh(arg)
    return num / (num + k0**4 * s * s)


def quantum_t_mixture(Q: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Mixture-averaged transmission as a function of Q alone.

    t = 2 * integral_0^1 x^3 (x^2 - 1) / [x^4 - x^2 - sinh^2(2 sqrt(1-x^2)/Q)/4] dx,
    with the analytic endpoint value Q^2/(Q^2+1) at x = 1.
    """
    _require_finite("Q", (Q,))
    if Q <= 0:
        raise DomainError("Q must be positive")

    def integrand(x: float) -> float:
        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return Q * Q / (Q * Q + 1.0)
        s = math.sqrt(1.0 - x * x)
        arg = 2.0 * s / Q
        if arg > SINH_OVERFLOW:
            return 0.0
        sh = math.sinh(arg)
        x2 = x * x
        return x2 * x * (x2 - 1.0) / (x2 * x2 - x2 - 0.25 * sh * sh)

    return 2.0 * integrate_adaptive(integrand, 0.0, 1.0, cfg)


def mixture_average(barrier: SquareBarrier, params: PhysicalParams) -> float:
    """k-space route to the mixture coefficient: the average of
    quantum_t_single over the ensemble density hbar^2 k / (m v0) on [0, k0]."""
    if params.hbar <= 0:
        raise DomainError("the mixture ensemble needs hbar > 0")
    k0 = math.sqrt(2.0 * params.m * barrier.v0) / params.hbar
    coeff = params.hbar**2 / (params.m * barrier.v0)

    def integrand(k: float) -> float:
        if k <= 0.0 or k > k0:
            return 0.0
        return quantum_t_single(barrier, params, k) * (coeff * k)

    return integrate_adaptive(integrand, 0.0, k0)


class TransferMatrixResult(NamedTuple):
    t: float
    underflow: bool


def transfer_matrix_transmission(
    pot: Shape,
    params: PhysicalParams,
    E: float,
) -> TransferMatrixResult:
    """Exact scattering transmission through piecewise-constant segments.

    Independent of the closed forms above: (psi, psi') is carried across
    each segment of width w by its real propagator
    [[cos kw, sin(kw)/k], [-k sin kw, cos kw]] (cosh and sinh below the
    segment level, [[1, w], [0, 1]] at it), which stays well conditioned as
    k -> 0. For the product [[a, b], [c, d]] and the outer wavenumber k,
    t = 4 k^2 / ((c - k^2 b)^2 + k^2 (a + d)^2). Extremely opaque barriers
    overflow the product; those return t = 0 with the underflow flag set
    instead of raising.
    """
    _require_finite("energy", (E,))
    if not pot.steps:
        raise DomainError("transfer matrix needs a piecewise-constant potential")
    if params.hbar <= 0:
        raise DomainError("scattering needs hbar > 0")
    if E <= pot.level:
        raise DomainError("energy must exceed the asymptotic level for an incident wave")

    two_m, hbar = 2.0 * params.m, params.hbar
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for x0, x1, v in zip(pot.x[:-1], pot.x[1:], pot.left):
        w = x1 - x0
        kv = math.sqrt(two_m * abs(E - v)) / hbar
        if E > v:
            cs, sn, ksn = math.cos(kv * w), math.sin(kv * w) / kv, -kv * math.sin(kv * w)
        elif E < v:
            if kv * w > SINH_OVERFLOW:  # t below ~1e-300
                return TransferMatrixResult(t=0.0, underflow=True)
            cs, sn, ksn = math.cosh(kv * w), math.sinh(kv * w) / kv, kv * math.sinh(kv * w)
        else:
            cs, sn, ksn = 1.0, w, 0.0
        a, b, c, d = cs * a + sn * c, cs * b + sn * d, ksn * a + cs * c, ksn * b + cs * d
    k2 = two_m * (E - pot.level) / (hbar * hbar)
    denom = (c - k2 * b) ** 2 + k2 * (a + d) ** 2
    if not math.isfinite(denom):
        return TransferMatrixResult(t=0.0, underflow=True)
    return TransferMatrixResult(t=min(4.0 * k2 / denom, 1.0), underflow=False)


# ---------------------------------------------------------- trajectory oracle


def surpass_fraction(model: LowMomentumModel, quantiles) -> float:
    """Fraction of a uniform-energy beam that surpasses the barrier.

    Each quantile u of the uniform beam on (base, max V) is the energy
    base + u (max V - base), and each energy runs an actual trajectory by
    ``classify_traversal``: until it first turns, or passes the top of V
    moving forward (at hbar = 0, the far edge), after which it cannot turn;
    this is the simulated-transport route to the effective
    transmission coefficient. The n bin midpoints (i + 0.5)/n make a
    stratified beam, and uniform draws on [0, 1) a random one.
    """
    from .dynamics import SURPASSED, classify_traversal

    lo = asymptotic_level(model.pot)
    hi = classical_max(model.pot)
    energies = [lo + u * (hi - lo) for u in map(float, quantiles)]
    if not energies:
        raise ValueError("need at least one quantile")
    hits = sum(1 for eps in energies if classify_traversal(model, eps) == SURPASSED)
    return hits / len(energies)
