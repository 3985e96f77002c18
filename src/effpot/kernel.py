"""Momentum-dependent smoothed potential via the full smoothing kernel.

The kernel combines a Gaussian damping factor with a sinh(x)/x momentum
factor. Its action on a classical potential is evaluated here exactly (up to
quadrature tolerance) as a single damped Fourier integral over wavenumber,
using the potential's form factor:

    V_eff(q, p) = (1/pi) * Int_0^inf sinhc(beta hbar p k / (2m))
                  * exp(-beta hbar^2 k^2 / (8m)) * Re[e^{ikq} F(k)] dk

with F(k) the exact form factor of the deviation from the asymptotic level,
which is added back afterwards. This evaluator is the ground truth against
which the momentum-quadratic reduced model is validated; the dynamics never
use it.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .physical import PhysicalParams
from .potential import ClassicalPotential, asymptotic_level, form_factor
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate_damped_fourier


def sinhc(x: float) -> float:
    """sinh(x)/x, even in x, with a Taylor branch near zero.

    For |x| <= 1e-4 the polynomial 1 + x^2/6 + x^4/120 is exact to double
    precision. Above 350 the symmetric exponential is dropped (relative error
    below e^{-700}) to avoid overflow in sinh.
    """
    ax = abs(x)
    if ax <= 1e-4:
        x2 = x * x
        return 1.0 + x2 / 6.0 + x2 * x2 / 120.0
    if ax > 350.0:
        try:
            return math.exp(ax) / (2.0 * ax)
        except OverflowError:
            return math.inf
    return math.sinh(ax) / ax


def effective_potential(
    params: PhysicalParams,
    pot: ClassicalPotential,
    q: float,
    p: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Momentum-dependent smoothed potential V_eff(q, p).

    Even in p. At p = 0 it reduces to the plain Gaussian-smoothed potential.
    Requires hbar > 0; the classical limit is the bare potential and callers
    take it directly.
    """
    if params.hbar <= 0:
        raise DomainError("effective_potential needs hbar > 0; use eval_classical at hbar = 0")
    m, beta, hbar = params.m, params.beta, params.hbar
    damp_coeff = beta * hbar * hbar / (8.0 * m)
    momentum_coeff = beta * hbar * abs(p) / (2.0 * m)
    scale = math.sqrt(4.0 * m / (beta * hbar * hbar))

    def integrand(k: float) -> float:
        ff = form_factor(pot, k)
        kq = k * q
        real_part = math.cos(kq) * ff.real - math.sin(kq) * ff.imag
        return sinhc(momentum_coeff * k) * math.exp(-damp_coeff * k * k) * real_part

    base = asymptotic_level(pot)
    return base + integrate_damped_fourier(integrand, scale, momentum_coeff, cfg) / math.pi
