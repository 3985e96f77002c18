"""Momentum-dependent smoothed potential V_eff(q, p) in closed form.

The kernel combines a Gaussian damping factor with a sinh(x)/x momentum
factor. Its action on a classical potential is the damped Fourier integral

    V_eff(q, p) = V_inf + (1/pi) * Int_0^inf sinhc(a k) * exp(-k^2 / (4 c^2))
                  * Re[e^{ikq} F(k)] dk,      a = beta hbar |p| / (2m),

with F(k) the form factor of the deviation from the asymptotic level V_inf
and c = sqrt(2m) / (sqrt(beta) hbar) the constant of lowmomentum.Profile.
Since sinhc(a k) = (1/2a) Int_{-a}^{a} e^{sk} ds, the integral is the
Gaussian-smoothed deviation averaged over the complex positions q + is,
|s| <= a, so

    V_eff(q, p) = V_inf + Im A(q + i a) / a

with A the antiderivative of the smoothed deviation that is real on the
real axis. A breakpoint x where the bare potential jumps by J and its slope
by K adds J E0(u) / (2c) + K E2(u) / (2c^2) to A, at u = c (q - x + i a), where

    E0(u) = u erf u + e^{-u^2} / sqrt(pi)               (E0' = erf),
    E2(u) = (u^2/2 + 1/4) erf u + u e^{-u^2} / (2 sqrt(pi))
          = u E0(u) / 2 + erf(u) / 4                        (E2' = E0).

The complex erf and the Gaussian are evaluated once per breakpoint. At
p = 0 V_eff is the limit A'(q), the smoothed potential V(q) of Profile.

The terms grow like e^{(c a)^2} = e^{beta p^2 / 2m} while their sum does
not, so the result loses that factor in relative precision, as the Fourier
integral does; beyond beta p^2 / 2m of about 700 they overflow and the call
fails with DomainError. The Fourier integral itself is kept as
``_fourier_veff``, an independent oracle for the built-in checks and the
tests; the dynamics never use either route.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from .errors import DomainError
from .physical import PhysicalParams
from .potential import ClassicalPotential, asymptotic_level, form_factor
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate_damped_fourier

INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
CHUNK = 1 << 16  # (position, breakpoint) pairs evaluated at once


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


def effective_potential(params: PhysicalParams, pot: ClassicalPotential, q, p):
    """Momentum-dependent smoothed potential V_eff(q, p).

    Broadcasts over arrays of q and p; a call on two scalars returns a float.
    Even in p. At p = 0 it is the smoothed potential V(q) of
    lowmomentum.Profile, to roundoff. Requires hbar > 0; the classical limit
    is the bare potential and callers take it directly. A result that leaves
    floating range raises DomainError.
    """
    if params.hbar <= 0:
        raise DomainError("effective_potential needs hbar > 0; use eval_classical at hbar = 0")
    m, beta, hbar = params.m, params.beta, params.hbar
    c = math.sqrt(2.0 * m) / (math.sqrt(beta) * hbar)
    q, a = np.broadcast_arrays(np.asarray(q, dtype=float),
                               beta * hbar / (2.0 * m) * np.abs(np.asarray(p, dtype=float)))
    with np.errstate(all="ignore"):  # a non-finite result is refused just below
        out = pot.shape.level + _deviation(pot.shape.corners, c, q.ravel(), a.ravel()).reshape(q.shape)
    if not np.isfinite(out).all():
        raise DomainError(f"V_eff at hbar = {hbar:g} leaves floating range for these (q, p)")
    return float(out) if out.ndim == 0 else out


def _deviation(corners: np.ndarray, c: float, q: np.ndarray, a: np.ndarray) -> np.ndarray:
    """V_eff - V_inf at the positions q and half-widths a >= 0 (1-D arrays):
    Im A(q + i a) / a, or its limit A'(q) at a = 0, in chunks of at most
    CHUNK (position, breakpoint) pairs."""
    x, jump, kink = corners
    w0, w2 = jump * (0.5 / c), kink * (0.5 / (c * c))
    step = max(1, CHUNK // x.size)
    out = np.empty(q.size)
    for i in range(0, q.size, step):
        ai = a[i:i + step]
        u = c * ((q[i:i + step, None] - x) + 1j * ai[:, None])
        e = erf(u)
        e0 = u * e + np.exp(-u * u) * INV_SQRT_PI
        moving = (w0 * e0 + w2 * (0.5 * u * e0 + 0.25 * e)).sum(axis=1).imag / ai
        still = (w0 * e + w2 * e0).sum(axis=1).real * c
        out[i:i + step] = np.where(ai > 0.0, moving, still)
    return out


def _fourier_veff(
    params: PhysicalParams,
    pot: ClassicalPotential,
    q: float,
    p: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """V_eff(q, p) as the damped Fourier integral over the form factor, to
    quadrature tolerance: the independent oracle of effective_potential."""
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
