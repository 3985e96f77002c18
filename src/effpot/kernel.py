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

The complex erf and the Gaussian are evaluated once per breakpoint that
jumps or bends; that erf is scipy.special's, imported on the first call at
p != 0, so nothing else in the package loads scipy. At p = 0 V_eff is the
limit A'(q), the smoothed potential V(q), and is taken from
lowmomentum.Profile itself, built once per (parameters, shape).

The terms grow like e^{(c a)^2} = e^{beta p^2 / 2m} while their sum does
not, so the result loses that factor in relative precision, as the Fourier
integral does; beyond beta p^2 / 2m of about 700 they overflow and the call
fails with DomainError. The Fourier integral itself is kept here, with the
exact form factor of a shape, as ``_fourier_veff``: an independent oracle
for the built-in checks and the tests. The dynamics never use either route.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError
from .lowmomentum import Profile
from .physical import PhysicalParams
from .potential import ClassicalPotential, Shape
from .quadrature import integrate_adaptive

INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
CHUNK = 1 << 16  # (position, breakpoint) pairs evaluated at once
TAIL_SIGMAS = 8.0  # Fourier-oracle truncation, in damping scales past the peak
# below this |k| times the segment half-width, the odd part of a linear
# segment's transform is summed as a series (the closed form cancels)
FILON_SERIES_BELOW = 0.25


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
    lowmomentum.Profile, evaluated there one position at a time, so array
    and scalar calls agree bitwise. Requires hbar > 0; the classical limit
    is the bare potential and callers take it directly. A result that leaves
    floating range raises DomainError.
    """
    if params.hbar <= 0:
        raise DomainError("effective_potential needs hbar > 0; use eval_classical at hbar = 0")
    m, beta, hbar = params.m, params.beta, params.hbar
    c = math.sqrt(2.0 * m) / (math.sqrt(beta) * hbar)
    q, a = np.broadcast_arrays(np.asarray(q, dtype=float),
                               beta * hbar / (2.0 * m) * np.abs(np.asarray(p, dtype=float)))
    dims = q.shape
    q, a = q.ravel(), a.ravel()
    still = a == 0.0
    out = np.empty(q.size)
    if not still.all():
        with np.errstate(all="ignore"):  # a non-finite result is refused just below
            out[~still] = pot.shape.level + _deviation(pot.shape.corners, c, q[~still], a[~still])
    if still.any():
        profile = _profile(params, pot.shape)
        out[still] = [profile.at(x)[0] for x in q[still].tolist()]
    if not np.isfinite(out).all():
        raise DomainError(f"V_eff at hbar = {hbar:g} leaves floating range for these (q, p)")
    return float(out[0]) if dims == () else out.reshape(dims)


@functools.lru_cache(maxsize=8)
def _profile(params: PhysicalParams, shape: Shape) -> Profile:
    """The p = 0 profile, built once per (parameters, shape)."""
    return Profile(params, shape)


def _deviation(corners: np.ndarray, c: float, q: np.ndarray, a: np.ndarray) -> np.ndarray:
    """V_eff - V_inf = Im A(q + i a) / a at the positions q and half-widths
    a > 0 (1-D arrays), in chunks of at most CHUNK (position, breakpoint)
    pairs. Breakpoints that neither jump nor bend add nothing and are
    skipped. scipy's complex erf is imported here, on first use, so that
    only V_eff at p != 0 loads scipy.special."""
    from scipy.special import erf

    x, jump, kink = corners[:, (corners[1] != 0.0) | (corners[2] != 0.0)]
    w0, w2 = jump * (0.5 / c), kink * (0.5 / (c * c))
    step = max(1, CHUNK // max(1, x.size))
    out = np.empty(q.size)
    for i in range(0, q.size, step):
        ai = a[i:i + step]
        u = c * ((q[i:i + step, None] - x) + 1j * ai[:, None])
        e = erf(u)
        e0 = u * e + np.exp(-u * u) * INV_SQRT_PI
        out[i:i + step] = (w0 * e0 + w2 * (0.5 * u * e0 + 0.25 * e)).sum(axis=1).imag / ai
    return out


def _form_factor(shape: Shape, k: float) -> complex:
    """Fourier transform of a shape's deviation from its asymptotic level.

    Returns the integral of (V(q') - V_inf) e^{-i k q'} dq', exactly: a
    segment with midpoint c, half-width d, mean deviation f and rise 2r
    contributes 2 d e^{-ikc} (f sin(kd)/(kd) - i r j1(kd)), where
    j1(z) = (sin z - z cos z)/z^2 is summed as a series for small kd (a
    Filon-type rule that is exact for linear segments). For the centered
    square barrier this is 2 v0 sin(k l)/k with small-k limit 2 v0 l;
    symmetric potentials give a real, even function of k.
    """
    re = im = 0.0
    level = shape.level
    for a, b, va, vb in zip(shape.x[:-1], shape.x[1:], shape.left, shape.right):
        if va == vb == level:
            continue
        half = 0.5 * (b - a)
        even, odd = (b - a) * (0.5 * (va + vb) - level), half * (vb - va)
        z = k * half
        if z != 0.0:
            even *= math.sin(z) / z
        if odd != 0.0:
            if abs(z) < FILON_SERIES_BELOW:
                z2 = z * z
                odd *= z * (1 / 3 - z2 * (1 / 30 - z2 * (1 / 840 - z2 * (1 / 45360 - z2 / 3991680))))
            else:
                odd *= (math.sin(z) - z * math.cos(z)) / (z * z)
        kc = k * (0.5 * (a + b))
        cos_p, sin_p = math.cos(kc), math.sin(kc)
        re += cos_p * even - sin_p * odd
        im -= sin_p * even + cos_p * odd
    return complex(re, im)


def _fourier_veff(params: PhysicalParams, pot: ClassicalPotential, q: float, p: float) -> float:
    """V_eff(q, p) as the damped Fourier integral over the form factor, to
    quadrature tolerance: the independent oracle of effective_potential.

    The integrand behaves like exp(-k^2 / (2 s^2) + a k) times slowly
    varying factors, with the damping scale s = sqrt(2) c. Its exponent
    peaks at k* = a s^2, so it is cut at k* + TAIL_SIGMAS s, which leaves
    only Gaussian tail mass (< 1e-15 of the total)."""
    if params.hbar <= 0:
        raise DomainError("effective_potential needs hbar > 0; use eval_classical at hbar = 0")
    m, beta, hbar = params.m, params.beta, params.hbar
    shape = pot.shape
    damp_coeff = beta * hbar * hbar / (8.0 * m)
    momentum_coeff = beta * hbar * abs(p) / (2.0 * m)
    scale = math.sqrt(4.0 * m / (beta * hbar * hbar))

    def integrand(k: float) -> float:
        ff = _form_factor(shape, k)
        kq = k * q
        real_part = math.cos(kq) * ff.real - math.sin(kq) * ff.imag
        return sinhc(momentum_coeff * k) * math.exp(-damp_coeff * k * k) * real_part

    k_max = momentum_coeff * scale**2 + TAIL_SIGMAS * scale
    return shape.level + integrate_adaptive(integrand, 0.0, k_max) / math.pi
