"""Momentum-dependent smoothed potential V_eff(q, p) in closed form.

The kernel combines a Gaussian damping factor with a sinh(x)/x momentum
factor. Its action on a classical potential is the damped Fourier integral

    V_eff(q, p) = V_inf + (1/pi) * Int_0^inf sinhc(a k) * exp(-k^2 / (4 c^2))
                  * Re[e^{ikq} F(k)] dk,      a = beta hbar |p| / (2m),

with F(k) the form factor of the deviation from the asymptotic level V_inf
and c = sqrt(2m) / (sqrt(beta) hbar) the constant of lowmomentum.Profile.
Since sinhc(a k) = (1/2a) Int_{-a}^{a} e^{sk} ds, the integral is the
Gaussian-smoothed deviation averaged over the complex positions q + is,
|s| <= a, so V_eff(q, p) = V_inf + Im A(q + i a) / a, with A the
antiderivative of the smoothed deviation that is real on the real axis. A
breakpoint x where the bare potential jumps by J and its slope by K adds
J E0(u) / (2c) + K E2(u) / (2c^2) to A, at u = c (q - x + i a), with
E0' = erf and E2' = E0. Taken at v = c (|q - x| + i a), in the right half
plane, these split into a bare piece and a correction:

    E0(v) = v + ie(v),                ie(v) = e^{-v^2} / sqrt(pi) - v erfc v,
    2 E2(v) = v^2 + 1/2 + v ie(v) - erfc(v) / 2.

The bare pieces give J sgn(q - x) / 2 + K |q - x| / 2, which summed with
V_inf are the bare potential (``eval_classical``, midpoint at a jump), so

    V_eff(q, p) = eval_classical(q) + sum_x [J sgn(q - x) Im ie(v) / (2c)
                  + K Im(v ie(v) - erfc(v) / 2) / (4 c^2)] / a.

Each correction falls off like e^{-v^2}, so far from the corners V_eff keeps
relative digits, and a corner whose Gaussian underflows to 0 adds exactly 0
and is skipped. erfc is this module's own ``_erfc`` on one complex number
with Re v >= 0 (Python floats and cmath, no numpy): Weideman's rational
approximation of the Faddeeva function w, with a Taylor series near 0. At
p = 0 V_eff is the limit A'(q), the smoothed potential V(q), and is taken
from lowmomentum.Profile itself, built once per (parameters, shape).

Within |q - x| < a of a corner its correction grows, up to
e^{(c a)^2} = e^{beta p^2 / 2m}, while V_eff does not, so the result loses up
to that factor in relative precision, as the Fourier integral does; beyond
beta p^2 / 2m of about 700 the Gaussian overflows and the call fails with
DomainError. The Fourier integral itself is kept here, with the
exact form factor of a shape, as ``_fourier_veff``: an independent oracle
for the built-in checks and the tests. The dynamics never use either route.
"""

from __future__ import annotations

import cmath
import functools
import math

from .errors import DomainError
from .lowmomentum import Profile
from .physical import PhysicalParams
from .potential import Shape, eval_classical

INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
TAIL_SIGMAS = 8.0  # Fourier-oracle truncation, in damping scales past the peak
# below this |k| times the segment half-width, the odd part of a linear
# segment's transform is summed as a series (the closed form cancels)
FILON_SERIES_BELOW = 0.25

# Weideman's rational approximation of the Faddeeva function
# w(z) = e^{-z^2} erfc(-iz) for Im z >= 0 (J. A. C. Weideman, SIAM J. Numer.
# Anal. 31 (1994) 1497), with N = 36 terms:
#     w(z) = 2 P(Z) / (L - iz)^2 + 1 / (sqrt(pi) (L - iz)),
#     Z = (L + iz) / (L - iz),  L = sqrt(N / sqrt(2)),
# and P the polynomial below, lowest power first. Its coefficients are the
# discrete Fourier coefficients of e^{-t^2} (L^2 + t^2) at t = L tan(theta/2),
# computed with numpy.fft and frozen here, so that the kernel needs no numpy;
# tests/test_kernel.py recomputes them.
WEIDEMAN_L = 5.045378491522287
WEIDEMAN = (
    2.74074502740986, 2.445378492851921, 2.0193976436113505, 1.5401625788153652, 1.0813580371765887,
    0.6956621918971001, 0.4073424189503341, 0.21501636320107395, 0.1008429337184795, 0.04105104301657689,
    0.013898253763251402, 0.0035484447086996693, 0.00046290316939988515, -0.00011396630644459431,
    -8.817797141849295e-05, -2.1741186565494455e-05, 1.4187058479301548e-06, 2.7654086656395635e-06,
    6.74165566301324e-07, -1.2894842925868314e-07, -1.1303157198683394e-07, -1.0962277926127363e-08,
    1.1883887210243599e-08, 3.773443075419046e-09, -9.092238093041557e-10, -6.63484656720661e-10,
    3.197210398816971e-11, 9.939327348449196e-11, 6.346276609370552e-12, -1.4312585141524958e-11,
    -2.117034533577603e-12, 2.0979473041617125e-12, 4.4298493789069534e-13, -3.240267634165634e-13,
    -8.061168438014101e-14, 5.353549393917313e-14,
)
# erf u = u S(u^2) with S(z) = (2/sqrt(pi)) sum_n (-z)^n / (n! (2n + 1)); for
# |u| < 1, 18 terms reach double precision in half the work of Weideman's
ERF_TAYLOR = tuple(2.0 / math.sqrt(math.pi) * ((-1) ** n / (math.factorial(n) * (2 * n + 1)))
                   for n in range(18))


# With 1/(L - iz) = (1 + Z)/(2L), w is one polynomial in Z of degree N + 1,
# R(Z) = (1 + Z) (P(Z) (1 + Z)/(2L^2) + 1/(2L sqrt(pi))), and at z = iu,
# Z = (L - u)/(L + u). R and S are kept highest power first, for Horner.
_PADDED = (0.0, 0.0, *WEIDEMAN, 0.0, 0.0)
_R = [(a + 2.0 * b + c) / (2.0 * WEIDEMAN_L ** 2) for a, b, c in zip(_PADDED, _PADDED[1:], _PADDED[2:])]
_R[:2] = (r + 0.5 / (WEIDEMAN_L * math.sqrt(math.pi)) for r in _R[:2])
_R_HORNER, _S_HORNER = tuple(reversed(_R)), ERF_TAYLOR[::-1]


def _erfc(v: complex, gauss: complex) -> complex:
    """erfc v for one complex v with Re v >= 0, given gauss = e^{-v^2}.

    erfc v = e^{-v^2} w(iv) with Weideman's w (iv is in the upper half
    plane); for |v| < 1 it is 1 - v S(v^2) with the Taylor series S.
    Conjugate-symmetric up to the sign of a zero imaginary part.
    """
    small = abs(v) < 1.0
    z = v * v if small else (WEIDEMAN_L - v) / (WEIDEMAN_L + v)
    series = 0j
    for coeff in _S_HORNER if small else _R_HORNER:
        series = series * z + coeff
    return 1.0 - v * series if small else gauss * series


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


def effective_potential(params: PhysicalParams, pot: Shape, q, p) -> float:
    """Momentum-dependent smoothed potential V_eff(q, p) at one point.

    q and p are real scalars (numpy scalars too, through float). Even in p.
    At p = 0 it is the smoothed potential V(q) of lowmomentum.Profile,
    bitwise. Requires hbar > 0; the classical limit is the bare potential
    and callers take it directly. A result that leaves floating range raises
    DomainError.
    """
    if params.hbar <= 0:
        raise DomainError("effective_potential needs hbar > 0; use eval_classical at hbar = 0")
    q = float(q)
    a = abs(float(p)) * (params.beta * params.hbar / (2.0 * params.m))
    c, corners, profile = _prepared(params, pot)
    if a == 0.0:
        value = profile.v_at(q)
    else:
        try:
            value = eval_classical(pot, q) + _corrections(c, corners, q, a)
        except (OverflowError, ValueError):  # cmath refuses results past floating range
            value = math.nan
    if not math.isfinite(value):
        raise DomainError(f"V_eff at hbar = {params.hbar:g} leaves floating range for these (q, p)")
    return value


@functools.lru_cache(maxsize=8)
def _prepared(params: PhysicalParams, shape: Shape) -> tuple:
    """The p = 0 profile's c, each breakpoint that jumps or bends as (x,
    w0 = J/(2c), w2/2 = K/(4c^2)) (the others add nothing) and the profile."""
    profile = Profile(params, shape)
    c = profile.c
    corners = tuple((x, jump * (0.5 / c), kink * (0.25 / (c * c)))
                    for x, jump, kink in zip(*shape.corners) if jump != 0.0 or kink != 0.0)
    return c, corners, profile


def _corrections(c: float, corners: tuple, q: float, a: float) -> float:
    """V_eff - eval_classical(q) at a > 0, for _prepared's corners: the sum
    of the module docstring. A corner whose Gaussian e^{-v^2} underflows to
    0 adds exactly 0 (erfc v and ie(v) are 0 there) and is skipped before
    its series."""
    total = 0.0
    for x, w0, half_w2 in corners:
        d = q - x
        v = complex(abs(d) * c, a * c)
        gauss = cmath.exp(-(v * v))
        if not gauss:
            continue
        erfc = _erfc(v, gauss)
        ie = gauss * INV_SQRT_PI - v * erfc
        term = w0 * ((d > 0.0) - (d < 0.0)) * ie.imag
        if half_w2:
            term += half_w2 * (v * ie - 0.5 * erfc).imag
        total += term
    return total / a


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


def _fourier_veff(params: PhysicalParams, pot: Shape, q: float, p: float) -> float:
    """V_eff(q, p) as the damped Fourier integral over the form factor, to
    quadrature tolerance: the independent oracle of effective_potential.

    The integrand behaves like exp(-k^2 / (2 s^2) + a k) times slowly
    varying factors, with the damping scale s = sqrt(2) c. Its exponent
    peaks at k* = a s^2, so it is cut at k* + TAIL_SIGMAS s, which leaves
    only Gaussian tail mass (< 1e-15 of the total). There the integrand
    reaches about e^{beta p^2 / 2m} while the integral need not, so its
    roundoff floor grows by that factor, and so does the absolute
    tolerance (unchanged at p = 0)."""
    from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate_adaptive

    if params.hbar <= 0:
        raise DomainError("effective_potential needs hbar > 0; use eval_classical at hbar = 0")
    m, beta, hbar = params.m, params.beta, params.hbar
    damp_coeff = beta * hbar * hbar / (8.0 * m)
    momentum_coeff = beta * hbar * abs(p) / (2.0 * m)
    scale = math.sqrt(4.0 * m / (beta * hbar * hbar))

    def integrand(k: float) -> float:
        ff = _form_factor(pot, k)
        kq = k * q
        real_part = math.cos(kq) * ff.real - math.sin(kq) * ff.imag
        return sinhc(momentum_coeff * k) * math.exp(-damp_coeff * k * k) * real_part

    k_max = momentum_coeff * scale**2 + TAIL_SIGMAS * scale
    # capped below overflow: past beta p^2 / 2m of about 355 the integrand
    # itself overflows, which the quadrature reports as NonConvergence
    growth = math.exp(min(beta * p * p / (2.0 * m), 700.0))
    cfg = QuadratureConfig(abs_tol=DEFAULT_CONFIG.abs_tol * growth)
    return pot.level + integrate_adaptive(integrand, 0.0, k_max, cfg) / math.pi
