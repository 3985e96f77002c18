"""Oracles for the smoothed profiles V, V', 1/M and (1/M)'.

reference_profiles convolves the bare potential with the Gaussian kernel and
its derivatives, segment by segment, with adaptive quadrature. SegmentProfile
is the closed form summed per constant or linear segment, two error
functions and two Gaussians each. The package sums the same profiles over the
shape's corners; this module only serves the tests that compare the routes.
canonical_rhs_from_at and newtonian_rhs_from_at are the right-hand sides of
the two equations of motion built on Profile.at.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import erf

from effpot.potential import eval_classical

TAILS = 10.0  # kernel window half-width in smoothing widths


def _kernels(sigma):
    """Gaussian kernel g(s) and its first three derivatives in s."""
    s2 = sigma * sigma

    def g(s):
        return math.exp(-s * s / (2.0 * s2)) / (math.sqrt(2.0 * math.pi) * sigma)

    return (
        g,
        lambda s: -s / s2 * g(s),
        lambda s: (s * s - s2) / (s2 * s2) * g(s),
        lambda s: (3.0 * s * s2 - s * s * s) / (s2 * s2 * s2) * g(s),
    )


def _convolve(pot, q, kernel, sigma):
    """Integral of kernel(q - x) (V(x) - level) dx, split at every breakpoint
    and at the kernel's centre."""
    lo, hi = max(pot.x[0], q - TAILS * sigma), min(pot.x[-1], q + TAILS * sigma)
    if lo >= hi:
        return 0.0
    cuts = sorted({lo, hi, *(x for x in (*pot.x, q) if lo < x < hi)})
    # the quadrature nodes are interior points, so the bare value is never
    # read at a jump
    return sum(
        quad(lambda x: kernel(q - x) * (eval_classical(pot, x) - pot.level),
             a, b, epsabs=1e-12, epsrel=1e-11, limit=200)[0]
        for a, b in zip(cuts[:-1], cuts[1:])
    )


def reference_profiles(params, pot, q):
    """(V, V', 1/M, (1/M)') at q by quadrature; needs hbar > 0."""
    sigma = math.sqrt(params.beta / (4.0 * params.m)) * params.hbar
    curvature = params.beta**2 * params.hbar**2 / (12.0 * params.m**2)
    v, vp, vpp, vppp = (_convolve(pot, q, k, sigma) for k in _kernels(sigma))
    return (
        pot.level + v,
        vp,
        1.0 / params.m - curvature * vpp,
        -curvature * vppp,
    )


class SegmentProfile:
    """V, V', 1/M and (1/M)' as closed-form sums over a shape's segments: the
    segment form of effpot.lowmomentum.Profile, kept as its oracle.

    A constant segment of height h on (a, b) contributes
    V = h/2 (erf(c (q - a)) + erf(c (b - q))) with c = 1/(sqrt(2) sigma) and
    1/M - 1/m = h/(3 hbar) sqrt(2 beta/(pi m)) ((b - q) e_b + (q - a) e_a)
    with e_x = exp(-w (q - x)^2), w = 2m/(beta hbar^2); a linear segment adds
    the smoothing of its ramp. Positions are measured from ``origin``: the
    trajectory integrator works in coordinates local to each force zone,
    where the segment ends at a lone wall are exactly 0.
    """

    def __init__(self, params, shape, origin=0.0):
        m, beta, hbar = params.m, params.beta, params.hbar
        sigma = math.sqrt(beta / (4.0 * m)) * hbar
        beta_hbar2 = beta * hbar * hbar
        mass_root = math.sqrt(2.0 * beta / (math.pi * m))
        self.level = shape.level
        self.inv_m = 1.0 / m
        self.c = math.sqrt(2.0 * m) / (math.sqrt(beta) * hbar)
        self.w = 2.0 * m / beta_hbar2
        self.gauss = 1.0 / (math.sqrt(2.0 * math.pi) * sigma)
        self.mass_coeff = mass_root / (3.0 * hbar)
        self.constant, self.linear = [], []
        x = shape.x
        for a, b, va, vb in zip(x[:-1], x[1:], shape.left, shape.right):
            ha, hb = va - shape.level, vb - shape.level
            a, b = a - origin, b - origin
            if ha != hb:
                self.linear.append((a, b, ha, hb, (hb - ha) / (b - a)))
            elif ha != 0.0:
                self.constant.append((a, b, 0.5 * ha, self.gauss * ha, (ha / (3.0 * hbar)) * mass_root))

    def at(self, q: float):
        """(V, V', 1/M, (1/M)') at one position, on math scalars."""
        return self._sum(q, math.exp, math.erf, 0.0)

    def on(self, q: np.ndarray):
        """(V, V', 1/M, (1/M)') at every position of an array."""
        q = np.asarray(q, dtype=float)
        return self._sum(q, np.exp, erf, np.zeros_like(q))

    def _sum(self, q, exp, erf, zero):
        c, w = self.c, self.w
        v = vp = mi = mip = zero
        for a, b, half, grad, coeff in self.constant:
            lp, lm = q - a, b - q
            ea, eb = exp(-w * lp * lp), exp(-w * lm * lm)
            v = v + half * (erf(c * lp) + erf(c * lm))
            vp = vp + grad * (ea - eb)
            mi = mi + coeff * (lm * eb + lp * ea)
            mip = mip + coeff * (eb * (2.0 * w * lm * lm - 1.0) + ea * (1.0 - 2.0 * w * lp * lp))
        gauss, coeff, var = self.gauss, self.mass_coeff, 0.5 / w
        for a, b, ha, hb, slope in self.linear:
            lp, lm = q - a, b - q
            ea, eb = exp(-w * lp * lp), exp(-w * lm * lm)
            inside = 0.5 * (erf(c * lp) + erf(c * lm))
            v = v + (ha + slope * lp) * inside + slope * var * gauss * (ea - eb)
            vp = vp + gauss * (ha * ea - hb * eb) + slope * inside
            mi = mi + coeff * (ha * lp * ea + hb * lm * eb - slope * var * (ea - eb))
            mip = mip + coeff * (
                ha * ea * (1.0 - 2.0 * w * lp * lp)
                + hb * eb * (2.0 * w * lm * lm - 1.0)
                + slope * (lp * ea + lm * eb)
            )
        return self.level + v, vp, self.inv_m + mi, mip


def canonical_rhs_from_at(profile):
    """The canonical equations of motion read off ``Profile.at`` (V formed
    and dropped): the oracle of ``Profile.canonical_rhs``."""
    at = profile.at

    def rhs(q, p):
        _, vp, minv, minvp = at(q)
        return p * minv, -vp - 0.5 * minvp * p * p

    return rhs


def newtonian_rhs_from_at(profile, eps):
    """The Newtonian equations of motion at energy eps read off
    ``Profile.at``: the oracle of ``Profile.newtonian_rhs``."""
    at = profile.at

    # force/m with VQ' = m (V' Minv + (V - eps) Minv'); the two m's cancel
    def rhs(q, u):
        v, vp, minv, minvp = at(q)
        return u, -(vp * minv + (v - eps) * minvp)

    return rhs
