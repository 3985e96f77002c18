"""Quadrature oracle for the smoothed profiles: an independent route to V, V',
1/M and (1/M)' that convolves the bare potential with the Gaussian kernel and
its derivatives, segment by segment, with adaptive quadrature.

The package evaluates the same profiles in closed form; this module only
serves the tests that compare the two.
"""

import math

from scipy.integrate import quad

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
    shape = pot.shape
    lo, hi = max(shape.x[0], q - TAILS * sigma), min(shape.x[-1], q + TAILS * sigma)
    if lo >= hi:
        return 0.0
    cuts = sorted({lo, hi, *(x for x in (*shape.x, q) if lo < x < hi)})
    # the quadrature nodes are interior points, so the bare value is never
    # read at a jump
    return sum(
        quad(lambda x: kernel(q - x) * (eval_classical(pot, x) - shape.level),
             a, b, epsabs=1e-12, epsrel=1e-11, limit=200)[0]
        for a, b in zip(cuts[:-1], cuts[1:])
    )


def reference_profiles(params, pot, q):
    """(V, V', 1/M, (1/M)') at q by quadrature; needs hbar > 0."""
    sigma = math.sqrt(params.beta / (4.0 * params.m)) * params.hbar
    curvature = params.beta**2 * params.hbar**2 / (12.0 * params.m**2)
    v, vp, vpp, vppp = (_convolve(pot, q, k, sigma) for k in _kernels(sigma))
    return (
        pot.shape.level + v,
        vp,
        1.0 / params.m - curvature * vpp,
        -curvature * vppp,
    )
