"""Adaptive quadrature used for the damped Fourier integrals and finite ranges.

Thin contracts over QUADPACK's adaptive Gauss-Kronrod scheme. The nodes of
that scheme are interior points, so integrands only defined by limit at an
endpoint are sampled strictly inside the interval and need no special casing.
Only the tolerances can be set; the tail length and the subdivision budget
are fixed. scipy.integrate is imported on the first call, so the commands
that never integrate (model, trajectory, veff) start without it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import NonConvergence

TAIL_SIGMAS = 8.0  # damped-Fourier truncation, in damping scales past the peak
MAX_SUBDIVISIONS = 60


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-14

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if not self.abs_tol > 0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")


DEFAULT_CONFIG = QuadratureConfig()


def __getattr__(name: str):
    # quad, resolved once on first use; integrate_adaptive reads it as a
    # module attribute, so a wrapper set in its place is called instead
    if name == "quad":
        from scipy.integrate import quad

        globals()["quad"] = quad
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def integrate_adaptive(f, a: float, b: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Integral of f over [a, b] to cfg tolerances.

    Raises NonConvergence (carrying the best value and the achieved error
    estimate) when the subdivision budget is exhausted or the estimate stays
    above tolerance.
    """
    out = sys.modules[__name__].quad(
        f,
        a,
        b,
        epsabs=cfg.abs_tol,
        epsrel=cfg.rel_tol,
        limit=MAX_SUBDIVISIONS,
        full_output=1,
    )
    if len(out) >= 4:
        value, estimate = out[0], out[1]
        # the scheme reports failure whenever the requested tolerance was not
        # met exactly, including near-misses where roundoff stops refinement;
        # accept those as long as the achieved estimate is within a small
        # factor of the request
        bound = 10.0 * max(cfg.abs_tol, cfg.rel_tol * abs(value))
        if not (math.isfinite(value) and estimate <= bound):
            raise NonConvergence(
                f"quadrature on [{a:g}, {b:g}] did not converge: {' '.join(out[3].split())} "
                f"(value {value:.6g}, error estimate {estimate:.3g})",
                value=value,
                estimate=estimate,
            )
    return out[0]


def integrate_damped_fourier(
    integrand,
    damping_scale: float,
    shift: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Integral over k in [0, k_max] of a Gaussian-damped Fourier-type integrand.

    The caller passes the full integrand, damping included; damping_scale and
    shift only size the truncation. The integrand is assumed to behave like
    exp(-k^2/(2 scale^2) + shift k) times slowly varying factors, whose
    exponent peaks at k* = shift scale^2, so
    k_max = shift scale^2 + TAIL_SIGMAS * scale leaves only Gaussian tail
    mass (< 1e-15 of the total). Even integrands over the whole line must be
    doubled by the caller.
    """
    if not damping_scale > 0:
        raise ValueError(f"damping_scale must be positive, got {damping_scale}")
    if shift < 0:
        raise ValueError(f"shift must be nonnegative, got {shift}")
    k_max = shift * damping_scale**2 + TAIL_SIGMAS * damping_scale
    return integrate_adaptive(integrand, 0.0, k_max, cfg)
