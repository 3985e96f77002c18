"""Adaptive quadrature over finite ranges.

Thin contracts over QUADPACK's adaptive Gauss-Kronrod scheme. The nodes of
that scheme are interior points, so integrands only defined by limit at an
endpoint are sampled strictly inside the interval and need no special casing.
Only the tolerances can be set; the subdivision budget is fixed.
scipy.integrate is imported on the first call, so the commands that never
integrate (model, trajectory, veff) start without it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import NonConvergence

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
