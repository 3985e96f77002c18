"""Reduced transport model: smoothed potential, position-dependent mass,
energy-dependent reduced potential and the tunneling threshold.

The reduction replaces the momentum-dependent smoothing by two space-only
profiles, a Gaussian-smoothed potential V(q) with width
sigma = sqrt(beta hbar^2 / (4 m)) and an inverse mass

    1/M(q) = 1/m - (beta^2 hbar^2 / (12 m^2)) V''(q),

where V'' is the second derivative of the smoothed potential. Every
potential is constant or linear between breakpoints (potential.Shape), and
the Gaussian smoothing of such a segment is a few error-function and
Gaussian terms, so V, V', 1/M and (1/M)' are closed-form sums over the
segments (``Profile``), for one position or a whole array of them. The model
is only meaningful while M(q) stays positive, which is checked on a dense
grid at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import erf

from .errors import DomainError, NonPositiveMass
from .physical import PhysicalParams
from .potential import (
    ClassicalPotential,
    Shape,
    SquareBarrier,
    classical_max,
    eval_classical,
    support_interval,
)

SCAN_POINTS = 2001


class Profile:
    """V, V', 1/M and (1/M)' as closed-form sums over a potential's segments.

    A constant segment of height h on (a, b) contributes
    V = h/2 (erf(c (q - a)) + erf(c (b - q))) with c = 1/(sqrt(2) sigma) and
    1/M - 1/m = h/(3 hbar) sqrt(2 beta/(pi m)) ((b - q) e_b + (q - a) e_a)
    with e_x = exp(-w (q - x)^2), w = 2m/(beta hbar^2); a linear segment adds
    the smoothing of its ramp. Positions are measured from ``origin``: the
    thin-wall integrator works in coordinates local to a wall, where the
    segment ends at that wall are exactly 0.
    """

    def __init__(self, params: PhysicalParams, shape: Shape, origin: float = 0.0):
        m, beta, hbar = params.m, params.beta, params.hbar
        sigma = math.sqrt(beta / (4.0 * m)) * hbar
        mass_root = math.sqrt(2.0 * beta / (math.pi * m))
        self.level = shape.level
        self.inv_m = 1.0 / m
        self.c = math.sqrt(2.0 * m) / (math.sqrt(beta) * hbar)
        self.w = 2.0 * m / (beta * hbar * hbar)
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
                # same operation order as the square barrier's closed forms in
                # the reference figures, so those keep every bit
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


@dataclass(frozen=True)
class LowMomentumModel:
    """Evaluator bundle for one (parameters, potential) pair.

    Construction verifies mass positivity on the evaluation domain and fails
    with NonPositiveMass otherwise, so downstream code can assume M(q) > 0.
    At hbar = 0 there is no smoothing and profile is None.
    """

    params: PhysicalParams
    pot: ClassicalPotential
    smoothing_sigma: float = 0.0
    profile: Optional[Profile] = field(default=None, init=False, repr=False, compare=False)
    _threshold: Optional[float] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        sigma = math.sqrt(self.params.beta / (4.0 * self.params.m)) * self.params.hbar
        object.__setattr__(self, "smoothing_sigma", sigma)
        if self.params.hbar > 0:
            profile = Profile(self.params, self.pot.shape)
            object.__setattr__(self, "profile", profile)
            qs = np.linspace(*evaluation_domain(self), SCAN_POINTS)
            inv_mass = profile.on(qs)[2]
            bad = np.flatnonzero(inv_mass <= 0)
            if bad.size:
                raise NonPositiveMass(
                    f"inverse mass {inv_mass[bad[0]]:.4g} at q = {qs[bad[0]]:.4g}; "
                    "the reduced model is invalid at these parameters"
                )


def evaluation_domain(model: LowMomentumModel):
    """Interval on which profiles are scanned; beyond it everything is
    within Gaussian-tail distance of its asymptotic value."""
    a, b = support_interval(model.pot)
    width = b - a
    pad = width + 6.0 * model.smoothing_sigma
    return a - pad, b + pad


def smoothed_potential(model: LowMomentumModel, q: float) -> float:
    """Gaussian-smoothed potential V(q); the bare potential when hbar = 0."""
    if model.profile is None:
        return eval_classical(model.pot, q)
    return model.profile.at(q)[0]


def smoothed_gradient(model: LowMomentumModel, q: float) -> float:
    """dV/dq of the smoothed potential."""
    if model.profile is None:
        raise DomainError("the bare potential is discontinuous; no gradient at hbar = 0")
    return model.profile.at(q)[1]


def inverse_mass(model: LowMomentumModel, q: float) -> float:
    """1/M(q). Raises NonPositiveMass when the reduced model breaks down."""
    val = 1.0 / model.params.m if model.profile is None else model.profile.at(q)[2]
    if val <= 0:
        raise NonPositiveMass(f"inverse mass {val:.4g} at q = {q:.4g}")
    return val


def mass(model: LowMomentumModel, q: float) -> float:
    """Position-dependent mass M(q) > 0."""
    return 1.0 / inverse_mass(model, q)


def inverse_mass_gradient(model: LowMomentumModel, q: float) -> float:
    """d(1/M)/dq; zero at hbar = 0."""
    if model.profile is None:
        return 0.0
    return model.profile.at(q)[3]


def vq_potential(model: LowMomentumModel, q: float, eps: float) -> float:
    """Reduced potential for Newtonian motion at conserved energy eps:
    (m/M(q)) (V(q) - eps) + eps. Equals the bare potential when hbar = 0."""
    m_inv = inverse_mass(model, q)
    v = smoothed_potential(model, q)
    return model.params.m * m_inv * (v - eps) + eps


def _refine_max(f, qs: np.ndarray, vals: np.ndarray):
    """Grid argmax refined by golden-section search on f; returns (argmax, max)."""
    n = qs.size
    i = int(vals.argmax())
    if i == 0 or i == n - 1:
        return float(qs[i]), float(vals[i])
    try:
        res = minimize_scalar(
            lambda x: -f(float(x)),
            bracket=(float(qs[i - 1]), float(qs[i]), float(qs[i + 1])),
            method="golden",
            options={"xtol": 1e-12},
        )
        if -res.fun >= vals[i]:
            return float(res.x), float(-res.fun)
    except ValueError:
        pass  # degenerate bracket (flat top); fall back to the grid point
    return float(qs[i]), float(vals[i])


class VqMax(NamedTuple):
    value: float        # closed-form barrier top of the reduced potential
    numeric_max: float  # grid plus golden-section maximum
    argmax: float       # location of the numeric maximum
    displaced: bool     # True when the maximum left the barrier center


def vq_max_square(model: LowMomentumModel, eps: float) -> VqMax:
    """Maximum of the reduced potential for a square barrier.

    The closed form evaluates the reduced potential at the barrier center.
    A numerical maximization runs alongside; the displaced flag trips when
    its argmax leaves the center by more than the scan resolution, which is
    the regime where the closed form stops being the true maximum.
    """
    pot = model.pot
    if not isinstance(pot, SquareBarrier):
        raise DomainError("closed-form barrier maximum applies to square barriers only")
    params = model.params
    if params.hbar == 0:
        return VqMax(value=pot.v0, numeric_max=pot.v0, argmax=0.0, displaced=False)
    value = vq_potential(model, 0.0, eps)
    lo, hi = evaluation_domain(model)
    qs = np.linspace(lo, hi, SCAN_POINTS)
    v, _, m_inv, _ = model.profile.on(qs)
    argmax, numeric_max = _refine_max(
        lambda q: vq_potential(model, q, eps), qs, params.m * m_inv * (v - eps) + eps
    )
    resolution = (hi - lo) / (SCAN_POINTS - 1)
    return VqMax(value=value, numeric_max=numeric_max, argmax=argmax, displaced=abs(argmax) > resolution)


def tunneling_threshold(model: LowMomentumModel) -> float:
    """Smallest energy at which the reduced barrier no longer reflects.

    An energy eps clears the reduced potential everywhere exactly when it
    clears the smoothed potential everywhere (the mass factor scales the
    difference V - eps without changing its sign), so the threshold is the
    maximum of the smoothed potential. For the square barrier that is
    v0 erf(sqrt(2m) l / (sqrt(beta) hbar)); hbar = 0 gives back the bare
    barrier height. Computed on the first call and kept on the model.
    """
    if model._threshold is None:
        object.__setattr__(model, "_threshold", _find_threshold(model))
    return model._threshold


def _find_threshold(model: LowMomentumModel) -> float:
    params, pot = model.params, model.pot
    if params.hbar == 0:
        return classical_max(pot)
    if isinstance(pot, SquareBarrier):
        return pot.v0 * erf(math.sqrt(2.0 * params.m) * pot.l / (math.sqrt(params.beta) * params.hbar))
    qs = np.linspace(*evaluation_domain(model), SCAN_POINTS)
    _, peak = _refine_max(lambda q: smoothed_potential(model, q), qs, model.profile.on(qs)[0])
    return peak
