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
grid at construction; the same scan gives the tunneling threshold.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
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
EVENT_TOL = 4.0 * sys.float_info.epsilon  # root tolerance of _brent, absolute and relative


class Profile:
    """V, V', 1/M and (1/M)' as closed-form sums over a potential's segments.

    A constant segment of height h on (a, b) contributes
    V = h/2 (erf(c (q - a)) + erf(c (b - q))) with c = 1/(sqrt(2) sigma) and
    1/M - 1/m = h/(3 hbar) sqrt(2 beta/(pi m)) ((b - q) e_b + (q - a) e_a)
    with e_x = exp(-w (q - x)^2), w = 2m/(beta hbar^2); a linear segment adds
    the smoothing of its ramp. Positions are measured from ``origin``: the
    trajectory integrator works in coordinates local to each force zone,
    where the segment ends at a lone wall are exactly 0.
    """

    def __init__(self, params: PhysicalParams, shape: Shape, origin: float = 0.0):
        m, beta, hbar = params.m, params.beta, params.hbar
        sigma = math.sqrt(beta / (4.0 * m)) * hbar
        beta_hbar2 = beta * hbar * hbar
        if not (sigma > 0 and beta_hbar2 > 0 and 2.0 * m / beta_hbar2 < math.inf):
            raise DomainError(f"hbar = {hbar:g} is too small for finite smoothing constants")
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
    with NonPositiveMass otherwise, so downstream code can assume M(q) > 0;
    profiles that are not finite there fail with DomainError.
    The same scan locates the tunneling threshold. At hbar = 0 there is no
    smoothing and profile is None.
    """

    params: PhysicalParams
    pot: ClassicalPotential
    smoothing_sigma: float = field(init=False)
    profile: Optional[Profile] = field(default=None, init=False, repr=False, compare=False)
    _top: float = field(default=0.0, init=False, repr=False, compare=False)

    def __post_init__(self):
        sigma = math.sqrt(self.params.beta / (4.0 * self.params.m)) * self.params.hbar
        object.__setattr__(self, "smoothing_sigma", sigma)
        if self.params.hbar == 0:
            object.__setattr__(self, "_top", classical_max(self.pot))
            return
        profile = Profile(self.params, self.pot.shape)
        object.__setattr__(self, "profile", profile)
        qs = np.linspace(*evaluation_domain(self), SCAN_POINTS)
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            v, vp, inv_mass, inv_mass_p = profile.on(qs)
        if not np.isfinite((v, vp, inv_mass, inv_mass_p)).all():
            raise DomainError(f"the profiles at hbar = {self.params.hbar:g} leave floating range")
        bad = np.flatnonzero(~(inv_mass > 0))
        if bad.size:
            raise NonPositiveMass(
                f"inverse mass {inv_mass[bad[0]]:.4g} at q = {qs[bad[0]]:.4g}; "
                "the reduced model is invalid at these parameters"
            )
        _, top = _peak(lambda q: profile.at(q)[0], lambda q: profile.at(q)[1], qs, v)
        object.__setattr__(self, "_top", top)


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


def inverse_mass(model: LowMomentumModel, q: float) -> float:
    """1/M(q). Raises NonPositiveMass when the reduced model breaks down."""
    val = 1.0 / model.params.m if model.profile is None else model.profile.at(q)[2]
    if val <= 0:
        raise NonPositiveMass(f"inverse mass {val:.4g} at q = {q:.4g}")
    return val


def mass(model: LowMomentumModel, q: float) -> float:
    """Position-dependent mass M(q) > 0."""
    return 1.0 / inverse_mass(model, q)


def vq_potential(model: LowMomentumModel, q: float, eps: float) -> float:
    """Reduced potential for Newtonian motion at conserved energy eps:
    (m/M(q)) (V(q) - eps) + eps. Equals the bare potential when hbar = 0."""
    m_inv = inverse_mass(model, q)
    v = smoothed_potential(model, q)
    return model.params.m * m_inv * (v - eps) + eps


def _brent(f, xa: float, xb: float) -> float:
    """Root of f on [xa, xb] to EVENT_TOL by Brent's method, step for step as
    scipy's brentq. When f has one sign at both ends, xb is returned: for a
    zone exit, the crossing detected at the step end lies within roundoff of
    it, and a peak search keeps its grid point unless xb is higher."""
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0 or (fpre < 0.0) == (fcur < 0.0):
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (EVENT_TOL + EVENT_TOL * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = f(xcur)
    return xcur


def _peak(value, slope, qs: np.ndarray, vals: np.ndarray):
    """Grid argmax of vals on qs, refined at the root of the closed slope in
    the cell around it; the grid point is kept when it is higher. Returns
    (argmax, max)."""
    i = int(vals.argmax())
    if 0 < i < qs.size - 1:
        q = _brent(slope, float(qs[i - 1]), float(qs[i + 1]))
        top = value(q)
        if top >= vals[i]:
            return q, top
    return float(qs[i]), float(vals[i])


class VqMax(NamedTuple):
    value: float        # closed-form barrier top of the reduced potential
    numeric_max: float  # grid maximum refined at the root of the slope
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
    m, at = params.m, model.profile.at

    def slope(q):
        # VQ' = m (V' Minv + (V - eps) Minv')
        v, vp, minv, minvp = at(q)
        return m * (vp * minv + (v - eps) * minvp)

    argmax, numeric_max = _peak(
        lambda q: vq_potential(model, q, eps), slope, qs, m * m_inv * (v - eps) + eps
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
    barrier height. Found at construction from the model's profile scan.
    """
    return model._top
