"""Reduced transport model: smoothed potential, position-dependent mass,
energy-dependent reduced potential and the tunneling threshold.

The reduction replaces the momentum-dependent smoothing by two space-only
profiles, a Gaussian-smoothed potential V(q) with width
sigma = sqrt(beta hbar^2 / (4 m)) and an inverse mass

    1/M(q) = 1/m - (beta^2 hbar^2 / (12 m^2)) V''(q),

where V'' is the second derivative of the smoothed potential. Every
potential is constant or linear between breakpoints, so it is fixed by its
corners (potential.Shape.corners): where it jumps by J and where its slope
changes by K. Smoothing turns each corner into one error function and one
Gaussian, so V, V', 1/M and (1/M)' are closed-form sums over the corners
(``Profile``), for one position or a whole array of them; the kinks' share
of V and V' is summed by parts, which keeps its digits far from the shape.
One scalar sum (``Profile.at``) forms V; the canonical right-hand side
repeats its V', 1/M and (1/M)' terms without V, the Newtonian one reads it.
One position is summed on ``math.erf``, an array on this module's own
``erf``, so numpy is all the module imports.
The model is only meaningful while M(q) stays positive, which is checked on
a dense grid at construction; the same scan gives the tunneling threshold.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, NonPositiveMass
from .physical import PhysicalParams
from .potential import (
    ClassicalPotential,
    Shape,
    classical_max,
    eval_classical,
    support_interval,
)

SCAN_POINTS = 2001
EVENT_TOL = 4.0 * sys.float_info.epsilon  # root tolerance of _brent, absolute and relative
CHUNK = 1 << 13  # (position, corner) pairs that Profile.on sums at once

# The array erf's two polynomials, after Cody's split (W. J. Cody, Math.
# Comp. 23 (1969) 631), highest power first. Both were fitted by least
# squares on Chebyshev nodes against 50-digit erf and erfc: ERF_SMALL is
# S(z) = erf(sqrt z)/sqrt z on 0 <= z <= 1/4, to 4e-18 relative, and
# ERF_LARGE is P(t) = e^{x^2} erfc(x) in t = (x - ERF_K)/(x + ERF_K) on
# 1/2 <= x <= 6, weighted by e^{-x^2}, so that erfc = e^{-x^2} P is within
# 4e-18 absolute.
ERF_SMALL = (
    1.4722699274400109e-06, -1.4845531998644718e-05, 0.00012053322205509779, -0.0008548297479645846,
    0.005223977369799816, -0.026866170632682117, 0.11283791670924707, -0.37612638903183465,
    1.1283791670955126,
)
ERF_LARGE = (
    6.206198118574459e-07, 2.1529552865960975e-06, -1.9891235110607323e-07, -1.4788112132941914e-05,
    -2.777227050028112e-05, 2.7544690168918966e-05, 0.00017438535130006807, 4.3560767160505115e-05,
    -0.0009819771047162888, -0.0008471434402614943, 0.006997461716778482, 0.0037328924051397597,
    -0.07897858101544974, 0.24165819424247595, -0.4271858474139589, 0.25539567631050575,
)
ERF_K = 2.0


def erf(x) -> np.ndarray:
    """erf on a float array, within 2 ulp of math.erf.

    x S(x^2) for |x| < 1/2, else sign(x) (1 - e^{-x^2} P(t)) with
    t = (|x| - ERF_K)/(|x| + ERF_K); |x| is capped at 6, where that form
    rounds to exactly 1 (erfc(6) is 2e-17). Odd bit for bit, and nan stays
    nan.
    """
    x = np.asarray(x, dtype=float)
    shape = x.shape
    x = x.ravel()
    a = np.abs(x)
    small = a < 0.5
    np.minimum(a, 6.0, out=a)
    t = a - ERF_K
    t /= a + ERF_K
    p = t * ERF_LARGE[0]
    p += ERF_LARGE[1]
    for coef in ERF_LARGE[2:]:
        p *= t
        p += coef
    np.multiply(a, a, out=a)
    np.negative(a, out=a)
    np.exp(a, out=a)
    a *= p
    out = np.subtract(1.0, a, out=a)
    np.copysign(out, x, out=out)
    xs = x[small]
    if xs.size:
        z = xs * xs
        s = ERF_SMALL[0] * z + ERF_SMALL[1]
        for coef in ERF_SMALL[2:]:
            s *= z
            s += coef
        out[small] = xs * s
    return out.reshape(shape)


class Profile:
    """V, V', 1/M and (1/M)' as closed-form sums over a shape's corners.

    A breakpoint x where the bare potential jumps by J adds one entry to
    ``jumps``, and one where its slope changes by K one entry to ``kinks``
    (``Shape.corners``); a breakpoint that does both adds one of each. Each
    entry adds terms in one e = erf(u) and one g = exp(-u^2), with
    u = c (q - x), c = 1/(sqrt(2) sigma) and k = c/sqrt(pi):

        jump: V += J e/2,    V' += J k g,   V'' += -2 c J k u g,
              V''' += J k c^2 (4 u^2 - 2) g;
        kink: V'' += K k g,  V''' += -2 K k c u g;

    and 1/M = 1/m - (beta^2 hbar^2 / (12 m^2)) V''. The kinks' share of V
    and V' is summed by parts along the continuous part of the shape (its
    jumps removed), which is linear between kinks: the line C + s (q - x)
    that ends at a kink weighs e_prev - e, the difference to the previous
    kink's erf, and the kink adds K g/(2 c sqrt(pi)); beyond the last kink
    the line is -sum J. The direct form K (u e + g/sqrt(pi))/(2c) grows like
    K |q - x|/2 and those terms cancel between kinks, which far from the
    shape costs digits the by-parts sum keeps.

    Positions are measured from ``origin``: the trajectory integrator works
    in coordinates local to each force zone. q - x is formed first, so the
    argument at a lone wall is exact there. The integrator's canonical
    right-hand side (``canonical_rhs``) never forms V, so a jump costs it
    one Gaussian and no erf; a kink keeps its erf, which V' reads. The
    Newtonian one (``newtonian_rhs``) needs V, so it reads all four profiles
    from ``at``.
    """

    def __init__(self, params: PhysicalParams, shape: Shape, origin: float = 0.0):
        m, beta, hbar = params.m, params.beta, params.hbar
        sigma = math.sqrt(beta / (4.0 * m)) * hbar
        beta_hbar2 = beta * hbar * hbar
        if not (sigma > 0 and beta_hbar2 > 0 and 2.0 * m / beta_hbar2 < math.inf):
            raise DomainError(f"hbar = {hbar:g} is too small for finite smoothing constants")
        c = math.sqrt(2.0 * m) / (math.sqrt(beta) * hbar)
        k = c / math.sqrt(math.pi)
        curv = beta * beta_hbar2 / (12.0 * m * m)  # 1/M = 1/m - curv V''
        self.level, self.inv_m, self.c = shape.level, 1.0 / m, c
        # per jump the position and the weights of e in V, of g in V', of u g
        # in 1/M and of (1/2 - u^2) g in (1/M)'; per kink the position, those
        # of the line's value and slope, and of g, g, u g in V, 1/M, (1/M)'
        self.jumps, self.kinks = [], []
        jumped = 0.0  # sum of the jumps to the left
        corners = zip(*shape.corners.tolist(), (shape.level, *shape.right), shape.slopes)
        for x, jump, kink, before, slope in corners:
            if jump != 0.0:
                self.jumps.append((x - origin, 0.5 * jump, k * jump, 2.0 * c * curv * k * jump,
                                   4.0 * c * c * curv * k * jump))
            if kink != 0.0:
                value = (before - shape.level) - jumped  # of the continuous part left of x
                self.kinks.append((x - origin, 0.5 * value, 0.5 * slope, kink / (2.0 * c * math.sqrt(math.pi)),
                                   -curv * k * kink, 2.0 * c * curv * k * kink))
            jumped += jump
        # beyond the last kink the continuous part is -sum J, which weighs
        # that kink's erf
        self.tail = -0.5 * jumped if self.kinks else 0.0
        # the same entries as columns for ``on``: positions, kinks first
        self.x = np.array([x for x, *_ in (*self.kinks, *self.jumps)])
        self.kink_weights = np.array([w for _, *w in self.kinks]).reshape(-1, 5).T
        self.jump_weights = np.array([w for _, *w in self.jumps]).reshape(-1, 4).T

    def at(self, q: float):
        """(V, V', 1/M, (1/M)') at one position, on math scalars."""
        c = self.c
        exp, erf = math.exp, math.erf
        v = vp = mi = mip = 0.0
        e_prev = 1.0
        for x, value, slope, bend, km, km_p in self.kinks:
            d = q - x
            u = c * d
            e = erf(u)
            g = exp(-u * u)
            de = e_prev - e
            v = v + (value + slope * d) * de + bend * g
            vp = vp + slope * de
            mi = mi + km * g
            mip = mip + km_p * u * g
            e_prev = e
        for x, half, grad, jm, jm_p in self.jumps:
            u = c * (q - x)
            uu = u * u
            g = exp(-uu)
            v = v + half * erf(u)
            vp = vp + grad * g
            mi = mi + jm * u * g
            mip = mip + jm_p * (0.5 - uu) * g
        return self.level + (v + self.tail * e_prev), vp, self.inv_m + mi, mip

    def canonical_rhs(self):
        """The canonical equations of motion (q, p) -> (p/M, -V' - (1/2) (1/M)' p^2)
        as one closure on Python floats. It sums V', 1/M and (1/M)' term for
        term as ``at`` does, so its values are bitwise those of ``at``, but it
        never forms V: a jump costs one exp and no erf."""
        c, inv_m, jumps, kinks = self.c, self.inv_m, self.jumps, self.kinks
        exp, erf = math.exp, math.erf

        def rhs(q, p):
            vp = mi = mip = 0.0
            e_prev = 1.0
            for x, _, slope, _, km, km_p in kinks:
                u = c * (q - x)
                e = erf(u)
                g = exp(-u * u)
                vp = vp + slope * (e_prev - e)
                mi = mi + km * g
                mip = mip + km_p * u * g
                e_prev = e
            for x, _, grad, jm, jm_p in jumps:
                u = c * (q - x)
                uu = u * u
                g = exp(-uu)
                vp = vp + grad * g
                mi = mi + jm * u * g
                mip = mip + jm_p * (0.5 - uu) * g
            return p * (inv_m + mi), -vp - 0.5 * mip * p * p

        return rhs

    def newtonian_rhs(self, eps: float):
        """The Newtonian equations of motion at energy eps,
        (q, dq/dt) -> (dq/dt, -VQ'/m) with VQ' = m (V' M^-1 + (V - eps) (M^-1)'),
        as one closure over ``at``."""
        at = self.at

        def rhs(q, dq):
            v, vp, minv, minvp = at(q)
            return dq, -(vp * minv + (v - eps) * minvp)

        return rhs

    def on(self, q: np.ndarray):
        """(V, V', 1/M, (1/M)') at every position of an array: the terms of
        ``at``, for rows of at most CHUNK (position, corner) pairs at once,
        with one call of the array erf and one exp per chunk."""
        q = np.asarray(q, dtype=float)
        flat = q.ravel()
        out = np.empty((4, flat.size))
        n, c = len(self.kinks), self.c
        value, slope, bend, km, km_p = self.kink_weights
        half, grad, jm, jm_p = self.jump_weights
        rows = max(1, CHUNK // max(1, self.x.size))
        for i in range(0, flat.size, rows):
            d = flat[i:i + rows, None] - self.x
            u = c * d
            e = erf(u)
            uu = u * u
            g = np.exp(-uu)
            v = vp = mi = mip = np.zeros(len(d))
            if n:
                ek, gk = e[:, :n], g[:, :n]
                de = np.empty_like(ek)  # e_prev - e, from e_prev = 1 at the first kink
                np.subtract(1.0, ek[:, 0], out=de[:, 0])
                np.subtract(ek[:, :-1], ek[:, 1:], out=de[:, 1:])
                v = de @ value + (d[:, :n] * de) @ slope + gk @ bend + self.tail * ek[:, -1]
                vp = de @ slope
                mi = gk @ km
                mip = (u[:, :n] * gk) @ km_p
            if self.jumps:
                ej, gj, uj = e[:, n:], g[:, n:], u[:, n:]
                v = v + ej @ half
                vp = vp + gj @ grad
                mi = mi + (uj * gj) @ jm
                mip = mip + ((0.5 - uu[:, n:]) * gj) @ jm_p
            out[:, i:i + rows] = self.level + v, vp, self.inv_m + mi, mip
        return tuple(out.reshape((4, *q.shape)))


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
    return _smoothed(model, q)[1]


def _smoothed(model: LowMomentumModel, q: float):
    """(V(q), 1/M(q)) from one profile evaluation; NonPositiveMass when
    1/M <= 0."""
    if model.profile is None:
        v, val = eval_classical(model.pot, q), 1.0 / model.params.m
    else:
        v, _, val, _ = model.profile.at(q)
    if val <= 0:
        raise NonPositiveMass(f"inverse mass {val:.4g} at q = {q:.4g}")
    return v, val


def mass(model: LowMomentumModel, q: float) -> float:
    """Position-dependent mass M(q) > 0."""
    return 1.0 / inverse_mass(model, q)


def vq_potential(model: LowMomentumModel, q: float, eps: float) -> float:
    """Reduced potential for Newtonian motion at conserved energy eps:
    (m/M(q)) (V(q) - eps) + eps. Equals the bare potential when hbar = 0."""
    v, m_inv = _smoothed(model, q)
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
