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
(``Profile``); the kinks' share of V and V' is summed by parts, which keeps
its digits far from the shape. One scalar sum on ``math.erf``
(``Profile.at``) forms all four. The trajectory right-hand sides repeat its
terms on a zone's window for the jumps that act there: the canonical one
without V, the Newtonian one with a far jump's exact +-J/2 in V.
The model is only meaningful while M(q) stays positive. Both that and the
tunneling threshold, the maximum of V, are found at construction zone by
zone: every extremum lies within ZONE_SIGMAS smoothing widths of a corner,
where a scan at a fraction of sigma brackets it and ``_brent`` refines it.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError, NonPositiveMass
from .physical import PhysicalParams, Record
from .potential import Shape, classical_max, eval_classical, support_interval

EVENT_TOL = 4.0 * sys.float_info.epsilon  # root tolerance of _brent, absolute and relative
ZONE_SIGMAS = 20.0  # reach of a corner's terms beyond its breakpoint, in units of sigma
U_UNDERFLOW = 28.0  # |u| beyond which exp(-u^2) underflows to 0.0
SCAN_STEP = 0.5     # largest step of the extremum scan, in units of sigma


class Profile:
    """V, V', 1/M and (1/M)' as closed-form sums over a shape's corners.

    A breakpoint x where the bare potential jumps by J adds one entry to
    ``jumps``, and one where its slope changes by K one entry to ``kinks``
    (``Shape.corners``); a breakpoint that does both adds one of each. Each
    entry adds terms in one e = erf(u) and one g = exp(-u^2), with
    u = c (q - x), c = 1/(sqrt(2) sigma) and k = c/sqrt(pi) (the profile
    keeps ``sigma`` and ``c``, which nothing else derives):

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
    argument at a lone wall is exact there. ``window`` is an interval the
    integrator sets to its zone, and construction splits the jumps against
    it once: ``far_left`` and ``far_right`` hold the +-J/2 of those whose
    erf is exactly +-1 and Gaussian exactly 0 across it, ``acting`` the
    rest. Both trajectory right-hand sides read that split on the window and
    ``at`` beyond it. The canonical one (``canonical_rhs``) never forms V,
    so an acting jump costs it one Gaussian and no erf; a kink keeps its
    erf, which V' reads. The Newtonian one (``newtonian_rhs``) forms V, so a
    far jump costs it one addition. Every kink stays in both. ``at`` has no
    window: on the square at hbar >= 2, where no jump is far, the test cost
    a windowed copy of it 10-20 % a call. It serves everything else: the
    trajectory samples and exits, the threshold and the mass check.
    """

    def __init__(self, params: PhysicalParams, shape: Shape, origin: float = 0.0,
                 window: tuple = (-math.inf, math.inf)):
        m, beta, hbar = params.m, params.beta, params.hbar
        sigma = math.sqrt(beta / (4.0 * m)) * hbar
        beta_hbar2 = beta * hbar * hbar
        twelve_m2 = 12.0 * m * m
        # c is formed only once sigma > 0, where sqrt(beta) hbar > 0; c^2,
        # which the V_eff kernel divides by, must not underflow to 0
        if not (sigma > 0 and beta_hbar2 > 0 and 2.0 * m / beta_hbar2 < math.inf and twelve_m2 > 0
                and (c := math.sqrt(2.0 * m) / (math.sqrt(beta) * hbar)) * c > 0):
            raise DomainError(
                f"the smoothing constants at m = {m:g}, hbar = {hbar:g} leave floating range")
        k = c / math.sqrt(math.pi)
        curv = beta * beta_hbar2 / twelve_m2  # 1/M = 1/m - curv V''
        self.level, self.inv_m, self.sigma, self.c, self.window = shape.level, 1.0 / m, sigma, c, window
        # per jump the position and the weights of e in V, of g in V', of u g
        # in 1/M and of (1/2 - u^2) g in (1/M)'; per kink the position, those
        # of the line's value and slope, and of g, g, u g in V, 1/M, (1/M)'
        self.jumps, self.kinks = [], []
        jumped = 0.0  # sum of the jumps to the left
        corners = zip(*shape.corners, (shape.level, *shape.right), shape.slopes)
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
        # the window's split of the jumps, in breakpoint order: the J/2 of
        # those far left of it (|u| >= U_UNDERFLOW there: e = 1, g = 0), the
        # jumps that act on it, and the -J/2 of those far right (e = -1); the
        # rounded u = c (q - x) is monotone in q and in x, so the window's
        # ends decide, and the far ones are a prefix and a suffix
        lo, hi = window
        self.far_left = [jump[1] for jump in self.jumps if c * (lo - jump[0]) >= U_UNDERFLOW]
        self.far_right = [-jump[1] for jump in self.jumps if c * (hi - jump[0]) <= -U_UNDERFLOW]
        self.acting = self.jumps[len(self.far_left):len(self.jumps) - len(self.far_right)]

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
            mip = mip + jm_p * ((0.5 - uu) * g)
        return self.level + (v + self.tail * e_prev), vp, self.inv_m + mi, mip

    def canonical_rhs(self):
        """The canonical equations of motion (q, p) -> (p/M, -V' - (1/2) (1/M)' p^2)
        as one closure on Python floats. It sums V', 1/M and (1/M)' term for
        term as ``at`` does, so its values are bitwise those of ``at``, but it
        never forms V: a jump costs one exp and no erf.

        On ``window`` it sums only the ``acting`` jumps: a far one's terms
        are exact zeros there, so it adds the same floats in the same order.
        Every kink stays, and a shape of steps skips the kink loop. Beyond
        the window, and at a NaN q, it reads ``at``."""
        c, inv_m, kinks, jumps, at = self.c, self.inv_m, self.kinks, self.acting, self.at
        lo, hi = self.window
        exp, erf = math.exp, math.erf

        def rhs(q, p):
            if not lo <= q <= hi:
                _, vp, minv, minvp = at(q)
                return p * minv, -vp - 0.5 * minvp * p * p
            vp = mi = mip = 0.0
            if kinks:
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
                mip = mip + jm_p * ((0.5 - uu) * g)
            return p * (inv_m + mi), -vp - 0.5 * mip * p * p

        return rhs

    def newtonian_rhs(self, eps: float):
        """The Newtonian equations of motion at energy eps,
        (q, dq/dt) -> (dq/dt, -VQ'/m) with VQ' = m (V' M^-1 + (V - eps) (M^-1)'),
        as one closure on Python floats whose values are bitwise those of
        ``at``. It sums every kink as ``at`` does, then the jumps in
        breakpoint order on ``window``: a far one adds its exact +-J/2 to V,
        one addition each, and no erf or exp (V already carries the kinks'
        share, and floating addition does not associate, so the far halves
        are never summed first); an ``acting`` one adds its terms. An empty
        list's loop is skipped: on the square at hbar >= 2 the three empty
        loops cost about a tenth of a call. Beyond the window, and at a NaN
        q, it reads ``at``."""
        c, inv_m, level, tail, at = self.c, self.inv_m, self.level, self.tail, self.at
        kinks, left, jumps, right = self.kinks, self.far_left, self.acting, self.far_right
        lo, hi = self.window
        exp, erf = math.exp, math.erf

        def rhs(q, dq):
            if not lo <= q <= hi:
                v, vp, minv, minvp = at(q)
                return dq, -(vp * minv + (v - eps) * minvp)
            v = vp = mi = mip = 0.0
            e_prev = 1.0
            if kinks:
                for x, value, slope, bend, km, km_p in kinks:
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
            if left:
                for half in left:
                    v = v + half
            for x, half, grad, jm, jm_p in jumps:
                u = c * (q - x)
                uu = u * u
                g = exp(-uu)
                v = v + half * erf(u)
                vp = vp + grad * g
                mi = mi + jm * u * g
                mip = mip + jm_p * ((0.5 - uu) * g)
            if right:
                for half in right:
                    v = v + half
            return dq, -(vp * (inv_m + mi) + (level + (v + tail * e_prev) - eps) * mip)

        return rhs


class LowMomentumModel(Record):
    """Evaluator bundle for one (parameters, potential) pair.

    Construction finds the lowest 1/M and fails with NonPositiveMass when it
    is not positive, so downstream code can assume M(q) > 0; profiles that
    are not finite fail with DomainError. The same zone-by-zone scan
    (``_extrema``) finds the tunneling threshold and the leftmost point where
    it found it (``_top_at``), where a trajectory's outcome is decided. At
    hbar = 0 there is no smoothing, and profile and ``_top_at`` are None.
    """

    __slots__ = ("params", "pot", "smoothing_sigma", "profile", "_top", "_top_at")
    _fields = ("params", "pot", "smoothing_sigma")

    def __init__(self, params: PhysicalParams, pot: Shape):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "pot", pot)
        profile = None if params.hbar == 0 else Profile(params, pot)
        object.__setattr__(self, "smoothing_sigma", 0.0 if profile is None else profile.sigma)
        object.__setattr__(self, "profile", profile)
        if profile is None:
            object.__setattr__(self, "_top", classical_max(pot))
            object.__setattr__(self, "_top_at", None)
            return
        top, top_at, low, where = _extrema(self)
        if not low > 0:
            raise NonPositiveMass(
                f"inverse mass {low!r} at q = {where!r}; the reduced model is invalid at these parameters"
            )
        object.__setattr__(self, "_top", top)
        object.__setattr__(self, "_top_at", top_at)


def evaluation_domain(model: LowMomentumModel):
    """Interval whose edges are the asymptotic exits of a trajectory; beyond
    it everything is within Gaussian-tail distance of its asymptotic value."""
    a, b = support_interval(model.pot)
    width = b - a
    pad = width + 6.0 * model.smoothing_sigma
    return a - pad, b + pad


def corner_groups(shape: Shape, reach: float) -> list:
    """[first, last] breakpoint indices of each run of corners (breakpoints
    where the bare potential jumps or bends) whose +-reach neighbourhoods
    overlap, in increasing order. At ZONE_SIGMAS sigma from its breakpoint
    a corner's erf is +-1 and its Gaussian below e^-200, so between the
    groups V' is the bare slope and 1/M = 1/m: a ramp's interior holds no
    extremum."""
    _, jump, kink = shape.corners
    groups = []
    for i, b in enumerate(shape.x):
        if jump[i] == kink[i] == 0.0:
            continue  # the bare potential neither jumps nor bends here
        if groups and b - reach <= shape.x[groups[-1][1]] + reach:
            groups[-1][1] = i
        else:
            groups.append([i, i])
    return groups


def _extrema(model: LowMomentumModel):
    """(highest V, the leftmost sample where V is highest, lowest 1/M, where
    1/M is lowest) over the whole line, all read from ``Profile.at``.

    Between the corner groups (``corner_groups`` at ZONE_SIGMAS sigma) no
    extremum lies, so one sample per gap and the two edges of the evaluation
    domain (the asymptote) cover them. Each group's neighbourhood is sampled
    at a step of at most SCAN_STEP sigma, and every + -> - sign change of V'
    and - -> + sign change of (1/M)' between neighbouring samples is refined
    by ``_brent`` to a local maximum of V or minimum of 1/M.

    DomainError when V, V' or 1/M is not finite at a sample, or when u^2
    overflows for a jump at a domain edge (where |u| is largest), which
    makes that jump's (1/M)' term (1/2 - u^2) g nan. (1/M)' is not checked
    itself: it only brackets dips, and with u^2 finite its jump term is 0
    wherever the Gaussian is 0, at any hbar (the weight multiplies the
    product, not 1/2 - u^2).
    """
    profile, x, sigma = model.profile, model.pot.x, model.smoothing_sigma
    at, reach, edges = profile.at, ZONE_SIGMAS * sigma, evaluation_domain(model)
    groups = corner_groups(model.pot, reach)
    qs = [*edges, *(0.5 * (x[a] + x[b]) for (_, a), (b, _) in zip(groups, groups[1:]))]
    samples = [at(q) for q in qs]
    peaks, dips = [], []  # cells holding a local maximum of V and a local minimum of 1/M
    for first, last in groups:
        lo, hi = x[first] - reach, x[last] + reach
        n = max(1, math.ceil((hi - lo) / (SCAN_STEP * sigma)))
        grid = [lo + (hi - lo) * i / n for i in range(n + 1)]
        row = [at(q) for q in grid]
        for qa, qb, a, b in zip(grid, grid[1:], row, row[1:]):
            if a[1] > 0.0 >= b[1]:
                peaks.append((qa, qb))
            if a[3] < 0.0 <= b[3]:
                dips.append((qa, qb))
        qs += grid
        samples += row
    far = [profile.c * (q - jump[0]) for q in edges for jump in profile.jumps]
    if not (all(math.isfinite(v) for sample in samples for v in sample[:3])
            and all(math.isfinite(u * u) for u in far)):
        raise DomainError(f"the profiles at hbar = {model.params.hbar:g} leave floating range")
    for cells, column in ((peaks, 1), (dips, 3)):
        for qa, qb in cells:
            q = _brent(lambda q: at(q)[column], qa, qb)
            qs.append(q)
            samples.append(at(q))
    low, where = min((sample[2], q) for q, sample in zip(qs, samples))
    top = max(sample[0] for sample in samples)
    top_at = min(q for q, sample in zip(qs, samples) if sample[0] == top)
    return top, top_at, low, where


def smoothed_potential(model: LowMomentumModel, q: float) -> float:
    """Gaussian-smoothed potential V(q); the bare potential when hbar = 0."""
    if model.profile is None:
        return eval_classical(model.pot, q)
    return model.profile.at(q)[0]


def inverse_mass(model: LowMomentumModel, q: float) -> float:
    """1/M(q). Raises NonPositiveMass when the reduced model breaks down."""
    return _smoothed(model, q)[1]


def _smoothed(model: LowMomentumModel, q: float):
    """(V(q), 1/M(q)) from one profile evaluation; NonPositiveMass when 1/M <= 0."""
    if model.profile is None:
        v, val = eval_classical(model.pot, q), 1.0 / model.params.m
    else:
        v, _, val, _ = model.profile.at(q)
    if val <= 0:
        raise NonPositiveMass(f"inverse mass {val!r} at q = {q!r}")
    return v, val


def mass(model: LowMomentumModel, q: float) -> float:
    """Position-dependent mass M(q) > 0."""
    return 1.0 / inverse_mass(model, q)


def vq_potential(model: LowMomentumModel, q: float, eps: float) -> float:
    """Reduced potential for Newtonian motion at conserved energy eps:
    (m/M(q)) (V(q) - eps) + eps. Equals the bare potential when hbar = 0."""
    return _reduced(model, q, eps)[2]


def _reduced(model: LowMomentumModel, q: float, eps: float):
    """(V(q), M(q), V^Q(q)) at energy eps from one profile evaluation."""
    v, m_inv = _smoothed(model, q)
    return v, 1.0 / m_inv, model.params.m * m_inv * (v - eps) + eps


def _brent(f, xa: float, xb: float) -> float:
    """Root of f on [xa, xb] to EVENT_TOL by Brent's method, step for step as
    scipy's brentq. When f has one sign at both ends, xb is returned: for a
    zone exit, the crossing detected at the step end lies within roundoff of
    it."""
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
                den = dblk * dpre * (fblk - fpre)
                # on a zero denominator scipy's C gets inf or nan here, and bisects
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
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


def tunneling_threshold(model: LowMomentumModel) -> float:
    """Smallest energy at which the reduced barrier no longer reflects.

    An energy eps clears the reduced potential everywhere exactly when it
    clears the smoothed potential everywhere (the mass factor scales the
    difference V - eps without changing its sign), so the threshold is the
    maximum of the smoothed potential. For the square barrier that is
    v0 erf(sqrt(2m) l / (sqrt(beta) hbar)); hbar = 0 gives back the bare
    barrier height. Found at construction by the model's zone scan
    (``_extrema``), which also keeps the leftmost point where it found it:
    a trajectory that passes that point moving forward at an energy above
    the threshold can no longer turn, and ``classify_traversal`` stops
    there.
    """
    return model._top
