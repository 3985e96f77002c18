"""Classical trajectory integration for the reduced transport model.

Two equivalent formulations are integrated: the canonical pair

    dq/dt = p / M(q),    dp/dt = -dV/dq - (1/2) d(1/M)/dq p^2

and the constant-mass Newtonian form m d2q/dt2 = -dVQ/dq at fixed conserved
energy, whose momentum is reported as p = M(q) dq/dt. Both conserve
eps = p^2/(2 M(q)) + V(q), and every accepted run is gated on that drift.

One event loop propagates both forms over force zones. The smoothed force
acts only within a few smoothing widths sigma of the breakpoints where the
bare potential jumps or bends and along its ramps, so the zones are the
+-20 sigma neighbourhoods of those breakpoints, merged where they overlap or
a ramp joins them; beyond them the force underflows to zero in double
precision. Between zones 1/M = 1/m and V is the bare level of the gap, so
flight there is exact and an adaptive step never has to span a gap. The
asymptotic exits are the edges of the evaluation domain. At hbar = 0 the
zones have zero width and are crossed by the jump rule (adaptive stepping
on a discontinuous force would be meaningless): a particle reaching a step
of height dV crosses with |p'| = sqrt(p^2 - 2 m dV) when its kinetic energy
exceeds dV and reflects otherwise.

A zone of nonzero width is crossed by one adaptive Dormand-Prince 5(4)
segment (``solve_ivp``, on two Python floats) whose max step, 2 sigma over
the speed at entry, keeps it from stepping over a wall. The canonical
right-hand side (``Profile.canonical_rhs``) never forms V, so a jump costs it
no error function; the Newtonian one (``Profile.newtonian_rhs``) needs V and
sums it in its own one-frame closure. The segment ends when the state leaves
downward through the zone's low surface or upward through its high one,
each the zone edge clipped to the evaluation domain;
leaving through a domain edge decides the outcome. The stepper follows
scipy's RK45 rule for rule (tableau, first step, step control, dense output
and event location), so its steps are scipy's to roundoff, at a fraction of
the per-step cost.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    DidNotResolve,
    DomainError,
    InconsistentEnergy,
    StepFailure,
)
from .lowmomentum import (
    LowMomentumModel,
    Profile,
    _brent,
    evaluation_domain,
    inverse_mass,
    smoothed_potential,
    tunneling_threshold,
)
from .potential import _require_finite, eval_classical, support_interval

SURPASSED = "surpassed"
REFLECTED = "reflected"

DRIFT_LIMIT = 1e-9
DRIFT_FLOOR = 1e-12
REL_TOL = 1e-11          # adaptive step control
ABS_TOL = 1e-12
ZONE_SIGMAS = 20.0       # force-zone reach beyond a breakpoint, in units of sigma
MAX_ZONE_SIGMAS = 5000.0  # widest breakpoint span of one zone, in units of sigma
T_END_TRANSITS = 50.0    # default time budget in units of domain transit time
MAX_EVENTS = 100_000


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered samples of one scattering run with its conservation record."""

    t: np.ndarray
    q: np.ndarray
    p: np.ndarray
    energy0: float
    energy_drift: np.ndarray
    max_energy_drift: float
    outcome: Optional[str] = None
    n_rhs: int = 0  # right-hand-side calls, summed over the run's segments

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        if t.size < 1:
            raise ValueError("trajectory needs at least one sample")
        if not (len(self.q) == len(self.p) == len(self.energy_drift) == t.size):
            raise ValueError("sample arrays must have equal length")
        if np.any(np.diff(t) <= 0):
            raise ValueError("sample times must be strictly increasing")


def hamiltonian(model: LowMomentumModel, q: float, p: float) -> float:
    """Conserved energy p^2/(2 M(q)) + V(q)."""
    if model.profile is None:
        return 0.5 * p * p / model.params.m + eval_classical(model.pot, q)
    v, _, minv, _ = model.profile.at(q)
    return 0.5 * p * p * minv + v


# ------------------------------------------------------ Dormand-Prince 5(4)

# dense output of the stages k1, k3, ..., k7 (k2 has zero weight): the
# coefficients of x, x^2, x^3, x^4 on a step, x its fraction
DENSE = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)


class Segment(NamedTuple):
    """One solve_ivp run.

    Without t_eval the samples are the start and every accepted step, the
    exit point replacing the last one when the run leaves the zone; with it,
    the requested times reached. status is 0 when the run reached the end of
    t_span, 1 when it left the zone and -1 when the step size fell below
    10 ulp of the time; exit is (side, t, q, s) when status is 1, side -1
    through the low surface and +1 through the high one.
    """

    t: list
    q: list
    s: list
    nfev: int
    status: int
    exit: Optional[tuple]


_SQRT2 = math.sqrt(2.0)


def _rms(a: float, b: float) -> float:
    return math.sqrt(a * a + b * b) / _SQRT2


def solve_ivp(fun, t_span, y0, *, t_eval, max_step, low, high) -> Segment:
    """Dormand-Prince 5(4) run of (q, s)' = fun(q, s) from y0 = (q, s) over
    t_span, ending early when q leaves downward through low or upward
    through high.

    The control is scipy's RK45, rule for rule (Dormand & Prince 1980; Hairer,
    Norsett & Wanner, Solving ODEs I, II.4): the same first-step choice, an
    RMS error norm with scale ABS_TOL + max(|y|, |y_new|) REL_TOL, safety
    factor 0.9, step factors within [0.2, 10] and none above 1 right after a
    rejection, a minimum step of 10 ulp(t) and clamps at max_step and the
    end of t_span. The requested samples and the exit come from the quartic
    dense output; the exit time is its root by Brent's method to EVENT_TOL.
    """
    t, t_end = t_span
    q, s = y0
    fq, fs = fun(q, s)
    nfev = 1
    ts, qs, ss = ([t], [q], [s]) if t_eval is None else ([], [], [])
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float).tolist()
    cursor = 0
    if t >= t_end:
        return Segment(ts, qs, ss, nfev, 0, None)
    rtol, atol = REL_TOL, ABS_TOL

    # first step: the error estimate is of order 4
    interval = t_end - t
    sq, ssc = atol + abs(q) * rtol, atol + abs(s) * rtol
    d0, d1 = _rms(q / sq, s / ssc), _rms(fq / sq, fs / ssc)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    if not h0 > 0.0:  # the scaled right-hand side overflowed
        return Segment(ts, qs, ss, nfev, -1, None)
    gq, gs = fun(q + h0 * fq, s + h0 * fs)
    nfev += 1
    d2 = _rms((gq - fq) / sq, (gs - fs) / ssc) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, interval, max_step)

    # The hot loop calls no max, min or abs: each is a comparison that picks
    # the operand the builtin would, ties and NaN included (max(a, b) is a
    # unless b > a, min(a, b) is a unless b < a).
    nextafter, inf = math.nextafter, math.inf
    g_low, g_high = q - low, q - high
    while True:
        min_step = 10.0 * (nextafter(t, inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif min_step > h_abs:
            h_abs = min_step
        q_abs = -q if q < 0.0 else q
        s_abs = -s if s < 0.0 else s
        rejected = False
        while True:
            if not h_abs >= min_step:  # also a NaN step from a NaN right-hand side
                return Segment(ts, qs, ss, nfev, -1, None)
            t_new = t + h_abs
            if t_end < t_new:
                t_new = t_end
            h = t_new - t
            k1q, k1s = fq, fs
            k2q, k2s = fun(q + k1q * (1 / 5) * h, s + k1s * (1 / 5) * h)
            k3q, k3s = fun(
                q + (k1q * (3 / 40) + k2q * (9 / 40)) * h,
                s + (k1s * (3 / 40) + k2s * (9 / 40)) * h,
            )
            k4q, k4s = fun(
                q + (k1q * (44 / 45) + k2q * (-56 / 15) + k3q * (32 / 9)) * h,
                s + (k1s * (44 / 45) + k2s * (-56 / 15) + k3s * (32 / 9)) * h,
            )
            k5q, k5s = fun(
                q + (k1q * (19372 / 6561) + k2q * (-25360 / 2187) + k3q * (64448 / 6561)
                     + k4q * (-212 / 729)) * h,
                s + (k1s * (19372 / 6561) + k2s * (-25360 / 2187) + k3s * (64448 / 6561)
                     + k4s * (-212 / 729)) * h,
            )
            k6q, k6s = fun(
                q + (k1q * (9017 / 3168) + k2q * (-355 / 33) + k3q * (46732 / 5247)
                     + k4q * (49 / 176) + k5q * (-5103 / 18656)) * h,
                s + (k1s * (9017 / 3168) + k2s * (-355 / 33) + k3s * (46732 / 5247)
                     + k4s * (49 / 176) + k5s * (-5103 / 18656)) * h,
            )
            q_new = q + h * (k1q * (35 / 384) + k3q * (500 / 1113) + k4q * (125 / 192)
                             + k5q * (-2187 / 6784) + k6q * (11 / 84))
            s_new = s + h * (k1s * (35 / 384) + k3s * (500 / 1113) + k4s * (125 / 192)
                             + k5s * (-2187 / 6784) + k6s * (11 / 84))
            k7q, k7s = fun(q_new, s_new)  # first stage of the next step
            nfev += 6
            eq = (k1q * (-71 / 57600) + k3q * (71 / 16695) + k4q * (-71 / 1920)
                  + k5q * (17253 / 339200) + k6q * (-22 / 525) + k7q * (1 / 40)) * h
            es = (k1s * (-71 / 57600) + k3s * (71 / 16695) + k4s * (-71 / 1920)
                  + k5s * (17253 / 339200) + k6s * (-22 / 525) + k7s * (1 / 40)) * h
            # the sign of a zero or a NaN in |y| cannot reach the scale
            y_abs = -q_new if q_new < 0.0 else q_new
            eq = eq / (atol + (y_abs if y_abs > q_abs else q_abs) * rtol)
            y_abs = -s_new if s_new < 0.0 else s_new
            es = es / (atol + (y_abs if y_abs > s_abs else s_abs) * rtol)
            error = math.sqrt(eq * eq + es * es) / _SQRT2  # _rms, inline on the hot path
            if error < 1.0:
                factor = 10.0
                if error != 0.0:
                    factor = 0.9 * error ** -0.2
                    if not factor < 10.0:
                        factor = 10.0
                if rejected and not factor < 1.0:
                    factor = 1.0
                h_abs = h * factor
                break
            factor = 0.9 * error ** -0.2
            h_abs = h * (factor if factor > 0.2 else 0.2)
            rejected = True

        t_old, q_old, s_old = t, q, s
        t, q, s, fq, fs = t_new, q_new, s_new, k7q, k7s
        status = 0 if t >= t_end else None
        d_low, d_high = q - low, q - high
        out_low = g_low >= 0.0 and d_low <= 0.0
        out_high = g_high <= 0.0 and d_high >= 0.0
        g_low, g_high = d_low, d_high
        sampled = t_eval is not None and cursor < len(t_eval) and t_eval[cursor] <= t
        if out_low or out_high or sampled:
            dense = _dense_output(t_old, h, q_old, s_old, (k1q, k3q, k4q, k5q, k6q, k7q),
                                  (k1s, k3s, k4s, k5s, k6s, k7s))
        leaving = None
        if out_low or out_high:
            crossed = [(side, edge) for side, edge, out in ((-1, low, out_low), (1, high, out_high))
                       if out]
            t, side = min(
                (_brent(lambda tau, edge=edge: dense(tau)[0] - edge, t_old, t), side)
                for side, edge in crossed
            )
            q, s = dense(t)
            leaving, status = (side, t, q, s), 1
        if t_eval is None:
            ts.append(t)
            qs.append(q)
            ss.append(s)
        elif sampled:
            stop = bisect_right(t_eval, t, cursor)
            for tau in t_eval[cursor:stop]:
                yq, ys = dense(tau)
                ts.append(tau)
                qs.append(yq)
                ss.append(ys)
            cursor = stop
        if status is not None:
            return Segment(ts, qs, ss, nfev, status, leaving)


def _dense_output(t_old, h, q_old, s_old, kq, ks):
    """Quartic interpolant (q, s)(tau) on the step of size h from t_old."""
    cq = [sum(k * row[j] for k, row in zip(kq, DENSE)) for j in range(4)]
    cs = [sum(k * row[j] for k, row in zip(ks, DENSE)) for j in range(4)]

    def dense(tau):
        x = (tau - t_old) / h
        x2 = x * x
        x3 = x2 * x
        x4 = x3 * x
        return (h * (cq[0] * x + cq[1] * x2 + cq[2] * x3 + cq[3] * x4) + q_old,
                h * (cs[0] * x + cs[1] * x2 + cs[2] * x3 + cs[3] * x4) + s_old)

    return dense


# ---------------------------------------------------------------- force zones


class _Zone(NamedTuple):
    """Interval [lo, hi] where the force acts, and the bare level of the gap
    above it. profile is None for a step of the bare potential; otherwise it
    is evaluated at q - origin."""

    profile: Optional[Profile]
    origin: float
    lo: float
    hi: float
    level: float


def _zones(model) -> list:
    """The force zones in increasing order: the +-ZONE_SIGMAS sigma
    neighbourhoods of the breakpoints where the bare potential jumps or
    bends, merged where they overlap or a ramp joins them; at hbar = 0, one
    zero-width zone per step.

    A zone steps on a profile in coordinates centred on its breakpoints:
    there the state coordinate carries no absolute roundoff of order
    eps_mach * |q|, which the steep wall force (~ V0/sigma) would turn into
    an energy random walk near the conservation gate, and for a lone wall
    the dominant erf/Gaussian arguments are exact (nearby doubles subtract
    exactly). A zone whose breakpoints span more than MAX_ZONE_SIGMAS sigma
    is refused: its max step of 2 sigma over the speed would need far too
    many steps.
    """
    shape, sigma = model.pot.shape, model.smoothing_sigma
    if model.profile is None and not shape.steps:
        raise DomainError("exact classical propagation needs a piecewise-constant potential")
    half = ZONE_SIGMAS * sigma
    _, jump, kink = shape.corners
    groups = []  # [first breakpoint, last breakpoint, index of the last]
    for i, b in enumerate(shape.x):
        if jump[i] == kink[i] == 0.0:
            continue  # the bare potential neither jumps nor bends here
        if groups and (b - half <= groups[-1][1] + half or shape.left[i - 1] != shape.right[i - 1]):
            groups[-1][1:] = b, i
        else:
            groups.append([b, b, i])
    zones = []
    for first, last, i in groups:
        if last - first > MAX_ZONE_SIGMAS * sigma:
            raise DomainError(
                f"smoothing width {sigma:g} is too small a feature for adaptive stepping "
                f"across the force zone [{first:g}, {last:g}] of this potential"
            )
        origin = 0.5 * (first + last)
        profile = None if model.profile is None else Profile(model.params, shape, origin=origin)
        zones.append(_Zone(profile, origin, first - half, last + half, shape.levels[i + 1]))
    return zones


def _rhs(profile, eps):
    """Equations of motion on one profile, on Python floats: canonical (q, p)
    when eps is None, which never forms V, else the Newtonian (q, dq/dt)
    form at energy eps. Each is one closure of the profile's."""
    if eps is None:
        return profile.canonical_rhs()
    return profile.newtonian_rhs(eps)


def _propagate(model, q0, s0, t_end, t_eval, eps, energy0) -> Trajectory:
    """Event loop over the force zones from (q0, s0) up to time t_end.

    s is the momentum p in the canonical form (eps None), else the velocity
    dq/dt of the Newtonian form at energy eps. Without t_eval the samples are
    the start, every accepted RK step, the state after every jump and the
    end; with it, the requested times reached plus the exit point when the
    run ends at an exit.
    """
    if t_eval is not None:
        t_eval = np.array(t_eval, dtype=float, ndmin=1)
        if not (np.isfinite(t_eval).all() and (np.diff(t_eval) > 0).all()):
            raise ValueError("t_eval must be finite and strictly increasing")
        t_eval = t_eval[(t_eval >= 0.0) & (t_eval <= t_end)]
        if not t_eval.size:
            raise ValueError(f"t_eval has no time in [0, t_end] = [0, {t_end:g}]")
    zones = _zones(model)
    lo_edge, hi_edge = evaluation_domain(model)
    m = model.params.m
    levels = (model.pot.shape.level, *(z.level for z in zones))  # of each gap
    newton = eps is not None
    samples = ([], [], [], [])  # t, q, p, energy
    cursor = 0  # first requested time not yet sampled

    def put(t, q, p, energy):
        """Append lists of samples, dropping a first one at a time already recorded."""
        skip = 1 if samples[0] and t and t[0] <= samples[0][-1] else 0
        for column, values in zip(samples, (t, q, p, energy)):
            column.extend(values[skip:])

    def fly(t_a, q_a, v, p, energy, t_b, closed):
        """Sample exact flight from (t_a, q_a) up to t_b, included when closed."""
        nonlocal cursor
        if t_eval is None:
            ts = [t_a, t_b] if closed else [t_a]
        else:
            stop = int(np.searchsorted(t_eval, t_b, side="right" if closed else "left"))
            ts, cursor = t_eval[cursor:stop].tolist(), stop
        put(ts, [q_a + v * (tt - t_a) for tt in ts], [p] * len(ts), [energy] * len(ts))

    def zone_state(profile, xi, s):
        """Lists of p and energy of zone states at the local positions xi."""
        v, _, minv, _ = profile.on(xi)
        if newton:
            return (s / minv).tolist(), (0.5 * s * s / minv + v).tolist()
        return s.tolist(), (0.5 * s * s * minv + v).tolist()

    k = bisect_right([z.lo for z in zones], q0) - 1
    zone = k if k >= 0 and q0 <= zones[k].hi else None
    gap = k + 1  # gap g lies between zones g - 1 and g
    if zone is not None and zones[zone].profile is None:
        raise DomainError("start the trajectory strictly between potential steps")
    t, q, s, outcome, n_rhs = 0.0, q0, s0, None, 0

    for _ in range(MAX_EVENTS):
        if zone is None:
            v = s if newton else s / m
            p = s * m if newton else s
            energy = p * p / (2.0 * m) + levels[gap]
            if v > 0:
                edge = zones[gap].lo if gap < len(zones) else math.inf
                target = min(edge, hi_edge if hi_edge > q else math.inf)
            else:
                edge = zones[gap - 1].hi if gap > 0 else -math.inf
                target = max(edge, lo_edge if lo_edge < q else -math.inf)
            t_hit = t + (target - q) / v if v else math.inf
            if t_hit >= t_end:
                fly(t, q, v, p, energy, t_end, closed=True)
                break
            fly(t, q, v, p, energy, t_hit, closed=False)
            t, q = t_hit, target
            if target != edge:
                outcome = SURPASSED if v > 0 else REFLECTED
                put([t], [q], [p], [energy])
                break
            zone = gap if v > 0 else gap - 1
        z = zones[zone]
        if z.profile is None:
            p = s * m if newton else s
            ahead = zone + 1 if p > 0 else zone
            dv = levels[ahead] - levels[gap]
            if p * p / (2.0 * m) > dv:
                p = math.copysign(math.sqrt(p * p - 2.0 * m * dv), p)
                gap = ahead
            else:
                p = -p
            s = p / m if newton else p
            side = p
            exit_state = ([p], [p * p / (2.0 * m) + levels[gap]])
        else:
            xi = q - z.origin
            v = s if newton else s * z.profile.at(xi)[2]
            low, high = max(z.lo, lo_edge) - z.origin, min(z.hi, hi_edge) - z.origin

            seg = solve_ivp(
                _rhs(z.profile, eps),
                (t, t_end),
                (xi, s),
                t_eval=None if t_eval is None else t_eval[cursor:],
                max_step=2.0 * model.smoothing_sigma / abs(v) if v else math.inf,
                low=low,
                high=high,
            )
            n_rhs += seg.nfev
            if seg.status == -1:
                raise StepFailure("adaptive step size fell below 10 ulp of the time")
            xs, ss = np.array(seg.q), np.array(seg.s)
            put(seg.t, (z.origin + xs).tolist(), *zone_state(z.profile, xs, ss))
            if t_eval is not None:
                cursor += len(seg.t)
            if seg.status == 0:
                break  # t_end reached inside the zone
            side, t, xi, s = seg.exit
            q = z.origin + xi
            gap = zone + 1 if side > 0 else zone
            exit_state = zone_state(z.profile, np.array([xi]), np.array([s]))
        if (side > 0 and z.hi >= hi_edge) or (side < 0 and z.lo <= lo_edge):
            outcome = SURPASSED if side > 0 else REFLECTED
            put([t], [q], *exit_state)
            break
        zone = None
    else:
        raise DidNotResolve("event budget exhausted")

    t, q, p, energy = (np.asarray(c, dtype=float) for c in samples)
    drift = np.abs(energy - energy0) / max(abs(energy0), DRIFT_FLOOR)
    max_drift = float(drift.max(initial=0.0))
    if not max_drift < DRIFT_LIMIT:
        raise StepFailure(
            f"energy drift {max_drift:.3e} breaches the {DRIFT_LIMIT:g} conservation gate"
        )
    return Trajectory(
        t=t, q=q, p=p, energy0=energy0, energy_drift=drift, max_energy_drift=max_drift, outcome=outcome,
        n_rhs=n_rhs,
    )


# -------------------------------------------------------------------- drivers


def _default_t_end(model, v_init: float) -> float:
    if v_init == 0.0:
        raise ValueError("an explicit t_end is required when the initial velocity is zero")
    lo_edge, hi_edge = evaluation_domain(model)
    return T_END_TRANSITS * (hi_edge - lo_edge) / abs(v_init)


def integrate_hamiltonian(
    model: LowMomentumModel,
    q0: float,
    p0: float,
    t_end: Optional[float] = None,
    t_eval=None,
) -> Trajectory:
    """Integrate the canonical equations from (q0, p0).

    The trajectory record carries the relative energy drift per sample; runs
    breaching the 1e-9 conservation gate raise StepFailure instead of
    returning. The outcome field reports 'surpassed' or 'reflected' when an
    asymptotic exit boundary was crossed within t_end, else None. A t_eval
    must be finite and strictly increasing with a time in [0, t_end]; its
    times outside that interval are dropped.
    """
    _require_finite("initial state and time budget", (q0, p0, 0.0 if t_end is None else t_end))
    if t_end is None:
        t_end = _default_t_end(model, p0 * inverse_mass(model, q0))
    elif t_end < 0:
        raise ValueError(f"time budget must be nonnegative, got {t_end:g}")
    return _propagate(model, q0, p0, t_end, t_eval, None, hamiltonian(model, q0, p0))


def integrate_newtonian(
    model: LowMomentumModel,
    q0: float,
    v0: float,
    eps: float,
    t_end: Optional[float] = None,
    t_eval=None,
) -> Trajectory:
    """Integrate the constant-mass form at fixed energy eps from (q0, v0).

    The initial data must satisfy eps = M(q0) v0^2 / 2 + V(q0); the reported
    momentum is p = M(q) dq/dt so records are directly comparable with the
    canonical form. t_eval is read as by integrate_hamiltonian.
    """
    _require_finite("initial state, energy and time budget",
                    (q0, v0, eps, 0.0 if t_end is None else t_end))
    if t_end is None:
        t_end = _default_t_end(model, v0)
    elif t_end < 0:
        raise ValueError(f"time budget must be nonnegative, got {t_end:g}")
    check = 0.5 * v0 * v0 / inverse_mass(model, q0) + smoothed_potential(model, q0)
    if abs(check - eps) > 1e-10 * max(1.0, abs(eps)):
        raise InconsistentEnergy(
            f"initial data carries energy {check:.12g}, stated energy is {eps:.12g}"
        )
    return _propagate(model, q0, v0, t_end, t_eval, eps, eps)


# -------------------------------------------------------------- classification


def launch_state(model: LowMomentumModel, eps: float):
    """Left-asymptotic initial conditions carrying energy eps toward the barrier."""
    _require_finite("energy", (eps,))
    a, b = support_interval(model.pot)
    lo_edge, _ = evaluation_domain(model)
    q0 = lo_edge - 0.5 * (b - a)
    v_here = smoothed_potential(model, q0)
    if eps <= v_here:
        raise DomainError(f"energy {eps:g} does not exceed the asymptotic potential {v_here:g}")
    p0 = math.sqrt(2.0 * (eps - v_here) / inverse_mass(model, q0))
    return q0, p0


def classify_traversal(model: LowMomentumModel, eps: float) -> str:
    """Decide whether energy eps surpasses the barrier or reflects.

    Runs an actual trajectory for every generic energy. The single degenerate
    tie, eps equal to the tunneling threshold to within 1e-12 relative, is
    decided by convention as reflected without integrating: the true motion
    approaches the barrier top asymptotically and never crosses, while a
    numerical run accumulates just enough truncation error to creep over.
    """
    threshold = tunneling_threshold(model)
    if abs(eps - threshold) <= 1e-12 * max(1.0, abs(threshold)):
        return REFLECTED
    q0, p0 = launch_state(model, eps)
    traj = integrate_hamiltonian(model, q0, p0)
    if traj.outcome is not None:
        return traj.outcome
    raise DidNotResolve(
        f"no asymptotic exit within the time budget at energy {eps:.12g}"
    )


def write_trajectory_csv(traj: Trajectory, path_or_file, metadata=None) -> None:
    """Write samples as CSV with '#'-prefixed metadata lines."""

    def emit(fh):
        for key, value in (metadata or {}).items():
            fh.write(f"# {key}={value}\n")
        if traj.outcome is not None:
            fh.write(f"# outcome={traj.outcome}\n")
        fh.write(f"# energy0={traj.energy0:.12g}\n")
        fh.write("t,q,p,energy_drift\n")
        for row in zip(traj.t, traj.q, traj.p, traj.energy_drift):
            fh.write(",".join(f"{x:.12g}" for x in row) + "\n")

    if hasattr(path_or_file, "write"):
        emit(path_or_file)
    else:
        with open(path_or_file, "w", newline="\n") as fh:
            emit(fh)
