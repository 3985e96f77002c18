"""Classical trajectory integration for the reduced transport model.

Two equivalent formulations are integrated: the canonical pair

    dq/dt = p / M(q),    dp/dt = -dV/dq - (1/2) d(1/M)/dq p^2

and the constant-mass Newtonian form m d2q/dt2 = -dVQ/dq at fixed conserved
energy, whose momentum is reported as p = M(q) dq/dt. Both conserve
eps = p^2/(2 M(q)) + V(q), and every accepted run is gated on that drift.

Three stepping regimes, chosen by the smoothing width:

- hbar = 0: the bare potential is piecewise constant, so the motion is exact
  free flight with momentum jumps at the steps (adaptive stepping on a
  discontinuous force would be meaningless). Jump rule: a particle reaching a
  step of height dV crosses with |p'| = sqrt(p^2 - 2 m dV) when its kinetic
  energy exceeds dV and reflects otherwise.
- 0 < sigma << step spacing: the force lives in walls a few sigma wide that an
  adaptive step spanning the gap between walls would never sample. Free
  flight between wall zones is exact there (the force underflows to zero in
  double precision), so the integrator alternates exact flight with adaptive
  stepping inside +-20 sigma zones around each step.
- otherwise: plain adaptive Runge-Kutta 5(4) with a max step tied to sigma so
  the barrier region cannot be stepped over.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    DidNotResolve,
    DomainError,
    InconsistentEnergy,
    StepFailure,
)
from .lowmomentum import (
    LowMomentumModel,
    Profile,
    evaluation_domain,
    inverse_mass,
    smoothed_potential,
)
from .potential import support_interval

SURPASSED = "surpassed"
REFLECTED = "reflected"

DRIFT_LIMIT = 1e-9
DRIFT_FLOOR = 1e-12
ZONE_SIGMAS = 20.0       # wall-zone halfwidth in units of sigma
THIN_WALL_FRACTION = 50  # sigma < (wall spacing)/THIN_WALL_FRACTION switches regimes
T_END_TRANSITS = 50.0    # default time budget in units of domain transit time
MAX_EVENTS = 100_000


@dataclass(frozen=True)
class StepControl:
    rel_tol: float = 1e-11
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")


DEFAULT_STEP_CONTROL = StepControl()


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
    return 0.5 * p * p * inverse_mass(model, q) + smoothed_potential(model, q)


def _assemble(model, t, q, p, energy0, outcome, drift=None) -> Trajectory:
    t = np.asarray(t, dtype=float)
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if drift is None:
        scale = max(abs(energy0), DRIFT_FLOOR)
        drift = np.array(
            [abs(hamiltonian(model, float(qi), float(pi)) - energy0) / scale for qi, pi in zip(q, p)]
        )
    else:
        drift = np.asarray(drift, dtype=float)
    max_drift = float(drift.max()) if drift.size else 0.0
    if max_drift >= DRIFT_LIMIT:
        raise StepFailure(
            f"energy drift {max_drift:.3e} breaches the {DRIFT_LIMIT:g} conservation gate"
        )
    return Trajectory(
        t=t, q=q, p=p, energy0=energy0, energy_drift=drift, max_energy_drift=max_drift, outcome=outcome
    )


# ---------------------------------------------------------------- exact limit


def _integrate_exact(model, q0, p0, t_end, t_eval, energy0):
    """Event-driven propagation for the piecewise-constant classical limit."""
    shape = model.pot.shape
    if not shape.steps:
        raise DomainError("exact classical propagation needs a piecewise-constant potential")
    breaks, levels = shape.x, shape.levels
    if q0 in breaks:
        raise DomainError("start the trajectory strictly between potential steps")
    lo_edge, hi_edge = evaluation_domain(model)
    m = model.params.m

    seg = bisect_right(breaks, q0)
    t, q, p = 0.0, q0, p0
    ts, qs, ps, segs = [t], [q], [p], [seg]
    outcome = None

    for _ in range(MAX_EVENTS):
        v = p / m
        if v == 0.0:
            break
        if v > 0.0:
            wall = breaks[seg] if seg < len(breaks) else math.inf
            exit_pos = hi_edge
            target = min(wall, exit_pos) if exit_pos > q else wall
        else:
            wall = breaks[seg - 1] if seg > 0 else -math.inf
            exit_pos = lo_edge
            target = max(wall, exit_pos) if exit_pos < q else wall
        if not math.isfinite(target):
            # free run with no wall and no exit boundary ahead
            q += v * (t_end - t)
            t = t_end
            ts.append(t); qs.append(q); ps.append(p); segs.append(seg)
            break
        dt = (target - q) / v
        if t + dt >= t_end:
            q += v * (t_end - t)
            t = t_end
            ts.append(t); qs.append(q); ps.append(p); segs.append(seg)
            break
        t += dt
        q = target
        if target == exit_pos and target != wall:
            outcome = SURPASSED if v > 0 else REFLECTED
            ts.append(t); qs.append(q); ps.append(p); segs.append(seg)
            break
        # arrived at a step
        nxt = seg + 1 if v > 0 else seg - 1
        dv = levels[nxt] - levels[seg]
        kinetic = p * p / (2.0 * m)
        if kinetic > dv:
            p = math.copysign(math.sqrt(p * p - 2.0 * m * dv), v)
            seg = nxt
        else:
            p = -p
        ts.append(t); qs.append(q); ps.append(p); segs.append(seg)
        if target == exit_pos:
            # stepped exactly onto the boundary; classify by the new direction
            outcome = SURPASSED if p > 0 else REFLECTED
            break
    else:
        raise DidNotResolve("event budget exhausted in exact propagation")

    def drift_for(p_arr, seg_arr):
        scale = max(abs(energy0), DRIFT_FLOOR)
        return np.array(
            [
                abs(pp * pp / (2.0 * m) + levels[ss] - energy0) / scale
                for pp, ss in zip(p_arr, seg_arr)
            ]
        )

    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        t_eval = t_eval[(t_eval >= ts[0]) & (t_eval <= ts[-1])]
        idx = np.clip(np.searchsorted(ts, t_eval, side="right") - 1, 0, len(ts) - 1)
        q_out = np.array([qs[i] + (ps[i] / m) * (te - ts[i]) for i, te in zip(idx, t_eval)])
        p_out = np.array([ps[i] for i in idx])
        seg_out = [segs[i] for i in idx]
        return _assemble(
            model, t_eval, q_out, p_out, energy0, outcome, drift=drift_for(p_out, seg_out)
        )
    return _assemble(model, ts, qs, ps, energy0, outcome, drift=drift_for(ps, segs))


# ------------------------------------------------------------ smooth stepping


def _rhs(profile, eps):
    """Equations of motion on one profile: canonical (q, p) when eps is None,
    else the Newtonian (q, dq/dt) form at energy eps."""
    at = profile.at  # on Python floats: several times cheaper than on numpy scalars
    if eps is None:
        def rhs(t, y):
            q, p = y.tolist()
            _, vp, minv, minvp = at(q)
            return [p * minv, -vp - 0.5 * minvp * p * p]
    else:
        # force/m with VQ' = m (V' Minv + (V - eps) Minv'); the two m's cancel
        def rhs(t, y):
            q, u = y.tolist()
            v, vp, minv, minvp = at(q)
            return [u, -(vp * minv + (v - eps) * minvp)]
    return rhs


def _rk_segment(rhs, t0, y0, t_max, sc, events, max_step):
    sol = solve_ivp(
        rhs,
        (t0, t_max),
        y0,
        method="RK45",
        rtol=sc.rel_tol,
        atol=sc.abs_tol,
        events=events,
        max_step=max_step,
        dense_output=False,
    )
    if sol.status == -1:
        raise StepFailure(f"adaptive step control failed: {sol.message}")
    return sol


def _integrate_rk(model, q0, s0, t_end, sc, t_eval, rhs, p_report, v_init, energy0):
    lo_edge, hi_edge = evaluation_domain(model)
    sigma = model.smoothing_sigma
    max_step = sigma / (2.0 * abs(v_init)) if (sigma > 0 and v_init != 0) else np.inf

    def exit_right(t, y):
        return y[0] - hi_edge

    def exit_left(t, y):
        return y[0] - lo_edge

    exit_right.terminal, exit_right.direction = True, 1.0
    exit_left.terminal, exit_left.direction = True, -1.0

    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        [q0, s0],
        method="RK45",
        rtol=sc.rel_tol,
        atol=sc.abs_tol,
        t_eval=t_eval,
        events=[exit_right, exit_left],
        max_step=max_step,
        dense_output=False,
    )
    if sol.status == -1:
        raise StepFailure(f"adaptive step control failed: {sol.message}")
    ts, qs, ss = list(sol.t), list(sol.y[0]), list(sol.y[1])
    outcome = None
    if sol.status == 1:
        which = 0 if len(sol.t_events[0]) else 1
        outcome = SURPASSED if which == 0 else REFLECTED
        te = sol.t_events[which][0]
        ye = sol.y_events[which][0]
        if not ts or te > ts[-1]:
            ts.append(te); qs.append(ye[0]); ss.append(ye[1])
    ps = [p_report(qq, s) for qq, s in zip(qs, ss)]
    return _assemble(model, ts, qs, ps, energy0, outcome)


def _wall_zones(model):
    """(wall-local profile, wall, xi bounds, q bounds) per merged wall neighborhood.

    In the thin-wall regime the state coordinate q carries absolute roundoff
    of order eps_mach * |q| that the steep wall force (~ V0/sigma) converts
    into an energy random walk near the conservation gate. A zone integrates
    xi = q - wall on a profile built in those coordinates, where the
    dominant erf/Gaussian argument is exact (nearby doubles subtract
    exactly), so only genuine truncation error remains.
    """
    half = ZONE_SIGMAS * model.smoothing_sigma
    groups = []
    for b in model.pot.shape.x:
        if groups and b - half <= groups[-1][2]:
            groups[-1][2] = b + half
        else:
            groups.append([b, b - half, b + half])
    return [
        (Profile(model.params, model.pot.shape, origin=b), b, lo - b, hi - b, lo, hi)
        for b, lo, hi in groups
    ]


def _integrate_thin(model, q0, s0, t_end, sc, t_eval, eps, energy0):
    if t_eval is not None:
        raise ValueError("sample-time resampling is not supported in the thin-wall regime")
    zones = _wall_zones(model)
    lo_edge, hi_edge = evaluation_domain(model)
    sigma = model.smoothing_sigma
    m = model.params.m
    newton = eps is not None
    e_scale = max(abs(energy0), DRIFT_FLOOR)

    def zone_energy(profile, xi, s):
        v, _, minv, _ = profile.at(xi)
        if newton:
            return 0.5 * s * s / minv + v
        return 0.5 * s * s * minv + v

    def zone_momentum(profile, xi, s):
        return s / profile.at(xi)[2] if newton else s

    t, q, s = 0.0, q0, s0
    ts, qs, ps, drifts = [t], [q], [], []
    start_zone = next((z for z in zones if z[4] <= q <= z[5]), None)
    if start_zone is not None:
        profile, bj = start_zone[:2]
        ps.append(zone_momentum(profile, q - bj, s))
        drifts.append(abs(zone_energy(profile, q - bj, s) - energy0) / e_scale)
    else:
        p_init = s if not newton else s / inverse_mass(model, q)
        ps.append(p_init)
        drifts.append(abs(hamiltonian(model, q, p_init) - energy0) / e_scale)
    outcome = None

    for _ in range(MAX_EVENTS):
        if t >= t_end:
            break
        zone = next((z for z in zones if z[4] <= q <= z[5]), None)
        if zone is not None:
            profile, bj, xi_lo, xi_hi = zone[:4]
            xi = q - bj  # exact: q and bj are within a couple of ulps here
            v = s * profile.at(xi)[2] if not newton else s
            if v == 0.0:
                break
            # event surfaces sit outside the membership edges so a flight
            # landing exactly on an edge does not fire them at entry
            evt_pad = 1e-3 * sigma

            def leave_low(tt, y, lim=xi_lo - evt_pad):
                return y[0] - lim

            def leave_high(tt, y, lim=xi_hi + evt_pad):
                return y[0] - lim

            leave_low.terminal = leave_high.terminal = True
            span = min(t_end, t + 1e4 * (xi_hi - xi_lo) / abs(v))
            sol = _rk_segment(
                _rhs(profile, eps), t, [xi, s], span, sc, [leave_low, leave_high],
                max_step=2.0 * sigma / abs(v),
            )
            for tt, xx, sv in zip(sol.t[1:], sol.y[0][1:], sol.y[1][1:]):
                ts.append(float(tt))
                qs.append(bj + float(xx))
                ps.append(zone_momentum(profile, float(xx), float(sv)))
                drifts.append(abs(zone_energy(profile, float(xx), float(sv)) - energy0) / e_scale)
            t, xi, s = float(sol.t[-1]), float(sol.y[0][-1]), float(sol.y[1][-1])
            if sol.status == 0 and t >= t_end:
                break
            if sol.status == 0:
                raise DidNotResolve("no exit from a wall zone within the time budget")
            v = s * profile.at(xi)[2] if not newton else s
            if v == 0.0:
                break
            # the event surface is already outside the membership edges, so
            # converting back leaves the state in flight territory
            q = bj + xi
        else:
            v = s / m if not newton else s  # force-free: 1/M = 1/m exactly
            if v == 0.0:
                break
            ahead = []
            for *_, q_lo, q_hi in zones:
                if v > 0 and q_lo > q:
                    ahead.append(q_lo)
                if v < 0 and q_hi < q:
                    ahead.append(q_hi)
            boundary = hi_edge if v > 0 else lo_edge
            if (v > 0 and boundary > q) or (v < 0 and boundary < q):
                ahead.append(boundary)
            if not ahead:
                q += v * (t_end - t)
                t = t_end
            else:
                target = min(ahead) if v > 0 else max(ahead)
                dt = (target - q) / v
                if t + dt >= t_end:
                    q += v * (t_end - t)
                    t = t_end
                else:
                    t += dt
                    q = target
            p_here = s if not newton else s * m
            ts.append(t); qs.append(q); ps.append(p_here)
            drifts.append(abs(hamiltonian(model, q, p_here) - energy0) / e_scale)
            if t >= t_end:
                break
            if q == boundary:
                outcome = SURPASSED if v > 0 else REFLECTED
                break
    else:
        raise DidNotResolve("event budget exhausted in thin-wall stepping")

    return _assemble(model, ts, qs, ps, energy0, outcome, drift=drifts)


# -------------------------------------------------------------------- drivers


def _is_thin_wall(model) -> bool:
    sigma = model.smoothing_sigma
    shape = model.pot.shape
    if sigma <= 0 or not shape.steps:
        return False
    breaks = shape.x
    spacing = min((b2 - b1 for b1, b2 in zip(breaks[:-1], breaks[1:])), default=0.0)
    return sigma < spacing / THIN_WALL_FRACTION


def _default_t_end(model, v_init: float) -> float:
    if v_init == 0.0:
        raise ValueError("an explicit t_end is required when the initial velocity is zero")
    lo_edge, hi_edge = evaluation_domain(model)
    return T_END_TRANSITS * (hi_edge - lo_edge) / abs(v_init)


def _guard_resolvable(model) -> None:
    # a smoothing width thousands of times below the support size forces a
    # max step far too small for plain adaptive integration, and only
    # piecewise-constant potentials have the force-free gaps between walls
    # that the segmented path flies across
    sigma = model.smoothing_sigma
    if sigma <= 0 or _is_thin_wall(model):
        return
    a, b = support_interval(model.pot)
    if sigma < (b - a) / 5000:
        raise DomainError(
            f"smoothing width {sigma:g} is too small a feature for adaptive "
            "stepping on this potential; only piecewise-constant potentials "
            "support the segmented thin-wall path"
        )


def integrate_hamiltonian(
    model: LowMomentumModel,
    q0: float,
    p0: float,
    t_end: Optional[float] = None,
    step_control: Optional[StepControl] = None,
    t_eval=None,
) -> Trajectory:
    """Integrate the canonical equations from (q0, p0).

    The trajectory record carries the relative energy drift per sample; runs
    breaching the 1e-9 conservation gate raise StepFailure instead of
    returning. The outcome field reports 'surpassed' or 'reflected' when an
    asymptotic exit boundary was crossed within t_end, else None.
    """
    sc = step_control or DEFAULT_STEP_CONTROL
    energy0 = hamiltonian(model, q0, p0)
    if model.params.hbar == 0:
        if t_end is None:
            t_end = _default_t_end(model, p0 / model.params.m)
        return _integrate_exact(model, q0, p0, t_end, t_eval, energy0)

    def p_report(q, p):
        return p

    v_init = p0 * inverse_mass(model, q0)
    if t_end is None:
        t_end = _default_t_end(model, v_init)
    if _is_thin_wall(model):
        return _integrate_thin(model, q0, p0, t_end, sc, t_eval, None, energy0)
    _guard_resolvable(model)
    rhs = _rhs(model.profile, None)
    return _integrate_rk(model, q0, p0, t_end, sc, t_eval, rhs, p_report, v_init, energy0)


def integrate_newtonian(
    model: LowMomentumModel,
    q0: float,
    v0: float,
    eps: float,
    t_end: Optional[float] = None,
    step_control: Optional[StepControl] = None,
    t_eval=None,
) -> Trajectory:
    """Integrate the constant-mass form at fixed energy eps from (q0, v0).

    The initial data must satisfy eps = M(q0) v0^2 / 2 + V(q0); the reported
    momentum is p = M(q) dq/dt so records are directly comparable with the
    canonical form.
    """
    sc = step_control or DEFAULT_STEP_CONTROL
    m = model.params.m
    mi0 = inverse_mass(model, q0)
    check = 0.5 * v0 * v0 / mi0 + smoothed_potential(model, q0)
    if abs(check - eps) > 1e-10 * max(1.0, abs(eps)):
        raise InconsistentEnergy(
            f"initial data carries energy {check:.12g}, stated energy is {eps:.12g}"
        )
    if model.params.hbar == 0:
        if t_end is None:
            t_end = _default_t_end(model, v0)
        return _integrate_exact(model, q0, m * v0, t_end, t_eval, eps)

    def p_report(q, u):
        return u / inverse_mass(model, q)

    if t_end is None:
        t_end = _default_t_end(model, v0)
    if _is_thin_wall(model):
        return _integrate_thin(model, q0, v0, t_end, sc, t_eval, eps, eps)
    _guard_resolvable(model)
    rhs = _rhs(model.profile, eps)
    return _integrate_rk(model, q0, v0, t_end, sc, t_eval, rhs, p_report, v0, eps)


# -------------------------------------------------------------- classification


def launch_state(model: LowMomentumModel, eps: float):
    """Left-asymptotic initial conditions carrying energy eps toward the barrier."""
    a, b = support_interval(model.pot)
    lo_edge, _ = evaluation_domain(model)
    q0 = lo_edge - 0.5 * (b - a)
    v_here = smoothed_potential(model, q0)
    if eps <= v_here:
        raise DomainError(f"energy {eps:g} does not exceed the asymptotic potential {v_here:g}")
    p0 = math.sqrt(2.0 * (eps - v_here) / inverse_mass(model, q0))
    return q0, p0


def classify_traversal(
    model: LowMomentumModel, eps: float, step_control: Optional[StepControl] = None
) -> str:
    """Decide whether energy eps surpasses the barrier or reflects.

    Runs an actual trajectory for every generic energy. The single degenerate
    tie, eps equal to the tunneling threshold to within 1e-12 relative, is
    decided by convention as reflected without integrating: the true motion
    approaches the barrier top asymptotically and never crosses, while a
    numerical run accumulates just enough truncation error to creep over.
    """
    from .lowmomentum import tunneling_threshold

    threshold = tunneling_threshold(model)
    if abs(eps - threshold) <= 1e-12 * max(1.0, abs(threshold)):
        return REFLECTED
    q0, p0 = launch_state(model, eps)
    traj = integrate_hamiltonian(model, q0, p0, step_control=step_control)
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
