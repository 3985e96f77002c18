"""Classical trajectory integration for the reduced transport model.

Two equivalent formulations are integrated: the canonical pair

    dq/dt = p / M(q),    dp/dt = -dV/dq - (1/2) d(1/M)/dq p^2

and the constant-mass Newtonian form m d2q/dt2 = -dVQ/dq at fixed conserved
energy, whose momentum is reported as p = M(q) dq/dt. Both conserve
eps = p^2/(2 M(q)) + V(q), and every accepted run is gated on that drift.

One event loop propagates both forms over force zones. The smoothed force
acts only within a few smoothing widths sigma of the breakpoints where the
bare potential jumps or bends and along its ramps, so the zones are the
+-FORCE_SIGMAS = 9 sigma neighbourhoods of those breakpoints, merged where
they overlap or a ramp joins them (``_zones``). Beyond a zone's edge every
corner's |u| = |q - x| / (sqrt(2) sigma) exceeds 6: its erf rounds to +-1
and its Gaussian is below e^-40.5, 1/80 of eps, so V is the bare level of
the gap and 1/M = 1/m to double precision, and the force is taken as zero.
Flight between zones is exact, and an adaptive step never spans a gap. The
asymptotic exits are the edges of the evaluation domain. At hbar = 0 the
zones have zero width and are crossed by the jump rule (adaptive stepping
on a discontinuous force would be meaningless): a particle reaching a step
of height dV crosses with |p'| = sqrt(p^2 - 2 m dV) when its kinetic energy
exceeds dV and reflects otherwise.

A zone of nonzero width is crossed by one adaptive Dormand-Prince 8(5,3)
segment (``solve_ivp``, on two Python floats) whose max step, 2 sigma over
the speed at entry, keeps it from stepping over a wall. Both right-hand
sides share one split of the jumps against the zone's window and sum terms
only for those that act on it, bitwise as ``Profile.at``: the canonical one
(``Profile.canonical_rhs``) never forms V, so a jump costs it no error
function, and the Newtonian one (``Profile.newtonian_rhs``) adds a far
jump's exact +-J/2 to V. The segment ends when the state
leaves downward through the zone's low surface or upward through its high
one, each the zone edge clipped to the evaluation domain; leaving through a
domain edge decides the outcome. The stepper follows scipy's DOP853 rule
for rule (first step, step control, dense output and event location), so
its steps are scipy's to roundoff, at a fraction of the per-step cost. Its
tableau is one module table in scipy's layout, each coefficient written
once (a test pins it to scipy's); the unrolled stages read it through local
names bound once per run. At the tolerance REL_TOL an eighth-order step is
about four times the length of a fifth-order one, so it crosses a zone in
about a quarter of the steps at twice the calls per step. Where the max
step, not the tolerance, sets the step (narrow walls, hbar well below 1)
that trade is lost: each clamped step costs twelve calls.

``classify_traversal`` runs a launched trajectory only to its first turning
point or over the top of V. By time reversal the way back retraces the way
in, so the first accepted step whose momentum has turned (``solve_ivp``'s
status 2), or a reflection at a step at hbar = 0, decides 'reflected'. At
hbar > 0 a run that passes the top, the leftmost point where the model's
scan found the maximum of V, moving forward decides 'surpassed': with M > 0
and eps conserved, p^2/(2M) = eps - V(q) >= eps - max V > 0 beyond it, so p
never vanishes again. The top is treated like the far edge: it clips the
exact flight and a zone's high surface. About half of either run's work is
saved. The integrators run to an exit or t_end. ``_propagate`` sets up
every driver's run: checks, time budget, energy.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from typing import NamedTuple, Optional

from .atomic import csv_text
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
    _smoothed,
    corner_groups,
    evaluation_domain,
    inverse_mass,
    tunneling_threshold,
)
from .physical import Record
from .potential import _require_finite, eval_classical, support_interval

SURPASSED = "surpassed"
REFLECTED = "reflected"

DRIFT_LIMIT = 1e-9
DRIFT_FLOOR = 1e-12
REL_TOL = 1e-11          # adaptive step control
ABS_TOL = 1e-12
# reach of a force zone beyond its outermost corners, in units of sigma: |u| = 6
# (6 sqrt(2) sigma) rounded up to whole sigma (``_zones``)
FORCE_SIGMAS = float(math.ceil(6.0 * math.sqrt(2.0)))
MAX_ZONE_SIGMAS = 5000.0  # widest breakpoint span of one zone, in units of sigma
WINDOW_SIGMAS = 5.0      # reach of a zone's jump window beyond its edges, in units of sigma
T_END_TRANSITS = 50.0    # default time budget in units of domain transit time
MAX_EVENTS = 100_000


class Trajectory(Record):
    """Time-ordered samples of one scattering run with its conservation
    record; t, q, p and energy_drift are tuples of floats. n_rhs counts the
    right-hand-side calls, summed over the run's segments."""

    __slots__ = _fields = (
        "t", "q", "p", "energy0", "energy_drift", "max_energy_drift", "outcome", "n_rhs",
    )

    def __init__(self, t: tuple, q: tuple, p: tuple, energy0: float, energy_drift: tuple,
                 max_energy_drift: float, outcome: Optional[str] = None, n_rhs: int = 0):
        values = (t, q, p, energy0, energy_drift, max_energy_drift, outcome, n_rhs)
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        if len(t) < 1:
            raise ValueError("trajectory needs at least one sample")
        if not (len(q) == len(p) == len(energy_drift) == len(t)):
            raise ValueError("sample arrays must have equal length")
        if not all(b > a for a, b in zip(t, t[1:])):  # a NaN time fails too
            raise ValueError("sample times must be strictly increasing")


def hamiltonian(model: LowMomentumModel, q: float, p: float) -> float:
    """Conserved energy p^2/(2 M(q)) + V(q); ValueError when q or p is not
    finite."""
    if not (-math.inf < q < math.inf and -math.inf < p < math.inf):
        raise ValueError(f"position and momentum must be finite, got {q!r} and {p!r}")
    if model.profile is None:
        return 0.5 * p * p / model.params.m + eval_classical(model.pot, q)
    v, minv = model.profile.v_minv_at(q)
    return 0.5 * p * p * minv + v


# ------------------------------------------------------- Dormand-Prince 8(5,3)

# The DOP853 tableau (Hairer, Norsett & Wanner, Solving ODEs I, II.10) as
# scipy's dop853_coefficients holds it, each coefficient once. _A[i] lists the
# nonzero entries of A's row i as (stage j, A[i, j]) pairs: stages 1-11 make a
# step, row 12 is B, the weights of the eighth-order solution (its derivative
# is the next step's stage 0), and the dense output adds stages 13-15. E5 and
# E3 weigh the fifth- and third-order error estimates; E3 is B less three
# third-order weights, formed as scipy forms it. _D gives the interpolant's top
# four coefficients from all sixteen stages.
_A = (
    (),
    ((0, 5.26001519587677318785587544488e-2),),
    ((0, 1.97250569845378994544595329183e-2), (1, 5.91751709536136983633785987549e-2)),
    ((0, 2.95875854768068491816892993775e-2), (2, 8.87627564304205475450678981324e-2)),
    ((0, 2.41365134159266685502369798665e-1), (2, -8.84549479328286085344864962717e-1),
     (3, 9.24834003261792003115737966543e-1)),
    ((0, 3.7037037037037037037037037037e-2), (3, 1.70828608729473871279604482173e-1),
     (4, 1.25467687566822425016691814123e-1)),
    ((0, 3.7109375e-2), (3, 1.70252211019544039314978060272e-1),
     (4, 6.02165389804559606850219397283e-2), (5, -1.7578125e-2)),
    ((0, 3.70920001185047927108779319836e-2), (3, 1.70383925712239993810214054705e-1),
     (4, 1.07262030446373284651809199168e-1), (5, -1.53194377486244017527936158236e-2),
     (6, 8.27378916381402288758473766002e-3)),
    ((0, 6.24110958716075717114429577812e-1), (3, -3.36089262944694129406857109825),
     (4, -8.68219346841726006818189891453e-1), (5, 2.75920996994467083049415600797e1),
     (6, 2.01540675504778934086186788979e1), (7, -4.34898841810699588477366255144e1)),
    ((0, 4.77662536438264365890433908527e-1), (3, -2.48811461997166764192642586468),
     (4, -5.90290826836842996371446475743e-1), (5, 2.12300514481811942347288949897e1),
     (6, 1.52792336328824235832596922938e1), (7, -3.32882109689848629194453265587e1),
     (8, -2.03312017085086261358222928593e-2)),
    ((0, -9.3714243008598732571704021658e-1), (3, 5.18637242884406370830023853209),
     (4, 1.09143734899672957818500254654), (5, -8.14978701074692612513997267357),
     (6, -1.85200656599969598641566180701e1), (7, 2.27394870993505042818970056734e1),
     (8, 2.49360555267965238987089396762), (9, -3.0467644718982195003823669022)),
    ((0, 2.27331014751653820792359768449), (3, -1.05344954667372501984066689879e1),
     (4, -2.00087205822486249909675718444), (5, -1.79589318631187989172765950534e1),
     (6, 2.79488845294199600508499808837e1), (7, -2.85899827713502369474065508674),
     (8, -8.87285693353062954433549289258), (9, 1.23605671757943030647266201528e1),
     (10, 6.43392746015763530355970484046e-1)),
    ((0, 5.42937341165687622380535766363e-2), (5, 4.45031289275240888144113950566),
     (6, 1.89151789931450038304281599044), (7, -5.8012039600105847814672114227),
     (8, 3.1116436695781989440891606237e-1), (9, -1.52160949662516078556178806805e-1),
     (10, 2.01365400804030348374776537501e-1), (11, 4.47106157277725905176885569043e-2)),
    ((0, 5.61675022830479523392909219681e-2), (6, 2.53500210216624811088794765333e-1),
     (7, -2.46239037470802489917441475441e-1), (8, -1.24191423263816360469010140626e-1),
     (9, 1.5329179827876569731206322685e-1), (10, 8.20105229563468988491666602057e-3),
     (11, 7.56789766054569976138603589584e-3), (12, -8.298e-3)),
    ((0, 3.18346481635021405060768473261e-2), (5, 2.83009096723667755288322961402e-2),
     (6, 5.35419883074385676223797384372e-2), (7, -5.49237485713909884646569340306e-2),
     (10, -1.08347328697249322858509316994e-4), (11, 3.82571090835658412954920192323e-4),
     (12, -3.40465008687404560802977114492e-4), (13, 1.41312443674632500278074618366e-1)),
    ((0, -4.28896301583791923408573538692e-1), (5, -4.69762141536116384314449447206),
     (6, 7.68342119606259904184240953878), (7, 4.06898981839711007970213554331),
     (8, 3.56727187455281109270669543021e-1), (12, -1.39902416515901462129418009734e-3),
     (13, 2.9475147891527723389556272149), (14, -9.15095847217987001081870187138)),
)
_E5 = (
    (0, 0.1312004499419488073250102996e-1), (5, -0.1225156446376204440720569753e+1),
    (6, -0.4957589496572501915214079952), (7, 0.1664377182454986536961530415e+1),
    (8, -0.3503288487499736816886487290), (9, 0.3341791187130174790297318841),
    (10, 0.8192320648511571246570742613e-1), (11, -0.2235530786388629525884427845e-1),
)
_E3 = tuple(
    (j, b - {0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
             11: 0.220588235294117647058823529412e-1}.get(j, 0.0))
    for j, b in _A[12]
)
_D = (
    ((0, -0.84289382761090128651353491142e+1), (5, 0.56671495351937776962531783590),
     (6, -0.30689499459498916912797304727e+1), (7, 0.23846676565120698287728149680e+1),
     (8, 0.21170345824450282767155149946e+1), (9, -0.87139158377797299206789907490),
     (10, 0.22404374302607882758541771650e+1), (11, 0.63157877876946881815570249290),
     (12, -0.88990336451333310820698117400e-1), (13, 0.18148505520854727256656404962e+2),
     (14, -0.91946323924783554000451984436e+1), (15, -0.44360363875948939664310572000e+1)),
    ((0, 0.10427508642579134603413151009e+2), (5, 0.24228349177525818288430175319e+3),
     (6, 0.16520045171727028198505394887e+3), (7, -0.37454675472269020279518312152e+3),
     (8, -0.22113666853125306036270938578e+2), (9, 0.77334326684722638389603898808e+1),
     (10, -0.30674084731089398182061213626e+2), (11, -0.93321305264302278729567221706e+1),
     (12, 0.15697238121770843886131091075e+2), (13, -0.31139403219565177677282850411e+2),
     (14, -0.93529243588444783865713862664e+1), (15, 0.35816841486394083752465898540e+2)),
    ((0, 0.19985053242002433820987653617e+2), (5, -0.38703730874935176555105901742e+3),
     (6, -0.18917813819516756882830838328e+3), (7, 0.52780815920542364900561016686e+3),
     (8, -0.11573902539959630126141871134e+2), (9, 0.68812326946963000169666922661e+1),
     (10, -0.10006050966910838403183860980e+1), (11, 0.77771377980534432092869265740),
     (12, -0.27782057523535084065932004339e+1), (13, -0.60196695231264120758267380846e+2),
     (14, 0.84320405506677161018159903784e+2), (15, 0.11992291136182789328035130030e+2)),
    ((0, -0.25693933462703749003312586129e+2), (5, -0.15418974869023643374053993627e+3),
     (6, -0.23152937917604549567536039109e+3), (7, 0.35763911791061412378285349910e+3),
     (8, 0.93405324183624310003907691704e+2), (9, -0.37458323136451633156875139351e+2),
     (10, 0.10409964950896230045147246184e+3), (11, 0.29840293426660503123344363579e+2),
     (12, -0.43533456590011143754432175058e+2), (13, 0.96324553959188282948394950600e+2),
     (14, -0.39177261675615439165231486172e+2), (15, -0.14972683625798562581422125276e+3)),
)
# the step's coefficients without their stage indices, in the order solve_ivp
# binds them: A's rows 1-11, B, E5 and E3
_STEP = tuple(tuple(a for _, a in row) for row in (*_A[1:13], _E5, _E3))


class Segment(NamedTuple):
    """One solve_ivp run.

    Without t_eval the samples are the start and every accepted step, the
    exit point replacing the last one when the run leaves the zone; with it,
    the requested times reached. status is 0 when the run reached the end of
    t_span, 1 when it left the zone, 2 when it turned (only a run asked to
    stop there) and -1 when the step size fell below 10 ulp of the time; exit
    is (side, t, q, s) when status is 1, side -1 through the low surface and
    +1 through the high one. nfev counts every right-hand-side call, the
    dense output's included.
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


def solve_ivp(fun, t_span, y0, *, t_eval, max_step, low, high, turn=False) -> Segment:
    """Dormand-Prince 8(5,3) run of (q, s)' = fun(q, s) from y0 = (q, s) over
    t_span, ending early when q leaves downward through low or upward
    through high (low < high). With turn it also ends, with status 2 and no
    exit located, at the first accepted step where s no longer has the sign
    it started with (s == 0 counts as a turn); that status takes precedence
    over the other two.

    The control is scipy's DOP853, rule for rule (Hairer, Norsett & Wanner,
    Solving ODEs I, II.10): twelve stages a step, the first of them the last
    of the step before; the first-step choice for an error of order 7; the
    error norm |h| |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) n) of the fifth- and
    third-order estimates, each scaled by ABS_TOL + max(|y|, |y_new|) REL_TOL;
    step factors 0.9 err^(-1/8) within [0.2, 10] and none above 1 right
    after a rejection; a minimum step of 10 ulp(t) and clamps at max_step
    and the end of t_span. The requested samples and the exit come from the
    degree-7 dense output, whose three extra stages are computed only on a
    step that needs it; the exit time is its root by Brent's method to
    EVENT_TOL.

    The coefficients come from the module's one tableau (_A, _E5, _E3, _D).
    A step's are bound to local names once per call, a<i>_<j> for A[i, j]
    and b<j>, e5_<j>, e3_<j> for B, E5, E3 at stage j, and the unrolled
    stages sum k_j a_ij term by term in stage order, then multiply by h.
    """
    t, t_end = t_span
    q, s = y0
    fq, fs = fun(q, s)
    nfev = 1
    ts, qs, ss = ([t], [q], [s]) if t_eval is None else ([], [], [])
    cursor = 0
    forward = s > 0.0
    if t >= t_end:
        return Segment(ts, qs, ss, nfev, 0, None)
    rtol, atol = REL_TOL, ABS_TOL

    # first step: the error estimate is of order 7
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
        h1 = (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100 * h0, h1, interval, max_step)

    ((a1_0,), (a2_0, a2_1), (a3_0, a3_2), (a4_0, a4_2, a4_3), (a5_0, a5_3, a5_4),
     (a6_0, a6_3, a6_4, a6_5), (a7_0, a7_3, a7_4, a7_5, a7_6),
     (a8_0, a8_3, a8_4, a8_5, a8_6, a8_7), (a9_0, a9_3, a9_4, a9_5, a9_6, a9_7, a9_8),
     (a10_0, a10_3, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9),
     (a11_0, a11_3, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10),
     (b0, b5, b6, b7, b8, b9, b10, b11), (e5_0, e5_5, e5_6, e5_7, e5_8, e5_9, e5_10, e5_11),
     (e3_0, e3_5, e3_6, e3_7, e3_8, e3_9, e3_10, e3_11)) = _STEP

    # The hot loop calls no max, min or abs: each is a comparison that picks
    # the operand the builtin would, ties and NaN included (max(a, b) is a
    # unless b > a, min(a, b) is a unless b < a).
    nextafter, inf, sqrt = math.nextafter, math.inf, math.sqrt
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
            # stages 0-11, each summed term by term in stage order
            k0q, k0s = fq, fs
            k1q, k1s = fun(q + (k0q * a1_0) * h,
                           s + (k0s * a1_0) * h)
            k2q, k2s = fun(q + (k0q * a2_0 + k1q * a2_1) * h,
                           s + (k0s * a2_0 + k1s * a2_1) * h)
            k3q, k3s = fun(q + (k0q * a3_0 + k2q * a3_2) * h,
                           s + (k0s * a3_0 + k2s * a3_2) * h)
            k4q, k4s = fun(q + (k0q * a4_0 + k2q * a4_2 + k3q * a4_3) * h,
                           s + (k0s * a4_0 + k2s * a4_2 + k3s * a4_3) * h)
            k5q, k5s = fun(q + (k0q * a5_0 + k3q * a5_3 + k4q * a5_4) * h,
                           s + (k0s * a5_0 + k3s * a5_3 + k4s * a5_4) * h)
            k6q, k6s = fun(q + (k0q * a6_0 + k3q * a6_3 + k4q * a6_4 + k5q * a6_5) * h,
                           s + (k0s * a6_0 + k3s * a6_3 + k4s * a6_4 + k5s * a6_5) * h)
            k7q, k7s = fun(q + (k0q * a7_0 + k3q * a7_3 + k4q * a7_4 + k5q * a7_5 + k6q * a7_6) * h,
                           s + (k0s * a7_0 + k3s * a7_3 + k4s * a7_4 + k5s * a7_5 + k6s * a7_6) * h)
            k8q, k8s = fun(q + (k0q * a8_0 + k3q * a8_3 + k4q * a8_4 + k5q * a8_5 + k6q * a8_6
                                + k7q * a8_7) * h,
                           s + (k0s * a8_0 + k3s * a8_3 + k4s * a8_4 + k5s * a8_5 + k6s * a8_6
                                + k7s * a8_7) * h)
            k9q, k9s = fun(q + (k0q * a9_0 + k3q * a9_3 + k4q * a9_4 + k5q * a9_5 + k6q * a9_6
                                + k7q * a9_7 + k8q * a9_8) * h,
                           s + (k0s * a9_0 + k3s * a9_3 + k4s * a9_4 + k5s * a9_5 + k6s * a9_6
                                + k7s * a9_7 + k8s * a9_8) * h)
            k10q, k10s = fun(q + (k0q * a10_0 + k3q * a10_3 + k4q * a10_4 + k5q * a10_5
                                  + k6q * a10_6 + k7q * a10_7 + k8q * a10_8 + k9q * a10_9) * h,
                             s + (k0s * a10_0 + k3s * a10_3 + k4s * a10_4 + k5s * a10_5
                                  + k6s * a10_6 + k7s * a10_7 + k8s * a10_8 + k9s * a10_9) * h)
            k11q, k11s = fun(q + (k0q * a11_0 + k3q * a11_3 + k4q * a11_4 + k5q * a11_5
                                  + k6q * a11_6 + k7q * a11_7 + k8q * a11_8 + k9q * a11_9
                                  + k10q * a11_10) * h,
                             s + (k0s * a11_0 + k3s * a11_3 + k4s * a11_4 + k5s * a11_5
                                  + k6s * a11_6 + k7s * a11_7 + k8s * a11_8 + k9s * a11_9
                                  + k10s * a11_10) * h)
            q_new = q + h * (k0q * b0 + k5q * b5 + k6q * b6 + k7q * b7 + k8q * b8 + k9q * b9
                             + k10q * b10 + k11q * b11)
            s_new = s + h * (k0s * b0 + k5s * b5 + k6s * b6 + k7s * b7 + k8s * b8 + k9s * b9
                             + k10s * b10 + k11s * b11)
            e5q = (k0q * e5_0 + k5q * e5_5 + k6q * e5_6 + k7q * e5_7 + k8q * e5_8 + k9q * e5_9
                   + k10q * e5_10 + k11q * e5_11)
            e5s = (k0s * e5_0 + k5s * e5_5 + k6s * e5_6 + k7s * e5_7 + k8s * e5_8 + k9s * e5_9
                   + k10s * e5_10 + k11s * e5_11)
            e3q = (k0q * e3_0 + k5q * e3_5 + k6q * e3_6 + k7q * e3_7 + k8q * e3_8 + k9q * e3_9
                   + k10q * e3_10 + k11q * e3_11)
            e3s = (k0s * e3_0 + k5s * e3_5 + k6s * e3_6 + k7s * e3_7 + k8s * e3_8 + k9s * e3_9
                   + k10s * e3_10 + k11s * e3_11)
            k12q, k12s = fun(q_new, s_new)  # stage 0 of the next step
            nfev += 12
            # the sign of a zero or a NaN in |y| cannot reach the scale
            y_abs = -q_new if q_new < 0.0 else q_new
            scale_q = atol + (y_abs if y_abs > q_abs else q_abs) * rtol
            y_abs = -s_new if s_new < 0.0 else s_new
            scale_s = atol + (y_abs if y_abs > s_abs else s_abs) * rtol
            e5q, e5s = e5q / scale_q, e5s / scale_s
            e3q, e3s = e3q / scale_q, e3s / scale_s
            n5 = e5q * e5q + e5s * e5s
            n3 = e3q * e3q + e3s * e3s
            error = 0.0 if n5 == 0.0 and n3 == 0.0 else h * n5 / sqrt((n5 + 0.01 * n3) * 2)
            if error < 1.0:
                factor = 10.0
                if error != 0.0:
                    factor = 0.9 * error ** -0.125
                    if not factor < 10.0:
                        factor = 10.0
                if rejected and not factor < 1.0:
                    factor = 1.0
                h_abs = h * factor
                break
            factor = 0.9 * error ** -0.125
            h_abs = h * (factor if factor > 0.2 else 0.2)
            rejected = True

        t_old, q_old, s_old = t, q, s
        t, q, s, fq, fs = t_new, q_new, s_new, k12q, k12s
        status = 0 if t >= t_end else None
        d_low, d_high = q - low, q - high
        # low < high, so a step leaves through one surface at most
        if g_low >= 0.0 and d_low <= 0.0:
            side, edge = -1, low
        elif g_high <= 0.0 and d_high >= 0.0:
            side, edge = 1, high
        else:
            side = 0
        g_low, g_high = d_low, d_high
        if turn and (s <= 0.0 if forward else s >= 0.0):
            status, side = 2, 0
        sampled = t_eval is not None and cursor < len(t_eval) and t_eval[cursor] <= t
        if side or sampled:
            dense = _dense_output(
                fun, t_old, h, (q_old, s_old), (q, s),
                ((k0q, k0s), (k1q, k1s), (k2q, k2s), (k3q, k3s), (k4q, k4s), (k5q, k5s),
                 (k6q, k6s), (k7q, k7s), (k8q, k8s), (k9q, k9s), (k10q, k10s), (k11q, k11s),
                 (k12q, k12s)),
            )
            nfev += 3
        leaving = None
        if side:
            t = _brent(lambda tau: dense(tau)[0] - edge, t_old, t)
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


def _stage_sum(k, row, c):
    """Sum of k[j][c] a over a row of (stage j, coefficient a) pairs, term by
    term in stage order."""
    (j, a), *rest = row
    acc = k[j][c] * a
    for j, a in rest:
        acc = acc + k[j][c] * a
    return acc


def _dense_output(fun, t_old, h, y_old, y, k):
    """Degree-7 interpolant (q, s)(tau) on the step of size h from y_old at
    t_old to y, built as scipy's DOP853 builds it from the step's thirteen
    stages k, (q, s) pairs, and three extra ones: three more calls of fun."""
    k = list(k)
    for row in _A[13:]:
        k.append(fun(y_old[0] + _stage_sum(k, row, 0) * h, y_old[1] + _stage_sum(k, row, 1) * h))
    coeffs = []
    for c in (0, 1):
        delta = y[c] - y_old[c]
        coeffs.append((delta, h * k[0][c] - delta, 2 * delta - h * (k[12][c] + k[0][c]),
                       *(h * _stage_sum(k, row, c) for row in _D)))

    def dense(tau):
        x = (tau - t_old) / h
        x1 = 1 - x
        return tuple(
            ((((((f6 * x + f5) * x1 + f4) * x + f3) * x1 + f2) * x + f1) * x1 + f0) * x + y0
            for (f0, f1, f2, f3, f4, f5, f6), y0 in zip(coeffs, y_old)
        )

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


def _zones(model) -> tuple:
    """The force zones in increasing order: the +-FORCE_SIGMAS sigma
    neighbourhoods of the corner groups (``corner_groups``: breakpoints where
    the bare potential jumps or bends, merged where their neighbourhoods
    overlap), merged further where a ramp joins two groups; at hbar = 0, one
    zero-width zone per step. Built once per model and zone constants.

    The reach is where a corner's terms reach their asymptotes in double
    precision. At |u| = c |q - x| = 6, that is 6 sqrt(2) sigma, erf(u)
    rounds to +-1 and exp(-u^2) ~ 2.3e-16 is at eps; the weights of the
    Gaussian in 1/M grow like beta times the jump (and beta sigma times the
    kink), so at beta 4 those terms are still a few ulp of 1/m there.
    Rounded up to 9 sigma, exp(-u^2) = e^-40.5 ~ 2.6e-18, 1/80 of eps: on
    every edge V is within an ulp of the gap's level and 1/M is 1/m exactly,
    so flight in the gap continues the zone's motion and energy. The
    extremum scan keeps its wider ZONE_SIGMAS, because extrema of V can lie
    far out where jump sizes differ greatly.

    A zone steps on a profile in coordinates centred on its breakpoints:
    there the state coordinate carries no absolute roundoff of order
    eps_mach * |q|, which the steep wall force (~ V0/sigma) would turn into
    an energy random walk near the conservation gate, and for a lone wall
    the dominant erf/Gaussian arguments are exact (nearby doubles subtract
    exactly). Its window, the zone widened by WINDOW_SIGMAS sigma (more than
    two max steps at the entry speed), is where its canonical right-hand side
    leaves out the jumps of other zones whose terms are exact zeros there
    (``Profile.canonical_rhs``); a stage beyond it reads every corner. A
    zone whose breakpoints span more than MAX_ZONE_SIGMAS sigma is refused:
    its max step of 2 sigma over the speed would need far too many steps.
    """
    return _built_zones(model, FORCE_SIGMAS, WINDOW_SIGMAS, MAX_ZONE_SIGMAS)


@functools.lru_cache(maxsize=8)
def _built_zones(model, reach: float, widen: float, widest: float) -> tuple:
    """``_zones`` at the given zone constants, in units of sigma; they are
    arguments so that the cache keys on them."""
    pot, sigma = model.pot, model.smoothing_sigma
    if model.profile is None and not pot.steps:
        raise DomainError("exact classical propagation needs a piecewise-constant potential")
    half = reach * sigma
    groups = []  # [first, last] breakpoint index
    for first, last in corner_groups(pot, half):
        if groups and pot.left[first - 1] != pot.right[first - 1]:
            groups[-1][1] = last  # a ramp joins the two groups
        else:
            groups.append([first, last])
    zones = []
    for i, j in groups:
        first, last = pot.x[i], pot.x[j]
        if last - first > widest * sigma:
            raise DomainError(
                f"smoothing width {sigma:g} is too small a feature for adaptive stepping "
                f"across the force zone [{first:g}, {last:g}] of this potential"
            )
        origin = 0.5 * (first + last)
        span = half + widen * sigma
        window = (first - span - origin, last + span - origin)
        profile = None if model.profile is None else Profile(model.params, pot, origin, window)
        zones.append(_Zone(profile, origin, first - half, last + half, pot.levels[j + 1]))
    return tuple(zones)


def _rhs(profile, eps):
    """Equations of motion on one profile, on Python floats: canonical (q, p)
    when eps is None, which never forms V, else the Newtonian (q, dq/dt)
    form at energy eps. Each is one closure of the profile's."""
    if eps is None:
        return profile.canonical_rhs()
    return profile.newtonian_rhs(eps)


def _propagate(model, q0, s0, eps=None, t_end=None, t_eval=None, turn=False) -> Trajectory:
    """Event loop over the force zones from (q0, s0) up to time t_end, and
    the one place where every driver's run is set up.

    s is the momentum p in the canonical form (eps None), else the velocity
    dq/dt of the Newtonian form at energy eps, which (q0, s0) must carry to
    1e-10 relative. The default t_end is T_END_TRANSITS domain transits at
    the launch speed. Drift is measured from eps, or from ``hamiltonian`` at
    the start. Without t_eval the samples are the start, every accepted RK
    step, the state after every jump and the end; with it, the requested
    times reached plus the exit point when the run ends at an exit. Each
    sample is one (t, q, p, energy) row of one list, which the Trajectory's
    columns are taken from.

    With turn, a run launched toward +q ends 'reflected' at its first
    reversal: the accepted step of a zone segment where the sign of s turns
    (``solve_ivp``'s status 2), or a reflection in a jump zone. In 1-D
    conservative motion the way back retraces the way in, so the full run
    would leave through the low edge. It ends 'surpassed' where it crosses
    the model's top point moving forward (exactly there: the top clips the
    flight and the zone's high surface like the high edge), since beyond it
    the momentum cannot vanish; a top at or left of q0 decides nothing, and
    at hbar = 0 there is none. Its samples are a prefix of the full run's,
    up to that exit.
    """
    newton = eps is not None
    what = "initial state, energy and time budget" if newton else "initial state and time budget"
    _require_finite(what, (q0, s0, eps if newton else 0.0, 0.0 if t_end is None else t_end))
    lo_edge, hi_edge = evaluation_domain(model)
    if t_end is None:
        speed = s0 if newton else s0 * inverse_mass(model, q0)
        if speed == 0.0:
            raise ValueError("an explicit t_end is required when the initial velocity is zero")
        t_end = T_END_TRANSITS * (hi_edge - lo_edge) / abs(speed)
    elif t_end < 0:
        raise ValueError(f"time budget must be nonnegative, got {t_end:g}")
    if newton:
        v, minv = _smoothed(model, q0)
        check = 0.5 * s0 * s0 / minv + v
        if abs(check - eps) > 1e-10 * max(1.0, abs(eps)):
            raise InconsistentEnergy(
                f"initial data carries energy {check:.12g}, stated energy is {eps:.12g}")
    energy0 = eps if newton else hamiltonian(model, q0, s0)
    if t_eval is not None:
        t_eval = [float(tau) for tau in t_eval]
        if not (all(map(math.isfinite, t_eval)) and all(b > a for a, b in zip(t_eval, t_eval[1:]))):
            raise ValueError("t_eval must be finite and strictly increasing")
        t_eval = [tau for tau in t_eval if 0.0 <= tau <= t_end]
        if not t_eval:
            raise ValueError(f"t_eval has no time in [0, t_end] = [0, {t_end:g}]")
    zones = _zones(model)
    m = model.params.m
    levels = (model.pot.level, *(z.level for z in zones))  # of each gap
    rows = []  # (t, q, p, energy) per sample
    cursor = 0  # first requested time not yet sampled

    def put(new):
        """Append sample rows, dropping a first one at a time already recorded."""
        rows.extend(new[1:] if rows and new and new[0][0] <= rows[-1][0] else new)

    def fly(t_a, q_a, v, p, energy, t_b, closed):
        """Sample exact flight from (t_a, q_a) up to t_b, included when closed
        (once, when t_b is t_a)."""
        nonlocal cursor
        if t_eval is None:
            ts = [t_a, t_b] if closed and t_b > t_a else [t_a]
        else:
            stop = (bisect_right if closed else bisect_left)(t_eval, t_b)
            ts, cursor = t_eval[cursor:stop], stop
        put([(tt, q_a + v * (tt - t_a), p, energy) for tt in ts])

    def zone_state(profile, xi, s):
        """p and energy of a zone state, from V and 1/M at xi."""
        v, minv = profile.v_minv_at(xi)
        if newton:
            return s / minv, 0.5 * s * s / minv + v
        return s, 0.5 * s * s * minv + v

    # with turn, a run that passes the top of V moving forward has decided
    # 'surpassed'; a top at or left of the launch point decides nothing
    top = model._top_at if turn else None
    top = top if top is not None and top > q0 else math.inf
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
                target = min(edge, hi_edge if hi_edge > q else math.inf, top)
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
                put([(t, q, p, energy)])
                break
            zone = gap if v > 0 else gap - 1
        z = zones[zone]
        if z.profile is None:
            p = s * m if newton else s
            ahead = zone + 1 if p > 0 else zone
            dv = levels[ahead] - levels[gap]
            turned = not p * p / (2.0 * m) > dv
            if turned:
                p = -p
            else:
                p = math.copysign(math.sqrt(p * p - 2.0 * m * dv), p)
                gap = ahead
            s = p / m if newton else p
            side = p
            exit_state = p, p * p / (2.0 * m) + levels[gap]
        else:
            xi = q - z.origin
            v = s if newton else s * z.profile.minv_at(xi)
            low, high = max(z.lo, lo_edge) - z.origin, min(z.hi, hi_edge, top) - z.origin

            seg = solve_ivp(
                _rhs(z.profile, eps),
                (t, t_end),
                (xi, s),
                t_eval=None if t_eval is None else t_eval[cursor:],
                max_step=2.0 * model.smoothing_sigma / abs(v) if v else math.inf,
                low=low,
                high=high,
                turn=turn,
            )
            n_rhs += seg.nfev
            if seg.status == -1:
                raise StepFailure("adaptive step size fell below 10 ulp of the time")
            put([(tt, z.origin + xi, *zone_state(z.profile, xi, si))
                 for tt, xi, si in zip(seg.t, seg.q, seg.s)])
            cursor += len(seg.t)
            if seg.status == 0:
                break  # t_end reached inside the zone
            if seg.status == 2:
                outcome = REFLECTED
                break
            side, t, xi, s = seg.exit
            turned = False
            q = z.origin + xi
            gap = zone + 1 if side > 0 else zone
            exit_state = zone_state(z.profile, xi, s)
        if ((turn and turned) or (side > 0 and z.hi >= min(hi_edge, top))
                or (side < 0 and z.lo <= lo_edge)):
            outcome = SURPASSED if side > 0 else REFLECTED
            put([(t, q, *exit_state)])
            break
        zone = None
    else:
        raise DidNotResolve("event budget exhausted")

    t, q, p, energy = zip(*rows) if rows else ((),) * 4
    # a model whose lengths leave double precision records steps of zero
    # length: at beta 1e150 the launch point rounds onto the domain edge
    if not all(b > a for a, b in zip(t, t[1:])):
        raise StepFailure("sample times do not strictly increase: the run's steps are below "
                          "the resolution of double precision")
    scale = max(abs(energy0), DRIFT_FLOOR)
    drift = tuple(abs(e - energy0) / scale for e in energy)
    # each sample is tested, as the builtin max passes over a NaN that is not first
    if not all(d < DRIFT_LIMIT for d in drift):
        worst = math.nan if any(map(math.isnan, drift)) else max(drift)
        raise StepFailure(f"energy drift {worst:.3e} breaches the {DRIFT_LIMIT:g} conservation gate")
    return Trajectory(t=t, q=q, p=p, energy0=energy0, energy_drift=drift,
                      max_energy_drift=max(drift, default=0.0), outcome=outcome, n_rhs=n_rhs)


# -------------------------------------------------------------------- drivers


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
    return _propagate(model, q0, p0, t_end=t_end, t_eval=t_eval)


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
    return _propagate(model, q0, v0, eps, t_end, t_eval)


# -------------------------------------------------------------- classification


def launch_state(model: LowMomentumModel, eps: float):
    """Left-asymptotic initial conditions carrying energy eps toward the barrier."""
    _require_finite("energy", (eps,))
    a, b = support_interval(model.pot)
    lo_edge, _ = evaluation_domain(model)
    q0 = lo_edge - 0.5 * (b - a)
    v_here, minv = _smoothed(model, q0)
    if eps <= v_here:
        raise DomainError(f"energy {eps:g} does not exceed the asymptotic potential {v_here:g}")
    p0 = math.sqrt(2.0 * (eps - v_here) / minv)
    if not math.isfinite(p0):
        raise ValueError(f"energy {eps:g} is too large: its launch momentum overflows")
    return q0, p0


def classify_traversal(model: LowMomentumModel, eps: float) -> str:
    """Decide whether energy eps surpasses the barrier or reflects.

    Runs an actual trajectory for every generic energy, from ``launch_state``
    and within ``integrate_hamiltonian``'s default time budget, up to its
    first turning point: in 1-D conservative motion the way back retraces
    the way in (time reversal), so the first reversal decides 'reflected'.
    A run that never turns surpasses: through the high edge, or at hbar > 0
    already where it passes the top of V moving forward, beyond which the
    momentum cannot vanish. So a creep just above a flat top is decided at
    the top and needs no budget for the plateau. Every computed sample is
    held to the drift gate. The single degenerate tie, eps
    equal to the tunneling threshold to within 1e-12 relative, is decided by
    convention as reflected without integrating: the true motion approaches
    the barrier top asymptotically and never crosses, while a numerical run
    accumulates just enough truncation error to creep over.
    """
    threshold = tunneling_threshold(model)
    if abs(eps - threshold) <= 1e-12 * max(1.0, abs(threshold)):
        return REFLECTED
    traj = _propagate(model, *launch_state(model, eps), turn=True)
    if traj.outcome is not None:
        return traj.outcome
    raise DidNotResolve(
        f"no asymptotic exit within the time budget at energy {eps:.12g}"
    )


def trajectory_csv(traj: Trajectory, metadata=None) -> str:
    """The CSV text of a trajectory (``atomic.csv_text``): the metadata, the
    outcome when there is one and energy0, then one row of t, q, p and
    energy_drift per sample; a float metadata value prints at 12 significant
    digits."""
    meta = dict(metadata or {})
    if traj.outcome is not None:
        meta["outcome"] = traj.outcome
    meta["energy0"] = traj.energy0
    rows = zip(traj.t, traj.q, traj.p, traj.energy_drift)
    return csv_text(meta, ("t", "q", "p", "energy_drift"), rows)
