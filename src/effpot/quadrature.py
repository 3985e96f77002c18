"""Adaptive quadrature over finite ranges.

21-point Gauss-Kronrod bisection, which is QUADPACK's QAGS (Piessens, de
Doncker-Kapenga, Überhuber & Kahaner, *QUADPACK*, Springer 1983; public
domain) without its Wynn-epsilon extrapolation. It follows `dqagse` and
`dqk21` operation for operation, less the extrapolation. The program's
integrands are analytic on closed, finite intervals, where extrapolation
never decides the outcome: there its value, error estimate and work counts
equal `scipy.integrate.quad`'s bit for bit, and no command loads
scipy.integrate. Integrable endpoint singularities, the case extrapolation
exists for, are out of scope. The nodes are interior points, so integrands
only defined by limit at an endpoint need no special casing. Only the
tolerances can be set.
"""

from __future__ import annotations

import math
import sys

from .errors import NonConvergence
from .physical import Record

MAX_SUBDIVISIONS = 60


class QuadratureConfig(Record):
    __slots__ = _fields = ("rel_tol", "abs_tol")

    def __init__(self, rel_tol: float = 1e-10, abs_tol: float = 1e-14):
        object.__setattr__(self, "rel_tol", rel_tol)
        object.__setattr__(self, "abs_tol", abs_tol)
        if not rel_tol > 0:
            raise ValueError(f"rel_tol must be positive, got {rel_tol}")
        if not abs_tol > 0:
            raise ValueError(f"abs_tol must be positive, got {abs_tol}")
        # an infinite tolerance accepts the first panel's estimate unchecked
        if rel_tol == math.inf or abs_tol == math.inf:
            raise ValueError(f"tolerances must be finite, got {self}")


DEFAULT_CONFIG = QuadratureConfig()


def integrate_adaptive(f, a: float, b: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Integral of f over [a, b] to cfg tolerances.

    Raises NonConvergence (carrying the best value and the achieved error
    estimate) when the value or the estimate is not finite, the subdivision
    budget is exhausted, or the estimate stays above tolerance.
    """
    out = quad(
        f, a, b, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol, limit=MAX_SUBDIVISIONS
    )
    value, estimate = out[0], out[1]
    # the scheme reports failure whenever the requested tolerance was not met
    # exactly, including near-misses where roundoff stops refinement; accept
    # those as long as the achieved estimate is within a small factor of the
    # request
    bound = 10.0 * max(cfg.abs_tol, cfg.rel_tol * abs(value))
    if not (math.isfinite(value) and math.isfinite(estimate)):
        reason = "the value or its error estimate is not finite"
    elif len(out) >= 4 and not estimate <= bound:
        reason = out[3]
    else:
        return value
    raise NonConvergence(
        f"quadrature on [{a:g}, {b:g}] did not converge: {reason} "
        f"(value {value:.6g}, error estimate {estimate:.3g})",
        value=value,
        estimate=estimate,
    )


# --------------------------------------------------------------- QUADPACK

_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min  # d1mach(1)

# dqk21: the Kronrod abscissae off the centre (_XGK[1], _XGK[3], ... are the
# 10-point Gauss abscissae), the Kronrod weights (_WGK[10] is the centre's)
# and the Gauss weights
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208040195880,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# the node pairs in dqk21's order: the Gauss ones with their Gauss weight,
# then the Kronrod-only ones
_PAIRS = (*zip(range(1, 10, 2), _WG), *((j, None) for j in range(0, 10, 2)))

# the text of each failure code, numbered as scipy.integrate.quad's ier
_MESSAGES = {
    1: "maximum number ({limit}) of subdivisions reached",
    2: "roundoff error prevents the requested tolerance",
    3: "extremely bad integrand behaviour at some point of the range",
}


def _qk21(f, a: float, b: float):
    """dqk21: (result, abserr, resabs, resasc) of the 21-point Gauss-Kronrod
    pair on [a, b]; resabs integrates |f| and resasc |f - mean|."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    resg = 0.0
    fc = float(f(centr))
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for j, wg in _PAIRS:
        absc = hlgth * _XGK[j]
        fval1 = float(f(centr - absc))
        fval2 = float(f(centr + absc))
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        if wg is not None:
            resg = resg + wg * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, r**1.5), without pow overflowing when r is huge
        r = 200.0 * abserr / resasc
        abserr = resasc * (r**1.5 if r < 1.0 else 1.0)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def quad(f, a: float, b: float, *, epsabs: float, epsrel: float, limit: int):
    """QUADPACK dqagse without extrapolation: the integral of f over [a, b]
    to max(epsabs, epsrel |I|).

    Returns (value, abserr, {"neval", "last"}) on success, and the same plus
    a one-line message when the tolerance was not reached.
    """
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    if epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28):
        raise ValueError("with epsabs <= 0, epsrel must exceed both 5e-29 and 50 machine epsilons")

    # first approximation to the integral
    ier = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    errbnd = max(epsabs, epsrel * abs(result))
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return _report(result, abserr, 1, ier, limit)

    # one (error, stamp, a, b, area) record per subinterval. A bisection
    # keeps the half with the larger error in its parent's slot and appends
    # the other half. The slot bisected next has the largest error, as at the
    # head of dqpsrt's ordered list, which breaks ties towards the slot
    # written last and, within one bisection, towards the parent's slot:
    # that order is the stamp.
    slots = [(abserr, 0, a, b, result)]
    area = result
    errsum = abserr
    iroff1 = iroff3 = 0
    for last in range(2, limit + 1):
        maxerr = max(range(last - 1), key=slots.__getitem__)
        errmax, _, a1, b2, parent = slots[maxerr]
        b1 = a2 = 0.5 * (a1 + b2)
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - parent
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(parent - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 >= 10 or iroff3 >= 20:
            ier = 2
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 3
        if error2 > error1:
            a1, b1, area1, error1, a2, b2, area2, error2 = a2, b2, area2, error2, a1, b1, area1, error1
        slots[maxerr] = (error1, 2 * last, a1, b1, area1)
        slots.append((error2, 2 * last - 1, a2, b2, area2))
        if errsum <= errbnd or ier != 0:
            break

    # left to right, as QUADPACK does; sum() compensates on Python >= 3.12
    result = 0.0
    for slot in slots:
        result = result + slot[4]
    return _report(result, errsum, last, ier, limit)


def _report(result: float, abserr: float, last: int, ier: int, limit: int):
    info = {"neval": 42 * last - 21, "last": last}
    if ier == 0:
        return result, abserr, info
    return result, abserr, info, _MESSAGES[ier].format(limit=limit)
