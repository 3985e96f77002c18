"""Adaptive quadrature over finite ranges.

An in-house port of QUADPACK's QAGS (Piessens, de Doncker-Kapenga, Überhuber
& Kahaner, *QUADPACK*, Springer 1983; public domain): bisection driven by the
21-point Gauss-Kronrod pair, with Wynn's epsilon algorithm extrapolating the
sequence of partial sums. It follows `dqagse`, `dqk21`, `dqpsrt` and `dqelg`
operation for operation, so its value, error estimate and work counts equal
`scipy.integrate.quad`'s bit for bit, and no command loads scipy.integrate.
The nodes of the rule are interior points, so integrands only defined by
limit at an endpoint are sampled strictly inside the interval and need no
special casing. Only the tolerances can be set; the subdivision budget is
fixed.
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
_OFLOW = sys.float_info.max  # d1mach(2)

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
_GAUSS = tuple(zip(range(1, 10, 2), _WG))
_KRONROD_ONLY = tuple(range(0, 10, 2))

# the text of each failure code left after dqagse's final renumbering
_MESSAGES = {
    1: "maximum number ({limit}) of subdivisions reached",
    2: "roundoff error prevents the requested tolerance",
    3: "extremely bad integrand behaviour at some point of the range",
    4: "roundoff error in the extrapolation table prevents convergence",
    5: "the integral is probably divergent or converges too slowly",
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
    for j, wg in _GAUSS:
        absc = hlgth * _XGK[j]
        fval1 = float(f(centr - absc))
        fval2 = float(f(centr + absc))
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        resg = resg + wg * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    for j in _KRONROD_ONLY:
        absc = hlgth * _XGK[j]
        fval1 = float(f(centr - absc))
        fval2 = float(f(centr + absc))
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
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


def _qpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list, nrmax: int):
    """dqpsrt: keep iord ordered by descending error after a bisection;
    returns the next (maxerr, errmax, nrmax). Lists are 1-based."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        # only after a bisection raised the error: move maxerr up first
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # keep only as many entries ordered as bisections remain
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        # insert errmax top-down
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
            maxerr = iord[nrmax]
            return maxerr, elist[maxerr], nrmax
        # insert errmin bottom-up
        iord[i - 1] = maxerr
        k = jbnd
        for _ in range(i, jbnd + 1):
            isucc = iord[k]
            if errmin < elist[isucc]:
                iord[k + 1] = last
                break
            iord[k + 1] = isucc
            k -= 1
        else:
            iord[i] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab: list, res3la: list, nres: int):
    """dqelg: one step of Wynn's epsilon algorithm on the table epstab[1..n]
    (1-based, 52 entries); returns (n, result, abserr, nres)."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: converged
            return n, res, max(err2 + err3, 5.0 * _EPMACH * abs(res)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        # two close elements or irregular behaviour: drop the rest of the table
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # shift the table
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def quad(f, a: float, b: float, *, epsabs: float, epsrel: float, limit: int):
    """QUADPACK dqagse: the integral of f over [a, b] to
    max(epsabs, epsrel |I|).

    Returns (value, abserr, {"neval", "last"}) on success, and the same plus
    a one-line message when the tolerance was not reached.
    """
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    if epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28):
        raise ValueError("with epsabs <= 0, epsrel must exceed both 5e-29 and 50 machine epsilons")
    # 1-based lists, as in the Fortran
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    alist[1] = a
    blist[1] = b

    # first approximation to the integral
    ier = 0
    ierro = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return _report(result, abserr, last, ier, limit)

    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1

    summed = False  # left the loop to label 115 (sum of rlist) not 100
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the next interval to bisect is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: bisect the larger
            # intervals first while any of them is still in the ordered list
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        # perform extrapolation
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # label 100: choose between the extrapolated result and the plain sum
    check_divergence = False
    if not summed:
        if abserr == _OFLOW:
            summed = True
        elif ier + ierro == 0:
            check_divergence = True
        else:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                if abserr / abs(result) > errsum / abs(area):
                    summed = True
                else:
                    check_divergence = True
            elif abserr > errsum:
                summed = True
            elif area != 0.0:
                check_divergence = True
    if check_divergence:
        if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
            # the Fortran's IEEE quotient; either infinity fails the test below
            ratio = result / area if area != 0.0 else math.inf if result != 0.0 else math.nan
            if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                ier = 6
    if summed:
        # left to right, as QUADPACK does; sum() compensates on Python >= 3.12
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return _report(result, abserr, last, ier, limit)


def _report(result: float, abserr: float, last: int, ier: int, limit: int):
    info = {"neval": 42 * last - 21, "last": last}
    if ier == 0:
        return result, abserr, info
    return result, abserr, info, _MESSAGES[ier].format(limit=limit)
