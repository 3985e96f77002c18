"""The in-house Gauss-Kronrod bisection against scipy.integrate.quad and
against exact integrals.

On the program's own integrals scipy's QAGS never extrapolates, so there the
port must equal it bit for bit: the value and the error estimate as bit
patterns, the work counts neval and last, and the failure code, with the
port's message and scipy's text both mapped back to QUADPACK's ier. Those
cases run the program's integrands through a stand-in for quadrature.quad
that asks both integrators and checks them. Elsewhere, where QAGS would
extrapolate, the port is checked against exact integrals or within the
error estimates.
"""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.special import sici

from effpot import quadrature
from effpot.figures import CURVE_GRID
from effpot.kernel import _fourier_veff
from effpot.physical import PhysicalParams
from effpot.potential import PiecewiseConstantPotential, SquareBarrier, TabulatedPotential
from effpot.quadrature import DEFAULT_CONFIG, MAX_SUBDIVISIONS
from effpot.transmission import mixture_average, quantum_t_mixture

PORT = quadrature.quad

# the opening words of scipy's text for each failure code
SCIPY_TEXT = {
    1: "The maximum number of subdivisions",
    2: "The occurrence of roundoff error",
    3: "Extremely bad integrand behavior",
    4: "The algorithm does not converge",
    5: "The integral is probably divergent",
}


def _port_code(out, limit):
    if len(out) < 4:
        return 0
    codes = [c for c, text in quadrature._MESSAGES.items() if out[3] == text.format(limit=limit)]
    assert len(codes) == 1, out[3]
    return codes[0]


def _scipy_code(out):
    if len(out) < 4:
        return 0
    codes = [c for c, text in SCIPY_TEXT.items() if out[3].startswith(text)]
    assert len(codes) == 1, out[3]
    return codes[0]


def _compare(f, a, b, epsabs, epsrel, limit):
    port = PORT(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)
    ref = scipy_quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    got = (port[0].hex(), port[1].hex(), port[2]["neval"], port[2]["last"], _port_code(port, limit))
    want = (float(ref[0]).hex(), float(ref[1]).hex(), ref[2]["neval"], ref[2]["last"], _scipy_code(ref))
    assert got == want, (a, b, epsabs, epsrel, limit)
    return port


def _agree(f, a, b, epsabs, epsrel, limit):
    """The port reports a failure code, or it agrees with scipy within the
    larger of the two error estimates."""
    port = PORT(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)
    ref = scipy_quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    assert _port_code(port, limit) in (1, 2, 3) or abs(port[0] - ref[0]) <= max(port[1], ref[1]), (
        a, b, epsabs, epsrel, limit, port, ref[:2])
    return port


def _route(monkeypatch, check):
    """Route every quadrature through check; returns the list of calls."""
    calls = []

    def both(f, a, b, *, epsabs, epsrel, limit):
        out = check(f, a, b, epsabs, epsrel, limit)
        calls.append(out)
        return out

    monkeypatch.setattr(quadrature, "quad", both)
    return calls


@pytest.fixture
def compared(monkeypatch):
    return _route(monkeypatch, _compare)


@pytest.fixture
def agreeing(monkeypatch):
    return _route(monkeypatch, _agree)


def test_fig4_mixture_curve(compared):
    for Q in list(CURVE_GRID):
        quantum_t_mixture(Q)
    assert len(compared) == len(CURVE_GRID) == 500


def test_mixture_average_over_hbar(compared):
    barrier = SquareBarrier(v0=1.0, l=0.5)
    for hbar in np.linspace(0.2, 6.0, 30).tolist():
        mixture_average(barrier, PhysicalParams(m=1.0, beta=0.125, hbar=hbar))
    assert len(compared) == 30


_GRID = np.linspace(-1.0, 1.0, 41)


@pytest.mark.parametrize("pot", [
    SquareBarrier(v0=1.0, l=0.5),
    PiecewiseConstantPotential((-0.86, -0.48, 0.02, 0.99), (0.0, 0.86, 0.65, 0.92, 0.0)),
    TabulatedPotential(tuple(_GRID), tuple(0.8 * (1.0 - np.abs(_GRID)))),
], ids=["square", "steps", "tent"])
def test_fourier_oracle(agreeing, pot):
    params = PhysicalParams(m=1.0, beta=0.125, hbar=3.0)
    p_top = math.sqrt(2.0 * params.m * 16.0 / params.beta)  # beta p^2 / 2m = 16
    for q in (-1.2, 0.0, 0.37, 2.5):
        for p in (0.0, 1.5, p_top):
            _fourier_veff(params, pot, q, p)
    assert len(agreeing) == 12


# each family with its exact integral over [0, 1]
HARD = {
    "inverse sqrt": (lambda x: 1.0 / math.sqrt(x), 2.0),
    "log": (math.log, -1.0),
    "x^-0.9": (lambda x: x**-0.9, 10.0),
    "step": (lambda x: 1.0 if x > 0.3 else 0.0, 0.7),
    "narrow peak": (lambda x: 1.0 / (1e-4 + (x - 0.37) ** 2),
                    (math.atan(0.63 / 1e-2) + math.atan(0.37 / 1e-2)) / 1e-2),
    "cos 50x e^-x": (lambda x: math.cos(50.0 * x) * math.exp(-x),
                     (math.exp(-1.0) * (50.0 * math.sin(50.0) - math.cos(50.0)) + 1.0) / 2501.0),
    # non-integrable or too oscillatory
    "1/|x - 1/3|": (lambda x: 1.0 / abs(x - 1.0 / 3.0) if x != 1.0 / 3.0 else 0.0, math.inf),
    "x^-1.5": (lambda x: x**-1.5, math.inf),
    "sin(1/x)/x": (lambda x: math.sin(1.0 / x) / x, math.pi / 2.0 - sici(1.0)[0]),
}
TOLERANCES = {
    "default": (DEFAULT_CONFIG.abs_tol, DEFAULT_CONFIG.rel_tol),
    "tight": (1e-300, 1e-14),
    "unreachable": (1e-300, 1e-15),
}


def _against_exact(name, epsabs, epsrel, limit):
    """A failure code, or a value within its own estimate of the exact
    integral; returns the code."""
    f, exact = HARD[name]
    out = PORT(f, 0.0, 1.0, epsabs=epsabs, epsrel=epsrel, limit=limit)
    code = _port_code(out, limit)
    assert code in (1, 2, 3) or abs(out[0] - exact) <= out[1], (name, epsabs, epsrel, limit, out)
    return code


@pytest.mark.parametrize("tol", TOLERANCES)
@pytest.mark.parametrize("name", HARD)
def test_singular_oscillatory_and_discontinuous(name, tol):
    for limit in (1, 3, MAX_SUBDIVISIONS, 200):
        _against_exact(name, *TOLERANCES[tol], limit)


def test_every_failure_code_is_compared():
    seen = {
        _against_exact(name, epsabs, epsrel, limit)
        for name in HARD
        for epsabs, epsrel in TOLERANCES.values()
        for limit in (1, 3, MAX_SUBDIVISIONS)
    }
    assert seen == {0, 1, 2, 3}


@pytest.mark.parametrize("f", [
    lambda x: math.cos(69.0 * x),
    lambda x: 1.0 / (1e-3 + x * x),
], ids=["cos 69x", "peak"])
@pytest.mark.parametrize("tol", ["default", "tight"])
def test_tied_errors_bisect_in_quadpack_order(f, tol):
    # an even integrand on [-1, 1] gives mirror halves exactly equal error
    # estimates; dqpsrt then bisects the slot written last, and so must the
    # port. The tight runs end on the roundoff count iroff1.
    epsabs, epsrel = TOLERANCES[tol]
    nodes = {}
    for name, integrate in (("port", PORT), ("scipy", partial(scipy_quad, full_output=1))):
        seen = nodes[name] = []

        def g(x):
            seen.append(x)
            return f(x)

        integrate(g, -1.0, 1.0, epsabs=epsabs, epsrel=epsrel, limit=MAX_SUBDIVISIONS)
    assert nodes["port"] == nodes["scipy"]
    _compare(f, -1.0, 1.0, epsabs, epsrel, MAX_SUBDIVISIONS)


_coef = st.floats(min_value=-3.0, max_value=3.0)


@settings(max_examples=60, deadline=None)
@given(c=st.tuples(_coef, _coef, _coef, _coef), a=st.floats(-2.0, 1.0), width=st.floats(0.01, 8.0),
       tol=st.sampled_from(sorted(TOLERANCES)))
def test_smooth_integrands(c, a, width, tol):
    def f(x):
        return c[0] * math.exp(c[1] * x) + math.sin(c[2] * x * x) + c[3] / (1.0 + x * x)

    _agree(f, a, a + width, *TOLERANCES[tol], MAX_SUBDIVISIONS)


@settings(max_examples=60, deadline=None)
@given(c=st.floats(0.05, 0.95), alpha=st.floats(-0.99, 1.5), w=st.floats(1.0, 200.0),
       tol=st.sampled_from(sorted(TOLERANCES)), limit=st.sampled_from((MAX_SUBDIVISIONS, 200)))
def test_singular_and_oscillatory_families(c, alpha, w, tol, limit):
    # an interior power singularity or kink, which is out of scope: QAGS
    # meets it with extrapolation, so only the contract is checked. Success
    # means the estimate meets the tolerance, within the work budget.
    epsabs, epsrel = TOLERANCES[tol]
    out = PORT(lambda x: abs(x - c) ** alpha if x != c else 0.0, 0.0, 1.0,
               epsabs=epsabs, epsrel=epsrel, limit=limit)
    assert out[2]["neval"] == 42 * out[2]["last"] - 21 and out[2]["last"] <= limit
    assert _port_code(out, limit) in (1, 2, 3) or out[1] <= max(epsabs, epsrel * abs(out[0]))
    # a damped oscillation is analytic, so the port agrees with scipy
    _agree(lambda x: math.cos(w * x) * math.exp(-x), 0.0, 1.0, epsabs, epsrel, limit)


@pytest.mark.parametrize("epsabs, epsrel, limit", [
    (1.49e-8, 1.49e-8, 0),  # not one subinterval
    (0.0, 1e-30, 50),       # no absolute tolerance, and a relative one below 5e-29
    (-1.0, 1e-20, 50),      # ... and below 50 machine epsilons
], ids=["limit-0", "epsrel-1e-30", "epsrel-1e-20"])
def test_invalid_arguments_raise_value_error_as_scipy_does(epsabs, epsrel, limit):
    for integrate in (PORT, scipy_quad):
        with pytest.raises(ValueError):
            integrate(math.sin, 0.0, 1.0, epsabs=epsabs, epsrel=epsrel, limit=limit)
