"""Momentum-dependent smoothed potential against frozen oracle values.

The golden fixtures were produced by an independent dense nested-quadrature
evaluation of the defining double integral, refinement-stable to about 1e-14,
and are frozen here as plain constants. The closed form is also checked
against 50-digit mpmath values (veff_reference.py) and the damped Fourier
integral over the form factor (_fourier_veff), in the tails against
400-digit mpmath values (veff_tail_reference.py), and its complex erfc
against mpmath values (erf_reference.py), scipy's erfc and math.erfc.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effpot import kernel
from effpot.errors import DomainError
from effpot.kernel import _fourier_veff, effective_potential, sinhc
from effpot.lowmomentum import LowMomentumModel, evaluation_domain, inverse_mass, smoothed_potential
from effpot.physical import PhysicalParams
from effpot.potential import PiecewiseConstantPotential, SquareBarrier, TabulatedPotential
from erf_reference import ERFC_REFERENCE
from test_lowmomentum import LONG_TABLE
from veff_reference import VEFF_REFERENCE
from veff_tail_reference import VEFF_TAIL_REFERENCE

PARAMS = PhysicalParams(m=1.0, beta=0.125, hbar=3.0)
BARRIER = SquareBarrier(v0=1.0, l=0.5)
EPS = np.finfo(float).eps

# frozen nested-quadrature oracle values at m=1, beta=1/8, hbar=3, V0=1, L=1/2
GOLDEN = [
    (0.0, 0.0, 0.654221413848834),
    (0.0, 0.5, 0.656741854594557),
    (0.25, 0.5, 0.604637457949948),
    (1.0, 1.0, 0.165876316172298),
    (0.0, 2.0, 0.696621798152930),
]


def test_veff_matches_frozen_references():
    # within 4 eps e^{beta p^2 / 2m} max(1, |V_eff|): the terms grow like
    # e^{beta p^2 / 2m} and cancel; the worst row reaches 1.8 of that unit
    shapes = {"square": BARRIER, "tent": TabulatedPotential((-1.0, -0.5, 0.0, 0.5, 1.0), (0.0, 0.4, 0.8, 0.4, 0.0))}
    assert len(VEFF_REFERENCE) == 327
    for name, hbar, q, p, text in VEFF_REFERENCE:
        params = PhysicalParams(m=1.0, beta=0.125, hbar=hbar)
        want = float(text)
        bound = 4.0 * EPS * math.exp(params.beta * p * p / (2.0 * params.m)) * max(1.0, abs(want))
        assert abs(effective_potential(params, shapes[name], q, p) - want) <= bound, (name, hbar, q, p)


def test_veff_keeps_relative_digits_in_the_tails():
    # far from the corners V_eff is the bare level plus corrections that
    # decay on their own, so values down to 1e-66 keep their digits
    shapes = {"square": BARRIER, "tent": TabulatedPotential((-1.0, -0.5, 0.0, 0.5, 1.0), (0.0, 0.4, 0.8, 0.4, 0.0))}
    assert len(VEFF_TAIL_REFERENCE) == 48
    for name, hbar, q, p, text in VEFF_TAIL_REFERENCE:
        want = float(text)
        got = effective_potential(PhysicalParams(m=1.0, beta=0.125, hbar=hbar), shapes[name], q, p)
        assert abs(got - want) <= 1e-9 * abs(want), (name, hbar, q, p, got, want)


def test_saturated_pairs_never_reach_the_series(monkeypatch):
    # a corner whose Gaussian underflows adds exactly 0 and is skipped
    # before erfc's series; at hbar 0.05 most pairs of the grid are such
    params = PhysicalParams(m=1.0, beta=0.125, hbar=0.05)
    pot = SHAPES["bump"]
    erfc, calls = kernel._erfc, []

    def checked(v, gauss):
        assert gauss != 0.0, v
        calls.append(v)
        return erfc(v, gauss)

    monkeypatch.setattr(kernel, "_erfc", checked)
    points = [(q, p) for q in np.linspace(-2.0, 2.0, 81).tolist() for p in np.linspace(0.5, 4.0, 8).tolist()]
    for q, p in points:
        effective_potential(params, pot, q, p)
    pairs = len(points) * len(kernel._prepared(params, pot)[1])
    assert 0 < len(calls) < pairs


def test_sinhc_values():
    assert sinhc(0.0) == 1.0
    assert abs(sinhc(1.0) - math.sinh(1.0)) < 1e-15
    assert abs(sinhc(1.0) - 1.175201) < 5e-7
    assert sinhc(-2.0) == sinhc(2.0)


@given(st.floats(min_value=-300.0, max_value=300.0))
def test_sinhc_even(x):
    assert sinhc(-x) == sinhc(x)
    assert sinhc(x) >= 1.0


def test_sinhc_branch_continuity():
    # Taylor branch boundary
    lo, hi = sinhc(1e-4 * (1 - 1e-9)), sinhc(1e-4 * (1 + 1e-9))
    assert abs(lo - hi) <= 1e-13
    # overflow-avoidance branch boundary
    lo, hi = sinhc(350.0), sinhc(350.0 * (1 + 1e-13))
    assert abs(lo / hi - 1.0) < 1e-10


def test_sinhc_huge_argument():
    assert math.isinf(sinhc(1e5))
    val = sinhc(400.0)
    assert math.isfinite(val) and val > 1e170


@pytest.mark.parametrize("q,p,expected", GOLDEN)
def test_golden_fixtures(q, p, expected):
    val = effective_potential(PARAMS, BARRIER, q, p)
    assert abs(val - expected) < 1e-12


def test_zero_momentum_reduces_to_smoothed():
    # at p = 0 the closed form is the profile's V to roundoff; the Fourier
    # integral agrees to quadrature tolerance
    model = LowMomentumModel(PARAMS, BARRIER)
    for q in (-2.0, -0.4, 0.0, 0.6, 1.5):
        reduced = smoothed_potential(model, q)
        assert abs(effective_potential(PARAMS, BARRIER, q, 0.0) - reduced) <= 1e-14 * max(1.0, abs(reduced))
        assert abs(_fourier_veff(PARAMS, BARRIER, q, 0.0) - reduced) <= 1e-10 * max(1.0, abs(reduced))


@pytest.mark.parametrize("n", [11, 41])
def test_zero_momentum_reduces_to_smoothed_tabulated(n):
    # a coarse sampling must not open a gap: the form factor is the exact
    # transform of the same linear interpolant the profiles smooth
    grid = np.linspace(-1.0, 1.0, n)
    tab = TabulatedPotential(tuple(grid), tuple(0.9 * np.minimum((grid + 1.0) / 1.2, (1.0 - grid) / 0.8)))
    model = LowMomentumModel(PARAMS, tab)
    for q in (-1.3, -0.2, 0.0, 0.45, 1.1):
        assert abs(effective_potential(PARAMS, tab, q, 0.0) - smoothed_potential(model, q)) < 1e-14
        assert abs(_fourier_veff(PARAMS, tab, q, 0.0) - smoothed_potential(model, q)) < 1e-8


def test_constant_potential_is_fixed_point():
    # kernel normalization: a constant potential passes through unchanged
    pot = PiecewiseConstantPotential((-1.0, 1.0), (0.7, 0.7, 0.7))
    for q, p in ((0.0, 0.0), (0.5, 1.0), (-2.0, 2.5)):
        assert abs(effective_potential(PARAMS, pot, q, p) - 0.7) < 1e-12


def test_even_in_momentum():
    for q in (0.0, 0.3, 1.0):
        for p in (0.25, 1.0, 2.0):
            a = effective_potential(PARAMS, BARRIER, q, p)
            b = effective_potential(PARAMS, BARRIER, q, -p)
            assert a == b


def test_smoothing_reduces_total_variation():
    qs = np.linspace(-4.0, 4.0, 601)
    for p in (0.0, 1.5):
        vals = [effective_potential(PARAMS, BARRIER, q, p) for q in qs.tolist()]
        tv = float(np.sum(np.abs(np.diff(vals))))
        assert tv <= 2.0 * BARRIER.v0 + 1e-9


def test_translation_covariance():
    # a shifted barrier must give the shifted profile; this pins the sign
    # convention of the Fourier reduction on a non-centered potential
    delta = 0.3
    shifted = PiecewiseConstantPotential((-0.5 + delta, 0.5 + delta), (0.0, 1.0, 0.0))
    for q in (-0.7, 0.0, 0.4):
        for p in (0.0, 0.5, 1.5):
            a = effective_potential(PARAMS, shifted, q + delta, p)
            b = effective_potential(PARAMS, BARRIER, q, p)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


def test_low_momentum_remainder_scales_as_p4():
    model = LowMomentumModel(PARAMS, BARRIER)
    pscale = math.sqrt(PARAMS.m / PARAMS.beta)
    ps = np.linspace(0.05, 0.4, 9) * pscale
    for q in (0.0, 0.5, 1.0):
        v0 = smoothed_potential(model, q)
        dm = inverse_mass(model, q) - 1.0 / PARAMS.m
        deltas = [
            abs(effective_potential(PARAMS, BARRIER, q, float(p)) - (v0 + 0.5 * p * p * dm))
            for p in ps
        ]
        slope = np.polyfit(np.log(ps), np.log(deltas), 1)[0]
        assert abs(slope - 4.0) < 0.3


def test_requires_positive_hbar():
    classical = PhysicalParams(m=1.0, beta=0.125, hbar=0.0)
    with pytest.raises(DomainError):
        effective_potential(classical, BARRIER, 0.0, 0.0)
    # the oracle too: its damping scale divides by hbar
    with pytest.raises(DomainError):
        _fourier_veff(classical, BARRIER, 0.0, 0.0)


def test_smoothing_constants_out_of_floating_range_are_a_domain_error():
    # sqrt(beta) hbar underflows to 0 here; c comes from the profile, which
    # refuses the constants before anything divides by it
    with pytest.raises(DomainError, match="leave floating range"):
        effective_potential(PhysicalParams(m=1.0, beta=1e-300, hbar=1e-180), BARRIER, 0.1, 0.5)
    # and here c^2 underflows to 0, which the corner weights divide by
    with pytest.raises(DomainError, match="leave floating range"):
        effective_potential(PhysicalParams(m=1.0, beta=0.125, hbar=1e170), BARRIER, 0.1, 0.5)


def test_tabulated_route():
    # dense tabulated copy of the barrier tracks the analytic route
    grid = np.linspace(-0.7, 0.7, 5601)
    vals = np.where(np.abs(grid) < 0.5, 1.0, 0.0)
    vals[np.abs(np.abs(grid) - 0.5) < 1e-12] = 0.5
    tab = TabulatedPotential(tuple(grid), tuple(vals))
    for q, p in ((0.0, 0.0), (0.3, 1.0)):
        a = effective_potential(PARAMS, tab, q, p)
        b = effective_potential(PARAMS, BARRIER, q, p)
        assert abs(a - b) < 1e-4


# ------------------------------------------------ closed form vs Fourier oracle

_GRID = np.linspace(-1.0, 1.0, 41)
SHAPES = {
    "square": BARRIER,
    "steps": PiecewiseConstantPotential((-0.86, -0.48, 0.02, 0.99), (0.0, 0.86, 0.65, 0.92, 0.0)),
    "tent": TabulatedPotential(tuple(_GRID), tuple(0.8 * (1.0 - np.abs(_GRID)))),
    "bump": TabulatedPotential(tuple(_GRID), tuple(0.5 * (1.0 + np.cos(np.pi * _GRID)))),
}


def _assert_matches_oracle(pot, q, p, params=PARAMS, rel=1e-8):
    closed = effective_potential(params, pot, q, p)
    oracle = _fourier_veff(params, pot, q, p)
    assert abs(closed - oracle) <= rel * max(1.0, abs(oracle)), (q, p, closed, oracle)


@st.composite
def _shapes(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    gaps = draw(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=n, max_size=n))
    x = np.cumsum(gaps) - 0.5 * sum(gaps)
    level = draw(st.floats(min_value=-1.0, max_value=1.0))
    values = draw(st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=n, max_size=n))
    if draw(st.booleans()):
        return PiecewiseConstantPotential(tuple(x[:-1]), (level, *values[1:-1], level))
    return TabulatedPotential(tuple(x), (level, *values[1:-1], level))


@settings(max_examples=40, deadline=None)
@given(_shapes(), st.floats(min_value=-2.5, max_value=2.5), st.floats(min_value=0.0, max_value=3.0),
       st.floats(min_value=0.5, max_value=6.0))
def test_closed_form_matches_fourier_oracle(pot, q, p, hbar):
    _assert_matches_oracle(pot, q, p, PhysicalParams(m=1.0, beta=0.125, hbar=hbar))


@pytest.mark.parametrize("kinetic", [9.0, 16.0])
@pytest.mark.parametrize("name", SHAPES)
def test_closed_form_at_high_momentum(name, kinetic):
    # beta p^2 / 2m = kinetic: the terms grow like e^kinetic and cancel, in
    # both routes alike
    p = math.sqrt(2.0 * PARAMS.m * kinetic / PARAMS.beta)
    for q in (-1.2, 0.0, 0.37, 2.0):
        _assert_matches_oracle(SHAPES[name], q, p)
        assert effective_potential(PARAMS, SHAPES[name], q, -p) == effective_potential(
            PARAMS, SHAPES[name], q, p)


@pytest.mark.parametrize("kinetic", [5.12, 8.0])
@pytest.mark.parametrize("name", ["square", "steps"])
def test_fourier_oracle_converges_where_veff_is_flat(name, kinetic):
    # at hbar 0.5 and beta p^2 / 2m = kinetic (p 9.05 and 11.3) V_eff - V_inf
    # is about 1e-15 over most of the line, below the integrand's roundoff,
    # which grows like e^kinetic; the oracle's tolerance grows with it
    params = PhysicalParams(m=1.0, beta=0.125, hbar=0.5)
    p = math.sqrt(2.0 * params.m * kinetic / params.beta)
    for q in np.linspace(-2.5, 2.5, 41).tolist():
        _assert_matches_oracle(SHAPES[name], q, p, params, rel=1e-10)


@pytest.mark.parametrize("hbar", [0.5, 3.0, 6.0])
@pytest.mark.parametrize("name", SHAPES)
def test_zero_momentum_is_the_profile_to_roundoff(name, hbar):
    params = PhysicalParams(m=1.0, beta=0.125, hbar=hbar)
    model = LowMomentumModel(params, SHAPES[name])
    qs = np.linspace(-4.0, 4.0, 201)
    closed = np.array([effective_potential(params, SHAPES[name], q, 0.0) for q in qs.tolist()])
    reduced = np.array([model.profile.at(q)[0] for q in qs.tolist()])
    assert np.all(np.abs(closed - reduced) <= 1e-14 * np.maximum(1.0, np.abs(reduced)))


@pytest.mark.parametrize("hbar", [0.3, 3.0, 6.0])
def test_zero_momentum_is_the_profile_on_a_long_table(hbar):
    # p = 0 entries are the profile's own V: exact even on 200 samples, where
    # a second corner sum drifts from it
    params = PhysicalParams(m=1.0, beta=0.125, hbar=hbar)
    model = LowMomentumModel(params, LONG_TABLE)
    qs = np.linspace(*evaluation_domain(model), 301)
    want = [model.profile.at(q)[0] for q in qs.tolist()]
    assert [effective_potential(params, LONG_TABLE, q, 0.0) for q in qs.tolist()] == want
    assert [smoothed_potential(model, q) for q in qs[::30].tolist()] == want[::30]


@pytest.mark.parametrize("name", ["square", "tent"])
def test_fourier_oracle_truncation_is_converged(name, monkeypatch):
    # twice the tail length past the peak changes the oracle by roundoff only
    pot = SHAPES[name]
    p_top = math.sqrt(2.0 * PARAMS.m * 16.0 / PARAMS.beta)  # beta p^2 / 2m = 16
    points = [(q, p) for q in (-1.2, 0.0, 0.37) for p in (0.0, 1.5, p_top)]
    short = [_fourier_veff(PARAMS, pot, q, p) for q, p in points]
    monkeypatch.setattr(kernel, "TAIL_SIGMAS", 16.0)
    for (q, p), v8 in zip(points, short):
        v16 = _fourier_veff(PARAMS, pot, q, p)
        assert abs(v16 - v8) <= 1e-12 * max(1.0, abs(v16)), (q, p, v8, v16)


@pytest.mark.parametrize("name", SHAPES)
def test_closed_form_at_tiny_momentum(name):
    pot = SHAPES[name]
    model = LowMomentumModel(PARAMS, pot)
    for q in (-1.2, -0.5, 0.0, 0.37, 2.0):
        _assert_matches_oracle(pot, q, 1e-12)
        assert abs(effective_potential(PARAMS, pot, q, 1e-12) - smoothed_potential(model, q)) < 1e-12


@pytest.mark.parametrize("name", SHAPES)
def test_numpy_scalars_give_the_float_of_python_floats(name):
    pot = SHAPES[name]
    for q in np.linspace(-2.0, 2.0, 9):
        for p in (np.float64(-1.5), np.float32(0.0), np.float64(0.3), np.int64(4)):
            value = effective_potential(PARAMS, pot, q, p)
            assert type(value) is float
            assert value == effective_potential(PARAMS, pot, float(q), float(p))


def test_overflow_raises_domain_error():
    # beta p^2 / 2m = 2500: the terms leave floating range
    with pytest.raises(DomainError):
        effective_potential(PARAMS, BARRIER, 0.0, 200.0)
    with pytest.raises(DomainError):
        [effective_potential(PARAMS, SHAPES["tent"], q, p) for q in np.linspace(-1.0, 1.0, 5) for p in (1.0, 200.0)]


# ------------------------------------------------------------ the complex erfc

def _erfc(u):
    """kernel._erfc on each entry of an array in the right half plane."""
    return np.array([kernel._erfc(v, cmath.exp(-(v * v))) for v in np.asarray(u, dtype=complex).ravel().tolist()])


def test_erf_matches_frozen_references():
    # erfc, relative in modulus, within 4 eps (1 + 2|u|^2): the input's own
    # conditioning, since e^{-u^2} moves by 2|u|^2 times a relative change of u
    u = np.array([complex(re, im) for re, im, _, _ in ERFC_REFERENCE])
    want = np.array([complex(float(re), float(im)) for _, _, re, im in ERFC_REFERENCE])
    assert u.real.min() == 0.0 and u.real.max() > 26.0 and np.abs(u.imag).max() > 26.0
    assert np.abs(u).min() < 1e-13
    err = np.abs(_erfc(u) - want) / np.abs(want)
    bound = 4.0 * EPS * (1.0 + 2.0 * np.abs(u) ** 2)
    assert np.all(err <= bound), u[np.argmax(err / bound)]


def test_erf_matches_scipy():
    from scipy.special import erfc  # test-only: the package never imports scipy

    rng = np.random.default_rng(11)
    u = rng.uniform(0.0, 6.0, 100_000) + 1j * rng.uniform(-6.0, 6.0, 100_000)
    want = erfc(u)
    assert np.all(np.abs(_erfc(u) - want) <= 1e-12 * np.abs(want))


def test_erfc_is_conjugate_symmetric():
    # exactly, where a zero imaginary part may keep its sign (== ignores it)
    rng = np.random.default_rng(12)
    u = np.concatenate([rng.uniform(0.0, 8.0, 5000) + 1j * rng.uniform(-8.0, 8.0, 5000),
                        rng.uniform(0.0, 2.0, 50) + 0j, 1j * rng.uniform(-2.0, 2.0, 50)])
    assert np.array_equal(_erfc(u.conj()), _erfc(u).conj())


def test_erf_at_zero():
    assert kernel._erfc(0j, 1 + 0j) == 1.0


def test_erfc_on_the_real_axis_is_math_erfc():
    rng = np.random.default_rng(13)
    # the Taylor branch ends at x = 1, where 1 - erf x cancels most; up to
    # x = 26.5 erfc x stays a normal double. The (1 + 2 x^2) factor is the
    # conditioning of e^{-x^2} on the rounding of x^2
    x = np.concatenate([rng.uniform(0.0, 26.5, 20_000), rng.uniform(0.9, 1.0, 5000), [0.0, 1.0, 6.0, 26.4]])
    got = _erfc(x)
    want = np.array([math.erfc(t) for t in x.tolist()])
    assert np.all(got.imag == 0.0)
    assert np.all(np.abs(got.real - want) <= 4.0 * (1.0 + 2.0 * x * x) * np.spacing(want))


def test_weideman_coefficients_are_the_fourier_coefficients():
    # Weideman (1994): a_n are the discrete Fourier coefficients of
    # e^{-t^2} (L^2 + t^2) at t = L tan(theta / 2), theta = k pi / M
    n = len(kernel.WEIDEMAN)
    m = 2 * n
    length = math.sqrt(n / math.sqrt(2.0))
    t = length * np.tan(np.arange(-m + 1, m) * np.pi / m / 2.0)
    f = np.concatenate(([0.0], np.exp(-t * t) * (length * length + t * t)))
    a = np.real(np.fft.fft(np.fft.fftshift(f))) / (2 * m)
    assert kernel.WEIDEMAN_L == length
    assert np.all(np.abs(np.array(kernel.WEIDEMAN) - a[1:n + 1]) <= 4.0 * EPS * np.abs(a).max())


@pytest.mark.parametrize("name", SHAPES)
def test_closed_form_agrees_with_the_scipy_erf_route(name, monkeypatch):
    # the same closed form with scipy's erfc in place of the package's own;
    # the terms grow like e^{beta p^2 / 2m} and cancel, so the gate does too
    from scipy.special import erfc  # test-only

    pot = SHAPES[name]
    momenta = [1e-12, 0.5, 2.0] + [math.sqrt(2.0 * PARAMS.m * k / PARAMS.beta) for k in (9.0, 16.0)]
    points = [(q, p) for q in (-1.2, -0.5, 0.0, 0.37, 2.0) for p in momenta]
    ours = [effective_potential(PARAMS, pot, q, p) for q, p in points]
    monkeypatch.setattr(kernel, "_erfc", lambda v, gauss: complex(erfc(v)))
    for (q, p), value in zip(points, ours):
        reference = effective_potential(PARAMS, pot, q, p)
        grow = max(1.0, math.exp(PARAMS.beta * p * p / (2.0 * PARAMS.m)))
        assert abs(value - reference) <= 1e-12 * grow * max(1.0, abs(reference)), (q, p, value, reference)
