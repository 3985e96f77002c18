"""Reduced model: closed corner sums against the quadrature convolution route."""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import brentq, minimize_scalar
from scipy.special import erf

from effpot import dynamics
from effpot.errors import DomainError, NonPositiveMass
from effpot.lowmomentum import (
    EVENT_TOL,
    ZONE_SIGMAS,
    LowMomentumModel,
    Profile,
    _brent,
    corner_groups,
    evaluation_domain,
    inverse_mass,
    mass,
    smoothed_potential,
    tunneling_threshold,
    vq_potential,
)
from effpot.physical import PhysicalParams
from effpot.potential import (
    PiecewiseConstantPotential,
    Shape,
    SquareBarrier,
    TabulatedPotential,
    classical_max,
)
from reference_profiles import (
    SegmentProfile,
    canonical_rhs_from_at,
    newtonian_rhs_from_at,
    reference_profiles,
)

BARRIER = SquareBarrier(v0=1.0, l=0.5)
PW_BARRIER = PiecewiseConstantPotential((-0.5, 0.5), (0.0, 1.0, 0.0))
PW3 = PiecewiseConstantPotential((-0.6, 0.0, 0.55), (0.0, 0.5, 0.9, 0.0))
PW4 = PiecewiseConstantPotential((-0.86, -0.48, 0.02, 0.99), (0.0, 0.86, 0.65, 0.92, 0.0))
_TENT_GRID = np.linspace(-1.0, 1.0, 41)
TENT = TabulatedPotential(tuple(_TENT_GRID), tuple(0.8 * (1.0 - np.abs(_TENT_GRID))))
_BUMP_X = np.clip((_TENT_GRID - 0.1) / 0.6, -1.0, 1.0)
BUMP = TabulatedPotential(tuple(_TENT_GRID), tuple(0.7 * 0.5 * (1.0 + np.cos(np.pi * _BUMP_X))))
_RNG = np.random.default_rng(2005)
_LONG_GRID = np.concatenate(([-50.0], np.sort(_RNG.uniform(-50.0, 50.0, 198)), [50.0]))
_LONG_VALUES = _RNG.uniform(-1.0, 2.0, 200)
_LONG_VALUES[-1] = _LONG_VALUES[0]
LONG_TABLE = TabulatedPotential(tuple(_LONG_GRID), tuple(_LONG_VALUES))  # 200 random samples
TENT3 = TabulatedPotential((-1.0, 0.0, 1.0), (0.0, 0.8, 0.0))


def _params(hbar):
    return PhysicalParams(m=1.0, beta=0.125, hbar=hbar)


def test_smoothing_width():
    model = LowMomentumModel(_params(3.0), BARRIER)
    assert math.isclose(model.smoothing_sigma, math.sqrt(0.125 * 9.0 / 4.0), rel_tol=1e-15)
    assert model.smoothing_sigma == model.profile.sigma
    classical = LowMomentumModel(_params(0.0), BARRIER)
    assert classical.smoothing_sigma == 0.0
    # 0 at hbar = 0 even where beta/(4m) overflows and its square root times 0 is nan
    far = LowMomentumModel(PhysicalParams(m=1e-300, beta=1e300, hbar=0.0), BARRIER)
    assert far.smoothing_sigma == 0.0 and evaluation_domain(far) == (-1.5, 1.5)


def test_classical_limit_returns_bare_potential():
    model = LowMomentumModel(_params(0.0), BARRIER)
    assert smoothed_potential(model, 0.0) == 1.0
    assert smoothed_potential(model, 2.0) == 0.0
    assert smoothed_potential(model, 0.5) == 0.5
    assert inverse_mass(model, 0.3) == 1.0
    assert vq_potential(model, 0.2, 0.7) == 1.0  # V^Q = V^C for every eps


def test_smoothed_value_at_jump():
    # one erf term dies at q = l
    for hbar in (1.0, 3.0, 10.0):
        model = LowMomentumModel(_params(hbar), BARRIER)
        c = math.sqrt(2.0) / (math.sqrt(0.125) * hbar)
        expected = 0.5 * erf(c * 1.0)  # erf(2 c l) halved, v0 = 1
        assert abs(smoothed_potential(model, 0.5) - expected) < 1e-14


def _worst_vs_quadrature(pot, hbar, qs):
    model = LowMomentumModel(_params(hbar), pot)
    return max(
        abs(a - b)
        for q in map(float, qs)
        for a, b in zip(model.profile.at(q), reference_profiles(model.params, pot, q))
    )


@pytest.mark.parametrize("hbar", [1.0, 3.0, 6.0, 10.0, 30.0])
def test_closed_forms_match_convolution(hbar):
    # primary correctness gate: the square barrier's closed forms for V, V',
    # 1/M and (1/M)' against the quadrature convolution of the bare barrier
    assert _worst_vs_quadrature(BARRIER, hbar, np.linspace(-1.5, 1.5, 101)) < 1e-8


@pytest.mark.parametrize("hbar", [1.0, 3.0, 10.0])
@pytest.mark.parametrize(
    "pot", [PW_BARRIER, PW3, PW4, TENT], ids=["twin", "3-step", "4-step", "tent"]
)
def test_segment_profiles_match_convolution(pot, hbar):
    # the same gate for the other shapes: steps at uneven heights and a
    # tabulated ramp sequence
    assert _worst_vs_quadrature(pot, hbar, np.linspace(-1.8, 1.8, 19)) < 1e-8


def _assert_matches_segment_form(shape, hbar, origin):
    # out to the edges of the evaluation domain, where a direct corner sum's
    # kink terms K E0(u)/(2c) cancel like K |q - x|/2 against a small V
    params = _params(hbar)
    a, b = shape.x[0], shape.x[-1]
    pad = (b - a) + 6.0 * math.sqrt(params.beta / (4.0 * params.m)) * hbar
    qs = np.linspace(a - pad, b + pad, 1001) - origin
    corners, segments = Profile(params, shape, origin), SegmentProfile(params, shape, origin)
    want = np.array(segments.on(qs))
    asymptote = np.array([shape.level, 0.0, 1.0 / params.m, 0.0])
    # 1e-12 of each column's largest deviation from its asymptote, but never
    # below 2 ulp of the asymptote: the final level + v and 1/m + mi
    # roundings alone can spend one, and a shape of small area deviates by
    # less than 1e4 ulp
    scale = np.maximum(1e-12 * np.abs(want - asymptote[:, None]).max(axis=1),
                       2.0 * np.spacing(np.abs(asymptote)))
    got = np.array([corners.at(q) for q in qs.tolist()]).T
    assert np.all(np.abs(got - want) <= scale[:, None])
    for q in qs[::50].tolist():
        assert np.all(np.abs(np.subtract(corners.at(q), segments.at(q))) <= scale), q


@st.composite
def _mixed_shapes(draw):
    # constant and linear segments in any order, joined by jumps or not
    n = draw(st.integers(min_value=1, max_value=6))
    gaps = draw(st.lists(st.floats(min_value=0.05, max_value=1.5), min_size=n, max_size=n))
    x = np.cumsum((0.0, *gaps)) + draw(st.floats(min_value=-2.0, max_value=2.0))
    heights = st.floats(min_value=-2.0, max_value=2.0)
    left, right = [], []
    for _ in range(n):
        joined = left and draw(st.booleans())
        left.append(right[-1] if joined else draw(heights))
        right.append(draw(heights) if draw(st.booleans()) else left[-1])
    return Shape(draw(heights), tuple(x.tolist()), tuple(left), tuple(right))


@settings(max_examples=60, deadline=None)
@given(_mixed_shapes(), st.floats(min_value=0.3, max_value=6.0),
       st.floats(min_value=-3.0, max_value=3.0).filter(lambda origin: origin != 0.0))
@example(Shape(0.0, (3.0, 4.0), (0.0,), (1.0,)), 1.0, 1.0)  # the last kink also jumps
@example(Shape(0.0, (0.0, 0.05), (0.01,), (0.01,)), 2.3649168545007897, 3.0)  # 1/M off by 1 ulp of 1/m
def test_corner_sum_matches_segment_form(shape, hbar, origin):
    _assert_matches_segment_form(shape, hbar, origin)


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="known defect: V' sums to three subnormal steps off the segment form, "
                          "against a floor of two")
def test_corner_sum_matches_segment_form_on_a_subnormal_ramp():
    _assert_matches_segment_form(Shape(level=0.0, x=(0.0, 0.5), left=(0.0,), right=(5e-324,)), 1.0, 1.0)


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="known defect: V in the far tail is 14 ulp of the level off the segment "
                          "form, where the ramp's area nearly cancels the level")
def test_corner_sum_matches_segment_form_where_the_deviation_cancels():
    _assert_matches_segment_form(Shape(level=-1.0, x=(0.0, 0.125), left=(0.0,), right=(-2.0,)), 4.0, 1.0)


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="known defect: V at q = 2.09 is 1.03 times its gate off the segment "
                          "form, from the tail digits of its erf sum")
def test_corner_sum_matches_segment_form_on_a_late_step():
    shape = Shape(level=0.03125, x=(0.0, 0.25, 0.5, 0.75, 0.875, 0.9375), left=(0.0,) * 5,
                  right=(0.0, 0.0, 0.0, 0.0, 1.0))
    _assert_matches_segment_form(shape, 5.561538461538461, -3.0)


@pytest.mark.parametrize("hbar", [0.3, 3.0, 6.0])
def test_corner_sum_matches_segment_form_on_a_long_table(hbar):
    _assert_matches_segment_form(LONG_TABLE, hbar, 0.0)


@pytest.mark.parametrize("hbar", [0.3, 3.0])
@pytest.mark.parametrize("pot", [TENT, BUMP], ids=["tent", "raised-cosine"])
def test_corner_sum_matches_segment_form_without_rounding_kinks(pot, hbar):
    # the tent's collinear samples have lost their kinks of a few ulp; the
    # segment form still sums every sample
    _assert_matches_segment_form(pot, hbar, 0.0)


@settings(max_examples=100, deadline=None)
@given(_mixed_shapes(), st.floats(min_value=0.05, max_value=6.0),
       st.floats(min_value=-3.0, max_value=3.0).filter(lambda origin: origin != 0.0),
       st.floats(min_value=-4.0, max_value=4.0))
@example(Shape(0.0, (3.0, 4.0), (0.0,), (1.0,)), 1.0, 1.0, -0.7)  # the last kink also jumps
def test_canonical_rhs_is_bitwise_the_at_route(shape, hbar, origin, p):
    profile = Profile(_params(hbar), shape, origin)
    rhs, oracle = profile.canonical_rhs(), canonical_rhs_from_at(profile)
    sigma = math.sqrt(0.125 / 4.0) * hbar
    a, b = shape.x[0] - origin, shape.x[-1] - origin
    pad = (b - a) + 6.0 * sigma
    # across the evaluation domain, and within a few widths of every corner
    near = (x - origin + k * sigma for x in shape.x for k in (-3.0, -1.0, -0.25, 0.0, 0.5, 2.0))
    for q in (*np.linspace(a - pad, b + pad, 101).tolist(), *near):
        assert rhs(q, p) == oracle(q, p), q


@settings(max_examples=100, deadline=None)
@given(_mixed_shapes(), st.floats(min_value=0.05, max_value=6.0),
       st.floats(min_value=-3.0, max_value=3.0).filter(lambda origin: origin != 0.0),
       st.floats(min_value=-2.5, max_value=2.5), st.floats(min_value=-4.0, max_value=4.0))
@example(Shape(0.0, (3.0, 4.0), (0.0,), (1.0,)), 1.0, 1.0, 0.4, -0.7)  # the last kink also jumps
def test_newtonian_rhs_is_bitwise_the_at_route(shape, hbar, origin, eps, u):
    # eps spans the shapes' heights [-2, 2], so V - eps takes both signs
    profile = Profile(_params(hbar), shape, origin)
    rhs, oracle = profile.newtonian_rhs(eps), newtonian_rhs_from_at(profile, eps)
    sigma = math.sqrt(0.125 / 4.0) * hbar
    a, b = shape.x[0] - origin, shape.x[-1] - origin
    pad = (b - a) + 6.0 * sigma
    near = (x - origin + k * sigma for x in shape.x for k in (-3.0, -1.0, -0.25, 0.0, 0.5, 2.0))
    for q in (*np.linspace(a - pad, b + pad, 101).tolist(), *near):
        assert rhs(q, u) == oracle(q, u), q


@settings(max_examples=60, deadline=None)
@given(_mixed_shapes(), st.floats(min_value=0.02, max_value=2.0),
       st.floats(min_value=-4.0, max_value=4.0), st.floats(min_value=-2.5, max_value=2.5))
# four zones: a wall, a wall and a ramp, two walls; each window drops jumps
@example(Shape(0.0, (0.0, 1.0, 1.2, 2.5, 3.5), (1.0, 0.5, 0.0, -0.5), (1.0, 0.0, 0.0, -0.5)),
         0.05, 1.3, 0.2)
# two walls, a ramp and a wall: the ramp's window holds its kinks and has two
# walls far left, and the first wall's has two far right, so their +-J/2 are
# added one by one to a V that already carries the kinks' share
@example(Shape(0.0, (0.0, 1.0, 2.0, 3.0, 4.0), (0.3, 1.1, 1.1, 0.2), (0.3, 1.1, 0.2, 0.2)),
         0.05, 1.3, 0.2)
def test_zone_closures_are_bitwise_the_at_route(shape, hbar, p, eps):
    # each zone's canonical right-hand side leaves out the other zones' jumps
    # on its window, and reads every corner beyond it; the zone's V and 1/M
    # readers are at's columns there too
    try:
        model = LowMomentumModel(_params(hbar), shape)
    except (DomainError, NonPositiveMass):
        assume(False)
    sigma = model.smoothing_sigma
    for zone in dynamics._zones(model):
        profile = zone.profile
        lo, hi = profile.window
        closures = ((dynamics._rhs(profile, None), canonical_rhs_from_at(profile), p),
                    (dynamics._rhs(profile, eps), newtonian_rhs_from_at(profile, eps), p))
        near = (x - zone.origin + k * sigma for x in shape.x for k in (-1.0, 0.0, 0.5))
        beyond = (lo - 3.0 * sigma, hi + 3.0 * sigma)
        qs = (*np.linspace(lo, hi, 101).tolist(), *near, *beyond)
        for q in qs:
            for rhs, oracle, s in closures:
                assert rhs(q, s) == oracle(q, s), q
        _assert_readers_are_at(profile, qs)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _assert_readers_are_at(profile, qs):
    for q in qs:
        v, _, minv, _ = profile.at(q)
        assert _bits(profile.v_at(q)) == _bits(v), q
        assert _bits(profile.minv_at(q)) == _bits(minv), q
        assert tuple(map(_bits, profile.v_minv_at(q))) == (_bits(v), _bits(minv)), q


@settings(max_examples=100, deadline=None)
@given(_mixed_shapes(), st.floats(min_value=0.05, max_value=6.0),
       st.floats(min_value=-3.0, max_value=3.0).filter(lambda origin: origin != 0.0))
@example(Shape(0.0, (3.0, 4.0), (0.0,), (1.0,)), 1.0, 1.0)  # the last kink also jumps
def test_readers_are_bitwise_the_at_columns(shape, hbar, origin):
    # V, 1/M and (V, 1/M) sum at's terms in at's order: across the domain,
    # near every corner, in the far tails (erf +-1 and Gaussians 0, then u^2
    # overflowing) and at a NaN q
    profile = Profile(_params(hbar), shape, origin)
    sigma = profile.sigma
    a, b = shape.x[0] - origin, shape.x[-1] - origin
    pad = (b - a) + 6.0 * sigma
    near = (x - origin + k * sigma for x in shape.x for k in (-3.0, -1.0, -0.25, 0.0, 0.5, 2.0))
    far = (a - 40.0 * sigma, b + 40.0 * sigma, -1e3, 1e3, -1e200, 1e200, math.nan)
    _assert_readers_are_at(profile, (*np.linspace(a - pad, b + pad, 101).tolist(), *near, *far))


_FINITE_READS = {
    "smoothed_potential": smoothed_potential,
    "inverse_mass": inverse_mass,
    "mass": mass,
    "vq_potential-q": lambda model, x: vq_potential(model, x, 0.5),
    "vq_potential-eps": lambda model, x: vq_potential(model, 0.1, x),
    "hamiltonian-q": lambda model, x: dynamics.hamiltonian(model, x, 0.5),
    "hamiltonian-p": lambda model, x: dynamics.hamiltonian(model, 0.1, x),
}


@pytest.mark.parametrize("read", _FINITE_READS.values(), ids=_FINITE_READS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("pot, hbar", [(BARRIER, 3.0), (TENT3, 3.0), (BARRIER, 0.0)],
                         ids=["square", "tent3", "square-hbar0"])
def test_scalar_reads_refuse_a_non_finite_argument(pot, hbar, value, read):
    # the corner sums give nan there: on the square 1/M's jump term is
    # inf * 0 at q = +-inf, on the tent V's kink term
    with pytest.raises(ValueError, match="must be finite"):
        read(LowMomentumModel(_params(hbar), pot), value)


def test_thin_wall_zones_sum_their_own_jump(monkeypatch):
    # at hbar = 0.05 the walls are 113 sigma apart: on each zone's window the
    # other wall's Gaussian is exactly 0, so a call costs one exp and no erf
    model = LowMomentumModel(_params(0.05), BARRIER)
    calls = []
    exp = math.exp
    monkeypatch.setattr(math, "exp", lambda x: calls.append(x) or exp(x))
    monkeypatch.setattr(math, "erf", None)
    zones = dynamics._zones(model)
    assert len(zones) == 2
    for zone in zones:
        rhs = dynamics._rhs(zone.profile, None)
        lo, hi = zone.profile.window
        for q in np.linspace(lo, hi, 21).tolist():
            calls.clear()
            rhs(q, 1.0)
            assert len(calls) == 1, q
    calls.clear()
    Profile(model.params, BARRIER).canonical_rhs()(0.0, 1.0)  # no window: both walls
    assert len(calls) == 2


def test_thin_wall_newtonian_zones_sum_their_own_jump(monkeypatch):
    # the Newtonian closure forms V as well: on each zone's window the other
    # wall adds its exact -+J/2, so a call costs one exp and one erf
    model = LowMomentumModel(_params(0.05), BARRIER)
    calls = []
    exp, erf = math.exp, math.erf
    monkeypatch.setattr(math, "exp", lambda x: calls.append("exp") or exp(x))
    monkeypatch.setattr(math, "erf", lambda x: calls.append("erf") or erf(x))
    zones = dynamics._zones(model)
    assert len(zones) == 2
    for zone in zones:
        rhs = dynamics._rhs(zone.profile, 0.9)
        lo, hi = zone.profile.window
        for q in np.linspace(lo, hi, 21).tolist():
            calls.clear()
            rhs(q, 1.0)
            assert sorted(calls) == ["erf", "exp"], q
    calls.clear()
    model.profile.newtonian_rhs(0.9)(0.0, 1.0)  # no window: both walls
    assert sorted(calls) == ["erf", "erf", "exp", "exp"]


def test_brent_returns_a_root_at_the_first_end():
    # brentq's rule: an exact zero at xa is returned before any sign test
    def f(x):
        return x - 0.25

    assert _brent(f, 0.25, 1.0) == 0.25 == brentq(f, 0.25, 1.0, xtol=EVENT_TOL, rtol=EVENT_TOL)


def test_brent_bisects_on_a_zero_denominator():
    # dblk * dpre underflows to 0 on this tiny cubic: scipy's C brentq gets
    # inf there and bisects, step for step as the port must
    def f(x):
        return 1e-160 * (x * x * x - 0.2)

    assert _brent(f, 0.0, 1.0) == brentq(f, 0.0, 1.0, xtol=EVENT_TOL, rtol=EVENT_TOL)
    top = tunneling_threshold(LowMomentumModel(_params(3.0), SquareBarrier(1e-300, 0.5)))
    assert 0.0 < top < 1e-300


def test_collinear_samples_cost_nothing():
    # 41 samples of a tent on a dyadic grid, so that its slopes are exactly
    # equal on each side: it bends at three breakpoints only
    grid = np.arange(-20, 21) / 16.0
    tent = TabulatedPotential(tuple(grid), tuple(0.75 * np.maximum(0.0, 1.0 - np.abs(grid))))
    # a ramp that ends in a drop: its last corner jumps and bends, which is
    # one entry of each kind
    ramp = Shape(0.0, (3.0, 4.0), (0.0,), (1.0,))
    for shape, counts in ((tent, (0, 3)), (ramp, (1, 2))):
        profile = Profile(_params(3.0), shape)
        assert (len(profile.jumps), len(profile.kinks)) == counts


def test_deep_tail_agreement():
    # in the tails the quadrature works near its roundoff floor
    params = _params(3.0)
    closed = LowMomentumModel(params, BARRIER)
    for q in (-2.45, -3.0, 2.7):
        a = smoothed_potential(closed, q)
        b = reference_profiles(params, BARRIER, q)[0]
        assert abs(a - b) < 1e-10


def test_symmetry():
    model = LowMomentumModel(_params(3.0), BARRIER)
    for q in (0.3, 0.9, 2.0):
        assert abs(smoothed_potential(model, q) - smoothed_potential(model, -q)) < 1e-12
        assert abs(mass(model, q) - mass(model, -q)) < 1e-12


def test_smoothing_bounds():
    model = LowMomentumModel(_params(3.0), BARRIER)
    for q in np.linspace(-4.0, 4.0, 201):
        v = smoothed_potential(model, float(q))
        assert 0.0 <= v <= 1.0


def test_pointwise_classical_convergence():
    # |V - V^C| decreases monotonically through hbar = 1, 0.5, 0.25, 0.125
    # at continuity points; at the jump the limit is v0/2
    from effpot.potential import eval_classical

    for q in (0.0, 0.3, 0.49, 0.51, 1.0):
        bare = eval_classical(BARRIER, q)
        errs = [
            abs(smoothed_potential(LowMomentumModel(_params(h), BARRIER), q) - bare)
            for h in (1.0, 0.5, 0.25, 0.125)
        ]
        assert all(a >= b for a, b in zip(errs, errs[1:]))
    jump = [
        smoothed_potential(LowMomentumModel(_params(h), BARRIER), 0.5)
        for h in (1.0, 0.5, 0.25, 0.125)
    ]
    assert all(abs(v - 0.5) < abs(u - 0.5) + 1e-15 for u, v in zip(jump, jump[1:]))


def test_inverse_mass_asymptote():
    model = LowMomentumModel(_params(3.0), BARRIER)
    assert abs(inverse_mass(model, 80.0) - 1.0) < 1e-12
    assert abs(mass(model, -80.0) - 1.0) < 1e-12


def test_inverse_mass_center_formula():
    for hbar in (3.0, 10.0):
        params = _params(hbar)
        model = LowMomentumModel(params, BARRIER)
        w = 2.0 / (0.125 * hbar * hbar)
        expected = 1.0 + (2.0 * 0.5 / (3.0 * hbar)) * math.sqrt(2.0 * 0.125 / math.pi) * math.exp(-w * 0.25)
        assert abs(inverse_mass(model, 0.0) - expected) < 1e-14
        assert mass(model, 0.0) < 1.0  # the mass is lowered inside the barrier


def test_mass_peak_near_barrier_edge():
    model = LowMomentumModel(_params(10.0), BARRIER)
    qs = np.linspace(-4.0, 4.0, 801)
    ms = np.array([mass(model, float(q)) for q in qs])
    assert ms[400] < 1.0
    assert ms.max() > 1.0


def test_non_positive_mass_raises_at_construction():
    with pytest.raises(NonPositiveMass):
        LowMomentumModel(PhysicalParams(m=1.0, beta=100.0, hbar=1.0), BARRIER)


def _reference_extremum(params, pot, lo, hi, column, sign, points=200_000):
    """Highest of sign * column (0 for V, 2 for 1/M) on [lo, hi] and its
    position: the argmax of a uniform grid of the segment form, with every
    extremum of its cells within 1e-3 of the grid's best refined by scipy's
    bounded minimiser on Profile.at. The minimiser's tolerance grows with
    |q|, so it works in offsets from the cell."""
    at = Profile(params, pot).at
    qs = np.linspace(lo, hi, points)
    values, slopes = sign * np.array(SegmentProfile(params, pot).on(qs)[column:column + 2])
    i = int(values.argmax())
    best = values[i], qs[i]
    cells = (slopes[:-1] > 0) & (slopes[1:] <= 0) & (values[:-1] >= best[0] - 1e-3 * abs(best[0]))
    for i in np.flatnonzero(cells).tolist():
        q0 = qs[i]
        res = minimize_scalar(lambda t: -sign * at(q0 + t)[column],
                              bounds=(qs[max(i - 1, 0)] - q0, qs[min(i + 2, points - 1)] - q0),
                              method="bounded", options={"xatol": 1e-12})
        best = max(best, (-res.fun, q0 + res.x))
    return sign * best[0], best[1]


@st.composite
def _two_humps(draw):
    # two plateaus of widths w1, w2 a gap apart (all in smoothing widths),
    # the second one's height chosen so that the smoothed peaks, about
    # h erf(w / sqrt(8)) each, are within 1e-3 of each other: the grid of a
    # uniform scan then easily picks the lower one
    hbar = draw(st.floats(min_value=0.05, max_value=1.0))
    w1, w2 = (draw(st.floats(min_value=0.5, max_value=4.0)) for _ in range(2))
    gap = draw(st.floats(min_value=30.0, max_value=300.0))
    h1 = draw(st.floats(min_value=0.5, max_value=2.0))
    h2 = h1 * math.erf(w1 / math.sqrt(8.0)) / math.erf(w2 / math.sqrt(8.0))
    h2 *= 1.0 + draw(st.floats(min_value=-1e-3, max_value=1e-3))
    x = np.cumsum((0.0, w1, gap, w2)) * math.sqrt(0.125 / 4.0) * hbar
    return hbar, PiecewiseConstantPotential(tuple(x.tolist()), (0.0, h1, 0.0, h2, 0.0))


@settings(max_examples=40, deadline=None)
@given(_two_humps())
def test_threshold_is_the_higher_of_two_close_peaks(case):
    hbar, pot = case
    model = LowMomentumModel(_params(hbar), pot)
    top, _ = _reference_extremum(model.params, pot, *evaluation_domain(model), 0, 1.0)
    assert abs(tunneling_threshold(model) - top) <= 1e-13 * abs(top)


def test_wide_square_refusal_quotes_the_dip():
    # the dip of 1/M at a wall is about sigma wide and as deep at any hbar;
    # the square's support is 9000 sigma wide here
    params, square = PhysicalParams(m=1.0, beta=20.0, hbar=0.01), SquareBarrier(1.0, 100.0)
    with pytest.raises(NonPositiveMass) as err:
        LowMomentumModel(params, square)
    match = re.match(r"inverse mass (\S+) at q = (\S+);", str(err.value))
    low, where = float(match[1]), float(match[2])
    sigma = math.sqrt(params.beta / (4.0 * params.m)) * params.hbar
    want, at = _reference_extremum(params, square, -101.0, 101.0, 2, -1.0)
    assert low < -0.6
    assert abs(low - want) <= 1e-12
    # the two walls' dips are mirror images
    assert abs(abs(where) - abs(at)) <= 0.1 * sigma


def test_separate_zones_keep_the_plateau_as_threshold():
    # at hbar = 0.05 the walls' neighbourhoods do not overlap, and V' has no
    # sign change in either: the top is the level of the gap between them
    model = LowMomentumModel(_params(0.05), BARRIER)
    sigma = model.smoothing_sigma
    assert len(corner_groups(BARRIER, ZONE_SIGMAS * sigma)) == 2
    assert tunneling_threshold(model) == 1.0


@pytest.mark.parametrize("hbar, refused", [(1e-145, False), (5e-154, True)])
def test_profiles_leave_floating_range_only_with_u_squared(hbar, refused):
    # at 1e-145 each wall's neighbourhood rounds onto its breakpoint, and V,
    # V', 1/M and (1/M)' are finite; at 5e-154 u^2 of a wall overflows at the
    # domain edges
    if refused:
        with pytest.raises(DomainError, match="leave floating range"):
            LowMomentumModel(_params(hbar), BARRIER)
    else:
        assert tunneling_threshold(LowMomentumModel(_params(hbar), BARRIER)) == 1.0


@pytest.mark.parametrize("hbar", [1e-105, 1e-150])
def test_inverse_mass_slope_vanishes_away_from_tiny_hbar_walls(hbar):
    # a jump's (1/M)' term is jm_p (1/2 - u^2) e^{-u^2}: its Gaussian, 0 here,
    # must meet 1/2 - u^2 before the huge jm_p does, or inf * 0 reads nan
    profile = Profile(_params(hbar), BARRIER)
    rhs = profile.canonical_rhs()
    for q in (-1.5, -0.6, 0.0, 0.7, 2.0):
        assert profile.at(q)[3] == 0.0
        assert all(math.isfinite(x) for x in rhs(q, 1.3))
    assert all(math.isfinite(x) for x in (*profile.at(-0.5), *rhs(-0.5, 1.3)))


def test_vq_asymptotics_and_height():
    model = LowMomentumModel(_params(3.0), BARRIER)
    assert abs(vq_potential(model, 80.0, 0.6)) < 1e-12
    # the reduced barrier top sits strictly below the bare height
    qs = np.linspace(-3.0, 3.0, 301)
    top = max(vq_potential(model, float(q), 0.25) for q in qs)
    assert top < 1.0


SQUARE_HBARS = [1e-6, 0.05, 0.5, 1.0, 2.0, 3.0, 6.0, 10.0]


def test_threshold_closed_form():
    # v0 erf(sqrt(2m) l / (sqrt(beta) hbar)) = erf(2/hbar) here
    for hbar in SQUARE_HBARS:
        model = LowMomentumModel(_params(hbar), BARRIER)
        assert abs(tunneling_threshold(model) - erf(2.0 / hbar)) < 1e-14
    model = LowMomentumModel(_params(2.0), BARRIER)
    assert abs(tunneling_threshold(model) - erf(1.0)) < 1e-14
    assert abs(tunneling_threshold(model) - 0.8427) < 5e-5
    classical = LowMomentumModel(_params(0.0), BARRIER)
    assert tunneling_threshold(classical) == 1.0


def test_threshold_monotonicity():
    # higher temperature (smaller beta) raises the threshold; a thinner
    # barrier lowers it
    t_cold = tunneling_threshold(LowMomentumModel(PhysicalParams(1.0, 0.5, 3.0), BARRIER))
    t_warm = tunneling_threshold(LowMomentumModel(PhysicalParams(1.0, 0.125, 3.0), BARRIER))
    assert t_warm > t_cold
    t_thin = tunneling_threshold(LowMomentumModel(_params(3.0), SquareBarrier(1.0, 0.25)))
    t_wide = tunneling_threshold(LowMomentumModel(_params(3.0), SquareBarrier(1.0, 0.5)))
    assert t_thin < t_wide


def test_threshold_matches_smoothed_max_general():
    model = LowMomentumModel(_params(3.0), PW_BARRIER)
    closed = LowMomentumModel(_params(3.0), BARRIER)
    assert abs(tunneling_threshold(model) - tunneling_threshold(closed)) < 1e-10


@pytest.mark.parametrize("hbar", [1.0, 3.0, 6.0])
def test_threshold_fixed_point(hbar):
    # eps* solves eps = max_q V^Q(q; eps)
    model = LowMomentumModel(_params(hbar), BARRIER)
    eps_star = tunneling_threshold(model)
    m = model.params.m

    def slope(q):
        # VQ' = m (V' Minv + (V - eps) Minv')
        v, vp, minv, minvp = model.profile.at(q)
        return m * (vp * minv + (v - eps_star) * minvp)

    # a scan of this test's own: the grid's argmax cell, refined at the root
    # of the slope
    qs = np.linspace(*evaluation_domain(model), 2001)
    vq = [vq_potential(model, q, eps_star) for q in qs.tolist()]
    i = int(np.argmax(vq))
    top = max(vq[i], vq_potential(model, brentq(slope, qs[i - 1], qs[i + 1], xtol=1e-15), eps_star))
    assert abs(top - eps_star) < 1e-9


@pytest.mark.parametrize(
    "hbar, pot",
    [(h, BARRIER) for h in SQUARE_HBARS]
    + [(3.0, pot) for pot in (PW_BARRIER, PW3, PW4, TENT, BUMP)],
    ids=[f"square-{h:g}" for h in SQUARE_HBARS]
    + ["twin", "3-step", "4-step", "tent", "raised-cosine"],
)
def test_threshold_matches_bounded_maximiser(hbar, pot):
    # oracle: scipy's bounded minimiser on -V over the argmax cell of a fine
    # grid of the segment form, independent of the model's own scan and
    # root refinement
    model = LowMomentumModel(_params(hbar), pot)
    qs = np.linspace(*evaluation_domain(model), 20001)
    i = int(np.argmax(SegmentProfile(model.params, pot).on(qs)[0]))
    res = minimize_scalar(
        lambda q: -smoothed_potential(model, q),
        bounds=(qs[i - 1], qs[i + 1]),
        method="bounded",
        options={"xatol": 1e-12},
    )
    assert abs(tunneling_threshold(model) + res.fun) < 1e-12


def test_gradients_match_finite_differences():
    model = LowMomentumModel(_params(3.0), BARRIER)
    h = 1e-6
    for q in (-0.8, 0.0, 0.4, 1.2):
        _, vp, _, minvp = model.profile.at(q)
        fd_v = (smoothed_potential(model, q + h) - smoothed_potential(model, q - h)) / (2 * h)
        assert abs(vp - fd_v) < 1e-8
        fd_m = (inverse_mass(model, q + h) - inverse_mass(model, q - h)) / (2 * h)
        assert abs(minvp - fd_m) < 1e-8


@pytest.mark.parametrize("pot", [PW4, BUMP], ids=["4-step", "raised-cosine"])
def test_general_shapes_build(pot):
    # uneven steps and a smooth sampled bump build, and their threshold
    # bounds the smoothed profile from above
    model = LowMomentumModel(_params(3.0), pot)
    thr = tunneling_threshold(model)
    qs = np.linspace(-2.0, 2.0, 81)
    assert max(smoothed_potential(model, float(q)) for q in qs) <= thr + 1e-12
    assert thr < classical_max(pot)


def test_tabulated_model_profiles():
    # triangle bump, sampled: smoothing keeps the peak under the bare top
    grid = np.linspace(-2.0, 2.0, 401)
    vals = np.maximum(0.0, 1.0 - np.abs(grid))
    tab = TabulatedPotential(tuple(grid), tuple(vals))
    model = LowMomentumModel(_params(3.0), tab)
    assert smoothed_potential(model, 0.0) < 1.0
    assert tunneling_threshold(model) < 1.0
    assert mass(model, 0.0) != 1.0
