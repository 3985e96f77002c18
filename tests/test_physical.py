import math

import pytest
from hypothesis import given, strategies as st

from effpot.physical import DimensionlessParams, PhysicalParams, dimensionless
from effpot.potential import SquareBarrier
from effpot.transmission import effective_t_of_H


def test_params_validation():
    PhysicalParams(m=1.0, beta=0.125, hbar=3.0)
    PhysicalParams(m=2.0, beta=5.0, hbar=0.0)  # hbar = 0 is legal
    with pytest.raises(ValueError):
        PhysicalParams(m=0.0, beta=1.0, hbar=1.0)
    with pytest.raises(ValueError):
        PhysicalParams(m=1.0, beta=0.0, hbar=1.0)
    with pytest.raises(ValueError):
        PhysicalParams(m=1.0, beta=1.0, hbar=-0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_params_reject_non_finite(bad):
    for kwargs in ({"m": bad}, {"beta": bad}, {"hbar": bad}):
        with pytest.raises(ValueError):
            PhysicalParams(**{"m": 1.0, "beta": 0.125, "hbar": 3.0, **kwargs})


def test_dimensionless_fig1_point():
    params = PhysicalParams(m=1.0, beta=0.125, hbar=10.0)
    dims = dimensionless(params, SquareBarrier(v0=1.0, l=0.5))
    assert math.isclose(dims.H, math.sqrt(0.125) * 10.0 / 0.5, rel_tol=1e-15)
    assert abs(dims.H - 7.0711) < 5e-5


def test_dimensionless_mixture_point():
    # Q = hbar / (sqrt(2 m V0) L) = 1/(k0 L)
    params = PhysicalParams(m=1.0, beta=0.125, hbar=0.875)
    dims = dimensionless(params, SquareBarrier(v0=1.0, l=0.5))
    assert math.isclose(dims.Q, 1.75 / math.sqrt(2.0), rel_tol=1e-15)


def test_classical_limit_is_zero():
    params = PhysicalParams(m=1.0, beta=0.125, hbar=0.0)
    dims = dimensionless(params, SquareBarrier(v0=1.0, l=0.5))
    assert dims.H == 0.0
    assert dims.Q == 0.0


@given(
    hbar=st.floats(min_value=1e-3, max_value=1e3),
    scale=st.floats(min_value=0.5, max_value=4.0),
)
def test_linear_in_hbar(hbar, scale):
    barrier = SquareBarrier(v0=1.0, l=0.5)
    params = PhysicalParams(m=1.0, beta=0.125, hbar=hbar)
    scaled = PhysicalParams(m=1.0, beta=0.125, hbar=hbar * scale)
    d1 = dimensionless(params, barrier)
    d2 = dimensionless(scaled, barrier)
    assert math.isclose(d2.H, d1.H * scale, rel_tol=1e-12)
    assert math.isclose(d2.Q, d1.Q * scale, rel_tol=1e-12)


def test_equal_H_gives_equal_t():
    # distinct (m, beta, hbar, L) tuples, same H: transmission must match
    a = PhysicalParams(m=1.0, beta=0.125, hbar=3.0)
    ba = SquareBarrier(v0=1.0, l=0.5)
    H = dimensionless(a, ba).H
    bb = SquareBarrier(v0=2.5, l=1.3)
    m, beta = 4.0, 0.9
    hbar = H * bb.l / math.sqrt(beta / m)
    b = PhysicalParams(m=m, beta=beta, hbar=hbar)
    assert math.isclose(dimensionless(b, bb).H, H, rel_tol=1e-14)
    t1 = effective_t_of_H(dimensionless(a, ba).H)
    t2 = effective_t_of_H(dimensionless(b, bb).H)
    assert math.isclose(t1, t2, rel_tol=1e-12)


def test_frozen_dataclasses():
    params = PhysicalParams(m=1.0, beta=1.0, hbar=1.0)
    with pytest.raises(Exception):
        params.m = 2.0
    dims = DimensionlessParams(H=1.0, Q=2.0)
    with pytest.raises(Exception):
        dims.H = 0.0
