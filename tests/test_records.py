"""Every public record is immutable, compares and hashes by value, and keeps
its validation messages."""

import copy
import math
import pickle
import re

import pytest

from effpot import (
    CoefficientPair,
    DimensionlessParams,
    FigureSpec,
    LowMomentumModel,
    PhysicalParams,
    PiecewiseConstantPotential,
    QuadratureConfig,
    Shape,
    SquareBarrier,
    TabulatedPotential,
    TransferMatrixResult,
    Trajectory,
    kernel,
)
from effpot.cli import RunConfig


def _columns():
    return [[0.0], [1.0]]


PARAMS = PhysicalParams(1.0, 0.125, 3.0)
BARRIER = SquareBarrier(1.0, 0.5)

# (record, positional arguments, field names in order)
RECORDS = [
    (PhysicalParams, (1.0, 0.125, 3.0), ("m", "beta", "hbar")),
    (DimensionlessParams, (1.5, 0.25), ("H", "Q")),
    (Shape, (0.0, (-1.0, 0.0, 1.0), (0.0, 1.0), (1.0, 0.0)), ("level", "x", "left", "right")),
    (SquareBarrier, (1.0, 0.5), ("v0", "l")),
    (PiecewiseConstantPotential, ((-0.5, 0.5), (0.0, 1.0, 0.0)), ("breakpoints", "values")),
    (TabulatedPotential, ((-1.0, 0.0, 1.0), (0.0, 0.8, 0.0)), ("grid", "values")),
    (LowMomentumModel, (PARAMS, BARRIER), ("params", "pot")),
    (LowMomentumModel, (PhysicalParams(1.0, 0.125, 0.0), BARRIER), ("params", "pot")),
    (Trajectory, ((0.0, 1.0), (0.0, 0.5), (1.0, 1.0), 0.5, (0.0, 0.0), 0.0, "surpassed", 12),
     ("t", "q", "p", "energy0", "energy_drift", "max_energy_drift", "outcome", "n_rhs")),
    (QuadratureConfig, (1e-8, 1e-12), ("rel_tol", "abs_tol")),
    (CoefficientPair, (0.25,), ("t",)),
    (TransferMatrixResult, (0.5, False), ("t", "underflow")),
    (FigureSpec, (9, ("x", "y"), "y", (), _columns), ("id", "header", "ylabel", "metadata", "columns")),
    (RunConfig, (1.0, 0.125, 3.0, 0.5, 1.0, 0.25, 1e-10, 1e-14),
     ("m", "beta", "hbar", "L", "V0", "eps", "rel_tol", "abs_tol")),
]


@pytest.mark.parametrize("record, args, names", RECORDS, ids=[record.__name__ for record, _, _ in RECORDS])
def test_record_is_an_immutable_value(record, args, names):
    by_position = record(*args)
    by_keyword = record(**dict(zip(names, args)))
    assert by_position is not by_keyword
    assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
    assert by_position != object()
    for name in names:
        with pytest.raises(AttributeError):
            setattr(by_position, name, getattr(by_position, name))
        with pytest.raises(AttributeError):
            delattr(by_position, name)
    with pytest.raises(AttributeError):
        by_position.no_such_field = 0
    assert by_position == by_keyword
    assert pickle.loads(pickle.dumps(by_position)) == by_position
    assert copy.copy(by_position) == by_position == copy.deepcopy(by_position)


def test_records_differ_when_a_compared_field_does():
    assert PhysicalParams(1.0, 0.125, 3.0) != PhysicalParams(1.0, 0.125, 2.0)
    assert Shape(0.0, (0.0, 1.0), (1.0,), (1.0,)) != Shape(0.0, (0.0, 1.0), (1.0,), (2.0,))
    assert LowMomentumModel(PARAMS, BARRIER) != LowMomentumModel(PARAMS, SquareBarrier(1.0, 0.6))
    assert QuadratureConfig() == QuadratureConfig(1e-10, 1e-14) != QuadratureConfig(1e-9)


def test_repr_lists_the_compared_fields():
    assert repr(LowMomentumModel(PARAMS, BARRIER)) == (
        "LowMomentumModel(params=PhysicalParams(m=1.0, beta=0.125, hbar=3.0), "
        "pot=SquareBarrier(v0=1.0, l=0.5), smoothing_sigma=0.5303300858899107)")
    assert repr(Shape(0.0, (0.0, 1.0, 2.0), (0.0, 1.0), (0.0, 1.0))) == (
        "Shape(level=0.0, x=(1.0, 2.0), left=(1.0,), right=(1.0,))")
    assert repr(Trajectory((0.0,), (0.0,), (1.0,), 0.5, (0.0,), 0.0)) == (
        "Trajectory(t=(0.0,), q=(0.0,), p=(1.0,), energy0=0.5, energy_drift=(0.0,), "
        "max_energy_drift=0.0, outcome=None, n_rhs=0)")
    assert str(CoefficientPair(0.25)) == "CoefficientPair(t=0.25)"


REFUSED = [
    (lambda: PhysicalParams(math.nan, 1.0, 1.0),
     "parameters must be finite, got PhysicalParams(m=nan, beta=1.0, hbar=1.0)"),
    (lambda: PhysicalParams(0.0, 1.0, 1.0), "mass must be positive, got 0.0"),
    (lambda: PhysicalParams(1.0, -1.0, 1.0), "inverse temperature must be positive, got -1.0"),
    (lambda: PhysicalParams(1.0, 1.0, -1.0), "hbar must be nonnegative, got -1.0"),
    (lambda: Shape(0.0, (0.0, 1.0), (math.nan,), (1.0,)), "levels, breakpoints and values must be finite"),
    (lambda: Shape(0.0, (0.0, 1.0), (1.0, 2.0), (1.0,)),
     "need one left and one right value per segment between breakpoints"),
    (lambda: Shape(0.0, (1.0, 0.0), (1.0,), (1.0,)), "breakpoints must be strictly increasing"),
    (lambda: SquareBarrier(0.0, 1.0), "barrier height must be positive, got 0.0"),
    (lambda: SquareBarrier(1.0, math.nan), "barrier half-width must be positive, got nan"),
    (lambda: PiecewiseConstantPotential((0.0,), (1.0,)), "need exactly one more value than breakpoints"),
    (lambda: PiecewiseConstantPotential((0.0,), (1.0, 2.0)),
     "unequal left/right asymptotic levels are not supported"),
    (lambda: TabulatedPotential((0.0,), (1.0, 2.0)), "grid and values must have the same length"),
    (lambda: TabulatedPotential((0.0,), (1.0,)), "need at least two samples"),
    (lambda: TabulatedPotential((0.0, 1.0), (1.0, 2.0)),
     "unequal left/right asymptotic levels are not supported"),
    (lambda: Trajectory((), (), (), 0.0, (), 0.0), "trajectory needs at least one sample"),
    (lambda: Trajectory((0.0,), (), (1.0,), 0.0, (0.0,), 0.0), "sample arrays must have equal length"),
    (lambda: Trajectory((0.0, 0.0), (0.0, 0.0), (1.0, 1.0), 0.0, (0.0, 0.0), 0.0),
     "sample times must be strictly increasing"),
    (lambda: QuadratureConfig(0.0), "rel_tol must be positive, got 0.0"),
    (lambda: QuadratureConfig(math.nan), "rel_tol must be positive, got nan"),
    (lambda: QuadratureConfig(1e-3, -math.inf), "abs_tol must be positive, got -inf"),
    (lambda: CoefficientPair(1.5), "transmission coefficient 1.5 outside [0, 1]"),
    (lambda: CoefficientPair(math.nan), "transmission coefficient nan outside [0, 1]"),
]


@pytest.mark.parametrize("build, message", REFUSED, ids=[message for _, message in REFUSED])
def test_validation_messages(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_equal_distinct_keys_hit_the_kernel_cache():
    # parameters and shapes key kernel's per-(parameters, shape) cache by value
    first = kernel.effective_potential(PhysicalParams(1.0, 0.125, 3.0), SquareBarrier(1.0, 0.5), 0.1, 0.7)
    hits = kernel._prepared.cache_info().hits
    again = kernel.effective_potential(PhysicalParams(1.0, 0.125, 3.0), SquareBarrier(1.0, 0.5), 0.1, 0.7)
    assert kernel._prepared.cache_info().hits == hits + 1
    assert again == first
