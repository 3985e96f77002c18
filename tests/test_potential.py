import math

import numpy as np
import pytest
from scipy.integrate import quad

from effpot.kernel import _form_factor
from effpot.potential import (
    KINK_ULPS,
    PiecewiseConstantPotential,
    Shape,
    SquareBarrier,
    TabulatedPotential,
    asymptotic_level,
    classical_max,
    eval_classical,
    load_tabulated_csv,
    support_interval,
)

BARRIER = SquareBarrier(v0=1.0, l=0.5)


def test_square_barrier_validation():
    with pytest.raises(ValueError):
        SquareBarrier(v0=0.0, l=0.5)
    with pytest.raises(ValueError):
        SquareBarrier(v0=1.0, l=-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constructors_reject_non_finite(bad):
    with pytest.raises(ValueError):
        SquareBarrier(v0=bad, l=0.5)
    with pytest.raises(ValueError):
        SquareBarrier(v0=1.0, l=bad)
    with pytest.raises(ValueError):
        PiecewiseConstantPotential((-1.0, bad), (0.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        PiecewiseConstantPotential((-1.0, 1.0), (0.0, bad, 0.0))
    with pytest.raises(ValueError):
        TabulatedPotential((-1.0, bad, 1.0), (0.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        TabulatedPotential((-1.0, 0.0, 1.0), (0.0, bad, 0.0))


@pytest.mark.parametrize("geometry", [
    (0.0, (1.0, -1.0), (1.0,), (1.0,)),
    (0.0, (-1.0, -1.0), (1.0,), (1.0,)),
    (0.0, (-1.0, 0.0, 0.0), (1.0, 2.0), (1.0, 2.0)),
    (0.0, (-1.0, math.nan), (1.0,), (1.0,)),
    (0.0, (-1.0, math.inf), (1.0,), (1.0,)),
    (0.0, (-1.0, 1.0), (math.nan,), (1.0,)),
    (0.0, (-1.0, 1.0), (1.0,), (-math.inf,)),
    (math.nan, (-1.0, 1.0), (1.0,), (1.0,)),
    (0.0, (-1.0, 1.0), (1.0, 2.0), (1.0,)),
    (0.0, (-1.0, 1.0), (1.0,), ()),
    (0.0, (-1.0, 0.0, 1.0), (1.0,), (1.0,)),
    (0.0, (), (), ()),
], ids=["decreasing", "repeated", "repeated-inner", "nan-x", "inf-x", "nan-left", "inf-right",
        "nan-level", "long-left", "short-right", "short-values", "empty"])
def test_shape_refuses_bad_geometry(geometry):
    # a decreasing pair used to smooth a +1 barrier into V(0.5) < 0, a
    # repeated breakpoint to divide by zero, and extra values to be cut off
    with pytest.raises(ValueError):
        Shape(*geometry)


def test_shape_takes_lists_and_arrays_as_tuples_of_floats():
    # a list or an array used to pass validation and then fail to hash
    given = [
        (0.0, (-1.0, 0.0, 1.0), (0.5, 1.0), (1.0, 0.5)),
        (0, [-1, 0, 1], [0.5, 1], [1, 0.5]),
        (np.float64(0.0), np.array([-1.0, 0.0, 1.0]), np.array([0.5, 1.0]), np.array([1.0, 0.5])),
    ]
    shapes = [Shape(*geometry) for geometry in given]
    assert shapes[0] == shapes[1] == shapes[2]
    assert len({hash(shape) for shape in shapes}) == 1
    for shape in shapes:
        assert type(shape.level) is float
        for values in (shape.x, shape.left, shape.right, *shape.corners):
            assert type(values) is tuple and all(type(v) is float for v in values)


def test_shapes_of_the_three_types():
    assert BARRIER.x == (-0.5, 0.5) and BARRIER.left == (1.0,)
    assert BARRIER.steps
    pw = PiecewiseConstantPotential((-1.0, 0.0, 1.0), (0.5, 2.0, -1.0, 0.5))
    assert (pw.level, pw.left, pw.right) == (0.5, (2.0, -1.0), (2.0, -1.0))
    tab = TabulatedPotential((-1.0, 0.0, 1.0), (0.0, 2.0, 0.0))
    assert (tab.left, tab.right) == ((0.0, 2.0), (2.0, 0.0))
    assert not tab.steps


def test_every_potential_type_is_a_shape():
    plain = Shape(0.0, (-0.5, 0.5), (1.0,), (1.0,))
    assert (BARRIER.level, BARRIER.x, BARRIER.left, BARRIER.right) == \
        (plain.level, plain.x, plain.left, plain.right)
    assert isinstance(BARRIER, Shape)
    assert isinstance(PiecewiseConstantPotential((-0.5, 0.5), (0.0, 1.0, 0.0)), Shape)
    assert isinstance(TabulatedPotential((-1.0, 0.0, 1.0), (0.0, 2.0, 0.0)), Shape)


def _kinks(pot):
    return np.count_nonzero(pot.corners[2])


def test_rounding_kinks_are_dropped():
    # samples of one line are collinear only up to rounding: 0.8 (1 - |x|)
    # on 41 points changes slope by a few ulp at most of its samples, and
    # bends only at its ends and apex
    grid = np.linspace(-1.0, 1.0, 41)
    tent = TabulatedPotential(tuple(grid), tuple(0.8 * (1.0 - np.abs(grid))))
    assert np.count_nonzero(np.diff(tent.slopes)) > 3
    x, _, kink = np.asarray(tent.corners)
    assert x[kink != 0.0].tolist() == [-1.0, 0.0, 1.0]
    # tents on an offset grid, as the benchmark seeds them
    rng = np.random.default_rng(22)
    for offset, height in rng.uniform((-0.3, 0.5), (0.3, 1.0), (100, 2)):
        grid = np.linspace(-1.0, 1.0, 41) + offset
        values = height * (1.0 - np.abs(grid - offset))
        values[0] = values[-1] = 0.0
        assert _kinks(TabulatedPotential(tuple(grid), tuple(values))) == 3


def test_real_kinks_are_kept():
    # a slope change of 1e-9 relative is a corner
    shape = Shape(0.0, (-1.0, 0.0, 0.5, 1.0), (0.0, 1.0, 0.5), (1.0, 0.5, 0.5 - 0.5 * (1.0 + 1e-9)))
    assert shape.corners[2][2] == pytest.approx(-1e-9, rel=1e-6)
    # and a raised-cosine bump bends at every sample where it is not flat
    grid = np.linspace(-1.0, 1.0, 41)
    rng = np.random.default_rng(22)
    for centre, width, height in rng.uniform((-0.3, 0.5, 0.5), (0.3, 0.7, 1.0), (100, 3)):
        values = height * 0.5 * (1.0 + np.cos(np.pi * np.clip((grid - centre) / width, -1.0, 1.0)))
        values[0] = values[-1] = 0.0
        bump = TabulatedPotential(tuple(grid), tuple(values))
        assert _kinks(bump) == np.count_nonzero(np.diff(bump.slopes)) > 20


def _numpy_corners(shape):
    """Shape.corners as rows of an array, by np.diff and np.spacing."""
    slopes = np.array(shape.slopes)
    with np.errstate(invalid="ignore", over="ignore"):
        kink = np.diff(slopes)
        kink[np.abs(kink) <= KINK_ULPS * np.spacing(np.maximum(np.abs(slopes[:-1]), np.abs(slopes[1:])))] = 0.0
        return np.array((shape.x, np.subtract((*shape.left, shape.level), (shape.level, *shape.right)), kink))


def _bits(rows):
    return [[float(v).hex() for v in row] for row in rows]


def _unit_ramps(*slopes):
    # unit-width segments from 0 up to each slope: the slopes are exact and
    # every inner breakpoint jumps by minus the slope before it
    return Shape(0.0, tuple(float(k) for k in range(len(slopes) + 1)), (0.0,) * len(slopes), slopes)


def test_corners_equal_the_numpy_construction():
    rng = np.random.default_rng(29)
    shapes = []
    for kind in rng.integers(3, size=300):
        n = int(rng.integers(1, 7))
        x = np.cumsum(rng.uniform(0.05, 1.0, n + 1)) - 2.0
        if kind == 0:  # steps
            left = right = rng.uniform(-1.0, 1.0, n)
        elif kind == 1:  # samples of one line: the kinks between them are rounding
            line = rng.uniform(-1.0, 1.0) + rng.uniform(-2.0, 2.0) * x
            left, right = line[:-1], line[1:]
        else:
            left, right = rng.uniform(-1.0, 1.0, (2, n))
        shapes.append(Shape(float(rng.uniform(-0.5, 0.5)), tuple(x.tolist()), tuple(left.tolist()),
                            tuple(right.tolist())))
    u1, u2 = math.ulp(1.0), math.ulp(2.0)
    shapes += [
        # slopes at and around powers of two, each side of the KINK_ULPS bound
        _unit_ramps(2.0, 2.0 + 64 * u2, 2.0 + 65 * u2 + 64 * u2, -4.0, -4.0 - 128 * u2),
        _unit_ramps(2.0, 2.0 - 128 * u1, 2.0, 2.0 - 129 * u1, 0.5, 0.5 + 64 * math.ulp(0.5)),
        # slopes at 0 next to subnormal ones, whose jumps are subnormal too
        _unit_ramps(1.0, 0.0, 1e-322, 0.0, 5e-324, -1e-310, 0.0, 1.0),
        Shape(0.0, (-1.0, 1.0), (5e-324,), (5e-324,)),
        PiecewiseConstantPotential((-1.0, 0.0, 1.0), (1e-320, -5e-324, 2e-323, 1e-320)),
        # a slope that overflows to inf, and one that is inf/inf
        Shape(0.0, (0.0, 5e-324), (0.0,), (1e308,)),
        Shape(0.0, (-1e308, 1e308), (-1e308,), (1e308,)),
    ]
    for shape in shapes:
        assert type(shape.corners) is tuple and all(type(row) is tuple for row in shape.corners)
        assert all(type(v) is float for row in shape.corners for v in row)
        assert _bits(shape.corners) == _bits(_numpy_corners(shape).tolist())
    for shape in shapes[-7:-5]:  # the power-of-two ramps sit on both sides of the bound
        assert np.count_nonzero(np.diff(shape.slopes)) > np.count_nonzero(shape.corners[2]) > 0


def test_tabulated_samples_become_tuples_of_floats():
    grid = np.linspace(-1.0, 1.0, 9)
    values = 0.3 * (1.0 - grid * grid) + 0.1 * grid
    values[0] = values[-1] = 0.0
    for g, v in ((grid.tolist(), values.tolist()), (grid, values),
                 (grid.astype(np.float32), values.astype(np.float32))):
        pot = TabulatedPotential(g, v)
        assert all(type(x) is float for x in (*pot.grid, *pot.values))
        assert _bits((pot.grid, pot.values)) == _bits((np.asarray(g, dtype=float).tolist(),
                                                       np.asarray(v, dtype=float).tolist()))
        assert pot == TabulatedPotential(tuple(np.asarray(g, dtype=float).tolist()),
                                 tuple(np.asarray(v, dtype=float).tolist()))


def test_square_eval_points():
    assert eval_classical(BARRIER, 0.0) == 1.0
    assert eval_classical(BARRIER, 2.0) == 0.0
    # midpoint convention at the jump
    assert eval_classical(BARRIER, 0.5) == 0.5
    assert eval_classical(BARRIER, -0.5) == 0.5


def test_piecewise_constant_eval():
    pot = PiecewiseConstantPotential((-1.0, 0.0, 1.0), (0.0, 2.0, -1.0, 0.0))
    assert eval_classical(pot, -5.0) == 0.0
    assert eval_classical(pot, -0.5) == 2.0
    assert eval_classical(pot, 0.5) == -1.0
    assert eval_classical(pot, 5.0) == 0.0
    assert eval_classical(pot, 0.0) == 0.5  # midpoint of 2 and -1
    assert classical_max(pot) == 2.0
    assert support_interval(pot) == (-1.0, 1.0)


def test_piecewise_constant_validation():
    with pytest.raises(ValueError):
        PiecewiseConstantPotential((0.0, -1.0), (0.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        PiecewiseConstantPotential((0.0,), (0.0, 1.0))
    with pytest.raises(ValueError):
        # unequal asymptotic levels
        PiecewiseConstantPotential((-1.0, 1.0), (0.0, 1.0, 0.5))


def test_tabulated_eval_and_extension():
    pot = TabulatedPotential((-1.0, 0.0, 1.0), (0.0, 2.0, 0.0))
    assert eval_classical(pot, -0.5) == 1.0
    assert eval_classical(pot, 0.0) == 2.0
    # boundary samples extend as constants
    assert eval_classical(pot, -10.0) == 0.0
    assert eval_classical(pot, 10.0) == 0.0
    assert classical_max(pot) == 2.0


def test_tabulated_validation():
    with pytest.raises(ValueError):
        TabulatedPotential((0.0, 0.0, 1.0), (0.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        TabulatedPotential((0.0, 1.0), (0.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        TabulatedPotential((0.0,), (1.0,))
    with pytest.raises(ValueError):
        TabulatedPotential((-1.0, 0.0, 1.0), (0.0, 1.0, 0.3))


def test_asymptotic_levels():
    assert asymptotic_level(BARRIER) == 0.0
    pot = PiecewiseConstantPotential((-1.0, 1.0), (0.7, 1.7, 0.7))
    assert asymptotic_level(pot) == 0.7


def test_form_factor_square_limits():
    assert _form_factor(BARRIER, 0.0) == complex(2.0 * 1.0 * 0.5)
    # sin(k l) zero at k = pi / l
    assert abs(_form_factor(BARRIER, math.pi / 0.5)) < 1e-12


def test_form_factor_square_point():
    pot = SquareBarrier(v0=2.0, l=1.0)
    val = _form_factor(pot, 1.0)
    assert abs(val - 4.0 * math.sin(1.0)) < 1e-12
    assert abs(val.real - 3.3659) < 5e-5


def test_form_factor_symmetric_real_even():
    for k in (0.3, 1.7, 12.0, 80.0):
        ff = _form_factor(BARRIER, k)
        assert abs(ff.imag) <= 1e-14 * max(1.0, abs(ff))
        assert abs(_form_factor(BARRIER, -k) - ff) <= 1e-14 * max(1.0, abs(ff))
    pw = PiecewiseConstantPotential((-1.0, -0.3, 0.3, 1.0), (0.0, 0.5, 1.2, 0.5, 0.0))
    for k in (0.3, 4.0, 30.0):
        ff = _form_factor(pw, k)
        assert abs(ff.imag) <= 1e-13 * max(1.0, abs(ff))


def _brute_form_factor(pot, k):
    a, b = support_interval(pot)
    base = asymptotic_level(pot)
    # split at interior jumps so quad never straddles a discontinuity
    cuts = [x for x in getattr(pot, "breakpoints", ()) if a < x < b]
    kw = dict(limit=200, epsabs=1e-13, epsrel=1e-13, points=cuts or None)
    re = quad(lambda x: (eval_classical(pot, x) - base) * math.cos(k * x), a, b, **kw)[0]
    im = quad(lambda x: -(eval_classical(pot, x) - base) * math.sin(k * x), a, b, **kw)[0]
    return complex(re, im)


@pytest.mark.parametrize("k", [0.5, 3.0, 20.0, 200.0])
def test_form_factor_vs_quadrature_square(k):
    # 200.0 = 100 / l for the reference barrier
    analytic = _form_factor(BARRIER, k)
    brute = _brute_form_factor(BARRIER, k)
    assert abs(analytic - brute) <= 1e-10 * max(1.0, abs(analytic))


@pytest.mark.parametrize("k", [0.5, 3.0, 20.0])
def test_form_factor_vs_quadrature_piecewise(k):
    pot = PiecewiseConstantPotential((-1.2, 0.1, 0.9), (0.5, 2.0, -0.5, 0.5))
    analytic = _form_factor(pot, k)
    brute = _brute_form_factor(pot, k)
    assert abs(analytic - brute) <= 1e-10 * max(1.0, abs(analytic))


def test_form_factor_tabulated_matches_dense_square():
    # dense linear samples of the barrier approximate the analytic transform
    grid = np.linspace(-0.6, 0.6, 4801)
    vals = np.where(np.abs(grid) < 0.5, 1.0, 0.0)
    vals[np.abs(np.abs(grid) - 0.5) < 1e-12] = 0.5
    tab = TabulatedPotential(tuple(grid), tuple(vals))
    for k in (0.5, 2.0):
        assert abs(_form_factor(tab, k) - _form_factor(BARRIER, k)) < 1e-4


def _brute_linear_form_factor(pot, k):
    base = asymptotic_level(pot)
    kw = dict(limit=400, epsabs=1e-13, epsrel=1e-13)
    parts = [
        (quad(lambda x: (eval_classical(pot, x) - base) * math.cos(k * x), a, b, **kw)[0],
         quad(lambda x: -(eval_classical(pot, x) - base) * math.sin(k * x), a, b, **kw)[0])
        for a, b in zip(pot.grid[:-1], pot.grid[1:])
    ]
    return complex(sum(p[0] for p in parts), sum(p[1] for p in parts))


@pytest.mark.parametrize("k", [0.0, 1e-6, 1e-3, 0.2, 0.7, 3.0, 20.0, 200.0])
def test_form_factor_vs_quadrature_tabulated(k):
    # exact transform of the linear interpolant, through the series branch
    # (small k) and the closed branch; an uneven, asymmetric grid
    pot = TabulatedPotential((-1.1, -0.7, -0.05, 0.3, 0.45, 1.2), (0.2, 0.9, 1.4, 0.1, 0.6, 0.2))
    analytic = _form_factor(pot, k)
    brute = _brute_linear_form_factor(pot, k)
    assert abs(analytic - brute) <= 1e-11 * max(1.0, abs(analytic))


def test_load_tabulated_csv(tmp_path):
    path = tmp_path / "pot.csv"
    path.write_text("q,V\n-1.0,0.0\n0.0,1.5\n1.0,0.0\n")
    pot = load_tabulated_csv(path)
    assert pot.grid == (-1.0, 0.0, 1.0)
    assert pot.values == (0.0, 1.5, 0.0)
    # no header also works
    path2 = tmp_path / "bare.csv"
    path2.write_text("-1.0,0.0\n1.0,0.0\n")
    pot2 = load_tabulated_csv(path2)
    assert pot2.grid == (-1.0, 1.0)


def test_byte_order_mark_is_not_part_of_the_first_cell(tmp_path):
    # with the mark stuck to it, a headerless file's first row read as a header
    for text in ("-2,0\n-1,0\n-0.5,0.4\n0,0.8\n1,0\n", "q,V\n-1.0,0.0\n0.0,1.5\n1.0,0.0\n"):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_tabulated_csv(marked) == load_tabulated_csv(plain)


def test_header_after_blank_lines(tmp_path):
    # the header is the first non-blank row, wherever it sits
    path = tmp_path / "blank.csv"
    path.write_text("\n\nq,V\n-1.0,0.0\n0.0,1.5\n1.0,0.0\n")
    assert load_tabulated_csv(path).values == (0.0, 1.5, 0.0)
    # a second non-numeric row is still data that cannot be read
    twice = tmp_path / "twice.csv"
    twice.write_text("\nq,V\nx,y\n-1.0,0.0\n1.0,0.0\n")
    with pytest.raises(ValueError, match="row 3: non-numeric data"):
        load_tabulated_csv(twice)


def test_load_tabulated_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1.0\n")
    with pytest.raises(ValueError):
        load_tabulated_csv(bad)
    decreasing = tmp_path / "dec.csv"
    decreasing.write_text("1.0,0.0\n0.0,1.0\n-1.0,0.0\n")
    with pytest.raises(ValueError):
        load_tabulated_csv(decreasing)
    short = tmp_path / "short.csv"
    short.write_text("q,V\n0.0,0.0\n")
    with pytest.raises(ValueError):
        load_tabulated_csv(short)
    nan_row = tmp_path / "nan.csv"
    nan_row.write_text("q,V\n-1.0,0.0\nnan,1.0\n1.0,0.0\n")
    with pytest.raises(ValueError):
        load_tabulated_csv(nan_row)
