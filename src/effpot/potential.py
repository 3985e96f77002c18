"""Classical 1-D potentials as one shape description, and their bare values.

Every potential is a ``Shape``: an asymptotic level plus segments between
breakpoints on which it is constant or linear. The three potential types
subclass it: a square barrier is one constant segment, a piecewise-constant
potential several, and a tabulated potential the linear segments between
its samples, at the asymptotic level outside the grid. Wherever a potential
is expected, any ``Shape`` is accepted. Only the deviation from the
asymptotic level is ever smoothed, which is what makes the smoothing
integrals converge; the smoothing modules sum it in closed form over the
shape's corners. Potentials with unequal left/right asymptotes are rejected.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from .physical import Record

KINK_ULPS = 64.0  # slope changes of at most this many ulp are rounding (Shape)


class Shape(Record):
    """Asymptotic level plus segments (x[k], x[k+1]).

    On segment k the potential runs linearly from left[k] at x[k] to right[k]
    at x[k+1]; the two are equal on a constant segment. Outside (x[0], x[-1])
    it equals the level; segments at the level at either end are dropped.
    The level is taken as a float and x, left and right as tuples of floats,
    so lists and arrays give the same, hashable shape as tuples. Every number
    must be finite and x strictly increasing, with one left and one right
    value per segment; anything else raises ValueError. slopes
    holds the slope on each interval between breakpoints, 0 on the outer
    ones, and corners three tuples of floats, one entry per breakpoint: its
    position, the jump of the value and the jump of the slope across it. A
    finite slope jump of at most KINK_ULPS ulp of the larger slope is set to
    0: samples of one line are collinear only up to rounding, and every kink
    costs the smoothed profiles one erf and one Gaussian.
    """

    __slots__ = ("level", "x", "left", "right", "slopes", "corners", "_hash")
    _fields = ("level", "x", "left", "right")

    def __init__(self, level: float, x: tuple, left: tuple, right: tuple):
        level, x, left, right = float(level), *(tuple(map(float, v)) for v in (x, left, right))
        _require_finite("levels, breakpoints and values", (level, *x, *left, *right))
        if not len(left) == len(right) == len(x) - 1:
            raise ValueError("need one left and one right value per segment between breakpoints")
        if any(b <= a for a, b in zip(x[:-1], x[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        # segments at the level at either end add nothing but width; a shape
        # with no segment off the level stays as given
        off = [k for k, (va, vb) in enumerate(zip(left, right)) if not va == vb == level]
        if off:
            first, stop = off[0], off[-1] + 1
            x, left, right = x[first:stop + 1], left[first:stop], right[first:stop]
        for name, value in (("level", level), ("x", x), ("left", left), ("right", right)):
            object.__setattr__(self, name, value)
        slopes = (0.0, *((vb - va) / (b - a) for a, b, va, vb in zip(x[:-1], x[1:], left, right)), 0.0)
        object.__setattr__(self, "slopes", slopes)
        kinks = []
        for a, b in zip(slopes[:-1], slopes[1:]):
            kink = b - a  # an infinite kink stays, though math.ulp(inf) is inf
            rounding = math.isfinite(kink) and abs(kink) <= KINK_ULPS * math.ulp(max(abs(a), abs(b)))
            kinks.append(0.0 if rounding else kink)
        jumps = (a - b for a, b in zip((*left, level), (level, *right)))
        object.__setattr__(self, "corners", (x, tuple(jumps), tuple(kinks)))
        # shapes key kernel's per-(parameters, shape) caches, looked up on
        # every V_eff call, so the hash of the four defining fields is taken
        # once; a subclass compares by its own fields, which fix these four,
        # so its equal instances hash equal too
        object.__setattr__(self, "_hash", hash((level, x, left, right)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def steps(self) -> bool:
        """True when every segment is constant (the potential only jumps)."""
        return self.left == self.right

    @property
    def levels(self) -> tuple:
        """Value on each interval between breakpoints, outer ones included;
        the entry of an interval is its level when its segment is constant."""
        return (self.level, *self.left, self.level)


def _require_finite(name: str, values) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{name} must be finite")


class SquareBarrier(Shape):
    """Rectangular barrier of height v0 on (-l, l), zero outside.

    At the jump points q = +-l the value is v0/2 (midpoint convention), which
    is also the pointwise limit of the Gaussian-smoothed barrier as the
    smoothing width goes to zero.
    """

    __slots__ = ("v0", "l")
    _fields = ("v0", "l")

    def __init__(self, v0: float, l: float):
        object.__setattr__(self, "v0", v0)
        object.__setattr__(self, "l", l)
        if not v0 > 0:
            raise ValueError(f"barrier height must be positive, got {v0}")
        if not l > 0:
            raise ValueError(f"barrier half-width must be positive, got {l}")
        super().__init__(0.0, (-l, l), (v0,), (v0,))


class PiecewiseConstantPotential(Shape):
    """Constant segments separated by jumps at strictly increasing breakpoints.

    values has one more entry than breakpoints; the first and last values are
    the asymptotic levels and must be equal.
    """

    __slots__ = ("breakpoints", "values")
    _fields = ("breakpoints", "values")

    def __init__(self, breakpoints: tuple, values: tuple):
        bp = tuple(float(x) for x in breakpoints)
        vals = tuple(float(v) for v in values)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if len(vals) != len(bp) + 1:
            raise ValueError("need exactly one more value than breakpoints")
        if vals[0] != vals[-1]:
            raise ValueError("unequal left/right asymptotic levels are not supported")
        super().__init__(vals[0], bp, vals[1:-1], vals[1:-1])


class TabulatedPotential(Shape):
    """Sampled potential, linearly interpolated inside the grid.

    Outside the grid the potential sits at its asymptotic level, the first
    sample; the last sample must agree with it to 1e-12 of the largest
    sample magnitude (at least 1).
    """

    __slots__ = ("grid", "values")
    _fields = ("grid", "values")

    def __init__(self, grid: tuple, values: tuple):
        grid = tuple(map(float, grid))
        vals = tuple(map(float, values))
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", vals)
        if len(grid) != len(vals):
            raise ValueError("grid and values must have the same length")
        if len(vals) < 2:
            raise ValueError("need at least two samples")
        if abs(vals[0] - vals[-1]) > 1e-12 * max(1.0, *map(abs, vals)):
            raise ValueError("unequal left/right asymptotic levels are not supported")
        super().__init__(vals[0], grid, vals[:-1], vals[1:])


def asymptotic_level(pot: Shape) -> float:
    """Common potential level far from the structure."""
    return pot.level


def support_interval(pot: Shape):
    """Interval [a, b] outside which the potential equals its asymptotic level."""
    return pot.x[0], pot.x[-1]


def eval_classical(pot: Shape, q: float) -> float:
    """Value of the bare potential at q, midpoint convention at jumps."""
    level, x, left, right = pot.level, pot.x, pot.left, pot.right
    k = bisect_right(x, q)  # x[k - 1] <= q < x[k]
    if k == 0:
        return level
    if q == x[k - 1]:
        below = right[k - 2] if k >= 2 else level
        above = left[k - 1] if k <= len(left) else level
        return 0.5 * (below + above)
    if k == len(x):
        return level
    va, vb = left[k - 1], right[k - 1]
    if va == vb:
        return va
    a, b = x[k - 1], x[k]
    return va + (vb - va) * (q - a) / (b - a)


def classical_max(pot: Shape) -> float:
    """Largest value the bare potential takes."""
    return max((pot.level, *pot.left, *pot.right))


def load_tabulated_csv(path) -> TabulatedPotential:
    """Read a two-column CSV of (position, value); the first non-blank row
    may be a header."""
    import csv

    positions, values = [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [(num, cells) for num, row in enumerate(csv.reader(fh), start=1)
                if (cells := [c.strip() for c in row if c.strip() != ""])]
    for index, (row_num, cells) in enumerate(rows):
        if len(cells) != 2:
            raise ValueError(f"{path}: row {row_num}: expected two columns, got {len(cells)}")
        try:
            x, v = float(cells[0]), float(cells[1])
        except ValueError:
            if index == 0:
                continue  # header row
            raise ValueError(f"{path}: row {row_num}: non-numeric data") from None
        positions.append(x)
        values.append(v)
    if len(positions) < 2:
        raise ValueError(f"{path}: need at least two data rows")
    return TabulatedPotential(grid=tuple(positions), values=tuple(values))
