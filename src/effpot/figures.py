"""Reference data sets behind the four standard plots.

Each figure is emitted as a CSV file (the reproducible artifact, 12
significant digits, no timestamps so regeneration is byte-identical) plus a
small script for a command-driven plotting tool. All four share one barrier
and one parameter set: m = 1, half-width 0.5, height 1, beta = 1/8, with the
quantum strength varied per series. The four specs are one fixed table; each
row carries its header, y-axis label, own metadata entries and the builder
of its columns. ``atomic.csv_text`` prints the file.

- fig1: position-dependent mass M(q) at hbar 10 and 30
- fig2: reduced potential V^Q(q) at energy 0.25 for hbar 0, 3, 6
- fig3: effective transmission/reflection against H
- fig4: mixture transmission/reflection against Q
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, NamedTuple, Tuple

from .atomic import csv_text, linspace, write_atomic
from .lowmomentum import LowMomentumModel, mass, vq_potential
from .physical import PhysicalParams
from .potential import SquareBarrier
from .transmission import effective_t_of_H, quantum_t_mixture

FIG_M, FIG_BETA = 1.0, 0.125
FIG_BARRIER = SquareBarrier(v0=1.0, l=0.5)
FIG2_EPS = 0.25
PROFILE_GRID = tuple(linspace(-4.0, 4.0, 801))
CURVE_GRID = tuple(linspace(0.02, 10.0, 500))  # uniform grid on (0, 10]


class FigureSpec(NamedTuple):
    id: int
    header: Tuple[str, ...]  # x column first; it is also the x-axis label
    ylabel: str
    metadata: Tuple[Tuple[str, object], ...]  # (key, value) entries after the shared ones
    columns: Callable[[], list]


def _profiles(evaluate, hbars) -> list:
    models = [LowMomentumModel(PhysicalParams(FIG_M, FIG_BETA, h), FIG_BARRIER) for h in hbars]
    return [PROFILE_GRID] + [[evaluate(mod, q) for q in PROFILE_GRID] for mod in models]


def _curve(coefficient) -> list:
    t = [coefficient(x) for x in CURVE_GRID]
    return [CURVE_GRID, t, [1.0 - x for x in t]]


def default_figure_specs():
    return [
        FigureSpec(1, ("q", "M_hbar10", "M_hbar30"), "M(q)", (("series", "hbar 10,30"),),
                   lambda: _profiles(mass, (10.0, 30.0))),
        FigureSpec(2, ("q", "VQ_h0", "VQ_h3", "VQ_h6"), "V^Q(q)",
                   (("eps", FIG2_EPS), ("series", "hbar 0,3,6")),
                   lambda: _profiles(lambda mod, q: vq_potential(mod, q, FIG2_EPS), (0.0, 3.0, 6.0))),
        FigureSpec(3, ("H", "t", "r"), "coefficient", (), lambda: _curve(effective_t_of_H)),
        FigureSpec(4, ("Q", "tQ", "rQ"), "coefficient", (), lambda: _curve(quantum_t_mixture)),
    ]


def _plot_script(spec: FigureSpec) -> str:
    plots = ", ".join(
        f"'fig{spec.id}.csv' using 1:{i} with lines" for i in range(2, len(spec.header) + 1)
    )
    return "\n".join(
        [
            "set datafile separator ','",
            "set key autotitle columnhead",
            f"set xlabel '{spec.header[0]}'",
            f"set ylabel '{spec.ylabel}'",
            f"plot {plots}",
            "",
        ]
    )


def emit_figure(spec: FigureSpec, out_dir) -> list:
    """Write fig<N>.csv and fig<N>.gp into out_dir; returns the paths."""
    out = Path(out_dir)
    meta = {"figure": spec.id, "m": FIG_M, "beta": FIG_BETA, "V0": FIG_BARRIER.v0,
            "L": FIG_BARRIER.l, **dict(spec.metadata)}
    try:
        out.mkdir(parents=True, exist_ok=True)
        csv_path, gp_path = out / f"fig{spec.id}.csv", out / f"fig{spec.id}.gp"
        write_atomic(csv_path, csv_text(meta, spec.header, zip(*spec.columns())))
        write_atomic(gp_path, _plot_script(spec))
    except OSError as exc:
        raise OSError(f"cannot write figure {spec.id} under {out}: {exc}") from exc
    return [csv_path, gp_path]


def emit_all(out_dir) -> list:
    paths = []
    for spec in default_figure_specs():
        paths.extend(emit_figure(spec, out_dir))
    return paths
