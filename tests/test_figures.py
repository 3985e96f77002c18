"""Reference figure data: regeneration, headers, and qualitative features."""

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

from effpot.figures import FigureSpec, default_figure_specs, emit_all, emit_figure
from effpot.transmission import effective_t_of_H


def _read_csv(path):
    header, rows = None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append([float(x) for x in line.split(",")])
    return header, np.array(rows)


def test_spec_ids_and_headers():
    specs = default_figure_specs()
    assert [s.id for s in specs] == [1, 2, 3, 4]
    assert specs[0].header == ("q", "M_hbar10", "M_hbar30")
    assert specs[1].header == ("q", "VQ_h0", "VQ_h3", "VQ_h6")
    assert specs[2].header == ("H", "t", "r")
    assert specs[3].header == ("Q", "tQ", "rQ")


def test_emit_all_files_and_regeneration(tmp_path):
    first = emit_all(tmp_path / "a")
    assert len(first) == 8
    names = sorted(p.name for p in first)
    assert names == sorted(
        [f"fig{i}.{ext}" for i in (1, 2, 3, 4) for ext in ("csv", "gp")]
    )
    second = emit_all(tmp_path / "b")
    for p1, p2 in zip(first, second):
        assert p1.read_bytes() == p2.read_bytes()


@pytest.fixture(scope="module")
def figdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("figs")
    emit_all(out)
    return out


def _recorded_digests():
    # the benchmark's record of the reference bytes; kept in one place
    source = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    for node in ast.parse(source.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "FIGURE_SHA256":
            return ast.literal_eval(node.value)
    raise AssertionError("FIGURE_SHA256 not found")


def test_figure_bytes_match_recorded_digests(figdir):
    digests = _recorded_digests()
    assert sorted(digests) == [1, 2, 3, 4]
    for fig, digest in digests.items():
        assert hashlib.sha256((figdir / f"fig{fig}.csv").read_bytes()).hexdigest() == digest


def test_fig1_mass_profiles(figdir):
    header, table = _read_csv(figdir / "fig1.csv")
    assert header == ["q", "M_hbar10", "M_hbar30"]
    assert table.shape == (801, 3)
    q, m10, m30 = table.T
    assert q[0] == -4.0 and q[-1] == 4.0
    # dip at the barrier, bump in the wings, decay toward m = 1
    assert m10[400] < 1.0
    assert m10.max() > 1.0
    assert abs(m10[0] - 1.0) < 5e-3 and abs(m10[-1] - 1.0) < 5e-3
    assert np.all(m30 < 1.0)  # the hbar 30 bump sits outside this window
    assert np.max(np.abs(m10 - m10[::-1])) < 1e-9
    assert np.max(np.abs(m30 - m30[::-1])) < 1e-9


def test_fig2_reduced_potentials(figdir):
    header, table = _read_csv(figdir / "fig2.csv")
    assert header == ["q", "VQ_h0", "VQ_h3", "VQ_h6"]
    assert table.shape == (801, 4)
    q, v0, v3, v6 = table.T
    # hbar 0 column is the bare barrier, including the midpoint convention
    assert v0[400] == 1.0
    assert v0[np.searchsorted(q, 0.5)] == 0.5
    assert v0[0] == 0.0 and v0[-1] == 0.0
    assert abs(v3[400] - 0.662345080714) < 1e-9
    assert v3.max() < 1.0  # smoothing lowers the barrier top
    inner = np.abs(q) < 0.25
    assert np.all(v6[inner] <= v3[inner] + 1e-12)


def test_fig3_effective_curve(figdir):
    header, table = _read_csv(figdir / "fig3.csv")
    assert header == ["H", "t", "r"]
    assert table.shape == (500, 3)
    H, t, r = table.T
    assert np.max(np.abs(t + r - 1.0)) < 1e-11
    assert np.all(np.diff(t) >= 0.0)
    i = int(np.argmin(np.abs(H - 2.97)))
    assert abs(t[i] - 0.5) < 0.01
    assert t[0] == effective_t_of_H(0.02)


def test_fig4_mixture_curve(figdir):
    header, table = _read_csv(figdir / "fig4.csv")
    assert header == ["Q", "tQ", "rQ"]
    assert table.shape == (500, 3)
    Q, t, r = table.T
    assert np.max(np.abs(t + r - 1.0)) < 1e-11
    assert np.all(np.diff(t) > 0.0)
    i = int(np.argmin(np.abs(Q - 1.75)))
    assert abs(t[i] - 0.5) < 0.01
    # quartic onset at the low end
    assert abs(t[0] / Q[0] ** 4 - 0.901543) < 0.02 * 0.901543


def test_metadata_lines(figdir):
    text = (figdir / "fig2.csv").read_text().splitlines()
    assert text[0] == "# figure=2"
    assert any(line.startswith("# eps=") for line in text[:7])
    assert any(line.startswith("# series=hbar") for line in text[:7])
    assert not any("date" in line or "time" in line for line in text[:7])


def test_plot_scripts_reference_csv(figdir):
    for i in (1, 2, 3, 4):
        script = (figdir / f"fig{i}.gp").read_text()
        assert f"fig{i}.csv" in script
        assert "plot" in script


PLOT_SCRIPTS = {
    1: (
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        "set xlabel 'q'\n"
        "set ylabel 'M(q)'\n"
        "plot 'fig1.csv' using 1:2 with lines, 'fig1.csv' using 1:3 with lines\n"
    ),
    2: (
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        "set xlabel 'q'\n"
        "set ylabel 'V^Q(q)'\n"
        "plot 'fig2.csv' using 1:2 with lines, 'fig2.csv' using 1:3 with lines, "
        "'fig2.csv' using 1:4 with lines\n"
    ),
    3: (
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        "set xlabel 'H'\n"
        "set ylabel 'coefficient'\n"
        "plot 'fig3.csv' using 1:2 with lines, 'fig3.csv' using 1:3 with lines\n"
    ),
    4: (
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        "set xlabel 'Q'\n"
        "set ylabel 'coefficient'\n"
        "plot 'fig4.csv' using 1:2 with lines, 'fig4.csv' using 1:3 with lines\n"
    ),
}


def test_plot_scripts_text(figdir):
    for i, text in PLOT_SCRIPTS.items():
        assert (figdir / f"fig{i}.gp").read_text() == text


def test_emit_single_figure(tmp_path):
    spec = default_figure_specs()[2]
    paths = emit_figure(spec, tmp_path)
    assert [p.name for p in paths] == ["fig3.csv", "fig3.gp"]


def test_emit_into_unwritable_location():
    with pytest.raises(OSError):
        emit_all("/proc/no_such_dir/figs")


def test_failed_figure_leaves_no_file(tmp_path):
    # the second row cannot be formatted; the figure used to be left with
    # its header and first row
    spec = FigureSpec(9, ("x", "y"), "y", (), lambda: [np.array([0.0, 1.0]), np.array([1.0, None])])
    with pytest.raises(TypeError):
        emit_figure(spec, tmp_path)
    assert list(tmp_path.iterdir()) == []
