"""Command-line checks, in process via cli.main, and end to end via
subprocess for what only a process shows: the entry point, the exit code
through sys.exit and a failed run's files."""

import json
import random
import signal
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from effpot import cli
from effpot.atomic import csv_text, linspace, write_atomic
from effpot.kernel import effective_potential
from effpot.lowmomentum import LowMomentumModel, mass, smoothed_potential, vq_potential
from effpot.physical import PhysicalParams
from effpot.potential import SquareBarrier, load_tabulated_csv
from effpot.transmission import mixture_average, surpass_fraction

CMD = [sys.executable, "-m", "effpot"]


def launch(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True, timeout=300)


@pytest.fixture
def run(capsys):
    """cli.main in process, returning its exit code and captured output."""

    def main(*args):
        code = cli.main(list(args))
        out, err = capsys.readouterr()
        return SimpleNamespace(returncode=code, stdout=out, stderr=err)

    return main


@pytest.fixture
def within_60s():
    """Fail, rather than hang, a command that runs past 60 s."""

    def expire(signum, frame):
        pytest.fail("command ran past 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _data_lines(text):
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def test_coeff_defaults(run):
    res = run("coeff")
    assert res.returncode == 0
    assert "t_effective=" in res.stdout
    assert "t_quantum_mixture=" in res.stdout


def test_coeff_deterministic(run):
    a = run("coeff")
    b = run("coeff")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_coeff_half_transmission_point(run):
    res = run("coeff", "--hbar", "4.200214285714286")
    assert res.returncode == 0
    values = dict(
        line.split("=") for line in _data_lines(res.stdout) if "=" in line
    )
    assert abs(float(values["t_effective"]) - 0.5) < 0.005
    assert "# H=2.97" in res.stdout


@pytest.mark.parametrize("hbar", [0.5, 1.0, 3.0])
def test_coeff_mixture_matches_k_space_average(run, hbar):
    res = run("coeff", "--hbar", str(hbar))
    assert res.returncode == 0
    values = dict(line.split("=") for line in _data_lines(res.stdout) if "=" in line)
    want = mixture_average(SquareBarrier(v0=1.0, l=0.5), PhysicalParams(m=1.0, beta=0.125, hbar=hbar))
    assert abs(float(values["t_quantum_mixture"]) - want) < 1e-8


def test_model_profile(run):
    res = run("model", "--n", "11")
    assert res.returncode == 0
    lines = _data_lines(res.stdout)
    assert lines[0] == "q,V,M,VQ"
    assert len(lines) == 1 + 11
    assert all(len(line.split(",")) == 4 for line in lines[1:])


def test_veff_grid_size(run):
    res = run("veff", "--nq", "3", "--np", "2")
    assert res.returncode == 0
    lines = _data_lines(res.stdout)
    assert lines[0] == "q,p,veff"
    assert len(lines) == 1 + 3 * 2


def test_csv_text_format():
    meta = {"m": 1.0, "third": 1 / 3, "figure": 2, "potential_csv": "tent.csv"}
    rows = [(0.1, 2.0), (1 / 3, -1e-300)]
    assert csv_text(meta, ("q", "V"), iter(rows)) == (
        "# m=1\n# third=0.333333333333\n# figure=2\n# potential_csv=tent.csv\n"
        "q,V\n0.1,2\n0.333333333333,-1e-300\n"
    )
    # without a header only the metadata is printed
    assert csv_text({"H": 2.0}) == "# H=2\n"
    assert csv_text({}, ("t",), []) == "t\n"


@pytest.mark.parametrize("start,stop,n", [
    (-4.0, 4.0, 1), (-4.0, 4.0, 2), (-4.0, 4.0, 3), (-4.0, 4.0, 801), (-4.0, 4.0, 201),
    (-2.0, 2.0, 41), (0.0, 2.0, 9), (0.0, 20.0, 50), (0.1, 0.7, 7),
    (1.5, 1.5, 5),          # a == b
    (3.0, -2.0, 9),         # a reversed range
    (0.0, 5e-324, 3),       # the step underflows to 0
    (-1e-322, 1e-322, 101),
    (0.02, 10.0, 500),      # the figure grids
])
def test_linspace_is_np_linspace_bitwise(start, stop, n):
    got = linspace(start, stop, n)
    assert all(type(x) is float for x in got)
    assert [x.hex() for x in got] == [x.hex() for x in np.linspace(start, stop, n).tolist()]


@pytest.mark.parametrize("n,hbar,tent", [(201, 3.0, False), (801, 3.0, False), (1, 3.0, False),
                                         (3, 1e-145, False), (801, 3.0, True)])
def test_model_rows_sit_on_the_np_linspace_grid(run, tmp_path, n, hbar, tent):
    # the rows the command printed when its grid was an np.linspace array
    argv = ["model", "--n", str(n), "--hbar", repr(hbar)]
    pot = SquareBarrier(1.0, 0.5)
    if tent:
        csv = _tent_csv(tmp_path)
        argv += ["--potential-csv", str(csv)]
        pot = load_tabulated_csv(csv)
    res = run(*argv)
    assert res.returncode == 0, res.stderr
    model = LowMomentumModel(PhysicalParams(1.0, 0.125, hbar), pot)
    rows = [f"{q:.12g},{smoothed_potential(model, q):.12g},{mass(model, q):.12g},"
            f"{vq_potential(model, q, 0.25):.12g}" for q in np.linspace(-4.0, 4.0, n).tolist()]
    assert _data_lines(res.stdout)[1:] == rows


@pytest.mark.parametrize("argv,q_grid,p_grid", [
    (("--nq", "81", "--np", "9"), (-2.0, 2.0, 81), (0.0, 2.0, 9)),
    (("--qmin", "-4", "--qmax", "4", "--nq", "201", "--np", "1", "--pmax", "0"), (-4.0, 4.0, 201), (0.0, 0.0, 1)),
])
def test_veff_rows_sit_on_the_np_linspace_grid(run, argv, q_grid, p_grid):
    res = run("veff", *argv)
    assert res.returncode == 0, res.stderr
    qs, ps = np.linspace(*q_grid), np.linspace(*p_grid)
    params, barrier = PhysicalParams(1.0, 0.125, 3.0), SquareBarrier(1.0, 0.5)
    rows = [f"{q:.12g},{p:.12g},{effective_potential(params, barrier, q, p):.12g}" for q in qs for p in ps]
    assert _data_lines(res.stdout)[1:] == rows


def test_veff_rejects_classical(run):
    res = run("veff", "--hbar", "0")
    assert res.returncode == 2


def test_veff_overflow_fails_cleanly(run):
    # beta p^2 / 2m = 2500 leaves floating range: exit 1, one error line
    res = run("veff", "--pmin", "200", "--pmax", "200")
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1
    assert res.stdout == ""


def test_trajectory_default_reflects(run):
    res = run("trajectory")
    assert res.returncode == 0
    assert "# outcome=reflected" in res.stdout
    lines = _data_lines(res.stdout)
    assert lines[0] == "t,q,p,energy_drift"
    assert len(lines) > 10


def test_trajectory_requires_paired_initial_state(run):
    res = run("trajectory", "--q0", "-3.0")
    assert res.returncode == 2
    assert "usage error" in res.stderr


def test_trajectory_eps_with_initial_state_is_usage_error(tmp_path, capsys):
    # the energy of a run from (q0, p0) is that state's, so --eps cannot take effect
    out = tmp_path / "traj.csv"
    argv = ["trajectory", "--q0", "-4", "--p0", "1.2", "--eps", "0.9", "--out", str(out)]
    assert cli.main(argv) == 2
    assert "usage error: --eps" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["trajectory", "--q0", "-4", "--p0", "1.2", "--t-end", "1", "--out", str(out)]) == 0


def test_trajectory_out_holds_the_printed_text(run, tmp_path):
    out = tmp_path / "traj.csv"
    res = run("trajectory", "--eps", "0.9", "--out", str(out))
    assert (res.returncode, res.stdout, res.stderr) == (0, "", "")
    assert out.read_text() == run("trajectory", "--eps", "0.9").stdout
    assert [p.name for p in tmp_path.iterdir()] == ["traj.csv"]


def test_trajectory_at_an_overflowing_energy_names_it(run):
    res = run("trajectory", "--eps", "1e308")
    assert res.returncode == 2
    assert res.stderr == "usage error: energy 1e+308 is too large: its launch momentum overflows\n"


def test_trajectory_samples_need_t_end(run):
    res = run("trajectory", "--samples", "50")
    assert res.returncode == 2


def test_trajectory_needs_two_samples(run):
    res = run("trajectory", "--samples", "1", "--t-end", "5")
    assert res.returncode == 2
    assert res.stderr == "usage error: --samples must be at least 2\n"


@pytest.mark.parametrize("t_end", ["0", "-1"])
def test_trajectory_samples_need_positive_t_end(run, t_end):
    res = run("trajectory", "--samples", "2", "--t-end", t_end)
    assert res.returncode == 2
    assert "--t-end > 0" in res.stderr


def test_trajectory_resampled(run):
    res = run("trajectory", "--samples", "50", "--t-end", "10")
    assert res.returncode == 0
    assert len(_data_lines(res.stdout)) == 1 + 50


def test_trajectory_newtonian_form(run):
    res = run("trajectory", "--form", "newtonian")
    assert res.returncode == 0
    assert "# form=newtonian" in res.stdout
    assert "# outcome=reflected" in res.stdout


def test_figures_roundtrip(run, tmp_path):
    out1, out2 = tmp_path / "f1", tmp_path / "f2"
    r1 = run("figures", "--out", str(out1))
    r2 = run("figures", "--out", str(out2))
    assert r1.returncode == r2.returncode == 0
    assert len(r1.stdout.splitlines()) == 8
    for i in (1, 2, 3, 4):
        for ext in ("csv", "gp"):
            name = f"fig{i}.{ext}"
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_validate_passes(run):
    res = run("validate")
    assert res.returncode == 0
    assert "all 9 checks passed" in res.stdout
    assert res.stdout.count("PASS") == 9
    assert "FAIL" not in res.stdout


def test_validate_reports_each_failure(monkeypatch, capsys):
    from effpot import checks
    from effpot.errors import DidNotResolve

    def unresolved(model, eps):
        raise DidNotResolve("forced")

    # one check fails its bound and one raises: both are reported, the rest still run
    monkeypatch.setattr(checks, "effective_t_of_H", lambda H: 0.9)
    monkeypatch.setattr(checks, "classify_traversal", unresolved)
    assert checks.run() == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL  effective coefficient at H=2.97  (t(H=2.97)=0.900000)" in lines
    assert "FAIL  classical limit at hbar=0  (error: forced)" in lines
    assert sum(line.startswith("PASS  ") for line in lines) == 7
    assert lines[-1] == "2 of 9 checks failed"


def test_config_file_and_flag_precedence(run, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"hbar": 10.0, "beta": 0.125}))
    res = run("coeff", "--config", str(cfg), "--hbar", "2")
    assert res.returncode == 0
    assert "# hbar=2" in res.stdout
    res2 = run("coeff", "--config", str(cfg))
    assert "# hbar=10" in res2.stdout


def test_config_unknown_key(run, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"hbarr": 3.0}))
    res = run("coeff", "--config", str(cfg))
    assert res.returncode == 2
    assert "unknown config keys: hbarr" in res.stderr


def test_config_malformed(run, tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    res = run("coeff", "--config", str(cfg))
    assert res.returncode == 2


def test_config_must_be_an_object(run, tmp_path):
    cfg = tmp_path / "list.json"
    cfg.write_text(json.dumps([3.0]))
    res = run("coeff", "--config", str(cfg))
    assert res.returncode == 2
    assert res.stderr == "usage error: config file must hold a JSON object\n"


def test_unphysical_mass_is_computational_failure(run):
    # beta so large the curvature correction drives 1/M negative
    res = run("model", "--beta", "100", "--hbar", "1")
    assert res.returncode == 1
    assert "error" in res.stderr


def test_negative_hbar_is_usage_error(run):
    res = run("coeff", "--hbar", "-3")
    assert res.returncode == 2


@pytest.mark.parametrize("flags", [
    ("coeff", "--hbar", "nan"),
    ("coeff", "--hbar", "inf"),
    ("coeff", "--V0", "inf"),
    ("model", "--eps", "nan"),
    ("coeff", "--rel-tol", "inf"),
    ("model", "--qmin", "nan"),
    ("veff", "--pmax", "inf"),
    ("trajectory", "--q0", "nan", "--p0", "1"),
    ("trajectory", "--t-end", "nan"),
    ("trajectory", "--eps", "nan"),  # used to hang in the stepper
    ("trajectory", "--t-end", "-1"),  # used to write a one-row trajectory
])
def test_non_finite_parameter_is_usage_error(run, within_60s, tmp_path, flags):
    # flags is the whole command line; none may open --out or hang
    out = tmp_path / "out.csv"
    res = run(*flags, "--out", str(out))
    assert res.returncode == 2
    assert "usage error" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ("trajectory", "--hbar", "1e-154", "--eps", "0.9"),  # used to hang in the stepper
    ("trajectory", "--hbar", "1e-145", "--eps", "0.9"),  # used to divide by a zero first step
    ("coeff", "--hbar", "1e-300"),  # used to divide by zero
    ("model", "--m", "1e-300"),  # 12 m^2 underflowed to 0, and a division by it raised
    ("coeff", "--m", "1e-300"),
    ("veff", "--hbar", "1e170", "--nq", "3", "--np", "3"),  # c^2 underflowed to 0, and V_eff divided by it
    ("coeff", "--V0", "1e-300", "--L", "1e-300"),  # k0 L underflowed to 0, and Q divided by it
    ("coeff", "--V0", "1e-300", "--L", "1e-300", "--hbar", "0"),
    ("coeff", "--L", "5e-324"),  # Q overflowed, and was reported as a usage error
], ids=["1e-154", "1e-145", "1e-300", "model-m-1e-300", "coeff-m-1e-300", "veff-hbar-1e170",
        "coeff-k0L-0", "coeff-k0L-0-hbar-0", "coeff-L-5e-324"])
def test_tiny_hbar_fails_cleanly(run, within_60s, flags):
    res = run(*flags)
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1
    assert "Traceback" not in res.stderr


def test_collapsed_sample_times_are_a_computational_failure(run, tmp_path):
    # at beta 1e150 the launch point rounds onto the domain edge, and the run
    # records two samples at t = 0: a failed computation, not bad input
    out = tmp_path / "traj.csv"
    res = run("trajectory", "--beta", "1e150", "--out", str(out))
    assert res.returncode == 1
    assert res.stderr.startswith("error: sample times do not strictly increase")
    assert len(res.stderr.splitlines()) == 1 and "Traceback" not in res.stderr
    assert list(tmp_path.iterdir()) == []


def test_coeff_at_a_tiny_half_width(run):
    # H and Q are large but finite: a sound model
    res = run("coeff", "--L", "1e-20")
    assert res.returncode == 0 and res.stderr == ""
    assert res.stdout == ("# m=1\n# beta=0.125\n# hbar=3\n# L=1e-20\n# V0=1\n# H=1.06066017178e+20\n"
                          "# Q=2.12132034356e+20\nt_effective=1\nr_effective=0\n"
                          "t_quantum_mixture=1\nr_quantum_mixture=0\n")


@pytest.mark.parametrize("hbar", ["1e-20", "1e-145"])
def test_model_where_zones_round_onto_their_breakpoints(run, hbar):
    # +-20 sigma rounds onto each wall's own breakpoint: each zone is one
    # point, and the plateau between them is sampled as a gap
    res = run("model", "--n", "3", "--hbar", hbar)
    assert res.returncode == 0, res.stderr
    assert _data_lines(res.stdout)[1:] == ["-4,0,1,0", "0,1,1,1", "4,0,1,0"]


def test_model_at_unrepresentable_smoothing_is_one_error_line(run):
    res = run("model", "--hbar", "1e-154")
    assert res.returncode == 1
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1 and res.stderr.startswith("error:")


def test_model_refuses_a_mass_dip_between_scan_points(run):
    # a dip about sigma wide on a support 9000 sigma wide
    res = run("model", "--beta", "20", "--hbar", "0.01", "--L", "100")
    assert res.returncode == 1
    assert res.stderr.startswith("error: inverse mass -0.61313816346")


def test_non_finite_config_value_is_usage_error(run, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"abs_tol": "nan"}')
    res = run("coeff", "--config", str(cfg))
    assert res.returncode == 2
    assert "usage error" in res.stderr


@pytest.mark.parametrize("value", ["true", '"3"', "1" + "0" * 400], ids=["true", "string", "huge"])
def test_config_value_must_be_a_finite_json_number(tmp_path, capsys, value):
    # true used to run at hbar = 1, "3" at hbar = 3, and the huge integer
    # raised OverflowError with a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"hbar": {value}}}')
    assert cli.main(["coeff", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "usage error" in captured.err
    assert captured.out == ""


# every parameter flag a subcommand declared but never read
UNREAD = [
    *(("validate", flag) for flag in (
        "--config", "--m", "--beta", "--hbar", "--L", "--V0", "--eps", "--rel-tol", "--abs-tol")),
    ("veff", "--eps"), ("veff", "--rel-tol"), ("veff", "--abs-tol"),
    ("coeff", "--eps"),
    ("model", "--rel-tol"), ("model", "--abs-tol"),
    ("trajectory", "--rel-tol"), ("trajectory", "--abs-tol"),
]


@pytest.mark.parametrize("command,flag", UNREAD)
def test_unread_parameter_flag_is_usage_error(tmp_path, capsys, command, flag):
    out, cfg = tmp_path / "out.csv", tmp_path / "empty.json"
    cfg.write_text("{}")
    value = str(cfg) if flag == "--config" else "1"
    # validate has no --out, and an unknown --out would hide a declared flag
    tail = [] if command == "validate" else ["--out", str(out)]
    assert cli.main([command, flag, value, *tail]) == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


def _tent_csv(tmp_path):
    pot = tmp_path / "pot.csv"
    pot.write_text("q,V\n-1.0,0.0\n-0.2,0.8\n1.0,0.0\n")
    return pot


@pytest.mark.parametrize("command,flag", [("model", "--V0"), ("model", "--L"),
                                          ("trajectory", "--V0"), ("trajectory", "--L")])
def test_barrier_flag_with_potential_csv_is_usage_error(tmp_path, capsys, command, flag):
    out = tmp_path / "out.csv"
    argv = [command, "--potential-csv", str(_tent_csv(tmp_path)), flag, "2", "--out", str(out)]
    assert cli.main(argv) == 2
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["model", "trajectory"])
def test_potential_csv_header_names_the_file(tmp_path, capsys, command):
    pot = _tent_csv(tmp_path)
    assert cli.main([command, "--potential-csv", str(pot), "--eps", "0.5"]) == 0
    header = [line for line in capsys.readouterr().out.splitlines() if line.startswith("#")]
    assert f"# potential_csv={pot}" in header
    assert not any(line.startswith(("# L=", "# V0=")) for line in header)
    assert header[:3] == ["# m=1", "# beta=0.125", "# hbar=3"]


def test_non_finite_csv_row_is_usage_error(run, tmp_path):
    pot = tmp_path / "pot.csv"
    pot.write_text("q,V\n-1.0,0.0\nnan,0.5\n1.0,0.0\n")
    out = tmp_path / "model.csv"
    res = run("model", "--potential-csv", str(pot), "--out", str(out))
    assert res.returncode == 2
    assert not out.exists()


def test_model_from_tabulated_csv(run, tmp_path):
    pot = tmp_path / "pot.csv"
    pot.write_text("q,V\n-1.0,0.0\n-0.2,0.8\n1.0,0.0\n")
    res = run("model", "--potential-csv", str(pot), "--n", "5")
    assert res.returncode == 0
    assert len(_data_lines(res.stdout)) == 1 + 5


def test_out_into_missing_directory(run):
    res = run("coeff", "--out", "/nonexistent_dir_xyz/out.txt")
    assert res.returncode == 1


def test_write_atomic_onto_a_directory_leaves_no_temporary(tmp_path):
    # the rename fails after the temporary file is written, which must not stay behind
    target = tmp_path / "out"
    target.mkdir()
    with pytest.raises(OSError):
        write_atomic(target, "text\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert list(target.iterdir()) == []


def test_out_onto_a_directory_is_io_error(run, tmp_path):
    target = tmp_path / "out"
    target.mkdir()
    res = run("model", "--n", "3", "--out", str(target))
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith("i/o error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_help_exits_zero():
    res = launch("--help")
    assert res.returncode == 0
    for sub in ("veff", "model", "trajectory", "coeff", "figures", "validate"):
        assert sub in res.stdout


def test_start_up_loads_no_scipy(tmp_path):
    # the real and the complex erf are the package's own and the quadrature
    # is in-house, so no command loads any scipy module
    code = (
        "import sys\n"
        "def loaded(name):\n"
        "    return any(m == name or m.startswith(name + '.') for m in sys.modules)\n"
        "import effpot\n"
        "from effpot import cli\n"
        "print('@', loaded('scipy'))\n"
        f"runs = (['model'], ['trajectory', '--eps', '0.9'], ['coeff', '--hbar', '3'], ['figures', '--out', {str(tmp_path)!r}])\n"
        "for argv in runs:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print('@', loaded('scipy'))\n"
        "for argv in (['veff', '--nq', '9', '--np', '3'], ['validate']):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print('@', loaded('scipy'))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert [line for line in res.stdout.splitlines() if line.startswith("@")] == ["@ False"] * 3


# the effpot modules each command loads: the profiles and the CLI itself,
# plus what the command runs and nothing more
PROFILE_MODULES = {"errors", "physical", "potential", "lowmomentum", "cli", "atomic"}
LOADS = {
    "model": PROFILE_MODULES,
    "coeff": PROFILE_MODULES | {"quadrature", "transmission"},
    "veff": PROFILE_MODULES | {"kernel"},
    "trajectory": PROFILE_MODULES | {"dynamics"},
    "figures": PROFILE_MODULES | {"quadrature", "transmission", "figures"},
    # every module but the figures and the entry point
    "validate": PROFILE_MODULES | {"quadrature", "transmission", "kernel", "dynamics", "checks"},
}


@pytest.mark.parametrize("command", sorted(LOADS))
def test_each_command_loads_only_its_modules(command, tmp_path):
    # one fresh interpreter per command, so no other command's imports count
    argv = {"figures": ["figures", "--out", str(tmp_path)]}.get(command, [command])
    code = (
        "import sys\n"
        "from effpot import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "loaded = sorted(m[len('effpot.'):] for m in sys.modules if m.startswith('effpot.'))\n"
        "print(code, 'json' in sys.modules, 'csv' in sys.modules, 'numpy' in sys.modules, *loaded,"
        " file=sys.stderr)\n"
    )
    res = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=300)
    code, json_loaded, csv_loaded, numpy_loaded, *loaded = res.stderr.splitlines()[-1].split()
    assert code == "0", res.stderr
    assert set(loaded) == LOADS[command]
    assert numpy_loaded == "False"  # no command needs arrays
    # neither is loaded without --config or --potential-csv
    assert (json_loaded, csv_loaded) == ("False", "False")


def test_bare_import_loads_no_submodule():
    code = "import sys, effpot\nprint([m for m in sys.modules if m.startswith('effpot.')], 'numpy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[] False"


# stands in for an installation without scipy: any scipy import fails
NO_SCIPY = (
    "import sys\n"
    "class NoScipy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name == 'scipy' or name.startswith('scipy.'):\n"
    "            raise ImportError(name + ' is not installed')\n"
    "sys.meta_path.insert(0, NoScipy())\n"
)


def test_every_command_runs_without_scipy(tmp_path):
    probe = subprocess.run([sys.executable, "-c", NO_SCIPY + "import scipy.special"],
                           capture_output=True, text=True, timeout=60)
    assert probe.returncode != 0 and "ImportError: scipy is not installed" in probe.stderr
    main = NO_SCIPY + "from effpot import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
    runs = (["model"], ["trajectory", "--eps", "0.9"], ["coeff", "--hbar", "3"],
            ["veff", "--nq", "81", "--np", "9"], ["validate"], ["figures", "--out", str(tmp_path)])
    out = {}
    for argv in runs:
        res = subprocess.run([sys.executable, "-c", main, *argv], capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, (argv, res.stderr)
        out[argv[0]] = res.stdout
    assert "all 9 checks passed" in out["validate"]
    assert out["veff"] == launch("veff", "--nq", "81", "--np", "9").stdout


def test_every_command_runs_without_numpy(tmp_path):
    # numpy is a test dependency only: with it unimportable every command
    # runs, and so does transport over stratified and random beam quantiles
    quantiles = ([(i + 0.5) / 5 for i in range(5)], [random.Random(1).random() for _ in range(5)])
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from effpot import cli\n"
        f"runs = (['model'], ['trajectory', '--eps', '0.9'], ['coeff', '--hbar', '3'], ['veff', '--nq', '81', '--np', '9'], ['validate'], ['figures', '--out', {str(tmp_path)!r}])\n"
        "print('@', [cli.main(argv) for argv in runs])\n"
        "from effpot import LowMomentumModel, PhysicalParams, SquareBarrier, surpass_fraction\n"
        "model = LowMomentumModel(PhysicalParams(1.0, 0.125, 3.0), SquareBarrier(1.0, 1.0))\n"
        f"for us in {quantiles!r}:\n"
        "    print('@', repr(surpass_fraction(model, us)))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    model = LowMomentumModel(PhysicalParams(1.0, 0.125, 3.0), SquareBarrier(1.0, 1.0))
    assert [line for line in res.stdout.splitlines() if line.startswith("@")] == [
        "@ [0, 0, 0, 0, 0, 0]", *(f"@ {surpass_fraction(model, us)!r}" for us in quantiles),
    ]


def test_no_command_loads_dataclasses_or_inspect(tmp_path):
    # the records build no methods at import, so no launch pays for
    # dataclasses or for the inspect, ast, dis and tokenize it pulls in
    code = (
        "import sys\n"
        "from effpot import cli\n"
        f"runs = (['model'], ['trajectory', '--eps', '0.9'], ['coeff', '--hbar', '3'], ['veff', '--nq', '81', '--np', '9'], ['validate'], ['figures', '--out', {str(tmp_path)!r}])\n"
        "print('@', [cli.main(argv) for argv in runs], 'dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert [line for line in res.stdout.splitlines() if line.startswith("@")] == ["@ [0, 0, 0, 0, 0, 0] False False"]


def test_unknown_subcommand():
    res = launch("frobnicate")
    assert res.returncode == 2


def test_failed_run_leaves_no_output(tmp_path):
    # a tolerance the quadrature cannot meet fails after the header would
    # have been written; neither the file nor stdout may carry a partial table
    flags = ("coeff", "--rel-tol", "1e-15", "--abs-tol", "1e-300")
    out = tmp_path / "v.csv"
    res = launch(*flags, "--out", str(out))
    assert res.returncode == 1
    assert list(tmp_path.iterdir()) == []
    res = launch(*flags)
    assert res.returncode == 1
    assert res.stdout == ""
    # one error line, without the solver's multi-line warning text
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("flags", [
    ("model", "--n", "0"),
    ("model", "--n", "-3"),
    ("veff", "--nq", "0"),
    ("veff", "--np", "-3"),
])
def test_grid_size_below_one_is_usage_error(run, tmp_path, flags):
    # a zero size used to write a table with no rows, and a negative one
    # surfaced numpy's message
    out = tmp_path / "out.csv"
    res = run(*flags, "--out", str(out))
    assert res.returncode == 2
    assert f"usage error: {flags[1]} must be at least 1" in res.stderr
    assert not out.exists()


def test_potential_csv_header_after_blank_lines(run, tmp_path):
    pot = tmp_path / "pot.csv"
    pot.write_text("\n\nq,V\n-1.0,0.0\n-0.2,0.8\n1.0,0.0\n")
    res = run("model", "--potential-csv", str(pot), "--n", "5")
    assert res.returncode == 0
    assert len(_data_lines(res.stdout)) == 1 + 5
