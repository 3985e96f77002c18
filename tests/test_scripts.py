"""Smoke runs of the command-line scripts under scripts/."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = SCRIPTS.parent / "src"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def _rows(text):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def test_ensemble_transport(capsys):
    assert _main("ensemble_transport")(["--n", "8", "--hbar", "3", "--stratified"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "hbar,H,t_closed,fraction,binomial_3sigma"
    ((hbar, _, t, frac, err),) = _rows(out)
    assert float(hbar) == 3.0
    # the criterion-6 gate: binomial 3 sigma plus the 1/n stratification bound
    assert abs(float(frac) - float(t)) <= float(err) + 1.0 / 8


def test_ensemble_transport_random_draws(capsys):
    assert _main("ensemble_transport")(["--n", "8", "--hbar", "3"]) == 0
    ((hbar, _, _, frac, _),) = _rows(capsys.readouterr().out)
    assert float(hbar) == 3.0
    # k of the 8 random energies surpass
    assert float(frac) * 8 in range(9)


def test_expansion_order(capsys):
    assert _main("expansion_order")([]) == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 3
    for _, slope, _ in rows:
        assert abs(float(slope) - 4.0) < 0.1


@pytest.mark.parametrize("name, argv", [
    ("ensemble_transport", ["--n", "0"]),
    ("ensemble_transport", ["--n", "-3", "--hbar", "3"]),
    ("ensemble_transport", ["--n", "0", "--stratified"]),
    ("expansion_order", ["--n", "0"]),
    ("expansion_order", ["--n", "1"]),
    ("expansion_order", ["--pmin", "0"]),
    ("expansion_order", ["--pmin", "-0.1"]),
    ("expansion_order", ["--pmin", "0.4", "--pmax", "0.05"]),
    ("expansion_order", ["--pmax", "inf"]),
    # physical parameters the records refuse, and the expansion's own bounds
    ("ensemble_transport", ["--n", "4", "--hbar", "nan"]),
    ("ensemble_transport", ["--n", "4", "--hbar", "inf"]),
    ("ensemble_transport", ["--n", "4", "--hbar", "-1"]),
    ("ensemble_transport", ["--n", "4", "--hbar", "3", "nan"]),
    ("ensemble_transport", ["--n", "4", "--m", "0"]),
    ("ensemble_transport", ["--n", "4", "--beta", "nan"]),
    ("ensemble_transport", ["--n", "4", "--L", "inf"]),
    ("ensemble_transport", ["--n", "4", "--V0", "-1"]),
    ("expansion_order", ["--hbar", "nan"]),
    ("expansion_order", ["--hbar", "-2"]),
    ("expansion_order", ["--hbar", "0"]),
    ("expansion_order", ["--q", "nan"]),
    ("expansion_order", ["--q", "0", "inf"]),
    ("expansion_order", ["--m", "inf"]),
    ("expansion_order", ["--beta", "0"]),
    ("expansion_order", ["--L", "nan"]),
    ("expansion_order", ["--V0", "0"]),
])
def test_bad_sweep_argument_is_a_usage_error(capsys, name, argv):
    with pytest.raises(SystemExit) as exc:
        _main(name)(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "usage:" in err and "Traceback" not in err


@pytest.mark.parametrize("name, argv", [
    # DomainError: the smoothing constants leave floating range
    ("ensemble_transport", ["--n", "2", "--hbar", "1e-300"]),
    # NonPositiveMass
    ("ensemble_transport", ["--n", "2", "--beta", "20", "--hbar", "0.01", "--L", "100"]),
    # StepFailure: the step size falls below 10 ulp of the time
    ("ensemble_transport", ["--n", "2", "--hbar", "1e-14", "--stratified"]),
    # DomainError: V_eff leaves floating range, after the model is built
    ("expansion_order", ["--pmax", "1e3"]),
    # NonPositiveMass
    ("expansion_order", ["--V0", "1e300"]),
])
def test_computational_failure_is_one_error_line(capsys, name, argv):
    # as effpot reports an EffpotError: exit 1 and one error line, with no
    # row printed before the failure
    assert _main(name)(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    # remainders of 1-2 ulp of V
    ["--pmin", "1e-300", "--pmax", "2e-300"],
    # remainders of about ulp(V0) = ulp(1) while V_eff is about 1e-300
    ["--L", "1e-300"],
    # the smallest momenta's remainders lie far below ulp(V0)
    ["--pmin", "1e-4", "--pmax", "1e-3"],
])
def test_expansion_order_refuses_to_fit_rounding_noise(capsys, argv):
    assert _main("expansion_order")(argv) == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 3
    assert all(slope == "nan" for _, slope, _ in rows)


def test_expansion_order_prints_through_csv_text(capsys):
    assert _main("expansion_order")(["--n", "4", "--q", "0.25"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:6] == ["# m=1", "# beta=0.125", "# hbar=3", "# L=0.5", "# V0=1",
                         "q,slope,remainder_at_pmax"]
    ((q, slope, remainder),) = _rows("\n".join(lines))
    assert q == "0.25" and abs(float(slope) - 4.0) < 0.1
    # 12 significant digits, as every effpot output (trailing zeros dropped)
    digits = remainder.partition("e")[0].replace(".", "").lstrip("-0")
    assert 6 < len(digits) <= 12


@pytest.mark.parametrize("name, argv", [
    ("ensemble_transport", ["--n", "8", "--hbar", "3", "--stratified"]),
    ("ensemble_transport", ["--n", "8", "--hbar", "3"]),
    ("expansion_order", []),
])
def test_scripts_run_without_numpy_or_scipy(name, argv):
    # a None entry in sys.modules makes any import of the name fail
    code = ("import runpy, sys\n"
            "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
            f"sys.argv = [{name!r}, *{argv!r}]\n"
            f"runpy.run_path({str(SCRIPTS / f'{name}.py')!r}, run_name='__main__')\n")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stderr == "" and len(_rows(res.stdout)) >= 1
