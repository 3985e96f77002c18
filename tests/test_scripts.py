"""Smoke runs of the command-line scripts under scripts/."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
