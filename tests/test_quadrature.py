"""The adaptive integration engine against closed-form oracles."""

import math
import subprocess
import sys

import pytest

from effpot import quadrature
from effpot.errors import NonConvergence
from effpot.quadrature import QuadratureConfig, integrate_adaptive


def test_config_validation():
    QuadratureConfig()
    QuadratureConfig(rel_tol=1e-8, abs_tol=1e-12)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=-1e-14)


@pytest.mark.parametrize("rel_tol, abs_tol", [(math.inf, 1e-14), (1e-10, math.inf), (math.inf, math.inf)])
def test_non_finite_tolerance_is_refused(rel_tol, abs_tol):
    # an infinite tolerance would pass the first 21-point panel unchecked
    with pytest.raises(ValueError, match="tolerances must be finite, got QuadratureConfig"):
        QuadratureConfig(rel_tol=rel_tol, abs_tol=abs_tol)


def test_adaptive_polynomial():
    assert abs(integrate_adaptive(lambda x: x**3, 0.0, 1.0) - 0.25) < 1e-13


def test_adaptive_sine():
    assert abs(integrate_adaptive(math.sin, 0.0, math.pi) - 2.0) < 1e-12


def test_adaptive_endpoint_limit():
    # integrand defined by limit at x = 0; interior-node scheme needs no guard
    def f(x):
        return math.sin(x) / x if x != 0.0 else 1.0

    from scipy.special import sici

    oracle = sici(1.0)[0]
    assert abs(integrate_adaptive(f, 0.0, 1.0) - oracle) < 1e-12


def test_linearity():
    cfg = QuadratureConfig()
    alpha = 2.5
    lhs = integrate_adaptive(lambda x: alpha * math.sin(x) + math.cos(x), 0.0, 2.0, cfg)
    rhs = alpha * integrate_adaptive(math.sin, 0.0, 2.0, cfg) + integrate_adaptive(
        math.cos, 0.0, 2.0, cfg
    )
    assert abs(lhs - rhs) <= cfg.rel_tol * max(1.0, abs(lhs))


def test_nonconvergence_reports_estimate(monkeypatch):
    # heavily oscillatory integrand with the subdivision budget starved: the
    # achieved estimate stays orders of magnitude above tolerance
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 3)
    cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-14)
    with pytest.raises(NonConvergence) as err:
        integrate_adaptive(lambda x: math.cos(50.0 / (x + 0.02)), 0.0, 1.0, cfg)
    exc = err.value
    assert exc.value is not None and math.isfinite(exc.value)
    assert exc.estimate is not None and exc.estimate > 1e-3


def test_tiny_values_do_not_raise():
    # tiny-valued integrals push the relative request near the roundoff
    # floor; they must return a value, not spuriously raise
    def f(x):
        return math.exp(-x * x) * 1e-4

    val = integrate_adaptive(f, -0.5, 0.5, QuadratureConfig())
    assert abs(val - 1e-4 * math.erf(0.5) * math.sqrt(math.pi)) < 1e-12


def test_no_command_loads_scipy_integrate(tmp_path):
    # the quadrature is in-house, so no subcommand imports scipy.integrate
    code = (
        "import sys\n"
        "from effpot import cli\n"
        f"out = {str(tmp_path)!r}\n"
        "runs = [['coeff', '--hbar', '3'], ['validate'], ['figures', '--out', out],\n"
        "        ['model', '--n', '41'], ['trajectory', '--eps', '0.9'], ['veff', '--nq', '9', '--np', '3']]\n"
        "for argv in runs:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "False"


def test_non_finite_value_is_refused():
    # QUADPACK reports success for an infinite node value: (inf, inf), ier 0
    def spike(x):
        return math.inf if x == 0.5 else x

    assert len(quadrature.quad(spike, 0.0, 1.0, epsabs=1e-14, epsrel=1e-10, limit=60)) == 3
    for f in (spike, lambda x: math.nan if x == 0.5 else x):
        with pytest.raises(NonConvergence) as err:
            integrate_adaptive(f, 0.0, 1.0)
        assert "not finite" in str(err.value)


def test_failure_message_is_one_line(monkeypatch):
    cfg = QuadratureConfig(rel_tol=1e-15, abs_tol=1e-300)
    with pytest.raises(NonConvergence) as err:
        integrate_adaptive(math.sin, 0.0, 1.0, cfg)
    text = str(err.value)
    assert "\n" not in text and "roundoff error prevents the requested tolerance" in text
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 3)
    with pytest.raises(NonConvergence) as err:
        integrate_adaptive(lambda x: math.cos(50.0 / (x + 0.02)), 0.0, 1.0)
    text = str(err.value)
    assert "\n" not in text and "maximum number (3) of subdivisions reached" in text


def test_quad_is_read_as_a_module_attribute(monkeypatch):
    # a wrapper set in place of quadrature.quad sees every call
    calls = []
    real = quadrature.quad

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(quadrature, "quad", counted)
    assert abs(integrate_adaptive(lambda x: x, 0.0, 2.0) - 2.0) < 1e-14
    assert calls == [(0.0, 2.0)]
    with pytest.raises(AttributeError):
        quadrature.no_such_name


def test_roundoff_stop_after_twenty_growing_bisections(monkeypatch):
    # a line plus deterministic noise: from some depth on, bisecting a
    # subinterval raises the summed error estimate of its halves above its
    # own. dqagse counts such bisections once subinterval `last` > 10 exists
    # (iroff3) and stops with code 2 when the count reaches 20; the count is
    # rebuilt here from every 21-point panel the run evaluates
    panels = []
    real = quadrature._qk21

    def recorded(f, a, b):
        out = real(f, a, b)
        panels.append((a, b, out))
        return out

    monkeypatch.setattr(quadrature, "_qk21", recorded)
    out = quadrature.quad(lambda x: x + 1e-4 * math.sin(1e8 * x), 0.0, 1.0,
                          epsabs=1e-300, epsrel=1e-14, limit=500)
    error = {(a, b): panel[1] for a, b, panel in panels}
    growing = []  # `last` of each bisection whose halves' estimate grew
    for last in range(2, len(panels) // 2 + 2):
        (a1, _, (_, error1, _, defab1)), (_, b2, (_, error2, _, defab2)) = panels[2 * last - 3:2 * last - 1]
        if not (defab1 == error1 or defab2 == error2) and error1 + error2 > error[(a1, b2)]:
            growing.append(last)
    counted = [last for last in growing if last > 10]
    assert 10 in growing  # so counting from last > 9 would stop earlier
    assert len(counted) >= 20 and out[2]["last"] == counted[19]
    assert out[3] == "roundoff error prevents the requested tolerance"
