"""The built-in cross-checks behind ``effpot validate``.

Each check compares two independent routes to one quantity (closed form
against quadrature or finite differences, closed form against the transfer
matrix) or meets a reference value, on the barrier of height 1 and
half-width 0.5 at m = 1, beta = 1/8 and hbar = 3 unless it names another
hbar. Only ``validate`` imports this module, so the other commands do not
load its oracles.
"""

from __future__ import annotations

import math

from .atomic import linspace
from .dynamics import (
    DRIFT_LIMIT,
    REFLECTED,
    SURPASSED,
    classify_traversal,
    integrate_hamiltonian,
    launch_state,
)
from .errors import EffpotError
from .kernel import _fourier_veff, effective_potential
from .lowmomentum import LowMomentumModel, inverse_mass, smoothed_potential
from .physical import PhysicalParams, dimensionless
from .potential import PiecewiseConstantPotential, SquareBarrier
from .transmission import (
    effective_coefficients,
    effective_t_of_H,
    mixture_average,
    quantum_t_mixture,
    quantum_t_single,
    transfer_matrix_transmission,
)


def run() -> int:
    """Run every check, print one PASS/FAIL line each and a summary; 0 when
    all pass, 1 otherwise."""
    checks = []

    def check(name, fn):
        checks.append((name, fn))

    params = PhysicalParams(m=1.0, beta=0.125, hbar=3.0)
    barrier = SquareBarrier(v0=1.0, l=0.5)
    model = LowMomentumModel(params, barrier)

    def smoothing_agreement():
        # the closed form against the Fourier-kernel route on the
        # piecewise-constant twin of the barrier
        pw = PiecewiseConstantPotential((-0.5, 0.5), (0.0, 1.0, 0.0))
        worst = max(
            abs(effective_potential(params, pw, q, p) - _fourier_veff(params, pw, q, p))
            for q in (-1.5, -0.4, 0.0, 0.7, 2.0)
            for p in (0.0, 0.5, 1.5)
        )
        return worst < 1e-8, f"max diff {worst:.3e}"

    def mass_curvature():
        # closed inverse mass against a finite-difference curvature of the
        # smoothed potential
        coeff = params.beta**2 * params.hbar**2 / (12.0 * params.m**2)
        h = 1e-3
        worst = 0.0
        for q in (-1.0, 0.0, 0.6, 1.4):
            vpp = (
                smoothed_potential(model, q + h)
                - 2.0 * smoothed_potential(model, q)
                + smoothed_potential(model, q - h)
            ) / (h * h)
            worst = max(worst, abs(inverse_mass(model, q) - (1.0 / params.m - coeff * vpp)))
        return worst < 1e-6, f"max diff {worst:.3e}"

    def zero_momentum_reduction():
        worst = max(
            abs(_fourier_veff(params, barrier, q, 0.0) - smoothed_potential(model, q))
            for q in (-1.0, 0.0, 0.8)
        )
        return worst < 1e-8, f"max diff {worst:.3e}"

    def oracle_pairing():
        qp = PhysicalParams(m=1.0, beta=0.125, hbar=0.875)
        k0 = math.sqrt(2.0 * qp.m * barrier.v0) / qp.hbar
        worst = 0.0
        for k in linspace(0.05 * k0, 0.999 * k0, 10):
            closed = quantum_t_single(barrier, qp, k)
            oracle = transfer_matrix_transmission(barrier, qp, (qp.hbar * k) ** 2 / (2 * qp.m)).t
            worst = max(worst, abs(closed - oracle))
        return worst < 1e-10, f"max diff {worst:.3e}"

    def mixture_routes():
        qp = PhysicalParams(m=1.0, beta=0.125, hbar=0.875)
        direct = quantum_t_mixture(dimensionless(qp, barrier).Q)
        averaged = mixture_average(barrier, qp)
        return abs(direct - averaged) < 1e-8, f"diff {abs(direct - averaged):.3e}"

    def effective_point():
        t = effective_t_of_H(2.97)
        return abs(t - 0.5) < 0.005, f"t(H=2.97)={t:.6f}"

    def mixture_point():
        t = quantum_t_mixture(1.75)
        return abs(t - 0.5) < 0.01, f"t(Q=1.75)={t:.6f}"

    def conservation():
        q0, p0 = launch_state(model, 0.9)
        traj = integrate_hamiltonian(model, q0, p0)
        ok = traj.max_energy_drift < DRIFT_LIMIT and traj.outcome in (SURPASSED, REFLECTED)
        return ok, f"drift {traj.max_energy_drift:.3e}, outcome {traj.outcome}"

    def classical_limit():
        cl = LowMomentumModel(PhysicalParams(m=1.0, beta=0.125, hbar=0.0), barrier)
        below = classify_traversal(cl, 0.5)
        above = classify_traversal(cl, 1.5)
        eff = effective_coefficients(cl)
        ok = below == REFLECTED and above == SURPASSED and eff.t == 0.0
        return ok, f"below={below}, above={above}, t={eff.t:g}"

    check("piecewise twin: closed-form vs Fourier-kernel effective potential", smoothing_agreement)
    check("inverse mass vs smoothed-potential curvature", mass_curvature)
    check("Fourier-kernel effective potential at p=0 equals smoothed potential",
          zero_momentum_reduction)
    check("single-state transmission vs transfer matrix", oracle_pairing)
    check("mixture integral vs k-space average", mixture_routes)
    check("effective coefficient at H=2.97", effective_point)
    check("mixture coefficient at Q=1.75", mixture_point)
    check("trajectory energy conservation", conservation)
    check("classical limit at hbar=0", classical_limit)

    failures = 0
    for name, fn in checks:
        try:
            ok, detail = fn()
        except EffpotError as exc:
            ok, detail = False, f"error: {exc}"
        line = "PASS" if ok else "FAIL"
        print(f"{line}  {name}  ({detail})")
        if not ok:
            failures += 1
    if failures:
        print(f"{failures} of {len(checks)} checks failed")
        return 1
    print(f"all {len(checks)} checks passed")
    return 0
