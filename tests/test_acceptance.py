"""Acceptance gate: the nine headline checks, one test each.

Run with -v for the per-criterion pass/fail lines; each test also prints a
one-line numeric summary. Tolerances are stated inline next to each assert.
"""

import math
import time

import numpy as np
from scipy.optimize import brentq

from effpot.dynamics import (
    REFLECTED,
    SURPASSED,
    classify_traversal,
    hamiltonian,
    integrate_hamiltonian,
    integrate_newtonian,
    launch_state,
)
from effpot.figures import emit_all
from effpot.kernel import effective_potential
from effpot.lowmomentum import (
    LowMomentumModel,
    inverse_mass,
    smoothed_potential,
    vq_potential,
)
from effpot.physical import PhysicalParams
from effpot.potential import PiecewiseConstantPotential, SquareBarrier, eval_classical
from effpot.transmission import (
    effective_coefficients,
    effective_t_of_H,
    mixture_average,
    quantum_t_mixture,
    quantum_t_single,
    surpass_fraction,
    transfer_matrix_transmission,
)
from reference_profiles import reference_profiles

BARRIER = SquareBarrier(v0=1.0, l=0.5)
PW_BARRIER = PiecewiseConstantPotential((-0.5, 0.5), (0.0, 1.0, 0.0))


def _params(hbar):
    return PhysicalParams(m=1.0, beta=0.125, hbar=hbar)


def test_criterion_1_effective_half_transmission_point():
    t = effective_t_of_H(2.97)
    root = brentq(lambda H: effective_t_of_H(H) - 0.5, 2.0, 4.0, xtol=1e-12)
    print(f"criterion 1: t(H=2.97)={t:.6f} (gate 0.5±0.005), root H={root:.6f} (gate 2.965±0.01)")
    assert abs(t - 0.5) < 0.005
    assert abs(root - 2.965) < 0.01


def test_criterion_2_mixture_half_transmission_point():
    t = quantum_t_mixture(1.75)
    print(f"criterion 2: t_mixture(Q=1.75)={t:.6f} (gate 0.5±0.01)")
    assert abs(t - 0.5) < 0.01


def test_criterion_3_closed_forms_vs_quadrature():
    # V, V', 1/M and (1/M)' of the square barrier and of its piecewise twin
    # against the quadrature convolution of the bare barrier
    qs = np.linspace(-1.5, 1.5, 101)
    worst = 0.0
    for hbar in (1.0, 3.0, 6.0, 10.0, 30.0):
        params = _params(hbar)
        for pot in (BARRIER, PW_BARRIER):
            model = LowMomentumModel(params, pot)
            for q in map(float, qs):
                closed = model.profile.at(q)
                reference = reference_profiles(params, BARRIER, q)
                worst = max(worst, *(abs(a - b) for a, b in zip(closed, reference)))
    print(f"criterion 3: max closed-vs-quadrature diff {worst:.3e} (gate 1e-8)")
    assert worst < 1e-8


def test_criterion_4_expansion_order():
    params = _params(3.0)
    model = LowMomentumModel(params, BARRIER)
    ps = np.linspace(0.05, 0.4, 12) * math.sqrt(params.m / params.beta)
    slopes = []
    for q in (0.0, BARRIER.l, 2.0 * BARRIER.l):
        v0 = smoothed_potential(model, q)
        dm = inverse_mass(model, q) - 1.0 / params.m
        veff = np.array([effective_potential(params, BARRIER, q, p) for p in ps])
        deltas = np.abs(veff - (v0 + 0.5 * ps * ps * dm))
        slopes.append(float(np.polyfit(np.log(ps), np.log(deltas), 1)[0]))
    print(
        "criterion 4: remainder slopes "
        + ", ".join(f"{s:.3f}" for s in slopes)
        + " (gate 4±0.3)"
    )
    assert all(abs(s - 4.0) < 0.3 for s in slopes)


def test_criterion_5_conservation_and_form_equivalence():
    model = LowMomentumModel(_params(3.0), BARRIER)
    rng = np.random.default_rng(42)
    worst_q, worst_drift = 0.0, 0.0
    t_eval = np.linspace(0.0, 8.0, 400)
    for _ in range(10):
        eps = float(rng.uniform(0.05, 1.95))
        q0 = float(rng.uniform(-6.0, -2.0))
        v_here = smoothed_potential(model, q0)
        if eps <= v_here + 1e-3:
            eps = v_here + 1e-3
        p0 = math.sqrt(2.0 * (eps - v_here) / inverse_mass(model, q0))
        if rng.uniform() < 0.5:
            p0 = -p0
        ham = integrate_hamiltonian(model, q0, p0, t_end=8.0, t_eval=t_eval)
        v0 = p0 * inverse_mass(model, q0)
        newt = integrate_newtonian(
            model, q0, v0, hamiltonian(model, q0, p0), t_end=8.0, t_eval=t_eval
        )
        n = min(len(ham.t), len(newt.t))
        assert np.max(np.abs(np.asarray(ham.t[:n]) - np.asarray(newt.t[:n]))) < 1e-9
        worst_q = max(worst_q, float(np.max(np.abs(np.asarray(ham.q[:n]) - np.asarray(newt.q[:n])))))
        worst_drift = max(worst_drift, ham.max_energy_drift, newt.max_energy_drift)
    print(
        f"criterion 5: max form disagreement {worst_q:.3e} (gate 1e-8), "
        f"max drift {worst_drift:.3e} (gate 1e-9)"
    )
    assert worst_q < 1e-8
    assert worst_drift < 1e-9


def test_criterion_6_monte_carlo_transport():
    start = time.time()
    details = []
    for hbar in (2.0, 4.0, 6.0):
        model = LowMomentumModel(_params(hbar), BARRIER)
        frac = surpass_fraction(model, np.random.default_rng(42).random(200))
        t = effective_coefficients(model).t
        gate = 3.0 * math.sqrt(t * (1.0 - t) / 200.0) + 1.0 / 200.0
        details.append(f"hbar={hbar:g}: |{frac:.3f}-{t:.3f}|<={gate:.3f}")
        assert abs(frac - t) <= gate
    elapsed = time.time() - start
    print(f"criterion 6: {'; '.join(details)}; elapsed {elapsed:.1f}s (gate 60s)")
    assert elapsed < 60.0


def test_criterion_7_quantum_oracle_equivalence():
    params = _params(0.875)
    k0 = math.sqrt(2.0 * params.m * BARRIER.v0) / params.hbar
    worst_k = 0.0
    for k in np.linspace(0.02, 0.98, 50) * k0:
        E = (params.hbar * k) ** 2 / (2.0 * params.m)
        worst_k = max(
            worst_k,
            abs(quantum_t_single(BARRIER, params, float(k))
                - transfer_matrix_transmission(BARRIER, params, E).t),
        )
    worst_q = 0.0
    for Q in (0.5, 1.0, 2.0, 4.0):
        pq = _params(math.sqrt(2.0) * 0.5 * Q)
        worst_q = max(worst_q, abs(quantum_t_mixture(Q) - mixture_average(BARRIER, pq)))
    print(
        f"criterion 7: single-state vs transfer matrix {worst_k:.3e} (gate 1e-10), "
        f"mixture routes {worst_q:.3e} (gate 1e-8)"
    )
    assert worst_k <= 1e-10
    assert worst_q <= 1e-8


def test_criterion_8_figure_regression(tmp_path):
    first = emit_all(tmp_path / "a")
    second = emit_all(tmp_path / "b")
    identical = all(p1.read_bytes() == p2.read_bytes() for p1, p2 in zip(first, second))
    assert identical

    def read(path):
        rows = [
            [float(x) for x in line.split(",")]
            for line in path.read_text().splitlines()
            if line and not line.startswith("#") and not line[0].isalpha()
        ]
        return np.array(rows)

    fig1 = read(tmp_path / "a" / "fig1.csv")
    q, m10 = fig1[:, 0], fig1[:, 1]
    mass_dip = m10[int(np.argmin(np.abs(q)))] < 1.0
    mass_peak = m10.max() > 1.0
    fig2 = read(tmp_path / "a" / "fig2.csv")
    tops = fig2[:, 1:].max(axis=0)
    heights_decrease = tops[0] > tops[1] > tops[2]
    fig3 = read(tmp_path / "a" / "fig3.csv")
    fig4 = read(tmp_path / "a" / "fig4.csv")
    monotone = np.all(np.diff(fig3[:, 1]) >= 0) and np.all(np.diff(fig4[:, 1]) > 0)
    print(
        f"criterion 8: byte-identical={identical}, mass dip/peak={mass_dip}/{mass_peak}, "
        f"VQ tops decreasing={heights_decrease}, monotone curves={monotone}"
    )
    assert mass_dip and mass_peak
    assert heights_decrease
    assert monotone


def test_criterion_9_classical_limits():
    classical = LowMomentumModel(_params(0.0), BARRIER)
    # the reduced potential collapses onto the bare one
    worst_v = max(
        abs(vq_potential(classical, q, 0.25) - eval_classical(BARRIER, q))
        for q in np.linspace(-2.0, 2.0, 41)
    )
    below = classify_traversal(classical, 0.999)
    above = classify_traversal(classical, 1.001)
    t0 = effective_coefficients(classical).t

    thin = LowMomentumModel(_params(1e-6), BARRIER)
    worst_dq = 0.0
    for eps in (0.3, 1.4):
        q0, p0 = launch_state(thin, eps)
        thin_traj = integrate_hamiltonian(thin, q0, p0)
        exact_traj = integrate_hamiltonian(
            classical, q0, p0, t_end=float(thin_traj.t[-1])
        )
        t_hi = min(float(thin_traj.t[-1]), float(exact_traj.t[-1]))
        grid = np.linspace(0.0, t_hi, 500)
        dq = np.abs(
            np.interp(grid, thin_traj.t, thin_traj.q)
            - np.interp(grid, exact_traj.t, exact_traj.q)
        )
        worst_dq = max(worst_dq, float(dq.max()))
    print(
        f"criterion 9: V^Q=V^C to {worst_v:.1e}, below/above -> {below}/{above}, "
        f"t(hbar=0)={t0:g}, thin-vs-exact max|dq|={worst_dq:.3e} (gate 1e-4)"
    )
    assert worst_v == 0.0
    assert below == REFLECTED and above == SURPASSED
    assert t0 == 0.0
    assert worst_dq < 1e-4
