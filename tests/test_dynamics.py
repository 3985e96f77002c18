"""Trajectory integration: conservation, formulation equivalence, classification."""

import math
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.integrate import solve_ivp as scipy_solve_ivp

from effpot import dynamics
from effpot.dynamics import (
    ABS_TOL,
    REFLECTED,
    REL_TOL,
    SURPASSED,
    Trajectory,
    classify_traversal,
    hamiltonian,
    integrate_hamiltonian,
    integrate_newtonian,
    launch_state,
    solve_ivp,
    trajectory_csv,
)
from effpot.errors import (
    DidNotResolve,
    DomainError,
    EffpotError,
    InconsistentEnergy,
    StepFailure,
)
from effpot.kernel import effective_potential
from effpot.lowmomentum import (
    LowMomentumModel,
    Profile,
    evaluation_domain,
    inverse_mass,
    smoothed_potential,
    tunneling_threshold,
    vq_potential,
)
from effpot.physical import PhysicalParams
from effpot.potential import (
    PiecewiseConstantPotential,
    Shape,
    SquareBarrier,
    TabulatedPotential,
    eval_classical,
)
from reference_profiles import SegmentProfile, canonical_rhs_from_at, newtonian_rhs_from_at

BARRIER = SquareBarrier(v0=1.0, l=0.5)
TWIN = PiecewiseConstantPotential((-0.5, 0.5), (0.0, 1.0, 0.0))
STEP4 = PiecewiseConstantPotential((-0.86, -0.48, 0.02, 0.99), (0.0, 0.86, 0.65, 0.92, 0.0))
_TENT_GRID = np.linspace(-1.0, 1.0, 41)
TENT = TabulatedPotential(tuple(_TENT_GRID), tuple(0.8 * (1.0 - np.abs(_TENT_GRID))))
_BUMP_X = np.clip((_TENT_GRID - 0.1) / 0.6, -1.0, 1.0)
BUMP = TabulatedPotential(tuple(_TENT_GRID), tuple(0.7 * 0.5 * (1.0 + np.cos(np.pi * _BUMP_X))))


def _model(hbar):
    return LowMomentumModel(PhysicalParams(m=1.0, beta=0.125, hbar=hbar), BARRIER)


def test_trajectory_invariants():
    ok = Trajectory(
        t=np.array([0.0, 1.0]),
        q=np.array([0.0, 1.0]),
        p=np.array([1.0, 1.0]),
        energy0=0.5,
        energy_drift=np.array([0.0, 0.0]),
        max_energy_drift=0.0,
    )
    assert ok.outcome is None and ok.n_rhs == 0
    with pytest.raises(ValueError):
        Trajectory(
            t=np.array([0.0, 0.0]),
            q=np.array([0.0, 1.0]),
            p=np.array([1.0, 1.0]),
            energy0=0.5,
            energy_drift=np.array([0.0, 0.0]),
            max_energy_drift=0.0,
        )
    with pytest.raises(ValueError):
        Trajectory(
            t=np.array([0.0, 1.0]),
            q=np.array([0.0]),
            p=np.array([1.0, 1.0]),
            energy0=0.5,
            energy_drift=np.array([0.0, 0.0]),
            max_energy_drift=0.0,
        )
    with pytest.raises(ValueError):  # a NaN time is not ordered
        Trajectory(
            t=np.array([0.0, math.nan, 1.0]),
            q=np.array([0.0, 1.0, 2.0]),
            p=np.array([1.0, 1.0, 1.0]),
            energy0=0.5,
            energy_drift=np.array([0.0, 0.0, 0.0]),
            max_energy_drift=0.0,
        )
    with pytest.raises(ValueError):
        Trajectory(
            t=np.array([]),
            q=np.array([]),
            p=np.array([]),
            energy0=0.5,
            energy_drift=np.array([]),
            max_energy_drift=0.0,
        )


@pytest.mark.parametrize("newtonian", [False, True], ids=["hamiltonian", "newtonian"])
@pytest.mark.parametrize("hbar", [0.0, 0.05, 3.0])
def test_t_end_at_the_start_is_one_sample(hbar, newtonian):
    # exact flight (hbar 0 and 0.05 start in a gap) and a zone run (hbar 3)
    # alike record the start once
    model = _model(hbar)
    q0, p0 = launch_state(model, 0.5)
    if newtonian:
        traj = integrate_newtonian(model, q0, p0 * inverse_mass(model, q0), 0.5, t_end=0.0)
    else:
        traj = integrate_hamiltonian(model, q0, p0, t_end=0.0)
    assert (traj.t, traj.q, traj.p, traj.energy_drift) == ((0.0,), (q0,), (p0,), (0.0,))
    assert traj.outcome is None


@pytest.mark.parametrize("hbar", [0.05, 2.0, 6.0])
@pytest.mark.parametrize("pot", [BARRIER, TWIN, TENT, BUMP], ids=["square", "twin", "tent", "bump"])
def test_canonical_rhs_runs_bitwise_as_the_at_route(monkeypatch, pot, hbar):
    # the closure that never forms V steps exactly as the one reading Profile.at
    model = LowMomentumModel(PhysicalParams(m=1.0, beta=0.125, hbar=hbar), pot)
    thr = tunneling_threshold(model)
    starts = [launch_state(model, eps) for eps in (0.6 * thr, 1.1 * thr)]
    runs = [integrate_hamiltonian(model, q0, p0) for q0, p0 in starts]
    monkeypatch.setattr(dynamics, "_rhs", lambda profile, eps: canonical_rhs_from_at(profile))
    oracle = [integrate_hamiltonian(model, q0, p0) for q0, p0 in starts]
    assert [run.outcome for run in runs] == [REFLECTED, SURPASSED]
    for run, ref in zip(runs, oracle):
        assert run.outcome == ref.outcome and run.n_rhs == ref.n_rhs
        for field in ("t", "q", "p", "energy_drift"):
            assert np.array_equal(getattr(run, field), getattr(ref, field)), field


@pytest.mark.parametrize("hbar", [0.05, 2.0, 6.0])
@pytest.mark.parametrize("pot", [BARRIER, TWIN, TENT, BUMP], ids=["square", "twin", "tent", "bump"])
def test_newtonian_rhs_runs_bitwise_as_the_at_route(monkeypatch, pot, hbar):
    # the Newtonian closure steps exactly as the oracle reading Profile.at
    model = LowMomentumModel(PhysicalParams(m=1.0, beta=0.125, hbar=hbar), pot)
    thr = tunneling_threshold(model)
    starts = []
    for eps in (0.6 * thr, 1.1 * thr):
        q0, p0 = launch_state(model, eps)
        starts.append((q0, p0 * inverse_mass(model, q0), eps))
    runs = [integrate_newtonian(model, *start) for start in starts]
    monkeypatch.setattr(dynamics, "_rhs", lambda profile, eps: newtonian_rhs_from_at(profile, eps))
    oracle = [integrate_newtonian(model, *start) for start in starts]
    assert [run.outcome for run in runs] == [REFLECTED, SURPASSED]
    for run, ref in zip(runs, oracle):
        assert run.outcome == ref.outcome and run.n_rhs == ref.n_rhs
        for field in ("t", "q", "p", "energy_drift"):
            assert np.array_equal(getattr(run, field), getattr(ref, field)), field


def _raised_cosine(centre, width, height):
    """perfbench's seeded raised-cosine bump on the 41-point grid, end samples 0."""
    x = np.clip((_TENT_GRID - centre) / width, -1.0, 1.0)
    values = height * 0.5 * (1.0 + np.cos(np.pi * x))
    values[0] = values[-1] = 0.0
    return TabulatedPotential(tuple(_TENT_GRID.tolist()), tuple(values.tolist()))


# perfbench's seed-2 bump: at hbar 0.05 and 1.6 times its threshold the
# canonical form keeps its drift far below the gate
DRIFT_BUMP = _raised_cosine(0.021003082391549688, 0.6179467821880958, 0.6875053630279676)
# perfbench's seed-1 bump: at hbar 0.2 and twice its threshold the Newtonian
# form breaches the drift gate. At hbar 0.2 that is common: on the seed 0-5
# bumps at seven energies from 0.5 to 2 thresholds, 18 of 42 Newtonian runs
# breach it, this one among them whichever zones the run steps through
NEWTONIAN_DRIFT_BUMP = _raised_cosine(0.22495290939589513, 0.6322469856785315, 0.6029951184487711)


def _drift_bump_launch(pot, hbar, factor, expected_eps):
    model = LowMomentumModel(PhysicalParams(m=1.0, beta=0.125, hbar=hbar), pot)
    eps = factor * tunneling_threshold(model)
    assert abs(eps - expected_eps) <= 1e-12
    return model, eps, launch_state(model, eps)


def test_drift_bump_canonical_run_surpasses():
    model, _, (q0, p0) = _drift_bump_launch(DRIFT_BUMP, 0.05, 1.6, 1.0959471216113224)
    traj = integrate_hamiltonian(model, q0, p0)
    assert traj.outcome == SURPASSED
    assert traj.max_energy_drift < 1e-10  # 6.0e-12 measured


@pytest.mark.xfail(raises=StepFailure, strict=True,
                   reason="known defect: the Newtonian form drifts 1.76e-9 against the 1e-9 gate")
def test_drift_bump_newtonian_run_surpasses():
    model, eps, (q0, p0) = _drift_bump_launch(NEWTONIAN_DRIFT_BUMP, 0.2, 2.0, 1.193708533546204)
    traj = integrate_newtonian(model, q0, p0 * inverse_mass(model, q0), eps)
    assert traj.outcome == SURPASSED


def test_nan_energy_sample_breaches_the_drift_gate(monkeypatch):
    # one NaN energy among finite ones fails the gate: the builtin max
    # passes over a NaN that is not the first sample
    model = _model(3.0)
    q0, p0 = launch_state(model, 0.9)
    read, calls = Profile.v_minv_at, []

    def nan_once(self, q):
        # call 1 reads the launch energy; then one call per zone sample
        calls.append(q)
        v, minv = read(self, q)
        return (math.nan if len(calls) == 10 else v), minv

    monkeypatch.setattr(Profile, "v_minv_at", nan_once)
    with pytest.raises(StepFailure, match="energy drift nan breaches"):
        integrate_hamiltonian(model, q0, p0)
    assert len(calls) > 10


def test_reads_of_v_and_inverse_mass_never_sum_the_slopes(monkeypatch):
    # at's four columns serve only the extremum scan and the closures beyond
    # their window: every scalar read of V, 1/M or both, V_eff at p = 0 and
    # a run in either form on the square go through the column readers
    model = _model(2.0)
    dynamics._zones(model)

    def refuse(self, q):
        raise AssertionError(f"Profile.at read at q = {q!r}")

    monkeypatch.setattr(Profile, "at", refuse)
    for q in (-3.0, -0.5, 0.0, 0.3, 4.0):
        smoothed_potential(model, q)
        inverse_mass(model, q)
        vq_potential(model, q, 0.5)
        hamiltonian(model, q, 0.7)
        effective_potential(model.params, BARRIER, q, 0.0)
    q0, p0 = launch_state(model, 0.9)
    assert integrate_hamiltonian(model, q0, p0).outcome == SURPASSED
    traj = integrate_newtonian(model, q0, p0 * inverse_mass(model, q0), 0.9)
    assert traj.outcome == SURPASSED


@pytest.mark.parametrize("hbar", [0.0, 0.05, 2.0])
def test_n_rhs_sums_the_segments_calls(monkeypatch, hbar):
    model = LowMomentumModel(PhysicalParams(m=1.0, beta=0.125, hbar=hbar), STEP4)
    segments = []

    def counted(*args, **kwargs):
        segments.append(solve_ivp(*args, **kwargs))
        return segments[-1]

    monkeypatch.setattr(dynamics, "solve_ivp", counted)
    q0, p0 = launch_state(model, 0.5)
    traj = integrate_hamiltonian(model, q0, p0)
    assert traj.n_rhs == sum(seg.nfev for seg in segments)
    assert (traj.n_rhs == 0) == (hbar == 0.0)


def test_hamiltonian_values():
    model = _model(3.0)
    # far from the barrier both profiles sit at their asymptotes
    assert abs(hamiltonian(model, -5.0, 0.7071) - 0.7071**2 / 2.0) < 1e-9
    classical = _model(0.0)
    assert hamiltonian(classical, 0.0, 1.0) == 0.5 + 1.0


def test_free_flight_is_uniform():
    model = _model(3.0)
    q0, p0 = -8.0, 0.7071
    t_eval = np.linspace(0.0, 4.0, 50)
    traj = integrate_hamiltonian(model, q0, p0, t_end=4.0, t_eval=t_eval)
    expected = q0 + p0 * t_eval  # m = 1, M = m in the asymptotic region
    assert np.max(np.abs(traj.q - expected)) < 1e-9


def test_reflection_restores_momentum():
    model = _model(3.0)
    eps = 0.3  # below the threshold 0.654
    q0, p0 = launch_state(model, eps)
    traj = integrate_hamiltonian(model, q0, p0)
    assert traj.outcome == REFLECTED
    assert traj.p[-1] < 0
    assert abs(abs(traj.p[-1]) - p0) < 1e-8
    assert traj.max_energy_drift < 1e-9


def test_crossing_above_threshold():
    model = _model(3.0)
    thr = tunneling_threshold(model)
    for eps in np.linspace(thr + 0.02, 2.0, 20):
        q0, p0 = launch_state(model, float(eps))
        traj = integrate_hamiltonian(model, q0, p0)
        assert traj.outcome == SURPASSED
        assert traj.q[-1] > 3 * BARRIER.l


def test_turning_point_on_reduced_potential():
    model = _model(3.0)
    eps = 0.5
    q0, p0 = launch_state(model, eps)
    first = integrate_hamiltonian(model, q0, p0)
    t_apex = float(first.t[int(np.argmax(first.q))])
    dense = np.linspace(max(0.0, t_apex - 0.5), t_apex + 0.5, 2001)
    traj = integrate_hamiltonian(model, q0, p0, t_end=float(first.t[-1]), t_eval=dense)
    q_turn = float(np.asarray(traj.q).max())
    assert abs(vq_potential(model, q_turn, eps) - eps) < 1e-8


def test_time_reversal():
    # event-free window entirely inside the evaluation domain so forward and
    # backward runs share the full sample grid
    model = _model(3.0)
    q0, p0 = -4.0, math.sqrt(2.0 * 0.9)
    t_eval = np.linspace(0.0, 6.0, 400)
    fwd = integrate_hamiltonian(model, q0, p0, t_end=6.0, t_eval=t_eval)
    assert fwd.outcome is None and len(fwd.t) == 400
    back = integrate_hamiltonian(
        model, float(fwd.q[-1]), -float(fwd.p[-1]), t_end=6.0, t_eval=t_eval
    )
    assert len(back.t) == 400
    assert np.max(np.abs(np.asarray(back.q[::-1]) - np.asarray(fwd.q))) < 1e-7


def test_formulation_equivalence():
    model = _model(3.0)
    q0, p0 = -4.0, math.sqrt(2.0 * 0.9)
    t_eval = np.linspace(0.0, 6.0, 300)
    ham = integrate_hamiltonian(model, q0, p0, t_end=6.0, t_eval=t_eval)
    v0 = p0 * inverse_mass(model, q0)
    eps = hamiltonian(model, q0, p0)
    newt = integrate_newtonian(model, q0, v0, eps, t_end=6.0, t_eval=t_eval)
    assert len(ham.q) == len(newt.q) == 300
    assert np.max(np.abs(np.asarray(ham.q) - np.asarray(newt.q))) < 1e-8
    assert np.max(np.abs(np.asarray(ham.p) - np.asarray(newt.p))) < 1e-7


def test_inconsistent_energy_rejected():
    model = _model(3.0)
    with pytest.raises(InconsistentEnergy):
        integrate_newtonian(model, -5.0, 1.0, 0.1, t_end=1.0)


def test_exact_classical_reflection_and_crossing():
    model = _model(0.0)
    below = classify_traversal(model, 0.999)
    above = classify_traversal(model, 1.001)
    assert below == REFLECTED
    assert above == SURPASSED
    q0, p0 = launch_state(model, 0.5)
    traj = integrate_hamiltonian(model, q0, p0)
    assert traj.outcome == REFLECTED
    assert traj.max_energy_drift == 0.0


def test_exact_classical_momentum_jump():
    # crossing a step changes |p| by the closed-form amount; the event path
    # samples sit exactly on the walls and carry the post-jump momentum
    model = _model(0.0)
    q0, p0 = launch_state(model, 1.5)
    traj = integrate_hamiltonian(model, q0, p0)
    assert traj.outcome == SURPASSED
    at_entry = [p for q, p in zip(traj.q, traj.p) if q == -0.5]
    assert len(at_entry) == 1
    assert abs(at_entry[0] - math.sqrt(p0 * p0 - 2.0)) < 1e-12
    assert abs(traj.p[-1] - p0) < 1e-12


def test_exact_classical_piecewise_well():
    pot = PiecewiseConstantPotential((-1.0, 1.0), (0.0, -2.0, 0.0))
    model = LowMomentumModel(PhysicalParams(1.0, 0.125, 0.0), pot)
    traj = integrate_hamiltonian(model, -6.0, 1.0)
    assert traj.outcome == SURPASSED
    at_entry = [p for q, p in zip(traj.q, traj.p) if q == -1.0]
    assert len(at_entry) == 1
    assert abs(at_entry[0] - math.sqrt(1.0 + 4.0)) < 1e-12
    assert abs(traj.p[-1] - 1.0) < 1e-12


def test_exact_classical_resampling():
    # stop before any wall so the requested grid survives intact
    model = _model(0.0)
    t_eval = np.linspace(0.0, 4.0, 41)
    traj = integrate_hamiltonian(model, -5.0, 1.0, t_end=4.0, t_eval=t_eval)
    assert len(traj.t) == 41
    assert traj.outcome is None
    assert traj.q[0] == -5.0
    assert abs(traj.q[10] - (-4.0)) < 1e-12


def test_exact_classical_rejects_start_on_step():
    model = _model(0.0)
    with pytest.raises(DomainError):
        integrate_hamiltonian(model, 0.5, 1.0, t_end=1.0)


def test_exact_classical_rejects_tabulated():
    tab = TabulatedPotential((-1.0, 0.0, 1.0), (0.0, 1.0, 0.0))
    model = LowMomentumModel(PhysicalParams(1.0, 0.125, 0.0), tab)
    with pytest.raises(DomainError):
        integrate_hamiltonian(model, -3.0, 1.0, t_end=1.0)


def test_zero_velocity_needs_explicit_budget():
    model = _model(3.0)
    with pytest.raises(ValueError):
        integrate_hamiltonian(model, -8.0, 0.0)
    traj = integrate_hamiltonian(model, -8.0, 0.0, t_end=1.0)
    assert traj.outcome is None


def test_classify_exact_threshold_is_reflected():
    model = _model(3.0)
    thr = tunneling_threshold(model)
    assert classify_traversal(model, thr) == REFLECTED
    assert classify_traversal(model, thr * (1.0 - 1e-6)) == REFLECTED
    assert classify_traversal(model, thr * (1.0 + 1e-6)) == SURPASSED
    thin = _model(1e-6)
    thr_thin = tunneling_threshold(thin)
    assert classify_traversal(thin, thr_thin) == REFLECTED
    assert classify_traversal(thin, thr_thin * (1.0 - 1e-3)) == REFLECTED
    assert classify_traversal(thin, thr_thin * (1.0 + 1e-3)) == SURPASSED


def test_classify_flat_top_creep_exhausts_budget():
    # just above a thin-wall threshold the top is flat over the whole
    # interior, so the crossing speed stays ~sqrt(2 excess) for the full
    # width and the full run's default time budget genuinely runs out;
    # classification stops where the run passes the top moving forward
    model = _model(1e-6)
    eps = tunneling_threshold(model) * (1.0 + 1e-6)
    assert integrate_hamiltonian(model, *launch_state(model, eps)).outcome is None
    assert classify_traversal(model, eps) == SURPASSED


def test_classify_flip_matches_closed_threshold():
    # bisect the classification flip; it must land on the erf threshold
    model = _model(3.0)
    thr = tunneling_threshold(model)
    lo, hi = 0.4, 0.9
    assert classify_traversal(model, lo) == REFLECTED
    assert classify_traversal(model, hi) == SURPASSED
    for _ in range(25):
        mid = 0.5 * (lo + hi)
        if classify_traversal(model, mid) == SURPASSED:
            hi = mid
        else:
            lo = mid
    assert abs(0.5 * (lo + hi) - thr) < 1e-7


# perfbench's fixed 3-step barrier and its seed-1 41-point tent (offset
# -0.2701500698449057, height 0.546486970518657) and raised-cosine bump
# (centre 0.22495290939589513, width 0.6322469856785315, height 0.6029951184487711)
STEP3 = PiecewiseConstantPotential((-0.6, 0.0, 0.55), (0.0, 0.5, 0.9, 0.0))
_SEED1_TENT_X = _TENT_GRID + -0.2701500698449057
_SEED1_TENT_V = 0.546486970518657 * (1.0 - np.abs(_SEED1_TENT_X - -0.2701500698449057))
_SEED1_TENT_V[0] = _SEED1_TENT_V[-1] = 0.0
SEED1_TENT = TabulatedPotential(tuple(_SEED1_TENT_X.tolist()), tuple(_SEED1_TENT_V.tolist()))
_SEED1_BUMP_X = np.clip((_TENT_GRID - 0.22495290939589513) / 0.6322469856785315, -1.0, 1.0)
_SEED1_BUMP_V = 0.6029951184487711 * 0.5 * (1.0 + np.cos(np.pi * _SEED1_BUMP_X))
_SEED1_BUMP_V[0] = _SEED1_BUMP_V[-1] = 0.0
SEED1_BUMP = TabulatedPotential(tuple(_TENT_GRID.tolist()), tuple(_SEED1_BUMP_V.tolist()))
# a reflection at the second, higher hump comes back over the first
TWO_HUMP = PiecewiseConstantPotential((-1.0, -0.6, -0.2, 0.2), (0.0, 0.6, 0.2, 1.0, 0.0))


def _outcome_or_error(run):
    try:
        return run()
    except EffpotError as exc:
        return type(exc)


@pytest.mark.parametrize("hbar", [0.0, 0.05, 0.5, 2.0, 3.0, 6.0])
@pytest.mark.parametrize("pot", [BARRIER, TWIN, STEP3, STEP4, SEED1_TENT, SEED1_BUMP, TWO_HUMP],
                         ids=["square", "twin", "step3", "step4", "tent", "bump", "two-hump"])
def test_classification_is_the_full_runs_outcome(pot, hbar):
    # classify_traversal stops at the first turning point or where the run
    # passes the top of V moving forward; the full run goes on to an edge
    # and must reach the same outcome, or both must raise the same error
    # (tabulated shapes at hbar 0, and at hbar 0 the creep over a flat top
    # that exhausts the budget). At hbar > 0 that creep, just above the
    # threshold, exhausts only the full run's budget, after passing the top:
    # classification decides it at the top, and right
    model = LowMomentumModel(PhysicalParams(m=1.0, beta=0.125, hbar=hbar), pot)
    thr = tunneling_threshold(model)
    for f in (0.3, 0.7, 0.9, 0.99, 1.0 - 1e-6, 1.0 + 1e-6, 1.01, 1.1, 1.6):
        eps = f * thr

        def full():
            return integrate_hamiltonian(model, *launch_state(model, eps)).outcome or DidNotResolve

        expected = _outcome_or_error(full)
        if expected is DidNotResolve and hbar > 0 and f == 1.0 + 1e-6:
            expected = SURPASSED
        assert _outcome_or_error(lambda: classify_traversal(model, eps)) == expected, f


def _turn_and_full_runs(monkeypatch, model, eps, outcome=REFLECTED):
    """The run classify_traversal makes and the full integrate_hamiltonian
    run from the same launch, each with its RHS calls and outcome."""
    runs, nfev = [], [0]

    def propagated(*args, **kwargs):
        runs.append(propagate(*args, **kwargs))
        return runs[-1]

    def counted(*args, **kwargs):
        seg = segment(*args, **kwargs)
        nfev[0] += seg.nfev
        return seg

    propagate, segment = dynamics._propagate, dynamics.solve_ivp
    monkeypatch.setattr(dynamics, "_propagate", propagated)
    monkeypatch.setattr(dynamics, "solve_ivp", counted)
    assert classify_traversal(model, eps) == outcome
    turn_calls = nfev[0]
    full = integrate_hamiltonian(model, *launch_state(model, eps))
    assert full.outcome == outcome
    (turn, _) = runs
    # the way to the turning point is the full run's, sample for sample; a
    # surpassed run ends at its exit through the top, within a full run's step
    n = len(turn.t) - (outcome == SURPASSED)
    assert n < len(full.t)
    for name in ("t", "q", "p", "energy_drift"):
        assert getattr(turn, name)[:n] == getattr(full, name)[:n], name
    if outcome == SURPASSED:
        assert full.t[n - 1] < turn.t[-1] < full.t[n]
    return turn, turn_calls, full, nfev[0] - turn_calls


def test_reflected_classification_stops_at_the_turn(monkeypatch):
    turn, turn_calls, full, full_calls = _turn_and_full_runs(monkeypatch, _model(2.0), 0.5)
    assert turn.p[-2] > 0.0 >= turn.p[-1]  # the last accepted step is the first one turned
    assert turn_calls == turn.n_rhs and full_calls == full.n_rhs
    assert turn_calls < 0.6 * full_calls


def test_surpassed_classification_stops_at_the_top(monkeypatch):
    model = _model(2.0)
    eps = 1.1 * tunneling_threshold(model)
    top, top_calls, full, full_calls = _turn_and_full_runs(monkeypatch, model, eps, SURPASSED)
    assert abs(top.q[-1] - model._top_at) < 1e-12 and top.p[-1] > 0.0
    assert top_calls == top.n_rhs and full_calls == full.n_rhs
    assert top_calls < 0.6 * full_calls


def test_thin_wall_surpass_stops_in_the_first_wall_zone(monkeypatch):
    # at hbar 0.05 each wall of the square has a force zone of its own and
    # the top is flat between them: the run is decided in the first zone
    model = _model(0.05)
    segments = []

    def counted(*args, **kwargs):
        segments.append(solve_ivp(*args, **kwargs))
        return segments[-1]

    monkeypatch.setattr(dynamics, "solve_ivp", counted)
    eps = 1.1 * tunneling_threshold(model)
    assert len(dynamics._zones(model)) == 2
    assert classify_traversal(model, eps) == SURPASSED
    (seg,) = segments
    assert seg.status == 1 and seg.exit[0] == 1
    assert integrate_hamiltonian(model, *launch_state(model, eps)).outcome == SURPASSED
    assert len(segments) == 3


NARROW_WELL = PiecewiseConstantPotential((-0.1, 0.1), (0.0, -1.0, 0.0))
STAIR_WELL = PiecewiseConstantPotential((-2.0, 0.0, 2.0), (0.0, -1.0, -0.5, 0.0))


@pytest.mark.parametrize("pot, hbar, top", [
    (NARROW_WELL, 0.0, None), (NARROW_WELL, 2.0, "behind the launch point"),
    (STAIR_WELL, 0.0, None), (STAIR_WELL, 0.5, "on the domain edge"),
    (STAIR_WELL, 2.0, "ahead of the launch point"),
], ids=["narrow-0", "narrow-2", "stair-0", "stair-0.5", "stair-2"])
def test_classification_with_the_maximum_at_an_asymptote(pot, hbar, top):
    # both asymptotes share the level, so a well has its maximum there, and
    # the leftmost sample of it lies on the launch side: within 20 sigma of
    # scan reach of the first corner, or on the domain's low edge
    model = LowMomentumModel(PhysicalParams(m=1.0, beta=0.125, hbar=hbar), pot)
    assert tunneling_threshold(model) == 0.0
    q0, _ = launch_state(model, 1.0)
    lo_edge, _ = evaluation_domain(model)
    at = model._top_at
    assert top == (None if at is None else "behind the launch point" if at < q0
                   else "on the domain edge" if at == lo_edge
                   else "ahead of the launch point" if at < lo_edge else "inside the domain")
    for eps in (0.01, 0.3, 1.0, 3.0):
        full = integrate_hamiltonian(model, *launch_state(model, eps)).outcome
        assert full == SURPASSED
        assert classify_traversal(model, eps) == full, eps


def test_exact_reflection_stops_at_the_first_reflecting_step(monkeypatch):
    # hbar 0: the run crosses the first step and reflects at the second
    model = LowMomentumModel(PhysicalParams(m=1.0, beta=0.125, hbar=0.0), STEP3)
    turn, turn_calls, _, _ = _turn_and_full_runs(monkeypatch, model, 0.7)
    assert turn_calls == 0
    assert turn.q[-2:] == (-0.6, 0.0)
    assert turn.p[-2] > 0.0 > turn.p[-1]


def test_launch_state_energy():
    model = _model(3.0)
    q0, p0 = launch_state(model, 0.7)
    assert abs(hamiltonian(model, q0, p0) - 0.7) < 1e-12
    with pytest.raises(DomainError):
        launch_state(model, -0.1)


@pytest.mark.parametrize("run", [
    lambda model: launch_state(model, math.nan),
    lambda model: classify_traversal(model, math.nan),
    lambda model: integrate_hamiltonian(model, -4.0, math.inf),
    lambda model: integrate_hamiltonian(model, math.nan, 1.0),
    lambda model: integrate_hamiltonian(model, -4.0, 1.0, t_end=math.nan),
    lambda model: integrate_newtonian(model, -4.0, 1.0, math.nan),
    lambda model: integrate_newtonian(model, -4.0, 1.0, 0.5, t_end=math.inf),
], ids=["launch-eps", "classify-eps", "ham-p0", "ham-q0", "ham-t_end", "newt-eps", "newt-t_end"])
def test_non_finite_input_rejected(run):
    # a NaN time would stall the stepper's rejection loop, and a NaN drift
    # would slip past the conservation gate
    with pytest.raises(ValueError, match="finite"):
        run(_model(3.0))


def test_negative_time_budget_rejected():
    # a negative budget used to return the start alone, at t = 0
    model = _model(3.0)
    q0, p0 = -4.0, 1.0
    v0 = p0 * inverse_mass(model, q0)
    with pytest.raises(ValueError, match="nonnegative"):
        integrate_hamiltonian(model, q0, p0, t_end=-1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        integrate_newtonian(model, q0, v0, hamiltonian(model, q0, p0), t_end=-1.0)


@pytest.mark.parametrize("eps", [1e308, 1.5e308])
def test_launch_momentum_overflow_names_the_energy(eps):
    # 2 (eps - V) overflows to inf, and p0 with it
    with pytest.raises(ValueError, match=re.escape(f"energy {eps:g} is too large")):
        classify_traversal(_model(2.0), eps)


def test_event_budget_exhausted(monkeypatch):
    # at hbar = 0 a particle trapped between two steps bounces without end,
    # one event per wall, long before the time budget runs out
    well = PiecewiseConstantPotential((-2.0, -1.0, 1.0, 2.0), (0.0, 2.0, 0.0, 2.0, 0.0))
    model = LowMomentumModel(PhysicalParams(m=1.0, beta=0.125, hbar=0.0), well)
    monkeypatch.setattr(dynamics, "MAX_EVENTS", 50)
    with pytest.raises(DidNotResolve, match="event budget exhausted"):
        integrate_hamiltonian(model, 0.0, 1.0, t_end=1e6)


def test_a_run_that_records_no_sample_is_refused():
    # a turning run that turns before its only requested time records no
    # sample; the Trajectory record refuses it with its own message
    model = _model(2.0)
    q0, p0 = launch_state(model, 0.5)
    turned = dynamics._propagate(model, q0, p0, turn=True)
    with pytest.raises(ValueError, match="trajectory needs at least one sample"):
        dynamics._propagate(model, q0, p0, t_end=100.0, t_eval=[turned.t[-1] + 1.0], turn=True)


def test_zero_speed_needs_an_explicit_time_budget():
    # the default budget counts domain transits at the launch speed
    model = _model(3.0)
    eps = hamiltonian(model, -4.0, 0.0)
    with pytest.raises(ValueError, match="explicit t_end"):
        integrate_hamiltonian(model, -4.0, 0.0)
    with pytest.raises(ValueError, match="explicit t_end"):
        integrate_newtonian(model, -4.0, 0.0, eps)


@pytest.mark.parametrize("form", ["hamiltonian", "newtonian"])
@pytest.mark.parametrize("t_eval", [
    [0.0, 2.0, 1.0], [0.0, 1.0, 1.0], [0.0, math.nan], [0.0, math.inf], [], [-2.0, -1.0], [3.0, 4.0],
], ids=["unsorted", "repeated", "nan", "inf", "empty", "before", "after"])
def test_bad_t_eval_refused_before_any_step(monkeypatch, form, t_eval):
    # such a t_eval used to run the whole trajectory and then fail the
    # record's own checks
    model = _model(3.0)
    q0, p0 = -4.0, 1.0
    monkeypatch.setattr(dynamics, "solve_ivp", lambda *args, **kwargs: pytest.fail("stepped"))
    with pytest.raises(ValueError, match="t_eval"):
        if form == "hamiltonian":
            integrate_hamiltonian(model, q0, p0, t_end=2.0, t_eval=t_eval)
        else:
            integrate_newtonian(model, q0, p0 * inverse_mass(model, q0), hamiltonian(model, q0, p0),
                                t_end=2.0, t_eval=t_eval)


def test_t_eval_outside_the_budget_is_dropped():
    traj = integrate_hamiltonian(_model(3.0), -4.0, 1.0, t_end=2.0, t_eval=[-1.0, 0.0, 1.5, 3.0])
    assert np.asarray(traj.t).tolist() == [0.0, 1.5]


# ------------------------------------------------ general potentials, adaptive


@pytest.mark.parametrize("eps", [0.2, 0.5, 0.9])
@pytest.mark.parametrize("hbar", [2.0, 3.0, 6.0])
def test_piecewise_twin_steps_like_the_square(hbar, eps):
    # the piecewise-constant twin of the square barrier must pass the same
    # drift gate in both forms and reach the square's outcome
    params = PhysicalParams(m=1.0, beta=0.125, hbar=hbar)
    twin = LowMomentumModel(params, TWIN)
    expected = classify_traversal(LowMomentumModel(params, BARRIER), eps)
    q0, p0 = launch_state(twin, eps)
    ham = integrate_hamiltonian(twin, q0, p0)
    newt = integrate_newtonian(twin, q0, p0 * inverse_mass(twin, q0), eps)
    for traj in (ham, newt):
        assert traj.max_energy_drift < 1e-9
        assert traj.outcome == expected


@pytest.mark.parametrize("form", ["hamiltonian", "newtonian"])
def test_tabulated_tent_adaptive_trajectories(form):
    model = LowMomentumModel(PhysicalParams(m=1.0, beta=0.125, hbar=3.0), TENT)
    thr = tunneling_threshold(model)
    for eps in (0.7 * thr, 1.2 * thr):
        q0, p0 = launch_state(model, eps)
        if form == "hamiltonian":
            traj = integrate_hamiltonian(model, q0, p0)
        else:
            traj = integrate_newtonian(model, q0, p0 * inverse_mass(model, q0), eps)
        assert traj.max_energy_drift < 1e-9
        assert traj.outcome == (SURPASSED if eps > thr else REFLECTED)


def test_a_bare_shape_is_a_potential():
    # a ramp up to 0.8 that steps to a plateau at 1, then drops: any Shape
    # is a potential, no wrapper needed
    shape = Shape(0.0, (-1.0, 0.0, 0.5), (0.0, 1.0), (0.8, 1.0))
    model = LowMomentumModel(PhysicalParams(m=1.0, beta=0.125, hbar=0.5), shape)
    for q in (-1.2, -0.4, 0.0, 0.3, 0.9):
        assert effective_potential(model.params, shape, q, 0.0) == smoothed_potential(model, q)
    thr = tunneling_threshold(model)
    assert 0.8 < thr < 1.0
    assert classify_traversal(model, 0.5 * thr) == REFLECTED
    assert classify_traversal(model, 1.5 * thr) == SURPASSED


# ------------------------------------------------------- thin walls, zones


def test_thin_wall_conservation_and_classification():
    model = _model(1e-6)
    thr = tunneling_threshold(model)
    assert abs(thr - 1.0) < 1e-9  # nearly classical barrier
    for eps in (0.25, 0.99, 1.01, 1.5):
        q0, p0 = launch_state(model, eps)
        traj = integrate_hamiltonian(model, q0, p0)
        assert traj.max_energy_drift < 1e-9
        expected = SURPASSED if eps > thr else REFLECTED
        assert traj.outcome == expected


def test_thin_wall_matches_exact_limit():
    exact_model = _model(0.0)
    thin_model = _model(1e-6)
    for eps in (0.3, 1.4):
        q0, p0 = launch_state(thin_model, eps)
        thin = integrate_hamiltonian(thin_model, q0, p0)
        exact = integrate_hamiltonian(exact_model, q0, p0, t_end=float(thin.t[-1]))
        t_hi = min(float(thin.t[-1]), float(exact.t[-1]))
        grid = np.linspace(0.0, t_hi, 500)
        dq = np.abs(np.interp(grid, thin.t, thin.q) - np.interp(grid, exact.t, exact.q))
        assert dq.max() < 1e-4
        assert abs(abs(thin.p[-1]) - abs(exact.p[-1])) < 1e-8


def test_thin_wall_newtonian_form():
    model = _model(1e-6)
    eps = 1.3
    q0, p0 = launch_state(model, eps)
    v0 = p0 * inverse_mass(model, q0)
    traj = integrate_newtonian(model, q0, v0, eps)
    assert traj.outcome == SURPASSED
    assert traj.max_energy_drift < 1e-9


def test_thin_wall_multi_step_barrier():
    # walls of a 3-step barrier, each crossed or reflected in wall-local
    # coordinates, against the exact step rule at hbar = 0
    pot = PiecewiseConstantPotential((-0.6, 0.0, 0.55), (0.0, 0.5, 0.9, 0.0))
    thin = LowMomentumModel(PhysicalParams(1.0, 0.125, 1e-6), pot)
    exact = LowMomentumModel(PhysicalParams(1.0, 0.125, 0.0), pot)
    for eps in (0.3, 0.7, 1.2):
        q0, p0 = launch_state(thin, eps)
        traj = integrate_hamiltonian(thin, q0, p0)
        assert traj.max_energy_drift < 1e-9
        assert traj.outcome == integrate_hamiltonian(exact, q0, p0).outcome


def test_thin_wall_resampling_matches_exact_limit():
    # a window that crosses both walls: each RK segment takes its own slice
    # of the grid and the flights between them are sampled exactly
    thin_model, exact_model = _model(1e-6), _model(0.0)
    q0, p0 = launch_state(thin_model, 1.5)
    t_hi = 0.9 * float(integrate_hamiltonian(thin_model, q0, p0).t[-1])
    grid = np.linspace(0.0, t_hi, 301)
    thin = integrate_hamiltonian(thin_model, q0, p0, t_end=t_hi, t_eval=grid)
    exact = integrate_hamiltonian(exact_model, q0, p0, t_end=t_hi, t_eval=grid)
    assert thin.outcome is None
    assert np.array_equal(thin.t, grid) and np.array_equal(exact.t, grid)
    assert np.max(np.abs(np.asarray(thin.q) - np.asarray(exact.q))) < 1e-4
    assert np.max(np.abs(np.asarray(thin.p) - np.asarray(exact.p))) < 1e-4
    assert thin.max_energy_drift < 1e-9


def test_unresolvable_smoothing_width_rejected():
    # one ramp thousands of smoothing widths long is a single force zone: its
    # max step of 2 sigma over the speed would need millions of steps
    tab = TabulatedPotential((-2000.0, 0.0, 2000.0), (0.0, 1.0, 0.0))
    model = LowMomentumModel(PhysicalParams(1.0, 0.125, 2.828), tab)
    with pytest.raises(DomainError):
        classify_traversal(model, 1.5)


def test_wide_flat_support_steps_only_its_force_zones():
    # the force of a narrow tent on a wide flat support lives in [-1, 1]:
    # the flat ends are crossed in exact flight, not refused
    tab = TabulatedPotential(
        (-2000.0, -1.0, 0.0, 1.0, 2000.0), (0.0, 0.0, 1.0, 0.0, 0.0)
    )
    model = LowMomentumModel(PhysicalParams(1.0, 0.125, 2.828), tab)
    assert classify_traversal(model, 1.5) == SURPASSED
    assert classify_traversal(model, 0.3) == REFLECTED


def test_flat_shoulders_at_the_level_change_nothing():
    # samples at the asymptotic level far out only widen the grid: the scan,
    # the threshold and the force zones are those of the bare tent
    params = PhysicalParams(1.0, 0.125, 2.828)
    padded = TabulatedPotential((-2000.0, 0.3, 1.3, 2.3, 2000.0), (0.0, 0.0, 1.0, 0.0, 0.0))
    tent = TabulatedPotential((0.3, 1.3, 2.3), (0.0, 1.0, 0.0))
    a, b = LowMomentumModel(params, padded), LowMomentumModel(params, tent)
    assert abs(tunneling_threshold(a) - tunneling_threshold(b)) <= 1e-12
    assert abs(tunneling_threshold(b) - 0.6096) < 1e-4
    for q in np.linspace(-2500.0, 2500.0, 2001).tolist() + [-2000.0, 0.3, 0.8, 1.3, 2.3, 2000.0]:
        assert eval_classical(padded, q) == eval_classical(tent, q)
    assert len(dynamics._zones(a)) == len(dynamics._zones(b)) == 1


@pytest.mark.parametrize("pot, twin", [
    (TabulatedPotential((-10.0, -9.0, 0.0, 9.0, 10.0), (0.0, 1.0, 1.0, 1.0, 0.0)),
     TabulatedPotential((-10.0, -9.0, 9.0, 10.0), (0.0, 1.0, 1.0, 0.0))),
    (PiecewiseConstantPotential((-10.0, 0.0, 10.0), (0.0, 1.0, 1.0, 0.0)),
     PiecewiseConstantPotential((-10.0, 10.0), (0.0, 1.0, 0.0))),
], ids=["tabulated", "piecewise"])
def test_plateau_samples_are_flown_not_stepped(pot, twin):
    # a plateau sampled at points more than 40 sigma apart: the interior
    # sample neither jumps nor bends, so it gets no force zone and the run
    # is that of the plateau without it
    params = PhysicalParams(1.0, 0.125, 1.0)
    a, b = LowMomentumModel(params, pot), LowMomentumModel(params, twin)
    assert 40.0 * a.smoothing_sigma < 9.0
    assert len(dynamics._zones(a)) == len(dynamics._zones(b)) == 2
    for eps in (0.8, 1.5, 3.0):
        q0, p0 = launch_state(b, eps)
        ours, ref = integrate_hamiltonian(a, q0, p0), integrate_hamiltonian(b, q0, p0)
        assert ours.outcome == ref.outcome
        assert abs(ours.t[-1] - ref.t[-1]) <= 1e-9 * ref.t[-1]
        assert np.asarray(ours.t).size == np.asarray(ref.t).size


@pytest.mark.parametrize("pot, hbar, count", [
    (BARRIER, 0.0, 2), (BARRIER, 0.05, 2), (BARRIER, 2.0, 1),
    (STEP4, 0.0, 4), (STEP4, 0.05, 4),
    (STEP4, 2.0, 1), (TENT, 0.05, 1), (TENT, 2.0, 1),
])
def test_force_zones_cover_the_breakpoints(pot, hbar, count):
    # walls far apart on the sigma scale get zones of their own, close walls
    # and ramps share one; every zone is finite and knows the level above it
    model = LowMomentumModel(PhysicalParams(1.0, 0.125, hbar), pot)
    zones = dynamics._zones(model)
    assert len(zones) == count
    assert all(z1.hi < z2.lo for z1, z2 in zip(zones[:-1], zones[1:]))
    for b in pot.x:
        assert sum(z.lo <= b <= z.hi for z in zones) == 1
    for z in zones:
        assert math.isfinite(z.lo) and math.isfinite(z.hi)
        assert z.level == eval_classical(pot, z.hi + 1e-9)
        if hbar == 0.0:
            assert z.profile is None and z.lo == z.hi == z.origin


def test_zones_are_built_once_per_model(monkeypatch):
    # an equal model reuses the zone list; a patched zone constant builds a
    # new one
    zones = dynamics._zones(_model(0.05))
    assert dynamics._zones(_model(0.05)) is zones
    monkeypatch.setattr(dynamics, "FORCE_SIGMAS", 20.0)
    wide = dynamics._zones(_model(0.05))
    assert wide is not zones and wide[0].lo < zones[0].lo


# perfbench's PIECEWISE3 and its seed-2 tent (offset 0.0498, height 0.635)
PIECEWISE3 = PiecewiseConstantPotential((-0.6, 0.0, 0.55), (0.0, 0.5, 0.9, 0.0))
_SEEDED_GRID = _TENT_GRID + 0.04983469226787862
_SEEDED_VALUES = 0.6354519902488636 * (1.0 - np.abs(_SEEDED_GRID - 0.04983469226787862))
_SEEDED_VALUES[0] = _SEEDED_VALUES[-1] = 0.0
SEEDED_TENT = TabulatedPotential(tuple(_SEEDED_GRID.tolist()), tuple(_SEEDED_VALUES.tolist()))


@pytest.mark.parametrize("beta", [0.125, 4.0])
@pytest.mark.parametrize("hbar", [0.05, 0.5, 2.0, 6.0])
@pytest.mark.parametrize("pot", [BARRIER, PIECEWISE3, SEEDED_TENT, BUMP],
                         ids=["square", "piecewise3", "seeded-tent", "bump"])
def test_zone_edges_are_where_the_force_leaves_double_precision(pot, hbar, beta):
    # the reason for the zones' reach: on each edge V is the level of the gap
    # beyond it to an ulp and 1/M is 1/m exactly, so the exact flight there
    # continues the zone's motion and energy; at 6 sqrt(2) sigma, where
    # |u| = 6, 1/M is still up to 5 ulp off at beta 4
    model = LowMomentumModel(PhysicalParams(1.0, beta, hbar), pot)
    zones = dynamics._zones(model)
    levels = (pot.level, *(z.level for z in zones))
    for k, z in enumerate(zones):
        for edge, level in ((z.lo, levels[k]), (z.hi, levels[k + 1])):
            for v, _, minv, _ in (model.profile.at(edge), z.profile.at(edge - z.origin)):
                assert abs(v - level) <= math.ulp(max(1.0, abs(level))), (edge, v, level)
                assert minv == 1.0 / model.params.m, (edge, minv)


@pytest.mark.parametrize("pot", [BARRIER, STEP4],
                         ids=["square", "step4"])
def test_outcome_continuous_where_wall_zones_merge(pot):
    # just below spacing / (2 FORCE_SIGMAS) the two closest walls have zones
    # of their own, just above one merged zone: the motion must not notice
    # the switch
    x = pot.x
    spacing = min(b - a for a, b in zip(x[:-1], x[1:]))
    to_hbar = 1.0 / math.sqrt(0.125 / 4.0)  # sigma = sqrt(beta/(4 m)) hbar
    sides = []
    for scale in (1.0 - 1e-6, 1.0 + 1e-6):
        hbar = spacing / (2.0 * dynamics.FORCE_SIGMAS) * scale * to_hbar
        model = LowMomentumModel(PhysicalParams(1.0, 0.125, hbar), pot)
        runs = []
        for eps in (0.5, 0.9, 1.2):
            q0, p0 = launch_state(model, eps)
            for traj in (integrate_hamiltonian(model, q0, p0),
                         integrate_newtonian(model, q0, p0 * inverse_mass(model, q0), eps)):
                assert traj.max_energy_drift < 1e-9
                runs.append((traj.outcome, float(traj.t[-1])))
        sides.append((len(dynamics._zones(model)), runs))
    (n_apart, apart), (n_merged, merged) = sides
    assert n_merged == n_apart - 1
    for (out_a, t_a), (out_m, t_m) in zip(apart, merged):
        assert out_a == out_m
        assert abs(t_a - t_m) <= 1e-6 * t_a


@pytest.mark.parametrize("hbar", [0.0, 1e-6, 3.0])  # jump zones, lone walls, merged walls
def test_resampled_run_ends_at_its_exit_point(hbar):
    # the requested times reached, then the exit point: the last sample is
    # the same state the unsampled run ends on
    model = _model(hbar)
    q0, p0 = launch_state(model, 1.5)
    full = integrate_hamiltonian(model, q0, p0)
    assert full.outcome == SURPASSED
    grid = np.linspace(0.0, 2.0 * float(full.t[-1]), 40)
    traj = integrate_hamiltonian(model, q0, p0, t_eval=grid)
    assert traj.outcome == SURPASSED
    assert np.array_equal(traj.t[:-1], grid[grid < full.t[-1]])
    assert abs(traj.t[-1] - full.t[-1]) < 1e-9
    assert abs(traj.q[-1] - full.q[-1]) < 1e-9
    assert abs(traj.p[-1] - full.p[-1]) < 1e-9


@pytest.mark.parametrize("hbar", [2.0, 4.0, 6.0])
@pytest.mark.parametrize("pot", [BARRIER, TWIN], ids=["square", "twin"])
def test_exit_time_is_the_transit_quadrature(pot, hbar):
    # energy conservation gives dq/dt = sqrt(2 (eps - V)/M), so a surpassed
    # run's exit time is the integral of dt/dq from the launch point to the
    # domain edge: scipy's quad of the segment-form profiles, which share no
    # code with the stepper
    model = LowMomentumModel(PhysicalParams(m=1.0, beta=0.125, hbar=hbar), pot)
    profile = SegmentProfile(model.params, pot)
    _, hi_edge = evaluation_domain(model)
    thr = tunneling_threshold(model)
    for eps in (1.05 * thr, 1.5 * thr):
        q0, p0 = launch_state(model, eps)
        traj = integrate_hamiltonian(model, q0, p0)
        assert traj.outcome == SURPASSED and abs(traj.q[-1] - hi_edge) <= 1e-15 * hi_edge

        def slowness(q):
            v, _, minv, _ = profile.at(q)
            return 1.0 / math.sqrt(2.0 * (eps - v) * minv)

        transit, _ = quad(slowness, q0, traj.q[-1], points=pot.x, epsabs=0.0, epsrel=1e-13,
                          limit=200)
        assert abs(traj.t[-1] - transit) <= 1e-9 * transit


# ----------------------------------------------- scipy DOP853 as the oracle
# The tests named *_rk45 compare against DOP853 too; their names are kept so
# that their test ids stay stable.


def test_tableau_is_scipys_dop853():
    # The stepper's one table against scipy's dop853_coefficients, entry by
    # entry with ==: each stated entry is scipy's float, and every entry the
    # table leaves out is 0 there. A's row 12 is B.
    from scipy.integrate._ivp import dop853_coefficients as ref

    def filled(rows, shape):
        out = np.zeros(shape)
        for i, row in enumerate(rows):
            stages = [j for j, _ in row]
            assert stages == sorted(set(stages)), (i, stages)
            for j, a in row:
                assert a != 0.0, (i, j)
                out[i, j] = a
        return out

    assert len(dynamics._A) == ref.N_STAGES_EXTENDED
    np.testing.assert_array_equal(filled(dynamics._A, ref.A.shape), ref.A)
    np.testing.assert_array_equal(filled(dynamics._A[12:13], (1, ref.N_STAGES))[0], ref.B)
    np.testing.assert_array_equal(filled((dynamics._E5,), (1, ref.E5.size))[0], ref.E5)
    np.testing.assert_array_equal(filled((dynamics._E3,), (1, ref.E3.size))[0], ref.E3)
    np.testing.assert_array_equal(filled(dynamics._D, ref.D.shape), ref.D)


def _first_zone_run(hbar, eps, t_eval=None, t_end=50.0, max_step=None):
    """The in-house stepper and scipy's DOP853 across the model's first force
    zone, entered with the launch momentum, over (0, t_end): the merged zone
    of both walls at hbar = 2, the left wall neighbourhood in its local
    coordinates at hbar = 0.05. max_step defaults to the event loop's
    2 sigma over the speed at entry."""
    model = _model(hbar)
    zone = dynamics._zones(model)[0]
    lo_edge, hi_edge = evaluation_domain(model)
    low, high = max(zone.lo, lo_edge) - zone.origin, min(zone.hi, hi_edge) - zone.origin
    q0, p0 = launch_state(model, eps)
    xi0 = max(q0, zone.lo) - zone.origin
    if max_step is None:
        max_step = 2.0 * model.smoothing_sigma / (p0 * zone.profile.at(xi0)[2])
    rhs = dynamics._rhs(zone.profile, None)
    ours = solve_ivp(rhs, (0.0, t_end), (xi0, p0), t_eval=t_eval, max_step=max_step,
                     low=low, high=high)

    def leave_low(_, y):
        return y[0] - low

    def leave_high(_, y):
        return y[0] - high

    leave_low.terminal = leave_high.terminal = True
    leave_low.direction, leave_high.direction = -1.0, 1.0
    ref = scipy_solve_ivp(lambda _, y: rhs(*y.tolist()), (0.0, t_end), [xi0, p0], method="DOP853",
                          rtol=REL_TOL, atol=ABS_TOL, max_step=max_step, t_eval=t_eval,
                          events=[leave_low, leave_high])
    return ours, ref


def _sequential_dot(K, w):
    """K.T @ w summed term by term in stage order, as the stepper does."""
    out = np.zeros(K.shape[1])
    for k, wk in zip(K, w):
        if wk != 0.0:
            out = out + k * wk
    return out


def _sequential_rk_step(fun, t, y, f, h, A, B, C, K):
    K[0] = f
    for s, (a, c) in enumerate(zip(A[1:], C[1:]), start=1):
        K[s] = fun(t + c * h, y + _sequential_dot(K[:s], a[:s]) * h)
    y_new = y + h * _sequential_dot(K[:-1], B)
    f_new = fun(t + h, y_new)
    K[-1] = f_new
    return y_new, f_new


def _sequential_error_norm(self, K, h, scale):
    """DOP853's error norm with its sums taken term by term."""
    e5 = _sequential_dot(K, self.E5) / scale
    e3 = _sequential_dot(K, self.E3) / scale
    n5 = e5[0] * e5[0] + e5[1] * e5[1]
    n3 = e3[0] * e3[0] + e3[1] * e3[1]
    if n5 == 0 and n3 == 0:
        return 0.0
    return abs(h) * n5 / math.sqrt((n5 + 0.01 * n3) * 2)


def _scipy_sums_in_stage_order(monkeypatch):
    """Make scipy's DOP853 take its stage sums and error norm term by term."""
    from scipy.integrate._ivp import rk

    monkeypatch.setattr(rk, "rk_step", _sequential_rk_step)
    monkeypatch.setattr(rk.DOP853, "_estimate_error_norm", _sequential_error_norm)


@pytest.mark.parametrize("sequential", [False, True], ids=["blas", "sequential"])
@pytest.mark.parametrize("hbar", [2.0, 0.05])  # merged walls, lone wall
@pytest.mark.parametrize("eps", [0.5, 1.2])    # reflected, surpassed
def test_stepper_takes_the_steps_of_scipy_rk45(monkeypatch, eps, hbar, sequential):
    # Same rules give the same steps when the sums are formed alike. scipy
    # forms its stage sums and error estimates with BLAS (fused, blocked);
    # with those sums taken term by term, as the stepper takes them, the step
    # times agree to roundoff, and with BLAS sums to 1e-6 at hbar = 0.05. At
    # hbar = 2 the BLAS sums move more: where the merged zone's force
    # underflows, the fifth-order error estimate is the rounding of a sum
    # whose exact value is 0 (9.7e-17 under BLAS and -1.7e-16 term by term,
    # of terms summing to 6.5), and the step factor error^(-1/8) turns that
    # into a second step 10 % apart. There the BLAS run is held to the same
    # step count and to nfev and step times within 15 %, measured 0 steps,
    # 0 % (821 calls each, at both energies) and 0.02 % and 10.5 %.
    if sequential:
        _scipy_sums_in_stage_order(monkeypatch)
    ours, ref = _first_zone_run(hbar, eps)
    assert ref.status == ours.status == 1
    # two calls choose the first step, each attempt makes twelve and the
    # exit's dense output three, so some step was rejected and the factor
    # rule after a rejection ran
    assert ours.nfev > 12 * (len(ours.t) - 1) + 2 + 3
    assert len(ours.t) == len(ref.t)
    if sequential or hbar == 0.05:
        assert ours.nfev == ref.nfev
        np.testing.assert_allclose(ours.t, ref.t, rtol=1e-12 if sequential else 1e-6, atol=0.0)
    else:
        assert abs(ours.nfev - ref.nfev) <= 0.15 * ref.nfev
        np.testing.assert_allclose(ours.t, ref.t, rtol=0.15, atol=0.0)
    fired = 1 if ref.t_events[1].size else -1
    side, t_exit, q_exit, s_exit = ours.exit
    assert side == fired
    assert abs(t_exit - ref.t_events[max(fired, 0)][0]) <= 1e-12 * t_exit
    np.testing.assert_allclose([q_exit, s_exit], ref.y_events[max(fired, 0)][0],
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("hbar", [2.0, 0.05])
def test_stepper_stops_at_the_end_of_t_span_like_scipy_rk45(monkeypatch, hbar):
    # a t_span that ends inside the zone: the last step is clamped to its end
    _scipy_sums_in_stage_order(monkeypatch)
    full, _ = _first_zone_run(hbar, 0.5)
    t_end = 0.5 * full.exit[1]
    ours, ref = _first_zone_run(hbar, 0.5, t_end=t_end)
    assert ref.status == ours.status == 0 and ours.exit is None
    assert ours.nfev == ref.nfev
    assert ours.t[-1] == ref.t[-1] == t_end
    np.testing.assert_allclose(ours.t, ref.t, rtol=1e-12, atol=0.0)


def test_stepper_grows_its_steps_like_scipy_rk45(monkeypatch):
    # without a max step the step grows by the factor rule alone, so its
    # cap of 10 per step sets the steps taken
    _scipy_sums_in_stage_order(monkeypatch)
    ours, ref = _first_zone_run(0.05, 0.5, max_step=math.inf)
    assert ref.status == ours.status == 1
    assert ours.nfev == ref.nfev
    np.testing.assert_allclose(ours.t, ref.t, rtol=1e-12, atol=0.0)


def test_stepper_grows_tenfold_on_a_zero_error_estimate():
    # a zero right-hand side makes every error estimate exactly 0, so each
    # step is ten times the one before, from the first-step rule's 1e-6
    ref = scipy_solve_ivp(lambda _, y: [0.0, 0.0], (0.0, 1.0), [1.0, 1.0], method="DOP853",
                          rtol=REL_TOL, atol=ABS_TOL)
    ours = solve_ivp(lambda q, s: (0.0, 0.0), (0.0, 1.0), (1.0, 1.0), t_eval=None,
                     max_step=math.inf, low=-math.inf, high=math.inf)
    assert ref.status == ours.status == 0
    assert ours.nfev == ref.nfev
    np.testing.assert_allclose(ours.t, ref.t, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(ours.t[1:4], [1e-6, 1.1e-5, 1.11e-4], rtol=1e-12, atol=0.0)


def test_stepper_raises_a_tiny_step_to_the_minimum_like_scipy_dop853(monkeypatch):
    # q'' = -w^2 q at w = 1e6 from (1, 0), late in time: the first-step rule
    # proposes about 1e-12, below 10 ulp of t = 1e6 (1.16e-9), and the step
    # is raised to that minimum instead of failing; the 45 steps and 542
    # calls are scipy's, and the times, quantized at 1 ulp of 1e6, are equal
    _scipy_sums_in_stage_order(monkeypatch)
    omega2, t_span = 1e12, (1e6, 1e6 + 1e-5)
    ref = scipy_solve_ivp(lambda _, y: [y[1], -omega2 * y[0]], t_span, [1.0, 0.0], method="DOP853",
                          rtol=REL_TOL, atol=ABS_TOL)
    ours = solve_ivp(lambda q, s: (s, -omega2 * q), t_span, (1.0, 0.0), t_eval=None,
                     max_step=math.inf, low=-math.inf, high=math.inf)
    assert ref.status == ours.status == 0
    assert ours.t[1] - ours.t[0] == 10.0 * (math.nextafter(1e6, math.inf) - 1e6)
    assert (len(ours.t) - 1, ours.nfev) == (len(ref.t) - 1, ref.nfev) == (45, 542)
    np.testing.assert_array_equal(ours.t, ref.t)
    np.testing.assert_allclose([ours.q, ours.s], ref.y, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("hbar", [2.0, 0.05])
def test_stepper_samples_like_scipy_rk45(hbar):
    full, _ = _first_zone_run(hbar, 0.5)
    grid = np.linspace(0.0, 1.2 * full.exit[1], 57)  # the last samples lie past the exit
    ours, ref = _first_zone_run(hbar, 0.5, t_eval=grid)
    assert np.array_equal(ours.t, ref.t)
    assert 0 < len(ours.t) < grid.size
    np.testing.assert_allclose(ours.q, ref.y[0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(ours.s, ref.y[1], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("s0", [1.0, -1.0])
def test_turn_ends_the_segment_at_the_first_turned_step(s0):
    # q'' = -q from (0, s0) turns at t = pi/2; the turning run is the full
    # run's first steps, and it locates no exit
    def oscillator(q, s):
        return s, -q

    common = dict(t_eval=None, max_step=0.1, low=-2.0, high=2.0)
    full = solve_ivp(oscillator, (0.0, 10.0), (0.0, s0), **common)
    turned = solve_ivp(oscillator, (0.0, 10.0), (0.0, s0), turn=True, **common)
    assert full.status == 0 and turned.status == 2 and turned.exit is None
    n = len(turned.t)
    assert (turned.t, turned.q, turned.s) == (full.t[:n], full.q[:n], full.s[:n])
    assert turned.s[-2] * s0 > 0.0 >= turned.s[-1] * s0
    assert math.pi / 2 <= turned.t[-1] < math.pi / 2 + 0.1


def test_nan_right_hand_side_fails_the_step():
    # a NaN step size must end the run as a step failure, not spin forever;
    # run in a child process so a hang fails the test instead of the suite
    code = (
        "import math\n"
        "from effpot.dynamics import solve_ivp\n"
        "seg = solve_ivp(lambda q, s: (math.nan, math.nan), (0.0, 1.0), (0.0, 1.0),\n"
        "                t_eval=None, max_step=math.inf, low=-1.0, high=1.0)\n"
        "print(seg.status)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "-1"


def test_overflowing_first_step_fails_the_step():
    # a right-hand side too large to scale makes the first step zero: the
    # run ends as a step failure, not a division by zero
    seg = solve_ivp(lambda q, s: (1e308, 1e308), (0.0, 1.0), (0.0, 1.0),
                    t_eval=None, max_step=math.inf, low=-1.0, high=1.0)
    assert seg.status == -1


def test_finite_time_blowup_raises_step_failure(monkeypatch):
    # q' = q^2 from q = 1 reaches infinity at t = 1: the step size falls
    # below 10 ulp of t, where scipy's DOP853 stops with status -1 as well
    def blowup(q, s):
        return q * q, 0.0

    ref = scipy_solve_ivp(lambda _, y: [y[0] ** 2, 0.0], (0.0, 2.0), [1.0, 1.0], method="DOP853",
                          rtol=REL_TOL, atol=ABS_TOL)
    assert ref.status == -1
    seg = solve_ivp(blowup, (0.0, 2.0), (1.0, 1.0), t_eval=None, max_step=math.inf,
                    low=-math.inf, high=math.inf)
    assert seg.status == -1 and seg.exit is None
    # the event loop reports it: an unbounded zone keeps the run inside it,
    # so it is the step floor that stops the run, not a zone exit
    monkeypatch.setattr(dynamics, "_rhs", lambda profile, eps: blowup)
    monkeypatch.setattr(dynamics, "evaluation_domain", lambda model: (-math.inf, math.inf))
    monkeypatch.setattr(dynamics, "FORCE_SIGMAS", math.inf)
    with pytest.raises(StepFailure, match="step size fell below 10 ulp"):
        dynamics._propagate(_model(2.0), 1.0, 1.0, t_end=2.0)


# ------------------------------------------------------------------- export


def test_trajectory_csv():
    model = _model(3.0)
    q0, p0 = launch_state(model, 0.3)
    traj = integrate_hamiltonian(model, q0, p0)
    lines = trajectory_csv(traj, metadata={"run": "demo"}).splitlines()
    assert lines[0] == "# run=demo"
    assert lines[1] == "# outcome=reflected"
    assert lines[2].startswith("# energy0=")
    assert lines[3] == "t,q,p,energy_drift"
    assert len(lines) == 4 + len(traj.t)
    row = lines[4].split(",")
    assert len(row) == 4
    assert float(row[0]) == traj.t[0]


def test_trajectory_csv_prints_float_metadata_at_12_digits():
    traj = integrate_hamiltonian(_model(0.0), -5.0, 1.0, t_end=2.0)
    text = trajectory_csv(traj, metadata={"eps": 1 / 3, "form": "demo"})
    assert text.splitlines()[:3] == ["# eps=0.333333333333", "# form=demo", "# energy0=0.5"]
    assert trajectory_csv(traj).startswith("# energy0=0.5\nt,q,p,energy_drift\n")
