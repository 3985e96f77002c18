"""The benchmark's workloads, each run in one process on one thread of work.

Usage (normally started by run.py, which sets PYTHONPATH and thread counts):

    python perfbench/workloads.py --workload transport --seed 1 --passes 10
    python perfbench/workloads.py --workload transport --seed 1 --setup-only
    python perfbench/workloads.py --workload cli_cold --seed 1 --passes 1 --trace 1

A workload is a number of passes over one set of seeded inputs. Every public
call the benchmark times is an op; an op fails if it raises, if its check
fails, or if an op it depends on failed. A failure that a registered known
defect explains is still counted as failed, but leaves ``correct`` true; any
other failure makes ``correct`` false.

The process prints ``{"ready": <monotonic time>}`` once set-up is done, and
one JSON record on its last line when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import monotonic, perf_counter

import numpy as np
import scipy

import effpot
from effpot import dynamics, kernel, lowmomentum, physical, potential, transmission
from effpot.errors import NonConvergence, StepFailure

import hostspeed
import inputs
from tracing import HARNESS, LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

M, BETA = 1.0, 0.125
DRIFT_GATE = 1e-9
# an op reuses the previous op's closing probe when no more time has passed
# since; otherwise it probes again before it starts
PROBE_REUSE_S = 0.25

KNOWN_DEFECTS = {
    "twin_drift": "adaptive trajectories on the piecewise twin of the square barrier breach "
                  "the 1e-9 drift gate (forces are finite differences of convolutions)",
    "tabulated_veff_gap": "V_eff(q, 0) differs from V(q) for tabulated input (trapezoid form "
                          "factor is not the transform of the linear interpolant)",
    "build_nonconvergence": "LowMomentumModel raises NonConvergence for smooth tabulated bumps "
                            "and for most 4-step barriers (quadrature tolerance and subdivision "
                            "limits of the convolution profiles)",
}


# ------------------------------------------------------------------ op record


@dataclass
class Op:
    kind: str
    ok: bool = True
    seconds: float = None   # None when the op never ran (a dependency failed)
    scale: float = None     # measured -> reference seconds (hostspeed.scale)
    value: object = None
    reason: str = ""
    known: str = ""         # KNOWN_DEFECTS key that explains the failure
    checked: bool = False

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


class Recorder:
    """Runs ops, times them, applies their checks and keeps the records.

    A probed recorder brackets every op with host-speed probes and sets its
    scale; otherwise the workload sets the scales once the run is done.
    """

    def __init__(self, tracer: Tracer = None, probed: bool = True):
        self.ops = []
        self.checks = 0
        self.tracer = tracer
        self.probed = probed
        self._probe, self._probed_at = None, -math.inf  # the probe after the previous op

    def run(self, kind, fn, deps=(), check=None, known=None) -> Op:
        """Time fn(); check(value) returns None or a problem description.

        known = (defect key, exception type) marks the failure a known defect
        raises; exception type None means a failed check.
        """
        op = Op(kind)
        self.ops.append(op)
        failed_dep = next((d for d in deps if not d.ok), None)
        if failed_dep is not None:
            op.ok, op.known = False, failed_dep.known
            op.reason = f"depends on failed {failed_dep.kind}"
            return op
        tracer = self.tracer
        raised = None
        if tracer is not None:
            tracer.op = len(self.ops) - 1
            frame = tracer.enter(f"{HARNESS}.{kind}", HARNESS)
        if self.probed:
            fresh = perf_counter() - self._probed_at < PROBE_REUSE_S
            before = self._probe if fresh else hostspeed.probe()
        start = perf_counter()
        try:
            op.value = fn()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            raised = exc
        op.seconds = perf_counter() - start
        if self.probed:
            self._probe = after = hostspeed.probe()
            self._probed_at = perf_counter()
            op.scale = hostspeed.scale(before, after)
        if tracer is not None:
            tracer.leave(frame, raised is not None)
        if raised is not None:
            op.ok, op.reason = False, f"{type(raised).__name__}: {raised}"
        elif check is not None:
            self.checks += 1
            op.checked = True
            try:
                problem = check(op.value)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                op.ok, op.reason = False, problem
        if not op.ok and known is not None:
            key, exc_type = known
            if (raised is None and exc_type is None) or (
                raised is not None and exc_type is not None and isinstance(raised, exc_type)
            ):
                op.known = key
        return op


def _close(a: float, b: float, tol: float, what: str):
    if not (math.isfinite(a) and abs(a - b) <= tol):
        return f"{what}: {a!r} vs {b!r} (tolerance {tol:g})"
    return None


# ------------------------------------------------------------------ transport

REGIMES = {0.0: "exact", 0.05: "thin"}  # every other hbar steps adaptively


class Transport:
    """Square-barrier trajectory ensembles with the quantum routes per hbar."""

    def __init__(self, seed: int):
        self.barrier = potential.SquareBarrier(inputs.V0, inputs.HALF_WIDTH)
        self.models = {
            h: lowmomentum.LowMomentumModel(physical.PhysicalParams(M, BETA, h), self.barrier)
            for h in inputs.TRANSPORT_HBARS
        }
        self.energies = inputs.transport_pass(seed)

    def run_pass(self, rec: Recorder) -> None:
        barrier = self.barrier
        for hbar, energies in self.energies.items():
            model = self.models[hbar]
            params = model.params
            regime = REGIMES.get(hbar, "adaptive")
            classified = []
            for i, eps in enumerate(energies):
                ham = rec.run(f"traj.{regime}", partial(dynamics.classify_traversal, model, eps),
                              check=_is_outcome)
                classified.append(ham)
                if i % inputs.NEWTONIAN_EVERY == 0:
                    rec.run("traj.newtonian", partial(_newtonian_outcome, model, eps),
                            deps=(ham,), check=partial(_same_outcome, ham))
            rec.run("coefficients", partial(transmission.effective_coefficients, model),
                    deps=classified, check=partial(_criterion_6, classified))
            if hbar == 0.0:
                continue  # the quantum routes need hbar > 0
            # the Q that quantum_t_mixture integrates over: 2 kappa l = 2 sqrt(1 - x^2) / Q
            q_mix = hbar / (math.sqrt(2.0 * M * barrier.v0) * barrier.l)
            integral = rec.run("mixture.integral", partial(transmission.quantum_t_mixture, q_mix),
                               check=_is_probability)
            rec.run("mixture.average", partial(transmission.mixture_average, barrier, params),
                    deps=(integral,),
                    check=lambda v, ref=integral: _close(v, ref.value, 1e-8, "mixture routes"))
            for E in energies[: inputs.TRANSFER_MATRIX_ENERGIES]:
                rec.run("transfer_matrix",
                        partial(transmission.transfer_matrix_transmission, barrier, params, E),
                        check=partial(_transfer_check, barrier, params, E))


def _is_outcome(outcome):
    if outcome not in (dynamics.SURPASSED, dynamics.REFLECTED):
        return f"outcome {outcome!r} is neither surpassed nor reflected"
    return None


def _is_probability(t: float):
    if not 0.0 <= t <= 1.0:
        return f"transmission {t!r} outside [0, 1]"
    return None


def _newtonian_outcome(model, eps: float):
    q0, p0 = dynamics.launch_state(model, eps)
    v0 = p0 * lowmomentum.inverse_mass(model, q0)
    return dynamics.integrate_newtonian(model, q0, v0, eps).outcome


def _same_outcome(ham: Op, outcome):
    if outcome != ham.value:
        return f"newtonian outcome {outcome} vs hamiltonian {ham.value}"
    return None


def _criterion_6(classified, pair):
    n = len(classified)
    frac = sum(op.value == dynamics.SURPASSED for op in classified) / n
    gate = 3.0 * math.sqrt(pair.t * (1.0 - pair.t) / n) + 1.0 / n
    if abs(frac - pair.t) > gate:
        return f"surpass fraction {frac:.4f} vs closed t {pair.t:.4f} (gate {gate:.4f})"
    return None


def _transfer_check(barrier, params, E: float, result):
    k = math.sqrt(2.0 * params.m * E) / params.hbar
    closed = transmission.quantum_t_single(barrier, params, k)
    return _close(result.t, closed, 1e-10, "transfer matrix vs closed form")


# ---------------------------------------------------------- general_potential

PROFILE_Q = np.linspace(-2.0, 2.0, inputs.PROFILE_POINTS)
GENERAL_HBAR = 3.0
VEFF_POINTS = 2 * inputs.VEFF_Q_POINTS  # each seeded q at p = 0 and at a seeded p
TWIN = potential.PiecewiseConstantPotential((-0.5, 0.5), (0.0, 1.0, 0.0))


class GeneralPotential:
    """Profiles, thresholds and V_eff for seeded piecewise and tabulated shapes."""

    def __init__(self, seed: int):
        self.params = physical.PhysicalParams(M, BETA, GENERAL_HBAR)
        square = potential.SquareBarrier(inputs.V0, inputs.HALF_WIDTH)
        self.square = {
            h: lowmomentum.LowMomentumModel(physical.PhysicalParams(M, BETA, h), square)
            for h in {GENERAL_HBAR, *inputs.TWIN_HBARS}
        }
        self.raw = raw = inputs.general_pass(seed)
        self.shapes = [(f"piecewise{len(bp)}", potential.PiecewiseConstantPotential(bp, vals))
                       for bp, vals in raw["piecewise"]]
        self.shapes.append(("tent", potential.TabulatedPotential(*raw["tent"])))
        self.shapes.append(("smooth", potential.TabulatedPotential(*raw["smooth"])))
        self.shapes.append(("twin", TWIN))

    def run_pass(self, rec: Recorder) -> None:
        twins = [(h, e) for h in inputs.TWIN_HBARS for e in inputs.TWIN_ENERGIES]
        n = len(self.shapes)
        # the twin trajectories set op_p50_ms and op_tail_ms; spread over the
        # pass, a burst of load on the host slows few of them
        for i, (family, pot) in enumerate(self.shapes):
            self._shape_ops(rec, family, pot)
            for hbar, twin_eps in twins[i * len(twins) // n:(i + 1) * len(twins) // n]:
                threshold = lowmomentum.tunneling_threshold(self.square[hbar])
                expected = dynamics.SURPASSED if twin_eps > threshold else dynamics.REFLECTED
                rec.run("traj.twin", partial(_twin_trajectory, hbar, twin_eps),
                        check=partial(_trajectory_check, expected),
                        known=("twin_drift", StepFailure))

    def _shape_ops(self, rec: Recorder, family: str, pot) -> None:
        params, raw = self.params, self.raw
        eps = raw["profile_eps"]
        points = [(q, p) for q in raw["veff_q"] for p in (0.0, raw["veff_p"])]
        build = rec.run(f"build.{family}", partial(lowmomentum.LowMomentumModel, params, pot),
                        check=_build_check, known=("build_nonconvergence", NonConvergence))
        profile = rec.run(f"profile.{family}", lambda: _profile(build.value, eps),
                          deps=(build,), check=partial(self._profile_check, family))
        threshold = rec.run(f"threshold.{family}",
                            lambda: lowmomentum.tunneling_threshold(build.value),
                            deps=(build, profile),
                            check=partial(self._threshold_check, family, pot, profile))
        rec.run(f"coefficients.{family}",
                lambda: transmission.effective_coefficients(build.value),
                deps=(build, threshold), check=partial(_coefficient_check, pot, threshold))
        rec.run(f"veff.{family}", partial(_veff_grid, params, pot, points), deps=(build,),
                check=partial(_veff_check, build, points),
                known=("tabulated_veff_gap", None) if family in ("tent", "smooth") else None)

    def _profile_check(self, family: str, table):
        if not np.all(np.isfinite(table)) or np.any(table[:, 1] <= 0):
            return "non-finite profile or non-positive mass"
        if family != "twin":
            return None
        square = self.square[GENERAL_HBAR]
        ref = _profile(square, 0.0)
        worst_v = float(np.max(np.abs(table[:, 0] - ref[:, 0])))
        worst_m = float(np.max(np.abs(1.0 / table[:, 1] - 1.0 / ref[:, 1])))
        return _close(max(worst_v, worst_m), 0.0, 1e-8, "twin V and 1/M vs square closed forms")

    def _threshold_check(self, family: str, pot, profile: Op, thr: float):
        if family == "twin":
            return _close(thr, lowmomentum.tunneling_threshold(self.square[GENERAL_HBAR]), 1e-8,
                          "twin threshold vs square closed form")
        grid_max = float(np.max(profile.value[:, 0]))
        # the 2001-point scan can miss a 21-point grid value by O(V'' h^2)
        if not (grid_max - 1e-4 <= thr <= potential.classical_max(pot) + 1e-12):
            return f"threshold {thr!r} outside [profile max {grid_max!r}, classical max]"
        return None


def _build_check(model):
    sigma = math.sqrt(BETA / (4.0 * M)) * GENERAL_HBAR
    return _close(model.smoothing_sigma, sigma, 1e-15, "smoothing width")


def _profile(model, eps: float) -> np.ndarray:
    """V, M and V_Q at every PROFILE_Q point, one row per point."""
    return np.array([
        (lowmomentum.smoothed_potential(model, q), lowmomentum.mass(model, q),
         lowmomentum.vq_potential(model, q, eps))
        for q in map(float, PROFILE_Q)
    ])


def _coefficient_check(pot, threshold: Op, pair):
    base, top = potential.asymptotic_level(pot), potential.classical_max(pot)
    expected = min(1.0, max(0.0, 1.0 - (threshold.value - base) / (top - base)))
    return _close(pair.t, expected, 1e-12, "coefficient vs threshold")


def _veff_grid(params, pot, points) -> list:
    return [kernel.effective_potential(params, pot, q, p) for q, p in points]


def _veff_check(build: Op, points, values):
    for (q, p), value in zip(points, values):
        if not math.isfinite(value):
            return f"V_eff({q:g}, {p:g}) is not finite"
        if p == 0.0 and (problem := _close(value, lowmomentum.smoothed_potential(build.value, q),
                                           1e-8, f"V_eff({q:g}, 0) vs V(q)")):
            return problem
    return None


def _twin_trajectory(hbar: float, eps: float):
    model = lowmomentum.LowMomentumModel(physical.PhysicalParams(M, BETA, hbar), TWIN)
    q0, p0 = dynamics.launch_state(model, eps)
    return dynamics.integrate_hamiltonian(model, q0, p0)


def _trajectory_check(expected: str, traj):
    if traj.max_energy_drift >= DRIFT_GATE:
        return f"drift {traj.max_energy_drift:.3e} breaches {DRIFT_GATE:g}"
    if traj.outcome != expected:
        return f"outcome {traj.outcome} vs expected {expected}"
    return None


# ------------------------------------------------------------------- cli_cold

FIGURE_SHA256 = {
    1: "68a98d5f7cb339efc576cdfef45f9c291a57c6e3aafdba6a9bdaa4142f86f7df",
    2: "689f84ddd28c572eb11d4530ff756f52f6a25b86886f6b7b8620bcfe9895dab1",
    3: "0569b61dc440bfe8a37029c55651445d19ad48100e0ecaa94257cde0a1efdab8",
    4: "1251fac45c471737546b92db902e0cefc5a22f12e56943860700ed21334deef6",
}
CLI_TIMEOUT_S = 120
CLI_HBAR = 3.0  # the CLI default, used by model, veff and trajectory


class CliCold:
    """Fresh `python -m effpot` processes, launched one at a time.

    A start probe (hostspeed) runs before each launch; scale_ops takes one
    more after the latest launch and scales each launch by the probes around
    it.
    """

    probes = 3  # bare-interpreter and import probes per traced run

    def __init__(self, seed: int):
        self.starts = []  # the start probe before each launch, in launch order
        self.spec = inputs.cli_pass(seed)
        self.dir = WORK / "work" / f"cli-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.tracer = None

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _argv(self, sub: str, out: Path, coeff_hbar: float) -> list:
        return {
            "coeff": ["coeff", "--hbar", repr(coeff_hbar), "--out", str(out)],
            "validate": ["validate"],
            "model": ["model", "--n", "801", "--out", str(out)],
            "veff": ["veff", "--nq", "81", "--np", "9", "--out", str(out)],
            "trajectory": ["trajectory", "--eps", "0.9", "--out", str(out)],
            "figures": ["figures", "--out", str(out)],
        }[sub]

    def _launch(self, argv: list, summary: Path = None):
        if summary is None:
            cmd = [sys.executable, "-m", "effpot", *argv]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(summary), *argv]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        if summary is not None and summary.exists():
            self.tracer.merge(json.loads(summary.read_text()))
            summary.unlink()
        return done

    def run_pass(self, rec: Recorder) -> None:
        spec = self.spec
        for sub in spec["order"]:
            out = self.dir / sub
            argv = self._argv(sub, out, spec["coeff_hbar"])
            summary = None if rec.tracer is None else self.dir / f"{sub}.trace.json"
            self.starts.append(hostspeed.start_probe())
            rec.run(f"cli.{sub}", partial(self._launch, argv, summary),
                    check=partial(_cli_check, sub, out, spec["coeff_hbar"]))
            if out.is_dir():
                shutil.rmtree(out)
            elif out.exists():
                out.unlink()

    def scale_ops(self, ops: list) -> None:
        """Scale the latest launches, ops, by the start probes around each."""
        probes = self.starts[len(self.starts) - len(ops):] + [hostspeed.start_probe()]
        for op, factor in zip(ops, hostspeed.start_scales(probes)):
            op.scale = factor

    def probe_ms(self, code: str) -> float:
        """Reference milliseconds of a fresh `python -c code`, median of a few."""
        times = []
        for _ in range(self.probes):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                           capture_output=True, timeout=CLI_TIMEOUT_S)
            times.append((perf_counter() - start) * 1e3)
        return statistics.median(times) * statistics.median(
            hostspeed.REFERENCE_START_S / p for p in self.starts)


def _cli_check(sub: str, out: Path, coeff_hbar: float, done):
    if done.returncode != 0:
        return f"exit {done.returncode}: {done.stderr.strip()[-300:]}"
    if sub == "validate":
        lines = done.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("all ") or "FAIL" in done.stdout:
            return "validate did not report all checks passed"
        return None
    if sub == "figures":
        for fig, digest in FIGURE_SHA256.items():
            if hashlib.sha256((out / f"fig{fig}.csv").read_bytes()).hexdigest() != digest:
                return f"fig{fig}.csv differs from its recorded sha256"
        return None
    text = out.read_text().splitlines()
    meta = dict(line[2:].split("=", 1) for line in text if line.startswith("# "))
    rows = [line for line in text if not line.startswith("#")]
    barrier = potential.SquareBarrier(inputs.V0, inputs.HALF_WIDTH)
    if sub == "coeff":
        params = physical.PhysicalParams(M, BETA, coeff_hbar)
        dims = physical.dimensionless(params, barrier)
        values = dict(line.split("=", 1) for line in rows)
        t_eff = transmission.effective_t_of_H(dims.H)
        t_mix = transmission.quantum_t_mixture(dims.Q)
        for problem in (
            _close(float(meta["H"]), dims.H, 1e-11 * dims.H, "H"),
            _close(float(meta["Q"]), dims.Q, 1e-11 * dims.Q, "Q"),
            _close(float(values["t_effective"]), t_eff, 1e-11, "t_effective vs closed form"),
            _close(float(values["r_effective"]), 1.0 - t_eff, 1e-11, "r_effective"),
            _close(float(values["t_quantum_mixture"]), t_mix, 1e-11, "t_quantum_mixture"),
            _close(float(values["r_quantum_mixture"]), 1.0 - t_mix, 1e-11, "r_quantum_mixture"),
        ):
            if problem:
                return problem
        return None
    params = physical.PhysicalParams(M, BETA, CLI_HBAR)
    table = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    if sub == "model":
        if table.shape != (801, 4):
            return f"model table has shape {table.shape}"
        model = lowmomentum.LowMomentumModel(params, barrier)
        for q, v, mass, vq in table[[0, 400, 650]]:
            expected = (lowmomentum.smoothed_potential(model, q), lowmomentum.mass(model, q),
                        lowmomentum.vq_potential(model, q, 0.25))
            for got, want in zip((v, mass, vq), expected):
                if problem := _close(got, want, 1e-10 * max(1.0, abs(want)), f"model row q={q:g}"):
                    return problem
        return None
    if sub == "veff":
        if table.shape != (81 * 9, 3):
            return f"veff table has shape {table.shape}"
        for q, p, v in table[[0, 364, 728]]:
            want = kernel.effective_potential(params, barrier, q, p)
            if problem := _close(v, want, 1e-10 * max(1.0, abs(want)), f"veff row q={q:g} p={p:g}"):
                return problem
        return None
    # trajectory: eps 0.9 clears the hbar = 3 threshold 0.654
    if meta.get("outcome") != dynamics.SURPASSED:
        return f"trajectory outcome {meta.get('outcome')} vs surpassed"
    if float(np.max(table[:, 3])) >= DRIFT_GATE:
        return f"trajectory drift {float(np.max(table[:, 3])):.3e}"
    return None


WORKLOADS = {"transport": Transport, "general_potential": GeneralPotential, "cli_cold": CliCold}


# ------------------------------------------------------------------- metrics


def _tail(times: np.ndarray):
    """(percentile, value, samples beyond): the highest percentile from p50 up
    with ten or more samples beyond it, or the maximum when there are too few
    samples."""
    n = times.size
    p = max((p for p in (*range(50, 100), 99.9, 99.99) if n * (1.0 - p / 100.0) >= 10.0),
            default=100)
    value = float(np.percentile(times, p))
    return p, value, int(np.sum(times > value))


def pass_stats(pass_walls: list, pass_ops: list) -> dict:
    """Run metrics over passes that repeat the same ops on the same inputs.

    Times are reference seconds (hostspeed): each op's measured time scaled
    by the host speed read around it. wall_s is the sum over every op of
    every pass. op_p50_ms and op_tail_ms are percentiles over the ops of a
    pass of each op's median time over the passes; the tail is the highest
    percentile with ten or more ops beyond it.
    """
    if len({tuple(op.kind for op in ops) for ops in pass_ops}) != 1:
        raise RuntimeError("passes over the same inputs ran different ops")
    ref = [[op.ref_seconds if op.seconds is not None else None for op in ops] for ops in pass_ops]
    per_op = [statistics.median(ts) for ts in zip(*ref) if None not in ts]
    times = np.array(per_op) * 1e3
    p, tail, beyond = _tail(times)
    timed = [op for ops in pass_ops for op in ops if op.seconds is not None]
    return {"wall_s": sum(op.ref_seconds for op in timed), "p50_ms": float(np.percentile(times, 50)),
            "tail_ms": tail, "tail_percentile": p, "tail_beyond": beyond, "op_n": int(times.size),
            "measured_op_s": sum(op.seconds for op in timed), "pass_walls": pass_walls,
            "host_scale": statistics.median(op.scale for op in timed)}


def _median_seconds(ops, prefix: str):
    vals = [op.ref_seconds for op in ops if op.kind.startswith(prefix) and op.ok]
    return statistics.median(vals) if vals else None


def _returned_seconds(ops, prefix: str) -> list:
    """Times of the ops that returned a value, whether or not their check passed."""
    return [op.ref_seconds for op in ops if op.kind.startswith(prefix) and op.checked]


def _ratio(num, den):
    return num / den if den else None


def layer_metrics(ops, tracer: Tracer, traced_wall: float, overhead: float, extra: dict) -> dict:
    """Per-layer metrics as (value, unit); value None means not measured on this workload."""
    s = tracer.summary()
    calls, counters = s["calls"], s["counters"]

    def count(key):
        return counters.get(key, 0)

    traj = [op for op in ops if op.kind.startswith("traj.") and op.seconds is not None]
    profile_s = _returned_seconds(ops, "profile.")
    veff_s = _returned_seconds(ops, "veff.")
    quantum_s = _returned_seconds(ops, "mixture.") + _returned_seconds(ops, "transfer_matrix")
    adaptive_calls = calls.get("quadrature.integrate_adaptive", 0)
    drift = s["maxima"].get("dynamics.max_drift")
    out = {
        "dynamics.traj_ms.exact": (_ms(_median_seconds(ops, "traj.exact")), "ms"),
        "dynamics.traj_ms.thin": (_ms(_median_seconds(ops, "traj.thin")), "ms"),
        "dynamics.traj_ms.adaptive": (_ms(_median_seconds(ops, "traj.adaptive")), "ms"),
        "dynamics.traj_ms.newtonian": (_ms(_median_seconds(ops, "traj.newtonian")), "ms"),
        "dynamics.solver_calls": (count("dynamics.solver_calls"), "count"),
        "dynamics.rk_steps": (count("dynamics.rk_steps"), "count"),
        "dynamics.rhs_calls": (count("dynamics.rhs_calls"), "count"),
        "dynamics.solver_self_s": (s["self_time"].get("dynamics.solve_ivp", 0.0), "s"),
        "dynamics.drift_margin": (None if drift is None else drift / DRIFT_GATE, "ratio"),
        "dynamics.traj_ok_ratio": (_ratio(sum(op.ok for op in traj), len(traj)), "ratio"),
        "lowmomentum.calls": (s["entries"].get("lowmomentum", 0), "count"),
        "lowmomentum.model_build_s.piecewise": (_median_seconds(ops, "build.piecewise"), "s"),
        "lowmomentum.model_build_s.tabulated": (_median_seconds(ops, "build.tent"), "s"),
        "lowmomentum.threshold_s": (_median_seconds(ops, "threshold."), "s"),
        "lowmomentum.profile_us_per_point": (
            _ratio(sum(profile_s) * 1e6, len(profile_s) * inputs.PROFILE_POINTS), "us"),
        "quadrature.calls": (count("quadrature.calls"), "count"),
        "quadrature.neval": (count("quadrature.neval"), "count"),
        "quadrature.subdivisions": (count("quadrature.subdivisions"), "count"),
        "quadrature.converged_ratio": (
            _ratio(adaptive_calls - s["errors"].get("quadrature.integrate_adaptive", 0),
                   adaptive_calls), "ratio"),
        "potential.eval_classical_calls": (calls.get("potential.eval_classical", 0), "count"),
        "potential.form_factor_calls": (calls.get("potential.form_factor", 0), "count"),
        "kernel.veff_us_per_point": (
            _ratio(sum(veff_s) * 1e6, len(veff_s) * VEFF_POINTS), "us"),
        "transmission.quantum_ms": (_ratio(sum(quantum_s) * 1e3, len(quantum_s)), "ms"),
        "transmission.quad_calls": (count("quadrature.calls_from.transmission"), "count"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.wall_s": (traced_wall, "s"),
    }
    for layer in (*LAYERS, HARNESS):
        own = s["layer_self"].get(layer, 0.0)
        out[f"{layer}.self_s"] = (own, "s")
        out[f"{layer}.self_share"] = (own / traced_wall, "ratio")
    for sub in inputs.CLI_SUBCOMMANDS:
        out[f"cli.{sub}.cold_ms"] = (_ms(_median_seconds(ops, f"cli.{sub}")), "ms")
    out["cli.import_effpot_ms"] = (extra.get("import_ms"), "ms")
    out["cli.python_bare_ms"] = (extra.get("bare_ms"), "ms")
    for fig in FIGURE_SHA256:
        secs = s["labelled"].get(f"figures.emit_figure.{fig}")
        out[f"figures.emit_figure_ms.{fig}"] = (_ms(secs), "ms")
    for key, reason in s["missing"].items():
        for metric in MISSING_AFFECTS.get(key, ()):
            out[metric] = ("missing", reason)
    return out


# counters that can only be read through a wrapped scipy entry point
MISSING_AFFECTS = {
    "dynamics.solve_ivp": ("dynamics.solver_calls", "dynamics.rk_steps", "dynamics.rhs_calls",
                           "dynamics.solver_self_s"),
    "quadrature.quad": ("quadrature.calls", "quadrature.neval", "quadrature.subdivisions",
                        "transmission.quad_calls"),
}


def _ms(seconds):
    return None if seconds is None else seconds * 1e3


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file the traced run writes its spans to")
    args = ap.parse_args(argv)

    passes = args.passes
    work = WORKLOADS[args.workload](args.seed)
    print(json.dumps({"ready": monotonic()}), flush=True)
    cli = isinstance(work, CliCold)
    rec = Recorder(probed=not cli)
    pass_walls, pass_ops = [], []
    try:
        if args.setup_only:
            return 0
        for _ in range(passes):
            first = len(rec.ops)
            start = perf_counter()
            work.run_pass(rec)
            pass_walls.append(perf_counter() - start)
            pass_ops.append(rec.ops[first:])
        if cli:
            work.scale_ops(rec.ops)
        record = {"ops": pass_stats(pass_walls, pass_ops)}
        if args.trace:
            record["layers"] = _traced_pass(args, work, rec)
    finally:
        if cli:
            work.close()

    failed = [op for op in rec.ops if not op.ok]
    by_kind = {}
    for op in rec.ops:
        entry = by_kind.setdefault(op.kind, {"attempted": 0, "failed": 0, "known": 0,
                                             "unchecked": 0})
        entry["attempted"] += 1
        entry["failed"] += not op.ok
        entry["known"] += bool(op.known) and not op.ok
        # an op that ran and returned must have had its check applied
        entry["unchecked"] += op.seconds is not None and not op.reason and not op.checked
    unexplained = [op for op in failed if not op.known]
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "passes": passes,
        "attempted": len(rec.ops),
        "failed": len(failed),
        "checks_run": rec.checks,
        "correct": not unexplained,
        "op_counts": by_kind,
        "known_defects": sorted({op.known for op in failed if op.known}),
        "unexplained_failures": [f"{op.kind}: {op.reason}" for op in unexplained[:20]],
        "peak_rss_mb": peak_rss_mb(args.workload),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "effpot": getattr(effpot, "__version__", "?")},
    })
    print(json.dumps(record))
    return 0


def _ref_total(ops) -> float:
    return sum(op.ref_seconds for op in ops if op.seconds is not None)


def _traced_pass(args, work, rec: Recorder) -> dict:
    """Run the pass again with the tracer installed; return the per-layer metrics."""
    tracer = Tracer()
    extra = {}
    if args.workload == "cli_cold":
        work.tracer = tracer
        extra["bare_ms"] = work.probe_ms("pass")
        extra["import_ms"] = work.probe_ms("import effpot")
    untraced_ops = list(rec.ops)
    tracer.install()
    rec.tracer = tracer
    try:
        frame = tracer.enter(f"{HARNESS}.pass", HARNESS)
        work.run_pass(rec)
        traced_wall = tracer.leave(frame)
    finally:
        tracer.uninstall()
        rec.tracer = None
    if args.spans:
        tracer.write_spans(args.spans)
    traced_ops = rec.ops[len(untraced_ops):]
    if args.workload == "cli_cold":
        work.scale_ops(traced_ops)
    # both passes in reference seconds, so a change in host load between
    # them does not show as tracing overhead
    overhead = _ref_total(traced_ops) / _ref_total(untraced_ops) - 1.0
    # op timings come from the untraced pass; spans and counters from the traced one
    metrics = layer_metrics(untraced_ops, tracer, traced_wall, overhead, extra)
    return {"metrics": metrics, "summary": {k: v for k, v in tracer.summary().items()
                                            if k in ("layer_self", "counters", "missing",
                                                     "spans_stored", "spans_dropped")}}


if __name__ == "__main__":
    sys.exit(main())
