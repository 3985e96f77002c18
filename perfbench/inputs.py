"""Seeded inputs for the benchmark workloads.

Every input comes from ``numpy.random.default_rng([seed, stream])``, so one
seed gives the same inputs on every machine and every commit. A run repeats
one workload's inputs in every pass. The program
under test only ever receives the generated objects (or files written from
them); it never sees the seed.

Inputs are plain tuples and floats. ``workloads.py`` turns them into effpot
objects, so this module does not import effpot and input generation can be
timed on its own as part of set-up.
"""

from __future__ import annotations

import numpy as np

# stream ids keep the workloads' random sequences independent of each other
TRANSPORT, GENERAL, CLI = 1, 2, 3

V0 = 1.0
HALF_WIDTH = 0.5
TRANSPORT_HBARS = (0.0, 0.05, 2.0, 4.0, 6.0)  # exact, thin wall, three adaptive
ENERGIES_PER_HBAR = 16
NEWTONIAN_EVERY = 4          # one energy in four is also run in Newtonian form
TRANSFER_MATRIX_ENERGIES = 4

TABULATED_POINTS = 41
TWIN_HBARS = (2.0, 3.0, 6.0)
TWIN_ENERGIES = (0.2, 0.5, 0.9)  # the drift defect shows at each, at every twin hbar
PROFILE_POINTS = 21
VEFF_Q_POINTS = 3


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> list:
    """n energies, one uniform draw in each of n equal strata, in random order.

    Each draw is uniform on (lo, hi); stratifying bounds the sampling error
    of a threshold fraction by 1/n, so the criterion-6 gate cannot fail by
    chance and a failure means a misclassified trajectory.
    """
    u = (rng.permutation(n) + rng.uniform(0.0, 1.0, n)) / n
    return [float(lo + (hi - lo) * x) for x in u]


def transport_pass(seed: int) -> dict:
    """Energies on (0, V0) per hbar for a pass of the transport workload."""
    rng = _rng(seed, TRANSPORT)
    return {hbar: _stratified(rng, ENERGIES_PER_HBAR, 0.0, V0) for hbar in TRANSPORT_HBARS}


def step_barrier(rng: np.random.Generator) -> tuple:
    """(breakpoints, values) of a one-plateau barrier, level 0 outside."""
    while True:
        bp = np.sort(rng.uniform(-1.0, 1.0, 2))
        if bp[1] - bp[0] >= 0.2:
            return tuple(float(x) for x in bp), (0.0, float(rng.uniform(0.2, 1.0)), 0.0)


# The 3- and 4-step barriers are fixed, not seeded: with three or four jumps
# inside the smoothing window the quadrature's cost is bimodal, and 4-step
# builds raise NonConvergence on about two seeded geometries in three, so
# seeding them would swing wall_s and fail_frac from seed to seed. This 4-step
# geometry is one that raises NonConvergence; the 3-step one builds.
PIECEWISE3 = ((-0.6, 0.0, 0.55), (0.0, 0.5, 0.9, 0.0))
PIECEWISE4 = ((-0.86, -0.48, 0.02, 0.99), (0.0, 0.86, 0.65, 0.92, 0.0))


def tent_bump(rng: np.random.Generator) -> tuple:
    """41 samples of a symmetric tent with seeded height and offset.

    Off-centre apexes and flat zero shoulders make the model build 3-7 s
    instead of about 1 s, depending on the shape, so the seed moves the tent
    only in ways the profile quadrature is blind to.
    """
    offset = rng.uniform(-0.3, 0.3)
    grid = np.linspace(-1.0, 1.0, TABULATED_POINTS) + offset
    values = rng.uniform(0.5, 1.0) * (1.0 - np.abs(grid - offset))
    values[0] = values[-1] = 0.0
    return tuple(float(x) for x in grid), tuple(float(v) for v in values)


def smooth_bump(rng: np.random.Generator) -> tuple:
    """41 samples of a raised-cosine bump with seeded centre, width and height."""
    grid = np.linspace(-1.0, 1.0, TABULATED_POINTS)
    centre, width, height = rng.uniform(-0.3, 0.3), rng.uniform(0.5, 0.7), rng.uniform(0.5, 1.0)
    x = np.clip((grid - centre) / width, -1.0, 1.0)
    values = height * 0.5 * (1.0 + np.cos(np.pi * x))
    values[0] = values[-1] = 0.0
    return tuple(float(x) for x in grid), tuple(float(v) for v in values)


def general_pass(seed: int) -> dict:
    """Potentials and evaluation points for a pass of general_potential."""
    rng = _rng(seed, GENERAL)
    return {
        "piecewise": [step_barrier(rng), PIECEWISE3, PIECEWISE4],
        "tent": tent_bump(rng),
        "smooth": smooth_bump(rng),
        "profile_eps": float(rng.uniform(0.1, 0.5)),
        "veff_q": tuple(float(q) for q in rng.uniform(-1.0, 1.0, VEFF_Q_POINTS)),
        "veff_p": float(rng.uniform(0.5, 2.0)),
    }


CLI_SUBCOMMANDS = ("coeff", "validate", "model", "veff", "trajectory", "figures")


def cli_pass(seed: int) -> dict:
    """Subcommand order and the seeded coeff hbar for a round of cli_cold."""
    rng = _rng(seed, CLI)
    order = [CLI_SUBCOMMANDS[i] for i in rng.permutation(len(CLI_SUBCOMMANDS))]
    return {"order": order, "coeff_hbar": float(rng.uniform(1.0, 6.0))}
