"""Effective-potential transport model for 1-D barrier tunneling.

A momentum-dependent smoothing of a classical barrier, its low-momentum
reduction to a space-dependent mass with a smoothed potential, integrable
classical dynamics under that reduction, and the comparison of threshold
transmission coefficients with exact quantum ones.

The namespace is lazy (PEP 562): ``import effpot`` loads no submodule, and
each public name imports its defining module on first use, so a program
pays only for the layers it reaches.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "DidNotResolve", "DomainError", "EffpotError", "InconsistentEnergy",
        "NonConvergence", "NonPositiveMass", "StepFailure",
    ), "errors"),
    **dict.fromkeys(("DimensionlessParams", "PhysicalParams", "dimensionless"), "physical"),
    **dict.fromkeys((
        "PiecewiseConstantPotential", "Shape", "SquareBarrier", "TabulatedPotential",
        "asymptotic_level", "classical_max", "eval_classical", "load_tabulated_csv",
        "support_interval",
    ), "potential"),
    **dict.fromkeys(("DEFAULT_CONFIG", "QuadratureConfig", "integrate_adaptive"), "quadrature"),
    **dict.fromkeys(("effective_potential", "sinhc"), "kernel"),
    **dict.fromkeys((
        "LowMomentumModel", "Profile", "evaluation_domain", "inverse_mass", "mass",
        "smoothed_potential", "tunneling_threshold", "vq_potential",
    ), "lowmomentum"),
    **dict.fromkeys((
        "REFLECTED", "SURPASSED", "Trajectory", "classify_traversal", "hamiltonian",
        "integrate_hamiltonian", "integrate_newtonian", "launch_state", "trajectory_csv",
    ), "dynamics"),
    **dict.fromkeys((
        "CoefficientPair", "TransferMatrixResult", "effective_coefficients",
        "effective_t_of_H", "mixture_average", "quantum_t_mixture", "quantum_t_single",
        "surpass_fraction", "transfer_matrix_transmission",
    ), "transmission"),
    **dict.fromkeys(("FigureSpec", "default_figure_specs", "emit_all", "emit_figure"), "figures"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
