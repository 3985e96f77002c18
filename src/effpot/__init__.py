"""Effective-potential transport model for 1-D barrier tunneling.

A momentum-dependent smoothing of a classical barrier, its low-momentum
reduction to a space-dependent mass with a smoothed potential, integrable
classical dynamics under that reduction, and the comparison of threshold
transmission coefficients with exact quantum ones.
"""

from .errors import (
    DidNotResolve,
    DomainError,
    EffpotError,
    InconsistentEnergy,
    NonConvergence,
    NonPositiveMass,
    StepFailure,
)
from .physical import DimensionlessParams, PhysicalParams, dimensionless
from .potential import (
    PiecewiseConstantPotential,
    Shape,
    SquareBarrier,
    TabulatedPotential,
    asymptotic_level,
    classical_max,
    eval_classical,
    load_tabulated_csv,
    support_interval,
)
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    integrate_adaptive,
)
from .kernel import effective_potential, sinhc
from .lowmomentum import (
    LowMomentumModel,
    Profile,
    evaluation_domain,
    inverse_mass,
    mass,
    smoothed_potential,
    tunneling_threshold,
    vq_potential,
)
from .dynamics import (
    REFLECTED,
    SURPASSED,
    Trajectory,
    classify_traversal,
    hamiltonian,
    integrate_hamiltonian,
    integrate_newtonian,
    launch_state,
    write_trajectory_csv,
)
from .transmission import (
    CoefficientPair,
    TransferMatrixResult,
    effective_coefficients,
    effective_t_of_H,
    mixture_average,
    quantum_t_mixture,
    quantum_t_single,
    surpass_fraction,
    transfer_matrix_transmission,
)
from .figures import FigureSpec, default_figure_specs, emit_all, emit_figure

__version__ = "0.1.0"
