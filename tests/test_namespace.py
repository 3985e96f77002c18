"""The lazy package namespace exports what the eager one did: the same 54
names, each the very object its defining module holds."""

import importlib
import subprocess
import sys

import pytest

import effpot

# every name `import effpot` exported when the package imported all its
# modules eagerly, by defining module
EXPORTED = {
    "errors": ("DidNotResolve", "DomainError", "EffpotError", "InconsistentEnergy",
               "NonConvergence", "NonPositiveMass", "StepFailure"),
    "physical": ("DimensionlessParams", "PhysicalParams", "dimensionless"),
    "potential": ("PiecewiseConstantPotential", "Shape", "SquareBarrier", "TabulatedPotential",
                  "asymptotic_level", "classical_max", "eval_classical", "load_tabulated_csv",
                  "support_interval"),
    "quadrature": ("DEFAULT_CONFIG", "QuadratureConfig", "integrate_adaptive"),
    "kernel": ("effective_potential", "sinhc"),
    "lowmomentum": ("LowMomentumModel", "Profile", "evaluation_domain", "inverse_mass", "mass",
                    "smoothed_potential", "tunneling_threshold", "vq_potential"),
    "dynamics": ("REFLECTED", "SURPASSED", "Trajectory", "classify_traversal", "hamiltonian",
                 "integrate_hamiltonian", "integrate_newtonian", "launch_state", "trajectory_csv"),
    "transmission": ("CoefficientPair", "TransferMatrixResult", "effective_coefficients",
                     "effective_t_of_H", "mixture_average", "quantum_t_mixture",
                     "quantum_t_single", "surpass_fraction", "transfer_matrix_transmission"),
    "figures": ("FigureSpec", "default_figure_specs", "emit_all", "emit_figure"),
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names]


def test_the_export_list_is_complete():
    assert len(NAMES) == 54
    assert sorted(effpot.__all__) == sorted(name for _, name in NAMES)
    assert set(effpot.__all__) <= set(dir(effpot))
    assert effpot.__version__ == "0.1.0"


@pytest.mark.parametrize("module, name", NAMES)
def test_each_name_is_its_modules_object(module, name):
    defining = importlib.import_module(f"effpot.{module}")
    assert getattr(effpot, name) is getattr(defining, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from effpot import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(importlib.import_module(f"effpot.{module}"), name)


def test_submodules_import_from_the_package():
    # in a fresh interpreter, where the submodule is not loaded yet
    code = ("from effpot import dynamics\n"
            "import effpot.dynamics\n"
            "assert dynamics is effpot.dynamics and dynamics.SURPASSED == 'surpassed'")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        effpot.no_such_name
    assert not hasattr(effpot, "no_such_name")


def test_first_use_loads_only_the_defining_module():
    code = ("import sys, effpot\n"
            "effpot.PhysicalParams\n"
            "print(sorted(m for m in sys.modules if m.startswith('effpot.')))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "['effpot.physical']"
