"""Liouvillian spectral analysis and accelerated relaxation for open quantum systems.

Builds Lindblad generators for collective-spin models as sparse CSR
matrices, computes their full mode decomposition, constructs the initial
unitary that removes the overlap with the slowest decaying mode, and
propagates states in one loop: the exact exponential action of the sparse
generator until the mode sum agrees with it (which may be at t=0), then the
mode sum.  An independent Runge-Kutta integrator is kept as the test oracle
for both routes.
"""

__version__ = "0.1.0"

from . import errors
from .config import ExperimentConfig, load_config
from .dynamics import (
    DecayFit,
    TimeGrid,
    TrajectoryRecord,
    evolve_integrator,
    evolve_spectral_grid,
    find_plateau,
    fit_decay_rate,
    hs_distance,
    robust_trajectory,
)
from .linalg import HermitianEig, hermitian_eig
from .models import (
    AllToAllParams,
    CollectiveSpinBasis,
    DickeParams,
    adiabatic_coefficients,
    all_to_all_model,
    dicke_model,
    random_pure_state,
    spin_operators,
)
from .mpemba import (
    MpembaRotation,
    SlowModeSpectrum,
    build_permutation,
    build_rotation,
    build_u1,
    optimal_unitary,
    overlap_scan,
    rotation_angle,
    slow_mode_spectrum,
)
from .spectral import (
    SpectralDecomposition,
    decompose,
    hermitize_slow_mode,
)
from .superop import (
    LindbladModel,
    Superoperator,
    build_adjoint_liouvillian,
    build_liouvillian,
    unvec,
    vec,
)

__all__ = [
    "AllToAllParams",
    "CollectiveSpinBasis",
    "DecayFit",
    "DickeParams",
    "ExperimentConfig",
    "HermitianEig",
    "LindbladModel",
    "MpembaRotation",
    "SlowModeSpectrum",
    "SpectralDecomposition",
    "Superoperator",
    "TimeGrid",
    "TrajectoryRecord",
    "adiabatic_coefficients",
    "all_to_all_model",
    "build_adjoint_liouvillian",
    "build_liouvillian",
    "build_permutation",
    "build_rotation",
    "build_u1",
    "decompose",
    "dicke_model",
    "errors",
    "evolve_integrator",
    "evolve_spectral_grid",
    "find_plateau",
    "fit_decay_rate",
    "hermitian_eig",
    "hermitize_slow_mode",
    "hs_distance",
    "load_config",
    "optimal_unitary",
    "overlap_scan",
    "random_pure_state",
    "robust_trajectory",
    "rotation_angle",
    "slow_mode_spectrum",
    "spin_operators",
    "unvec",
    "vec",
]
