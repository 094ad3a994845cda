"""Finite-sample PCA under non-isotropic and data-dependent noise.

Subspace estimation via top-r eigendecomposition of the sample covariance,
closed-form finite-sample error bounds with their feasibility conditions,
automatic rank estimation, and a seeded Monte Carlo experiment harness.
"""

from .bounds import (
    BoundInputs,
    BoundReport,
    concentration_bounds,
    eps_bnd,
    eps_den,
    general_bound,
    missing_q,
    rank_delta,
    sddn_bound,
    sddn_required_alpha,
    success_floor,
)
from .config import ExperimentConfig
from .errors import (
    InfeasibleModel,
    NoisyPcaError,
    RankDeficient,
    ValidationError,
)
from .estimator import estimate_rank_eigengap, estimate_rank_threshold
from .experiments import (
    GridResult,
    ModelRealization,
    adversarial_experiment,
    bound_tightness,
    concentration_check,
    missing_data_experiment,
    phase_transition,
    rank_estimation,
    realize_model,
    refinement_loop,
)
from .linalg import (
    BasisMatrix,
    incoherence,
    orthonormalize,
    subspace_error,
    symmetric_eig,
    top_r_eigvecs,
)
from .model import (
    DerivedSpectra,
    SddnModel,
    SignalModel,
    UncorrNoiseModel,
    derived_spectra,
    make_random_basis,
    noise_coefficients,
    profile_scales,
    row_occupancy,
    signal_coefficients,
    substream,
    support_blocks,
    support_sequence,
)

__version__ = "0.1.0"
