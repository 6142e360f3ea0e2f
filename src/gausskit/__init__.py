"""Gaussian states of n bosonic modes through generating-function parameters.

Submodules: core (linear-algebra substrate), params (parametrizations and
conversions), semigroup (operator calculus on 6-tuples), fock (truncated
particle-basis constructions), states (high-level state API), tomography
(measurement simulation and estimation), cli (command line).  The oracles
module holds brute-force references for the test suite and is not part of
the public surface.
"""

from .config import DEFAULT_CUTOFF, DEFAULT_SEED, DEFAULT_TOL
from .core import (
    SymplecticMap,
    c_factor,
    gaussian_integral,
    is_positive_definite,
    is_positive_semidefinite,
    is_symplectic,
    m_matrix,
    realify,
    takagi,
)
from .errors import (
    EstimationError,
    GausskitError,
    InvalidStateError,
    NonComposableError,
    NotTraceClassError,
    UnsupportedStateError,
)
from .fock import (
    TruncatedOperator,
    TruncatedVector,
    dmf,
    e_a_matrix,
    general_truncate,
    matrix_element,
    phi,
    pure_state_vector,
    z1_matrix,
)
from .params import (
    AmplitudeData,
    CovarianceParams,
    E2Params,
    GeneralE2Params,
    amplitudes_from_e2,
    cov_to_e2,
    e2_from_amplitudes,
    e2_to_cov,
    is_pure,
    is_valid_state,
    normalization_c,
    state_params,
    trace_of_positive,
)
from .semigroup import (
    adjoint_params,
    compose,
    conjugate_by_gamma,
    conjugate_by_weyl,
    gamma0_params,
    mean_of_state,
    second_quantization_params,
    weyl_params,
)
from .states import (
    GaussianState,
    characteristic_function,
    coherent,
    is_completely_entangled_pure,
    is_pure_separable,
    marginal,
    normal_form,
    number_distribution,
    smsv,
    thermal,
    tmsv,
    vacuum,
    weakest_split,
)
from .tomography import (
    EstimationReport,
    MeasurementSpec,
    estimate,
    outcome_label,
    outcome_probabilities,
    sample,
    simulate_battery,
    standard_battery,
)

__version__ = "0.1.0"
