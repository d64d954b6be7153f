"""Asymptotic one-sided device-independent key-rate bounds for Gaussian CVQKD.

Two-mode Gaussian states of the protocols (an EPR state through a
loss-and-noise channel, held as three block entries), entropic
uncertainty-relation verification, the eight squeezed/coherent x
homodyne/heterodyne x DR/RR key-rate bounds, channel-parameter security
analysis and a seeded Monte Carlo validation path.

numpy loads on first array use, not on import: ``import cvqkd.cli``,
``cvqkd table``, ``keyrate``, ``distance`` and ``verify-ur``, states,
their spectra and entropies, the UR slacks, the Devetak-Winter ceilings,
the sweep grid, loss thresholds and distances never run its import.
The Monte Carlo path and, for a protocol with a secure law,
``max_excess_noise`` and the region sweep (``security_region``,
``cvqkd region``) load it when they first touch an array.
"""

from .bounds import (
    ConditionalVariances,
    Flavor,
    KeyRateResult,
    Measurement,
    OneSidedDI,
    ProtocolSpec,
    Reconciliation,
    VarianceKind,
    classify_1sdi,
    devetak_winter_oracle,
    gaussian_shannon_entropy,
    infer_full_mode_variance,
    key_rate,
    verify_ur_bipartite,
    verify_ur_tripartite,
)
from .errors import (
    CVQKDError,
    DomainError,
    InsufficientDataError,
    PrecisionError,
    TagMismatchError,
    UnphysicalInferenceError,
    UnphysicalStateError,
)
from .gaussian import (
    ChannelParams,
    CovarianceMatrix,
    ModeQuadrature,
    Quadrature,
    apply_channel,
    conditional_variance,
    entropy_g,
    symplectic_eigenvalues,
    tmsv,
    vacuum,
    von_neumann_entropy,
)
from .montecarlo import (
    EstimateWithError,
    MeasurementRecord,
    SimulatedKeyRate,
    empirical_entropy,
    estimate_conditional_variance,
    estimate_key_rate,
    sample_quadratures,
)
from .security import (
    FibreModel,
    SweepConfig,
    key_rate_at,
    max_distance,
    max_excess_noise,
    optimize_modulation,
    security_region,
    threshold_transmission,
)

# the names above, as ``from cvqkd import *`` exports them
__all__ = [
    "ConditionalVariances", "Flavor", "KeyRateResult", "Measurement", "OneSidedDI", "ProtocolSpec",
    "Reconciliation", "VarianceKind", "classify_1sdi", "devetak_winter_oracle",
    "gaussian_shannon_entropy", "infer_full_mode_variance", "key_rate", "verify_ur_bipartite",
    "verify_ur_tripartite",
    "CVQKDError", "DomainError", "InsufficientDataError", "PrecisionError", "TagMismatchError",
    "UnphysicalInferenceError", "UnphysicalStateError",
    "ChannelParams", "CovarianceMatrix", "ModeQuadrature", "Quadrature", "apply_channel",
    "conditional_variance", "entropy_g", "symplectic_eigenvalues", "tmsv", "vacuum",
    "von_neumann_entropy",
    "EstimateWithError", "MeasurementRecord", "SimulatedKeyRate", "empirical_entropy",
    "estimate_conditional_variance", "estimate_key_rate", "sample_quadratures",
    "FibreModel", "SweepConfig", "key_rate_at", "max_distance", "max_excess_noise",
    "optimize_modulation", "security_region", "threshold_transmission",
]

__version__ = "0.1.0"
