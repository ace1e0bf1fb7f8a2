"""Free stochastic calculus in the Chebyshev basis.

Exact trace engines for words in a free semicircular family, weighted
symmetric Fock spaces with the product inequality that makes them
algebras, spectral-density covariance kernels, the frequency-multiplier
operator with its coefficient growth certificates, white-noise
derivatives and Riemann-sum stochastic integrals, and a random-matrix
Monte Carlo oracle.  The ``freenoise`` command line exposes each piece.
"""

from .chebyshev import (
    SemicircleLaw,
    catalan,
    linearize,
    orthonormal_poly,
    semicircle_moment,
    u_poly,
)
from .errors import (
    CapExceededError,
    DivergenceError,
    FreenoiseError,
    GapTooSmallError,
    LevelTooLowError,
    NonCauchyError,
    QuadratureError,
    UncertifiedError,
    ValidationError,
)
from .fock import (
    FockElement,
    VageConstant,
    basis_vector,
    inner,
    norm,
    tensor,
    vacuum,
    vage_constant,
)
from .matmodel import EnsembleConfig, TraceEstimate, estimate_trace, estimate_trace_many
from .process import (
    IntegralResult,
    IntegrandPath,
    ProcessState,
    apply_process,
    apply_whitenoise,
    covariance,
    stochastic_integral,
)
from .spectral import (
    SpectralDensity,
    TailReport,
    certify_tail,
    kernel,
    parse_density_config,
    r_function,
)
from .trace import trace_fock, trace_monomial_all, trace_pairings, trace_reduction
from .words import EMPTY_WORD, WeightSequence, Word, normalize, parse_word

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "DivergenceError",
    "EMPTY_WORD",
    "EnsembleConfig",
    "FockElement",
    "FreenoiseError",
    "GapTooSmallError",
    "IntegralResult",
    "IntegrandPath",
    "LevelTooLowError",
    "NonCauchyError",
    "ProcessState",
    "QuadratureError",
    "SemicircleLaw",
    "SpectralDensity",
    "TailReport",
    "TraceEstimate",
    "UncertifiedError",
    "VageConstant",
    "ValidationError",
    "WeightSequence",
    "Word",
    "apply_process",
    "apply_whitenoise",
    "basis_vector",
    "catalan",
    "certify_tail",
    "covariance",
    "estimate_trace",
    "estimate_trace_many",
    "inner",
    "kernel",
    "linearize",
    "norm",
    "normalize",
    "orthonormal_poly",
    "parse_density_config",
    "parse_word",
    "r_function",
    "semicircle_moment",
    "stochastic_integral",
    "tensor",
    "trace_fock",
    "trace_monomial_all",
    "trace_pairings",
    "trace_reduction",
    "u_poly",
    "vacuum",
    "vage_constant",
]
