"""Exception types shared across the package.

Validation errors (bad arguments, unusable configurations) derive from
ValueError so callers can catch them uniformly; numerical failures
(quadrature not converging, Riemann sums not settling) derive from
RuntimeError.  The CLI maps the first family to exit code 2 and the
second to exit code 3.
"""


class FreenoiseError(Exception):
    pass


class ValidationError(FreenoiseError, ValueError):
    pass


class QuadratureError(FreenoiseError, RuntimeError):
    """Requested quadrature tolerance was not reached."""


class CapExceededError(ValidationError):
    """An operator application needs intermediate degrees above the cap."""


class GapTooSmallError(ValidationError):
    """Weight gap d has inverse-power sum >= 1, so no product bound exists."""


class LevelTooLowError(ValidationError):
    """Pairing level q is below the p + 2 threshold of the product bound."""


class NonCauchyError(FreenoiseError, RuntimeError):
    """Riemann-sum refinement distances fail to decrease."""


class UncertifiedError(ValidationError):
    """Coefficient truncation lacks a passing tail certificate."""


class DivergenceError(ValidationError):
    """Series parameter outside the open domain of convergence."""
