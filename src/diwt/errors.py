"""Exception and warning types shared across the package.

Numerical failure modes get distinct types so that callers (and the CLI
exit-code mapping) can react without string matching.
"""


class DiwtError(Exception):
    """Base class for all package-specific errors."""


class InvalidInterval(DiwtError):
    """Integration interval is empty, reversed, or not finite."""


class InvalidDecayScale(DiwtError):
    """Decay scale for a semi-infinite integral must be positive and finite."""


class NonConvergence(DiwtError):
    """A quadrature or iteration exhausted its budget before reaching tolerance."""


class TailNotNegligible(DiwtError):
    """Contour integrand is still large at the truncation endpoints."""


class DomainError(DiwtError):
    """Argument outside the supported domain (e.g. x <= 0)."""


class OrderError(DiwtError):
    """Function order/parameter outside the supported range (e.g. mu >= 1/2)."""


class PoleError(DiwtError):
    """Evaluation requested at a pole."""


class PrecisionBudgetExceeded(DiwtError):
    """Requested index exceeds what the working precision can resolve."""


class UnknownCheckId(DiwtError, KeyError):
    """Identity-suite selection referenced a check id that does not exist."""


class PersistenceError(DiwtError):
    """A table or report file is missing, malformed, or fails validation."""


class IntegrabilityWarning(UserWarning):
    """Integrand does not appear to decay near an integration endpoint."""
