"""Exception types shared across the package."""


class PmbmError(Exception):
    """Base of every error the package raises on purpose."""


class ConfigurationError(PmbmError, ValueError):
    """A model or filter was built from inconsistent shapes or parameters."""


class NumericalError(PmbmError, ArithmeticError):
    """A numerical operation left its valid domain (singular covariance, ...)."""


class SizeLimitError(PmbmError, ValueError):
    """A combinatorial routine was asked for more work than its guard allows."""
