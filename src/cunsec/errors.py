"""Exception types with machine-readable categories."""


class CunsecError(Exception):
    """Base class; `category` is stable and machine readable."""

    category = "error"


class ParameterError(CunsecError, ValueError):
    """Invalid physical or numerical parameter."""

    category = "parameter"


class UnsupportedParametersError(CunsecError, ValueError):
    """Parameters outside the family a closed form was derived for."""

    category = "unsupported-parameters"


class ContourError(CunsecError, ArithmeticError):
    """No vertical line separates the left and right pole families."""

    category = "contour"


class ConvergenceError(CunsecError, ArithmeticError):
    """A refinement or expectation failed to reach tolerance.

    Carries the last two estimates so callers can judge how bad it is.
    """

    category = "convergence"

    def __init__(self, message, estimates=(), diagnostics=None):
        super().__init__(message)
        self.estimates = tuple(estimates)
        self.diagnostics = diagnostics or {}


class NumericalIntegrityError(CunsecError, ArithmeticError):
    """A result violated a hard mathematical bound by more than roundoff."""

    category = "numerical-integrity"


class ConfigError(CunsecError, ValueError):
    """Configuration file failed to parse or validate."""

    category = "config"
