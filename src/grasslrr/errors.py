"""Exception types raised across the package."""


class GrassLrrError(Exception):
    """Base class for every error this package raises deliberately."""


class InvalidInputError(GrassLrrError, ValueError):
    """Input data violates a precondition (shape, finiteness, symmetry, ...)."""


class InvalidConfigError(GrassLrrError, ValueError):
    """A configuration value is out of its legal range."""


class RankDeficientError(InvalidInputError):
    """Numerical rank of the input is below the requested subspace dimension."""

    def __init__(self, message: str, achieved_rank: int):
        super().__init__(message)
        self.achieved_rank = achieved_rank

    def __reduce__(self):  # unpickled through __init__, which needs the rank too
        return type(self), (*self.args, self.achieved_rank)


class NumericalDivergenceError(GrassLrrError):
    """An iterative solver produced non-finite iterates."""


class OracleTooLargeError(GrassLrrError):
    """The dense reference implementation would exceed its memory guard."""


class InfeasibleSpecError(GrassLrrError):
    """A synthetic-data specification cannot be satisfied."""
