"""Semantic exception hierarchy.

Two broad categories matter to callers (and to the CLI exit codes):
``InputError`` subclasses mean the caller handed us something malformed or
infeasible; ``NumericFailure`` subclasses mean a well-posed computation did
not reach its target (no convergence, no admissible point, ...).
"""


class DivprojError(Exception):
    """Base class for every error raised by this package."""


class InputError(DivprojError):
    """Inputs violate a contract (domain, schema, feasibility)."""


class NumericFailure(DivprojError):
    """A well-posed numeric procedure failed to reach its target."""


# --- input-side -------------------------------------------------------------


class AllZeroError(InputError):
    """Weight vector sums to zero; cannot normalize."""


class NegativeWeightError(InputError):
    """Weight vector has an entry below the clamping tolerance."""


class InvalidDistribution(InputError):
    """Probability vector fails simplex validation beyond repair."""


class UnknownLabelError(InputError):
    """An observation label is not part of the alphabet."""


class EmptySampleError(InputError):
    """A sample with zero observations was provided."""


class DomainError(InputError):
    """Distributions violate the positivity/absolute-continuity contract."""


class InfeasibleError(InputError):
    """A linear family's constraint set is empty on the simplex."""


# --- numeric-side -----------------------------------------------------------


class DomainViolation(NumericFailure):
    """A parameter leaves the admissible region of its family.

    ``symbols`` lists the alphabet labels whose defining bracket is
    non-positive, or whose mass underflows to 0, when known.
    """

    def __init__(self, message, symbols=()):
        super().__init__(message)
        self.symbols = tuple(symbols)


class NormalizerNotFound(NumericFailure):
    """No normalizing constant exists (or was found) for the parameter.

    ``interval`` records the bracketing interval that was attempted.
    """

    def __init__(self, message, interval=None):
        super().__init__(message)
        self.interval = interval


class NoConvergence(NumericFailure):
    """An iterative solver hit its iteration cap.

    Carries the best iterate seen so that callers can emit partial reports.
    """

    def __init__(self, message, best_theta=None, best_residual=None, report=None):
        super().__init__(message)
        self.best_theta = best_theta
        self.best_residual = best_residual
        self.report = report


class EmptyFeasibleGrid(NumericFailure):
    """Constraint filtering removed every point of a simplex grid."""


class NoAdmissibleTheta(NumericFailure):
    """No point of a parameter grid lies in the admissible region."""


class CertificateMismatch(NumericFailure):
    """Two computations that must agree on a result did not.

    ``values`` holds the two disagreeing results, in the order the message
    names them.
    """

    def __init__(self, message, values=()):
        super().__init__(message)
        self.values = tuple(values)
