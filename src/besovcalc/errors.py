"""Exception types raised by the numerical engine."""


class BesovCalcError(Exception):
    """Base class for all library errors."""


class UnknownSpec(BesovCalcError):
    """A function or operator spec string names no known family."""


class InvalidParameter(BesovCalcError):
    """A spec parameter is outside its admissible range."""


class NonConvergence(BesovCalcError):
    """An iterative refinement failed to stabilise."""


class RangeViolation(BesovCalcError):
    """A sampled function range violates an operation precondition."""


class DepthExceeded(BesovCalcError):
    """Adaptive bisection hit its depth or panel budget before converging."""


class EnvelopeViolated(BesovCalcError):
    """Sampled integrand values exceed the declared decay envelope."""


class DivergenceSuspicion(BesovCalcError):
    """The norm looks infinite: a declared envelope is not integrable, or a line lies
    outside the analyticity strip."""


class UnboundedSuspicion(BesovCalcError):
    """An interior sample exceeds the boundary supremum estimate."""


class SingularShift(BesovCalcError):
    """Resolvent requested at a point of the spectrum."""


class SpectrumError(BesovCalcError):
    """Matrix spectrum violates the right-half-plane admission rules."""


class ProfileDivergence(BesovCalcError):
    """The semigroup norm grid never settles; the operator is rejected."""


class IntegralNotNormConvergent(BesovCalcError):
    """Preconditions for the norm-convergent double integral fail."""


class NotDiagonalizable(BesovCalcError):
    """Eigendecomposition oracle requested for an unsupported defective matrix."""
