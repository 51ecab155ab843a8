"""Exception types raised by the library.

Every error that a caller can act on has its own class, and the CLI maps
failures to exit codes by two base classes: a UsageError (malformed input,
bad parameters) exits 2, a NumericalFailure (a result floating point
cannot deliver, LAPACK-level breakdowns) exits 3.  FixtureMismatch, the one
other error, exits 1.
"""


class NormaloidError(Exception):
    """Base class for all library errors."""


class UsageError(NormaloidError):
    """The input or a parameter is invalid: the CLI's exit 2."""


class NumericalFailure(NormaloidError):
    """A computation cannot give a trustworthy result in floating point: the CLI's exit 3."""


class MatrixFormatError(UsageError):
    """Matrix file or JSON object does not match the exchange format."""


class InvalidParameter(UsageError, ValueError):
    """A parameter is outside its documented domain (p <= 0, rank > n, ...)."""


class NonHermitianInput(NumericalFailure):
    """An operation requiring a Hermitian matrix received one that is not."""


class NotPositive(NumericalFailure):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""


class NotUnit(NumericalFailure):
    """A vector required to lie on the unit sphere does not."""


class NotBinormal(NumericalFailure):
    """A procedure valid only for binormal matrices received a non-binormal one."""


class PremiseViolated(NumericalFailure):
    """A theorem-shaped check was asked to certify a conclusion whose premise fails."""


class ConvergenceFailure(NumericalFailure):
    """An iterative numerical routine failed to converge."""


class NoAscentWithinBound(NumericalFailure):
    """Kernel chain of successive powers did not stabilize within the dimension.

    Unreachable for exact integer ranks (they are nonincreasing and bounded),
    kept as a defensive signal for numerically pathological inputs.
    """


class UnknownTheoremId(UsageError, KeyError):
    """Requested property suite does not exist."""


class FixtureMismatch(NormaloidError):
    """A bundled fixture no longer reproduces its recorded verdicts."""
