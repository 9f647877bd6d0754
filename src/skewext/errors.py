"""Exception hierarchy shared by all skewext modules.

Every error raised by the library derives from :class:`SkewextError`, so
callers (in particular the CLI) can distinguish library failures from
programming errors.  The leaf classes mirror the failure modes of the
individual operations; several carry structured payloads that tests and
reports inspect.
"""


class SkewextError(Exception):
    """Base class for all errors raised by this package."""


class EmptyAmbient(SkewextError):
    """Raised when a subspace of a zero-dimensional ambient space is requested."""


class AmbientMismatch(SkewextError):
    """Raised when two subspaces of different ambient dimensions are combined."""


class BadDimension(SkewextError):
    """Raised on out-of-range dimension parameters."""


class NotSkewSymmetric(SkewextError):
    """Raised when an operation requires a skew-symmetric relation."""


class InvalidSystem(SkewextError):
    """Raised when a boundary system fails its defining identity or surjectivity."""


class InvalidTriplet(SkewextError):
    """Raised when a boundary triplet fails the Green identity or surjectivity."""


class NotUnitary(SkewextError):
    """Raised when a matrix expected to be unitary is not, within tolerance."""


class NotContraction(SkewextError):
    """Raised when a matrix expected to be a contraction has norm above 1."""


class DimensionMismatch(SkewextError):
    """Raised when a construction needs dim G1 = dim G2 but the dimensions differ.

    Carries the offending pair as ``g1_dim`` / ``g2_dim``.
    """

    def __init__(self, g1_dim, g2_dim, message=None):
        self.g1_dim = g1_dim
        self.g2_dim = g2_dim
        if message is None:
            message = (
                "construction requires dim G1 = dim G2, "
                f"got ({g1_dim}, {g2_dim})"
            )
        super().__init__(message)


class NotSkewSelfAdjoint(SkewextError):
    """Raised when an operation requires a skew-self-adjoint relation."""


class NotRestriction(SkewextError):
    """Raised when a relation is not contained in the expected adjoint graph."""


class ReadoffSingular(SkewextError):
    """Raised when the boundary image of a graph is rank-deficient.

    Signals that the premise of the unitary-parameter read-off is violated.
    """


class NotDissipative(SkewextError):
    """Raised when an operation requires a dissipative relation."""


class NotMaximal(SkewextError):
    """Raised when a dissipative relation fails the range condition for maximality."""


class IllDefined(SkewextError):
    """Raised when boundary values do not span the boundary space.

    Signals a violated maximality premise in the contraction read-off.
    """


class DecompositionFailure(SkewextError):
    """Raised when the canonical graph decomposition fails its gap check
    against Graph(H0*)."""


class TraceNotZero(SkewextError):
    """Raised when a half-line function with nonzero boundary trace is supplied
    where the domain requires trace zero."""


class NotOrthonormal(SkewextError, ValueError):
    """Raised when a subspace basis is not orthonormal within tolerance."""


class InvalidTolerance(SkewextError, ValueError):
    """Raised when a rank threshold lies outside (0, 1), or is NaN."""


class NotExact(SkewextError, TypeError):
    """Raised when a half-line value is not an exact rational or Gaussian
    rational (a float, say)."""


class InvalidTerm(SkewextError, ValueError):
    """Raised when a half-line term has a bad degree or rate, or repeats a key."""
