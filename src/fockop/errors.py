"""Exception hierarchy shared by all fockop modules."""


class FockopError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(FockopError):
    """A and B have inconsistent or non-square shapes."""


class NonFiniteEntryError(FockopError):
    """An input matrix or vector contains NaN or infinity."""


class NonSquareError(FockopError):
    """A matrix that must be square is not."""


class NormExceedsOneError(FockopError):
    """The operator norm of A exceeds 1 beyond tolerance."""


class StructureViolationError(FockopError):
    """A certified structural property of a decomposition failed numerically.

    Raised when rows belonging to unimodular diagonal entries of a Schur
    form carry off-diagonal mass above tolerance.  For a genuine norm-one
    contraction this is impossible; seeing it means the input sits on the
    wrong side of the tolerance band.
    """


class NotBoundedError(FockopError):
    """Operation requires a bounded composition operator."""


class NotCompactError(FockopError):
    """Operation requires a compact composition operator."""


class InconsistentError(FockopError):
    """A linear system that must be consistent has a large residual."""


class IdentityViolationError(FockopError):
    """Two closed-form expressions that must agree disagree numerically."""


class QuadratureDivergenceError(FockopError):
    """Estimates fail to settle under refinement."""


class NotDiagonalizableError(FockopError):
    """Eigenvector basis is numerically defective."""


class ForwardOrbitUnsupportedError(FockopError):
    """Closed-form forward kernel orbits exist only in one variable."""


class SizeOverflowError(FockopError):
    """A requested size or a computed value exceeds its limit: the
    truncation basis dimension cap, or the range of a double."""


class AdjointNotGradedError(FockopError):
    """Adjoint-side truncation identity requires a zero translation."""


class ParseError(FockopError):
    """A symbol document or a command-line value could not be parsed."""
