"""Exception types shared across the package."""


class TetracurvesError(Exception):
    """Base class for all package-specific errors."""


class TrivialCurveError(TetracurvesError):
    """Raised when an operation is undefined for the trivial (all-zero) curve."""


class NotApplicableError(TetracurvesError):
    """A reduction cannot be applied: not of the requested type, or none at
    all because the curve is minimal or trivial."""


class NotMinimalError(TetracurvesError):
    """An operation that requires a minimal curve received a non-minimal one."""


class IsACMError(TetracurvesError):
    """An operation restricted to non-ACM curves received an ACM one."""


class NotACMError(TetracurvesError):
    """An operation restricted to ACM curves received a non-ACM one."""


class FNotInIdealError(TetracurvesError):
    """The form F of a basic double link does not lie in the ideal."""


class GDividesFError(TetracurvesError):
    """The linear form of a basic double link divides F, so (G, F) is not regular."""


class BoundTooSmallError(TetracurvesError):
    """A Hilbert-function computation did not stabilize within the given bound."""


class NotStableError(TetracurvesError):
    """A monomial ideal expected to be strongly stable is not."""


class DisagreementError(TetracurvesError):
    """Independent Groebner runs produced different initial ideals."""


class NotBorelFixedError(TetracurvesError):
    """A computed initial ideal is not strongly stable; the change of coordinates
    was probably degenerate."""


class EnumerationCapError(TetracurvesError):
    """A provably finite enumeration exceeded its safety cap."""


class OracleTooLargeError(TetracurvesError):
    """An oracle input would need more memory than the oracle's fixed limit."""
