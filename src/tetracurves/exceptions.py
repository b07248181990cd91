"""Exception types shared across the package, and the one size guard: each
computation whose memory grows with its input estimates its peak bytes from
a per-item cost measured where it runs, and calls `refuse_over_limit`
before it allocates."""

ORACLE_MEMORY_LIMIT = 1 << 30


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
    """An oracle input, or an answer large by nature (a Betti table, a gin,
    a trace's steps or weights), would need more memory than
    ORACLE_MEMORY_LIMIT."""


def refuse_over_limit(estimate: int, what: str) -> None:
    """Raise OracleTooLargeError, "<what> about <estimate in MiB> MiB", when
    an estimate of `estimate` bytes exceeds ORACLE_MEMORY_LIMIT."""
    if estimate > ORACLE_MEMORY_LIMIT:
        raise OracleTooLargeError(f"{what} about {estimate >> 20} MiB")
