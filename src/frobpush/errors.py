"""Exception hierarchy shared by all frobpush modules.

Every error here is a computation-domain error, bad mathematical input or a
question the data cannot answer, and the command line maps each to exit
code 1.  Every builder answers at every q: no error marks an input outside
a formula's range.
"""


class FrobpushError(Exception):
    """Base class for all computation-domain errors."""


class InvalidParameterError(FrobpushError):
    """A precondition on a numeric parameter was violated."""


class LatticeMismatchError(FrobpushError):
    """Two classes (or a class and a decomposition) live in different lattices."""


class RankUndefinedError(FrobpushError):
    """Rank requested for a support-only decomposition."""


class DeterminantUnsupportedError(FrobpushError):
    """Determinant requested for a decomposition with non-line summands."""


class NotFSplitError(FrobpushError):
    """No trivial summand to remove; the decomposition is not split-compatible."""


class UnsupportedConeError(FrobpushError):
    """Ample/nef classification requested on a variety with no implemented cone."""
