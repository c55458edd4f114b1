"""Exception types shared across the package."""


class SpechtvarError(Exception):
    """Base class for all package-specific errors."""


class NoSolution(SpechtvarError):
    """A linear system B X = C is inconsistent."""


class RankDeficient(SpechtvarError):
    """A matrix required to have full column rank does not."""


class ArityMismatch(SpechtvarError):
    """An evaluation point has the wrong number of coordinates."""


class TooLarge(SpechtvarError):
    """An enumeration would exceed its hard size cap."""


class PreconditionViolated(SpechtvarError):
    """Input violates a documented precondition."""


class NonUniqueA(SpechtvarError):
    """The row-move source index is not unique; indicates a bug upstream."""


class NonTermination(SpechtvarError):
    """An iteration guard tripped; indicates a bug upstream."""


class RankCheckFailed(SpechtvarError):
    """A constructed basis matrix is not full column rank."""


class ZeroPoint(SpechtvarError):
    """Jordan data or a projective point requested at the zero vector."""


class CertificationFailed(SpechtvarError):
    """Randomized generic-type sampling could not certify a dominant sample."""


class TooManyPoints(SpechtvarError):
    """A projective enumeration would exceed its point cap."""


class InconsistentCounts(SpechtvarError):
    """Point counts across field extensions do not fit a single dimension."""


class NotBlockMultiple(SpechtvarError):
    """A composition was required to have all parts divisible by p."""
