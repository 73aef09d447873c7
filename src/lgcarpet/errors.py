"""Exception types shared across the package."""


class CarpetError(Exception):
    """Base class for all domain errors raised by lgcarpet."""


class SchemaError(CarpetError):
    """Spec JSON is structurally wrong (missing fields, bad value formats)."""


class EmptyAttractor(CarpetError):
    """Every row of the spec is empty, so there is no attractor to work with."""


class InvalidDigit(CarpetError):
    """A word refers to a row/cell index that does not exist in the spec."""


class InvalidRatio(CarpetError):
    """A height ratio lies outside (0, 1), so the words would never all stop."""


class InvalidSetting(CarpetError):
    """An environment variable holds a value outside its documented domain."""


class BudgetExceeded(CarpetError):
    """A call would build more pieces than the LG_MAX_CYLINDERS budget allows."""


class NoConvergence(CarpetError):
    """Bisection failed to bracket or reach tolerance within the iteration cap."""


class NotInProjection(CarpetError):
    """Requested y does not belong to the vertical projection of the attractor."""


class InvalidCoding(CarpetError):
    """A row coding is empty, too short, or uses a row with no cells."""


class EmptyInput(CarpetError):
    """An operation needing at least one rectangle/interval received none."""


class CodingsNotDiverging(CarpetError):
    """Two codings compared as distinct agree on every digit up to the depth."""


class NoGapFound(CarpetError):
    """No complementary gap interval of the required size exists for this row."""


class OracleCapExceeded(CarpetError):
    """Brute-force gap-sequence oracle refused an input above its size cap."""


class TooFewGaps(CarpetError):
    """Scaling fit needs more gap entries than the sequence provides."""


class ChainUnavailable(CarpetError):
    """No epsilon chain exists: some row of the spec is empty."""


class VerificationFailed(CarpetError):
    """A cross-check between two independent computations disagreed."""
