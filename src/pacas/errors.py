"""Exception taxonomy shared across the package."""


class PacasError(Exception):
    """Base class for all domain errors."""


class MalformedHierarchy(PacasError):
    pass


class UnknownValue(PacasError):
    pass


class UnknownAttribute(PacasError):
    pass


class LevelBelowValue(PacasError):
    pass


class SchemaMismatch(PacasError):
    pass


class AlignmentMismatch(PacasError):
    pass


class DuplicateTupleId(PacasError):
    pass


class StaleClass(PacasError):
    pass


class NoClasses(PacasError):
    pass


class EmptyRelation(PacasError):
    pass


class EmptyInstanceSet(PacasError):
    pass


class StalePartition(PacasError):
    pass


class MalformedSnapshot(PacasError):
    pass


class NoApplicableMD(PacasError):
    pass


class QuoteMismatch(PacasError):
    pass


class UnsafeRequest(PacasError):
    pass


class NoMatch(PacasError):
    pass


class LevelCapViolation(PacasError):
    pass


class RateInfeasible(PacasError):
    pass


class ProtocolError(PacasError):
    pass
