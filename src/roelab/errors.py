"""Exception hierarchy shared by all roelab modules."""


class RoelabError(Exception):
    """Base class for all roelab-specific errors."""


class NonSymmetricInput(RoelabError):
    pass


class DisconnectedGraph(RoelabError):
    pass


class InvalidMetric(RoelabError):
    pass


class TooLargeForExact(RoelabError):
    pass


class EmptySubset(RoelabError):
    pass


class GenerationFailed(RoelabError):
    pass


class NotPrime(RoelabError):
    pass


class TooLarge(RoelabError):
    pass


class AlphaOutOfBall(RoelabError):
    pass


class DimensionMismatch(RoelabError):
    pass


class RankDeficient(RoelabError):
    pass


class RejectionBudgetExhausted(RoelabError):
    pass


class IntervalTooShort(RoelabError):
    pass


class NotAContraction(RoelabError):
    pass


class HypothesisViolated(RoelabError):
    pass


class KernelInvalid(RoelabError):
    pass


class SchemaMismatch(RoelabError):
    pass
