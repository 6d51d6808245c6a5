"""Exception types shared across the package."""


class CIError(Exception):
    """Base class for all errors raised by this package."""


class UnknownVariable(CIError):
    """A statement or declaration references an undeclared variable name."""


class IllFormed(CIError):
    """A statement violates the well-formedness rules of the active context."""


class ParseError(CIError):
    """Statement/session text could not be parsed; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class GuardViolation(CIError):
    """A rule was applied to a statement shape its guard forbids."""


class SemanticsMismatch(CIError):
    """Statement kinds do not fit the chosen model semantics."""


class ZeroConditioningEvent(CIError):
    """Conditioning event has probability zero."""


class EmptyContext(CIError):
    """No regime matches the given partial decision assignment."""


class NotComplementary(CIError):
    """The statement's decision variables do not jointly identify the regime."""


class MalformedStatement(CIError):
    """The statement shape is not accepted by this checker."""


class InvalidPrior(CIError):
    """Regime prior has zero/negative mass or does not sum to one."""


class InvalidModel(CIError):
    """Model data violates its schema or invariants."""


class InvalidStrategy(CIError):
    """Strategy data violates its schema or invariants."""


class InvalidPayoff(CIError):
    """An outcome payoff map has no value for a reachable outcome."""


class NotIntervention(CIError):
    """A regime labelled as an intervention does not fix the treatment."""


class ReductionMissing(CIError):
    """A required functional reduction is not registered."""


class StabilityViolated(CIError):
    """A computation requires stagewise regime-invariance that does not hold."""


class PositivityViolated(CIError):
    """A reachable context has zero observational mass; names the context."""

    def __init__(self, context):
        super().__init__(f"zero observational mass on reachable context {context!r}")
        self.context = context
