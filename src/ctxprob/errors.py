"""Semantic exception hierarchy shared by all ctxprob modules."""


class CtxprobError(Exception):
    """Base class of the domain errors: well-formed input that the package cannot accept.

    A malformed argument, such as a negative replicate count or a sign other than +1 or -1,
    is a plain ``ValueError``, which the command line rules out before it calls.
    """


class InvalidProbability(CtxprobError, ValueError):
    """A value meant to be a probability lies outside [0, 1]."""


class AdditivityViolation(CtxprobError, ValueError):
    """Subcontext probabilities fail the additive-decomposition check."""


class DegenerateDenominator(CtxprobError, ZeroDivisionError):
    """The transition coefficient is undefined: a reference probability is zero."""


class NonFinite(CtxprobError, ValueError):
    """A coefficient that must be finite is NaN or infinite."""


class InadmissibleLambda(CtxprobError, ValueError):
    """The coefficient maps outside [0, 1]: no context transition can produce it."""


class DegenerateRegime(CtxprobError):
    """An operation that needs a phase was handed a degenerate analysis."""


class DegenerateVariance(CtxprobError):
    """Every variance term vanishes while the tested difference does not."""


class InvalidScenario(CtxprobError, ValueError):
    """Scenario parameters violate the scenario family's constraints."""


class ParseError(CtxprobError, ValueError):
    """Malformed count file or report document.

    Carries the 1-based ``line`` where parsing failed and a machine-readable
    ``kind`` (a :class:`ctxprob.data.ParseErrorKind` member).
    """

    def __init__(self, message: str, *, line: int, kind) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.kind = kind
