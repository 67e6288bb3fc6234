"""Interference calculus for probability transformations under context transitions.

A *context* is a complete experimental arrangement under which an event's
probability is defined.  Consider two arrangements, each split into two
disjoint subcontexts, and an event observed under all of them.  Within the
first arrangement the subcontext probabilities add up::

    p_s = p1 + p2

but replacing the subcontext probabilities with those of the *second*
arrangement perturbs the sum::

    p_s = p1_prime + p2_prime + delta

The normalized perturbation

    lambda = delta / (2 * sqrt(p1_prime * p2_prime))

classifies the transition: ``|lambda| <= 1`` is the trigonometric regime
(``lambda = cos(theta)``, the familiar interference rule), ``|lambda| > 1``
is the hyperbolic regime (``lambda = sign * cosh(theta)``), and a zero
reference probability leaves ``lambda`` undefined (degenerate).  This module
computes ``delta`` and ``lambda``, classifies transitions, reconstructs the
transformed probability from its parts and bounds the admissible coefficient
range.

All operations are pure functions over immutable values and are safe for
unrestricted concurrent use.  A record checks its fields in its own ``__init__``,
stores each field once and stays frozen.
"""

from __future__ import annotations

import enum
import math
from typing import ClassVar, Union

from .errors import (
    AdditivityViolation,
    DegenerateDenominator,
    InadmissibleLambda,
    InvalidProbability,
    NonFinite,
)


# The one round-off slack: a probability or phase at most this far outside
# its closed interval is clipped to it; further out, it is rejected.
ROUND_OFF = 1e-12
# Exact-input subcontext additivity; count data is judged by data.additivity_check.
_ADDITIVITY_TOL = 1e-9


class Probability(float):
    """A real number in [0, 1].

    Values outside the interval are rejected, except for round-off
    excursions within ``ROUND_OFF`` of an endpoint, which are clipped to
    that endpoint.  Zero is stored as +0.0, and a ``Probability`` passes
    through as it is.  ``name`` identifies the value in the error message,
    e.g. ``"p1_prime"`` or a command-line flag.
    """

    def __new__(cls, value: float, name: str = "probability") -> "Probability":
        if type(value) is cls:
            return value
        if type(value) is float and 0.0 < value <= 1.0:
            return float.__new__(cls, value)
        x = float(value)
        if not math.isfinite(x) or x < -ROUND_OFF or x > 1.0 + ROUND_OFF:
            raise InvalidProbability(f"{name} must lie in [0, 1], got {value!r}")
        return float.__new__(cls, max(0.0, min(x, 1.0)))

    def __repr__(self) -> str:
        return f"Probability({float(self)!r})"


class _Record:
    """Frozen record base: equality, hash, ``repr`` and frozenness over a record's fields.

    ``_fields`` are the annotations other than ``ClassVar``.  A record's own ``__init__``
    stores each once in ``vars()``, in declaration order, where these methods read them.
    """

    def __init_subclass__(cls) -> None:  # the annotations are strings (postponed evaluation)
        cls._fields = tuple(k for k, v in cls.__annotations__.items() if not v.startswith("ClassVar"))
        cls.__match_args__ = cls._fields

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # loaded only when a record is misused
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class ContextTriple(_Record):
    """Probabilities of one event across the contexts of a single transition.

    ``p_s`` is the probability under the pre-transition arrangement,
    ``p1_prime``/``p2_prime`` the probabilities under the post-transition
    subcontexts.  ``p1``/``p2`` optionally carry the pre-transition
    subcontext probabilities; they must be given together and must add up
    to ``p_s`` within 1e-9.
    """

    p_s: Probability
    p1_prime: Probability
    p2_prime: Probability
    p1: Probability | None = None
    p2: Probability | None = None

    def __init__(self, p_s, p1_prime, p2_prime, p1=None, p2=None) -> None:
        p_s, p1_prime, p2_prime = Probability(p_s), Probability(p1_prime), Probability(p2_prime)
        if (p1 is None) != (p2 is None):
            raise AdditivityViolation("p1 and p2 must be both present or both absent")
        if p1 is not None:
            p1, p2 = Probability(p1), Probability(p2)
            gap = abs(p_s - (p1 + p2))
            if gap > _ADDITIVITY_TOL:
                raise AdditivityViolation(f"p_s={float(p_s)!r} deviates from p1+p2={p1 + p2!r} "
                                          f"by {gap:.3e} (tolerance {_ADDITIVITY_TOL:.1e})")
        fields = self.__dict__  # each field stored once; the frozen __setattr__ refuses any more
        fields["p_s"], fields["p1_prime"], fields["p2_prime"] = p_s, p1_prime, p2_prime
        fields["p1"], fields["p2"] = p1, p2


class DegenerateReason(enum.Enum):
    """Why the normalizing denominator vanished, leaving lambda undefined."""

    P1_PRIME_ZERO = "p1-prime-zero"
    P2_PRIME_ZERO = "p2-prime-zero"
    BOTH_PRIMES_ZERO = "both-primes-zero"
    PRODUCT_UNDERFLOW = "product-underflow"


class Trigonometric(_Record):
    """``|lambda| <= 1``: the coefficient is cos(theta), theta in [0, pi]."""

    kind: ClassVar[str] = "trigonometric"
    theta: float

    def __init__(self, theta: float) -> None:
        if not (0.0 <= theta <= math.pi):
            raise ValueError(f"trigonometric phase must lie in [0, pi], got {theta!r}")
        self.__dict__["theta"] = float(theta)  # the float it checks as, which a report writes


# Largest hyperbolic phase, about 710.4759: its cosh is the largest finite float.
_MAX_THETA = math.acosh(math.nextafter(math.inf, 0.0))


class Hyperbolic(_Record):
    """``|lambda| > 1``: the coefficient is sign * cosh(theta), theta > 0.

    theta = 0 would mean |lambda| = 1, which the boundary rule assigns to
    the trigonometric branch, so it is rejected here; above ``_MAX_THETA``
    cosh(theta) overflows, and :func:`classify` never goes there.
    """

    kind: ClassVar[str] = "hyperbolic"
    sign: int
    theta: float

    def __init__(self, sign: int, theta: float) -> None:
        if sign not in (-1, 1):
            raise ValueError(f"hyperbolic sign must be +1 or -1, got {sign!r}")
        if not (0.0 < theta <= _MAX_THETA):
            raise ValueError(f"hyperbolic phase must lie in (0, {_MAX_THETA!r}], got {theta!r}")
        fields = self.__dict__  # as Trigonometric's theta
        fields["sign"], fields["theta"] = int(sign), float(theta)


class Degenerate(_Record):
    """lambda is undefined (zero reference probability); only delta is meaningful."""

    kind: ClassVar[str] = "degenerate"
    reason: DegenerateReason

    def __init__(self, reason: DegenerateReason) -> None:
        if not isinstance(reason, DegenerateReason):
            raise ValueError(f"degenerate reason must be a DegenerateReason, got {reason!r}")
        self.__dict__["reason"] = reason


Regime = Union[Trigonometric, Hyperbolic, Degenerate]


class TransitionAnalysis(_Record):
    """Perturbation, normalized coefficient and regime of one transition.

    The one gate for a transition, where ``lam`` is None exactly for a
    :class:`Degenerate` regime.  It refuses (``ValueError``) a regime that is
    not exactly a :class:`Trigonometric`, :class:`Hyperbolic` or
    :class:`Degenerate`, a NaN or infinite ``delta`` or ``lam``, a ``lam``
    against that rule, and a phase that does not give ``lam`` back.
    """

    delta: float
    lam: float | None
    regime: Regime

    def __init__(self, delta: float, lam: float | None, regime: Regime) -> None:
        kind = type(regime)
        if kind is not Trigonometric and kind is not Hyperbolic and kind is not Degenerate:
            raise ValueError(f"unknown regime type {regime!r}")
        if not (math.isfinite(delta) and (lam is None or math.isfinite(lam))):
            raise ValueError(f"delta and lam must be finite, got {delta!r} and {lam!r}")
        if (kind is Degenerate) != (lam is None):
            raise ValueError("lam must be None exactly for a degenerate regime")
        if kind is Trigonometric:  # "not <=", so that no NaN passes
            if not abs(math.cos(regime.theta) - lam) <= ROUND_OFF:
                raise ValueError("trigonometric phase does not match lam")
        elif kind is Hyperbolic:
            if not abs(regime.sign * math.cosh(regime.theta) - lam) <= ROUND_OFF * abs(lam):
                raise ValueError("hyperbolic phase does not match lam")
        fields = self.__dict__
        fields["delta"], fields["lam"], fields["regime"] = delta, lam, regime


# The transition rule, written once: analyze takes it on floats with the math
# functions, and simulation.estimate on replicate arrays with numpy's passed in.
def _normalizer(a, b, sqrt=math.sqrt):
    """``2*sqrt(a*b)``, lambda's normalizer for the reference pair (a, b).

    Zero (a zero probability or an underflowing product) leaves lambda undefined.
    """
    return 2.0 * sqrt(a * b)


def _delta_and_normalizer(p_s, a, b, sqrt=math.sqrt):
    """``delta = p_s - a - b`` and its normalizer: lambda is their ratio where that is not zero."""
    return p_s - a - b, _normalizer(a, b, sqrt)


def _same_regime(regime, lam):
    """Whether ``lam`` falls in ``regime``'s class: ``|lam| <= 1``, ``sign * lam > 1`` or NaN.

    ``lam`` is a float or an array, NaN where lambda is undefined; the
    boundary ``|lam| = 1`` is trigonometric.  ``regime`` may also be the
    :class:`Trigonometric` class itself.
    """
    if regime.kind == "trigonometric":
        return abs(lam) <= 1.0
    if regime.kind == "hyperbolic":
        return regime.sign * lam > 1.0
    return lam != lam


def _phase(regime, lam, acos=math.acos, acosh=math.acosh):
    """The phase of a ``lam`` in the class of a trigonometric or hyperbolic ``regime``."""
    return acos(lam) if regime.kind == "trigonometric" else acosh(abs(lam))


def classify(lam: float) -> Regime:
    """Classify a finite coefficient into its regime.

    ``|lam| <= 1`` maps to :class:`Trigonometric` with theta = arccos(lam)
    (the boundary |lam| = 1 is assigned here, keeping the trigonometric
    branch closed); ``|lam| > 1`` maps to :class:`Hyperbolic` with
    theta = arccosh(|lam|) and the sign of ``lam``.
    """
    x = float(lam)
    if not math.isfinite(x):
        raise NonFinite(f"lambda must be finite, got {lam!r}")
    return _regime(x)


def _regime(lam: float) -> Regime:
    """The regime of a finite float ``lam``, as :func:`classify` describes it."""
    if _same_regime(Trigonometric, lam):
        return Trigonometric(_phase(Trigonometric, lam))
    return Hyperbolic(1 if lam > 0.0 else -1, _phase(Hyperbolic, lam))


def reconstruct_probability(p1_prime, p2_prime, lam: float) -> Probability:
    """Rebuild the transformed probability from the reference pair and ``lam``.

    Returns ``p1_prime + p2_prime + 2*sqrt(p1_prime*p2_prime)*lam``, clipped
    to [0, 1].  Values outside [-ROUND_OFF, 1 + ROUND_OFF] raise
    :class:`InadmissibleLambda`: no context transition can produce them.
    """
    a = Probability(p1_prime, "p1_prime")
    b = Probability(p2_prime, "p2_prime")
    x = float(lam)
    if not math.isfinite(x):
        raise NonFinite(f"lambda must be finite, got {lam!r}")
    # A zero or underflowing product leaves a + b: 0.0 * x is a signed zero for finite x.
    value = a + b + _normalizer(a, b) * x
    if value < -ROUND_OFF or value > 1.0 + ROUND_OFF:
        raise InadmissibleLambda(
            f"lambda={x!r} maps ({float(a)!r}, {float(b)!r}) to {value!r}, outside [0, 1]"
        )
    return Probability(value)


def lambda_range(p1_prime, p2_prime) -> tuple[float, float]:
    """Closed interval of coefficients admissible for a reference pair.

    The bounds are forced by 0 <= p_s <= 1 in the reconstruction formula:
    ``lambda_min = -(a + b) / (2*sqrt(a*b))`` and
    ``lambda_max = (1 - a - b) / (2*sqrt(a*b))``.  The admissibility rule
    itself is ``a + b + 2*sqrt(a*b)*lambda`` in ``[-ROUND_OFF, 1 + ROUND_OFF]``,
    so :func:`reconstruct_probability` also accepts coefficients up to about
    ``ROUND_OFF / (2*sqrt(a*b))`` beyond either bound.
    """
    a = Probability(p1_prime, "p1_prime")
    b = Probability(p2_prime, "p2_prime")
    denom = _normalizer(a, b)
    if denom == 0.0:
        raise DegenerateDenominator("admissible range is undefined: "
                                    "the product of reference probabilities is numerically zero")
    return (-(a + b) / denom, (1.0 - a - b) / denom)


def analyze(triple: ContextTriple) -> TransitionAnalysis:
    """Full analysis of one transition: delta, lambda and regime.

    Zero reference probabilities yield a degenerate result carrying delta;
    degeneracy is encoded in the analysis rather than raised, so batch
    processing never aborts.
    """
    a = triple.p1_prime
    b = triple.p2_prime
    delta, denom = _delta_and_normalizer(triple.p_s, a, b)
    if denom == 0.0:
        if a == 0.0 and b == 0.0:
            reason = DegenerateReason.BOTH_PRIMES_ZERO
        elif a == 0.0:
            reason = DegenerateReason.P1_PRIME_ZERO
        elif b == 0.0:
            reason = DegenerateReason.P2_PRIME_ZERO
        else:
            reason = DegenerateReason.PRODUCT_UNDERFLOW
        return TransitionAnalysis(delta=delta, lam=None, regime=Degenerate(reason))
    # Finite without classify's checks: |delta| <= 2 and denom >= 2*sqrt(5e-324).
    lam = delta / denom
    return TransitionAnalysis(delta, lam, _regime(lam))
