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
transformed probability from its parts, bounds the admissible coefficient
range, and scans the classical limit where the two arrangements coincide.

All operations are pure functions over immutable values and are safe for
unrestricted concurrent use.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Sequence, Union

from .errors import (
    AdditivityViolation,
    DegenerateDenominator,
    InadmissibleLambda,
    InvalidPerturbedProbability,
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


@dataclass(frozen=True)
class ContextTriple:
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

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_s", Probability(self.p_s))
        object.__setattr__(self, "p1_prime", Probability(self.p1_prime))
        object.__setattr__(self, "p2_prime", Probability(self.p2_prime))
        if self.p1 is None and self.p2 is None:
            return
        if self.p1 is None or self.p2 is None:
            raise AdditivityViolation("p1 and p2 must be both present or both absent")
        object.__setattr__(self, "p1", Probability(self.p1))
        object.__setattr__(self, "p2", Probability(self.p2))
        gap = abs(self.p_s - (self.p1 + self.p2))
        if gap > _ADDITIVITY_TOL:
            raise AdditivityViolation(
                f"p_s={float(self.p_s)!r} deviates from p1+p2="
                f"{self.p1 + self.p2!r} by {gap:.3e} "
                f"(tolerance {_ADDITIVITY_TOL:.1e})"
            )


class DegenerateReason(enum.Enum):
    """Why the normalizing denominator vanished, leaving lambda undefined."""

    P1_PRIME_ZERO = "p1-prime-zero"
    P2_PRIME_ZERO = "p2-prime-zero"
    BOTH_PRIMES_ZERO = "both-primes-zero"
    PRODUCT_UNDERFLOW = "product-underflow"


@dataclass(frozen=True)
class Trigonometric:
    """``|lambda| <= 1``: the coefficient is cos(theta), theta in [0, pi]."""

    kind: ClassVar[str] = "trigonometric"
    theta: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta <= math.pi):
            raise ValueError(f"trigonometric phase must lie in [0, pi], got {self.theta!r}")
        if type(self.theta) is not float:  # kept as the float it checks as, which a report writes
            object.__setattr__(self, "theta", float(self.theta))


# Largest hyperbolic phase, about 710.4759: its cosh is the largest finite float.
_MAX_THETA = math.acosh(math.nextafter(math.inf, 0.0))


@dataclass(frozen=True)
class Hyperbolic:
    """``|lambda| > 1``: the coefficient is sign * cosh(theta), theta > 0.

    theta = 0 would mean |lambda| = 1, which the boundary rule assigns to
    the trigonometric branch, so it is rejected here; above ``_MAX_THETA``
    cosh(theta) overflows, and :func:`classify` never goes there.
    """

    kind: ClassVar[str] = "hyperbolic"
    sign: int
    theta: float

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError(f"hyperbolic sign must be +1 or -1, got {self.sign!r}")
        if not (0.0 < self.theta <= _MAX_THETA):
            raise ValueError(f"hyperbolic phase must lie in (0, {_MAX_THETA!r}], got {self.theta!r}")
        if type(self.sign) is not int or type(self.theta) is not float:  # as Trigonometric's theta
            object.__setattr__(self, "sign", int(self.sign))
            object.__setattr__(self, "theta", float(self.theta))


@dataclass(frozen=True)
class Degenerate:
    """lambda is undefined (zero reference probability); only delta is meaningful."""

    kind: ClassVar[str] = "degenerate"
    reason: DegenerateReason

    def __post_init__(self) -> None:
        if not isinstance(self.reason, DegenerateReason):
            raise ValueError(f"degenerate reason must be a DegenerateReason, got {self.reason!r}")


Regime = Union[Trigonometric, Hyperbolic, Degenerate]


@dataclass(frozen=True)
class TransitionAnalysis:
    """Perturbation, normalized coefficient and regime of one transition.

    ``lam`` is None exactly when ``regime`` is :class:`Degenerate`.
    """

    delta: float
    lam: float | None
    regime: Regime

    def __post_init__(self) -> None:
        degenerate = isinstance(self.regime, Degenerate)
        if degenerate != (self.lam is None):
            raise ValueError("lam must be None exactly for a degenerate regime")
        if isinstance(self.regime, Trigonometric):
            if abs(math.cos(self.regime.theta) - self.lam) > ROUND_OFF:
                raise ValueError("trigonometric phase does not match lam")
        elif isinstance(self.regime, Hyperbolic):
            gap = abs(self.regime.sign * math.cosh(self.regime.theta) - self.lam)
            if gap > ROUND_OFF * abs(self.lam):
                raise ValueError("hyperbolic phase does not match lam")


class CorrespondencePoint(NamedTuple):
    epsilon: float
    delta: float
    lam: float | None


def delta_componentwise(p1, p2, p1_prime, p2_prime) -> float:
    """Perturbation from per-subcontext probability differences.

    Returns ``(p1 - p1_prime) + (p2 - p2_prime)``, always in [-2, 2].
    """
    a1 = Probability(p1, "p1")
    a2 = Probability(p2, "p2")
    b1 = Probability(p1_prime, "p1_prime")
    b2 = Probability(p2_prime, "p2_prime")
    return (a1 - b1) + (a2 - b2)


def delta_from_reference(p_s, p1_prime, p2_prime) -> float:
    """Perturbation solved from the transformed additivity relation.

    Returns ``p_s - p1_prime - p2_prime``; agrees with
    :func:`delta_componentwise` whenever ``p_s`` equals ``p1 + p2``.
    """
    p_s = Probability(p_s, "p_s")
    return p_s - Probability(p1_prime, "p1_prime") - Probability(p2_prime, "p2_prime")


def _denominator(a: float, b: float, undefined: str = "lambda") -> float:
    """Return ``2*sqrt(a*b)``, the normalizer of lambda for the pair (a, b).

    A zero value (a zero probability or an underflowing product) raises
    :class:`DegenerateDenominator`, naming what is ``undefined``.
    """
    denom = 2.0 * math.sqrt(a * b)
    if denom == 0.0:
        raise DegenerateDenominator(
            f"{undefined} is undefined: the product of reference probabilities is numerically zero"
        )
    return denom


def lambda_coefficient(delta: float, p1_prime, p2_prime) -> float:
    """Normalize ``delta`` by twice the geometric mean of the reference pair.

    Raises :class:`DegenerateDenominator` when either reference probability
    is zero, signalling that the analysis must report a degenerate regime.
    """
    d = float(delta)
    if not math.isfinite(d):
        raise NonFinite(f"delta must be finite, got {delta!r}")
    return d / _denominator(Probability(p1_prime, "p1_prime"), Probability(p2_prime, "p2_prime"))


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
    if abs(x) <= 1.0:
        return Trigonometric(theta=math.acos(x))
    return Hyperbolic(sign=1 if x > 0.0 else -1, theta=math.acosh(abs(x)))


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
    value = a + b + 2.0 * math.sqrt(a * b) * x
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
    denom = _denominator(a, b, "admissible range")
    return (-(a + b) / denom, (1.0 - a - b) / denom)


def analyze(triple: ContextTriple) -> TransitionAnalysis:
    """Full analysis of one transition: delta, lambda and regime.

    Zero reference probabilities yield a degenerate result carrying delta;
    degeneracy is encoded in the analysis rather than raised, so batch
    processing never aborts.
    """
    a = triple.p1_prime
    b = triple.p2_prime
    delta = triple.p_s - a - b
    try:
        lam = delta / _denominator(a, b)
    except DegenerateDenominator:
        if a == 0.0 and b == 0.0:
            reason = DegenerateReason.BOTH_PRIMES_ZERO
        elif a == 0.0:
            reason = DegenerateReason.P1_PRIME_ZERO
        elif b == 0.0:
            reason = DegenerateReason.P2_PRIME_ZERO
        else:
            reason = DegenerateReason.PRODUCT_UNDERFLOW
        return TransitionAnalysis(delta=delta, lam=None, regime=Degenerate(reason))
    return TransitionAnalysis(delta=delta, lam=lam, regime=classify(lam))


def correspondence_scan(
    base: ContextTriple,
    perturbation: tuple[float, float],
    epsilons: Sequence[float],
) -> list[CorrespondencePoint]:
    """Scan the classical limit along a family of shrinking transitions.

    For each ``eps`` the post-transition pair is placed at
    ``p_j + eps * c_j``; as eps -> 0 the arrangements coincide, delta
    vanishes linearly (``delta(eps) = -eps * (c1 + c2)`` up to round-off)
    and the transformation reduces to plain addition.

    ``base`` must carry ``p1``/``p2``.  Perturbed values must stay inside
    (0, 1]; violations raise :class:`InvalidPerturbedProbability`.  Each
    point comes from :func:`analyze`, so ``lam`` is None where the perturbed
    product underflows to zero.
    """
    if base.p1 is None or base.p2 is None:
        raise ValueError("base triple must carry subcontext probabilities p1 and p2")
    c1, c2 = (float(perturbation[0]), float(perturbation[1]))
    if not (math.isfinite(c1) and math.isfinite(c2)):
        raise NonFinite(f"perturbation direction must be finite, got {perturbation!r}")
    points = []
    for eps in epsilons:
        e = float(eps)
        q1 = base.p1 + e * c1
        q2 = base.p2 + e * c2
        for name, q in (("p1", q1), ("p2", q2)):
            if not (0.0 < q <= 1.0 + ROUND_OFF):
                raise InvalidPerturbedProbability(
                    f"perturbed {name} = {q!r} at eps={e!r} leaves (0, 1]"
                )
        analysis = analyze(ContextTriple(base.p_s, q1, q2))
        points.append(CorrespondencePoint(epsilon=e, delta=analysis.delta, lam=analysis.lam))
    return points
