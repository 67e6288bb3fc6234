"""Two-term wave representations of context transitions.

A trigonometric transition is carried by the complex wave

    phi = sqrt(p1_prime) + sqrt(p2_prime) * e^{i*theta}

whose squared modulus reproduces the transformed probability
``p1' + p2' + 2*sqrt(p1'*p2')*cos(theta)``.  The hyperbolic analog uses
split-complex numbers (unit j with j**2 = +1): the modulus form
``re**2 - hy**2`` plays the role the complex modulus plays in the
trigonometric case and reproduces ``p1' + p2' +/- 2*sqrt(p1'*p2')*cosh(theta)``.

In floating point that form cancels two numbers of size ``re**2 + hy**2``,
so a small p1' loses p_S.  For the wave of a hyperbolic ``analyze`` with
phase theta and eps = 2**-52, to first order (README derives the constant)::

    |re**2 - hy**2 - p_S| <= (27 + 4*theta) * eps * max(re**2 + hy**2, 1) + 2*|delta|*omega

with omega = 2**-1075 / (p1'*p2' - 2**-1075) for a subnormal p1'*p2', else 0.
"""

from __future__ import annotations

import math
from typing import ClassVar, Union

from .calculus import (
    ROUND_OFF,
    Hyperbolic,
    Probability,
    TransitionAnalysis,
    Trigonometric,
    _MAX_THETA,
    _Record,
    reconstruct_probability,
)
from .errors import DegenerateRegime, NonFinite


class ComplexAmplitude(_Record):
    """A complex number split into components; modulus is re**2 + im**2."""

    kind: ClassVar[str] = "complex"
    re: float
    im: float

    def __init__(self, re: float, im: float) -> None:
        fields = self.__dict__
        fields["re"], fields["im"] = re, im

    @property
    def components(self) -> tuple[float, float]:
        return (self.re, self.im)

    @property
    def squared_modulus(self) -> float:
        return self.re * self.re + self.im * self.im


class SplitComplexAmplitude(_Record):
    """A split-complex number ``re + hy*j`` with j**2 = +1.

    The modulus form ``re**2 - hy**2`` may be any real; waves built by
    :func:`hyper_wave` from admissible inputs have it in [0, 1].
    """

    kind: ClassVar[str] = "split-complex"
    re: float
    hy: float

    def __init__(self, re: float, hy: float) -> None:
        fields = self.__dict__
        fields["re"], fields["hy"] = re, hy

    @property
    def components(self) -> tuple[float, float]:
        return (self.re, self.hy)

    @property
    def hyperbolic_modulus(self) -> float:
        return self.re * self.re - self.hy * self.hy


def trig_wave(p1_prime, p2_prime, theta: float) -> ComplexAmplitude:
    """Complex wave of a trigonometric transition.

    Returns ``sqrt(p1') + sqrt(p2') * (cos(theta) + i*sin(theta))`` for a
    phase in [0, pi].  Its squared modulus equals
    ``p1' + p2' + 2*sqrt(p1'*p2')*cos(theta)`` identically, with no
    admissibility restriction.
    """
    a = Probability(p1_prime, "p1_prime")
    b = Probability(p2_prime, "p2_prime")
    t = float(theta)
    if not (-ROUND_OFF <= t <= math.pi + ROUND_OFF):
        raise ValueError(f"trigonometric phase must lie in [0, pi], got {theta!r}")
    t = min(max(t, 0.0), math.pi)
    ra = math.sqrt(a)
    rb = math.sqrt(b)
    return ComplexAmplitude(re=ra + rb * math.cos(t), im=rb * math.sin(t))


def hyper_wave(p1_prime, p2_prime, theta: float, sign: int) -> SplitComplexAmplitude:
    """Split-complex wave of a hyperbolic transition.

    For sign = +1 returns ``sqrt(p1') + sqrt(p2')*(cosh(theta) + j*sinh(theta))``;
    for sign = -1 the second term enters with a relative minus sign, which
    keeps both components real while flipping the interference term.  The
    hyperbolic modulus equals ``p1' + p2' + sign*2*sqrt(p1'*p2')*cosh(theta)``
    and must land in [0, 1]; otherwise :class:`InadmissibleLambda` is raised,
    exactly as in the probability reconstruction with lambda = sign*cosh(theta).
    """
    a = Probability(p1_prime, "p1_prime")
    b = Probability(p2_prime, "p2_prime")
    t = float(theta)
    if not (0.0 <= t <= _MAX_THETA):  # beyond it cosh(t) overflows
        raise NonFinite(f"hyperbolic phase must lie in [0, {_MAX_THETA!r}], got {theta!r}")
    if sign not in (-1, 1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    ch = math.cosh(t)
    sh = math.sinh(t)
    reconstruct_probability(a, b, sign * ch)  # admissibility gate
    ra = math.sqrt(a)
    rb = math.sqrt(b)
    if sign == 1:
        return SplitComplexAmplitude(re=ra + rb * ch, hy=rb * sh)
    return SplitComplexAmplitude(re=ra - rb * ch, hy=-rb * sh)


def wave_from_analysis(
    p1_prime, p2_prime, analysis: TransitionAnalysis
) -> Union[ComplexAmplitude, SplitComplexAmplitude]:
    """Wave carrying an analyzed transition.

    Dispatches on the regime: trigonometric analyses yield a complex wave,
    hyperbolic ones a split-complex wave; the wave's (squared or hyperbolic)
    modulus reproduces the probability the analysis came from.  Degenerate
    analyses have no phase and raise :class:`DegenerateRegime`.
    """
    regime = analysis.regime
    if isinstance(regime, Trigonometric):
        return trig_wave(p1_prime, p2_prime, regime.theta)
    if isinstance(regime, Hyperbolic):
        return hyper_wave(p1_prime, p2_prime, regime.theta, regime.sign)
    raise DegenerateRegime(f"no wave exists for a degenerate analysis ({regime.reason.value})")
