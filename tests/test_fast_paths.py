"""The exact-type fast paths of ``Probability`` agree with the general rule.

``Probability`` passes a ``Probability`` through and takes an exact float in
(0, 1] with one comparison.  Every other input goes down the general path.
The reference below is that general path on its own, as it was before the
fast paths were added (with zero stored as +0.0).  For each input, both
sides must raise the same exception type and message, or return the same
type with the same value, compared bit for bit.
"""

import math
import struct
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxprob.calculus import ROUND_OFF, Probability
from ctxprob.errors import InvalidProbability


def reference_probability(value, name="probability"):
    x = float(value)
    if not math.isfinite(x) or x < -ROUND_OFF or x > 1.0 + ROUND_OFF:
        raise InvalidProbability(f"{name} must lie in [0, 1], got {value!r}")
    return float.__new__(Probability, max(0.0, min(x, 1.0)))


def _outcome(call, *args):
    try:
        result = call(*args)
    except Exception as e:  # the exception is the outcome under comparison
        return type(e), str(e)
    return type(result), struct.pack("<d", result)


class Real(float):
    pass


EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, math.nextafter(0.0, -1.0),
    math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 0.5, 2.0, -1.0,
    ROUND_OFF, -ROUND_OFF, 1.0 + ROUND_OFF, -ROUND_OFF / 2, 1.0 + ROUND_OFF / 2,
    math.nextafter(-ROUND_OFF, -1.0), math.nextafter(1.0 + ROUND_OFF, 2.0),
    math.nan, math.inf, -math.inf,
    True, False, 0, 1, 2, -1, 2**63, 2**64,
    np.float64(0.5), np.float64(-0.0), np.float64(1.0), np.float64(math.nan),
    np.int64(0), np.int64(1), np.int64(7), np.uint64(2**64 - 1),
    Fraction(1, 3), Fraction(-1, 10**13), Fraction(3, 2), Decimal("0.5"), Decimal("-0"),
    Decimal("1.5"), Decimal("NaN"),
    Real(0.5), Real(-0.0), Real(1.0), Real(4.0), Probability(0.25), Probability(0.0),
    Probability(1.0), "0.5", "-0", "x", b"0.5", b"", None,
]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
def test_probability_agrees_with_reference(value):
    assert _outcome(Probability, value, "--p1p") == _outcome(reference_probability, value, "--p1p")


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.floats(),
    st.floats(min_value=-2 * ROUND_OFF, max_value=2 * ROUND_OFF),
    st.floats(min_value=1.0 - 2 * ROUND_OFF, max_value=1.0 + 2 * ROUND_OFF),
))
def test_probability_agrees_with_reference_on_floats(value):
    assert _outcome(Probability, value) == _outcome(reference_probability, value)


def test_probability_passes_through():
    p = Probability(0.25)
    assert Probability(p) is p
    assert Probability(p, "--p1p") is p

