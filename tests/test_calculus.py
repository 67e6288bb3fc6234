import math
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ctxprob.calculus import (
    ContextTriple,
    Degenerate,
    DegenerateReason,
    Hyperbolic,
    Probability,
    TransitionAnalysis,
    Trigonometric,
    analyze,
    classify,
    lambda_range,
    reconstruct_probability,
)
from ctxprob.errors import (
    AdditivityViolation,
    DegenerateDenominator,
    InadmissibleLambda,
    InvalidProbability,
    NonFinite,
)

# Strategies for well-behaved probabilities: bounded away from 0 so the
# normalizing denominator 2*sqrt(a*b) cannot amplify round-off past the
# 1e-12 identity tolerances.
positive_probs = st.floats(min_value=0.01, max_value=1.0)
unit_floats = st.floats(min_value=0.0, max_value=1.0)
# Log-uniform down to the smallest subnormal, 5e-324, so that tiny, subnormal
# and underflowing reference products are all drawn.
log_uniform_probs = st.floats(min_value=math.log(5e-324), max_value=0.0).map(
    lambda x: max(math.exp(x), 5e-324)
)


class TestProbability:
    def test_plain_values(self):
        assert Probability(0.3) == 0.3
        assert float(Probability(0)) == 0.0
        assert float(Probability(1)) == 1.0

    def test_round_off_is_clipped(self):
        assert Probability(1.0 + 5e-13) == 1.0
        assert Probability(-5e-13) == 0.0

    @pytest.mark.parametrize("bad", [1.1, -0.01, 1.0 + 2e-12, float("nan"), float("inf"), -math.inf])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(InvalidProbability):
            Probability(bad)

    def test_behaves_like_float(self):
        assert Probability(0.25) * 2 == 0.5
        assert math.sqrt(Probability(0.25)) == 0.5

    def test_zero_is_stored_as_positive_zero(self):
        assert math.copysign(1.0, Probability(-0.0)) == 1.0
        assert repr(Probability(-0.0)) == "Probability(0.0)"


class TestContextTriple:
    def test_coerces_fields(self):
        t = ContextTriple(0.9, 0.1, 0.1)
        assert isinstance(t.p_s, Probability)
        assert t.p1 is None and t.p2 is None

    def test_subcontexts_must_come_together(self):
        with pytest.raises(AdditivityViolation):
            ContextTriple(0.9, 0.1, 0.1, p1=0.4)

    def test_additivity_enforced(self):
        ContextTriple(0.9, 0.1, 0.1, p1=0.4, p2=0.5)
        with pytest.raises(AdditivityViolation):
            ContextTriple(0.9, 0.1, 0.1, p1=0.1, p2=0.1)

    def test_additivity_tolerance(self):
        ContextTriple(0.9 + 1e-10, 0.1, 0.1, p1=0.4, p2=0.5)
        with pytest.raises(AdditivityViolation, match=r"\(tolerance 1\.0e-09\)"):
            ContextTriple(0.9 + 1e-6, 0.1, 0.1, p1=0.4, p2=0.5)


class TestDelta:
    """delta as analyze computes it: p_s - p1' - p2', which is (p1 - p1') + (p2 - p2')
    when the triple carries an additive pre-transition pair."""

    def test_componentwise_examples(self):
        delta = analyze(ContextTriple(0.9, 0.1, 0.1, 0.4, 0.5)).delta
        assert delta == pytest.approx(0.7, abs=1e-12)
        assert analyze(ContextTriple(0.5, 0.3, 0.2, 0.3, 0.2)).delta == 0.0
        assert analyze(ContextTriple(0.0, 0.5, 0.5, 0.0, 0.0)).delta == -1.0

    def test_reference_examples(self):
        assert analyze(ContextTriple(0.9, 0.1, 0.1)).delta == pytest.approx(0.7, abs=1e-12)
        assert analyze(ContextTriple(0.5, 0.3, 0.2)).delta == 0.0
        assert analyze(ContextTriple(0.0, 0.5, 0.5)).delta == -1.0

    @given(p1=unit_floats, p2=unit_floats, a=unit_floats, b=unit_floats)
    def test_componentwise_stays_in_range(self, p1, p2, a, b):
        if p1 + p2 > 1.0:
            p1, p2 = p1 / 2.0, p2 / 2.0
        assert -2.0 <= analyze(ContextTriple(p1 + p2, a, b, p1, p2)).delta <= 2.0

    @given(p1=unit_floats, p2=unit_floats, a=unit_floats, b=unit_floats)
    def test_forms_agree_on_additive_input(self, p1, p2, a, b):
        # constrain to an exactly additive pre-transition pair
        if p1 + p2 > 1.0:
            p1, p2 = p1 / 2.0, p2 / 2.0
        p_s = p1 + p2
        assert analyze(ContextTriple(p_s, a, b, p1, p2)).delta == pytest.approx(
            (p1 - a) + (p2 - b), abs=1e-12
        )


class TestLambdaCoefficient:
    """lambda as analyze computes it: delta over twice the geometric mean of the reference pair."""

    def test_examples(self):
        assert analyze(ContextTriple(0.9, 0.1, 0.1)).lam == pytest.approx(3.5, abs=1e-12)
        assert analyze(ContextTriple(0.5, 0.3, 0.2)).lam == 0.0
        lam = analyze(ContextTriple(0.5 + math.sqrt(0.06), 0.3, 0.2)).lam
        assert lam == pytest.approx(0.5, abs=1e-12)

    def test_zero_reference_degenerates(self):
        assert analyze(ContextTriple(0.4, 0.0, 0.2)).lam is None
        assert analyze(ContextTriple(0.4, 0.2, 0.0)).lam is None
        with pytest.raises(DegenerateDenominator):
            lambda_range(0.0, 0.2)
        with pytest.raises(DegenerateDenominator):
            lambda_range(0.2, 0.0)


class TestClassify:
    def test_trigonometric_example(self):
        regime = classify(0.5)
        assert isinstance(regime, Trigonometric)
        assert regime.theta == pytest.approx(1.0471975511965979, abs=1e-12)

    def test_boundary_is_trigonometric(self):
        assert classify(1.0) == Trigonometric(theta=0.0)
        assert classify(-1.0) == Trigonometric(theta=math.pi)

    def test_hyperbolic_example(self):
        regime = classify(-3.5)
        assert isinstance(regime, Hyperbolic)
        assert regime.sign == -1
        assert regime.theta == pytest.approx(1.9248473002384139, abs=1e-12)

    def test_non_finite_rejected(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(NonFinite):
                classify(bad)

    def test_hyperbolic_phase_bound(self):
        # the largest phase whose cosh is finite; classify reaches it at the largest float
        bound = math.acosh(sys.float_info.max)
        assert math.isfinite(math.cosh(bound))
        assert classify(-sys.float_info.max) == Hyperbolic(sign=-1, theta=bound)
        beyond = math.nextafter(bound, math.inf)
        for theta in (beyond, 1000.0, math.inf, math.nan, 0.0):
            with pytest.raises(ValueError, match="hyperbolic phase must lie in"):
                Hyperbolic(sign=1, theta=theta)

    @given(lam=st.floats(min_value=-1.0, max_value=1.0))
    def test_trigonometric_inverse(self, lam):
        regime = classify(lam)
        assert isinstance(regime, Trigonometric)
        assert math.cos(regime.theta) == pytest.approx(lam, abs=1e-12)

    @given(
        lam=st.floats(min_value=1.0, max_value=1e6, exclude_min=True),
        sign=st.sampled_from([-1, 1]),
    )
    def test_hyperbolic_inverse(self, lam, sign):
        regime = classify(sign * lam)
        assert isinstance(regime, Hyperbolic)
        assert regime.sign == sign
        assert sign * math.cosh(regime.theta) == pytest.approx(sign * lam, rel=1e-12)


class TestReconstruct:
    def test_examples(self):
        assert reconstruct_probability(0.1, 0.1, 3.5) == pytest.approx(0.9, abs=1e-12)
        assert reconstruct_probability(0.25, 0.25, -1.0) == 0.0
        assert reconstruct_probability(0.3, 0.2, 0.5) == pytest.approx(
            abs(math.sqrt(0.3) + math.sqrt(0.2) * complex(math.cos(math.pi / 3), math.sin(math.pi / 3))) ** 2,
            abs=1e-12,
        )

    def test_inadmissible_rejected(self):
        with pytest.raises(InadmissibleLambda):
            reconstruct_probability(0.25, 0.25, 1.0 + 1e-6)
        with pytest.raises(InadmissibleLambda):
            reconstruct_probability(0.1, 0.1, -1.0 - 1e-6)

    def test_endpoints_admissible(self):
        assert reconstruct_probability(0.1, 0.1, 4.0) == 1.0
        assert reconstruct_probability(0.5, 0.5, -1.0) == 0.0

    @pytest.mark.parametrize("lam", [-1e300, -3.0, 0.0, 3.0, 1e300])
    def test_zero_reference_leaves_the_sum(self, lam):
        # no interference term without a second path, whatever the coefficient
        for a, b in ((0.0, 0.5), (0.5, 0.0)):
            assert reconstruct_probability(a, b, lam) == 0.5
        zero = reconstruct_probability(0.0, 0.0, lam)
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0

    def test_underflowing_reference_product_leaves_the_sum(self):
        assert reconstruct_probability(1e-320, 1e-320, 1e300) == 2e-320


class TestLambdaRange:
    def test_examples(self):
        assert lambda_range(0.25, 0.25) == (-1.0, 1.0)
        lo, hi = lambda_range(0.1, 0.1)
        assert lo == pytest.approx(-1.0, abs=1e-12)
        assert hi == pytest.approx(4.0, abs=1e-12)
        lo, hi = lambda_range(0.5, 0.5)
        assert lo == pytest.approx(-1.0, abs=1e-12)
        assert hi == pytest.approx(0.0, abs=1e-12)

    def test_zero_reference_degenerates(self):
        with pytest.raises(DegenerateDenominator):
            lambda_range(0.0, 0.1)

    @given(a=positive_probs, b=positive_probs)
    def test_endpoints_sound(self, a, b):
        lo, hi = lambda_range(a, b)
        assert lo <= -1.0  # AM-GM: the lower endpoint is always hyperbolic or -1
        reconstruct_probability(a, b, lo)
        reconstruct_probability(a, b, hi)
        with pytest.raises(InadmissibleLambda):
            reconstruct_probability(a, b, lo - 1e-6)
        with pytest.raises(InadmissibleLambda):
            reconstruct_probability(a, b, hi + 1e-6)


class TestAnalyze:
    def test_hyperbolic_example(self):
        result = analyze(ContextTriple(0.9, 0.1, 0.1))
        assert result.delta == pytest.approx(0.7, abs=1e-12)
        assert result.lam == pytest.approx(3.5, abs=1e-12)
        assert isinstance(result.regime, Hyperbolic)
        assert result.regime.sign == 1
        assert result.regime.theta == pytest.approx(1.9248473002384139, abs=1e-12)

    def test_additive_example(self):
        result = analyze(ContextTriple(0.5, 0.3, 0.2))
        assert result.delta == 0.0
        assert result.lam == 0.0
        assert result.regime == Trigonometric(theta=math.pi / 2)

    def test_inverse_of_modulus_oracle(self):
        p_s = abs(math.sqrt(0.3) + math.sqrt(0.2) * complex(math.cos(math.pi / 3), math.sin(math.pi / 3))) ** 2
        result = analyze(ContextTriple(p_s, 0.3, 0.2))
        assert result.lam == pytest.approx(0.5, abs=1e-12)
        assert result.regime.theta == pytest.approx(math.pi / 3, abs=1e-12)

    def test_degeneracy_is_encoded_not_raised(self):
        result = analyze(ContextTriple(0.4, 0.0, 0.2))
        assert result.lam is None
        assert result.regime == Degenerate(reason=DegenerateReason.P1_PRIME_ZERO)
        assert result.delta == pytest.approx(0.2, abs=1e-12)
        assert analyze(ContextTriple(0.4, 0.2, 0.0)).regime.reason is DegenerateReason.P2_PRIME_ZERO
        assert analyze(ContextTriple(0.4, 0.0, 0.0)).regime.reason is DegenerateReason.BOTH_PRIMES_ZERO

    def test_subnormal_product_underflow_degenerates(self):
        # positive references whose product underflows to zero leave lambda
        # numerically undefined; treated like a zero denominator
        result = analyze(ContextTriple(0.5, 5e-324, 5e-324))
        assert result.lam is None
        assert result.regime == Degenerate(reason=DegenerateReason.PRODUCT_UNDERFLOW)
        with pytest.raises(DegenerateDenominator):
            lambda_range(5e-324, 5e-324)

    @given(a=positive_probs, b=positive_probs, u=unit_floats)
    def test_round_trip_recovers_lambda(self, a, b, u):
        lo, hi = lambda_range(a, b)
        lam = lo + u * (hi - lo)
        p_s = reconstruct_probability(a, b, lam)
        recovered = analyze(ContextTriple(p_s, a, b)).lam
        assert recovered == pytest.approx(lam, abs=1e-12)

    @given(p_s=st.one_of(unit_floats, log_uniform_probs), a=log_uniform_probs,
           b=log_uniform_probs)
    @example(p_s=1.0, a=0.25, b=0.25)  # lambda = 1 exactly
    @example(p_s=0.0, a=0.25, b=0.25)  # lambda = -1 exactly
    @example(p_s=1.0, a=1e-300, b=1e-8)
    @example(p_s=0.5, a=5e-324, b=1.0)
    def test_regime_is_classify_of_lambda(self, p_s, a, b):
        """analyze's own path from lambda to a regime gives what classify gives."""
        result = analyze(ContextTriple(p_s, a, b))
        assume(result.lam is not None)
        assert result.regime == classify(result.lam)

    @settings(max_examples=50)
    @given(
        c=st.floats(min_value=0.01, max_value=0.5),
        scale=st.floats(min_value=0.1, max_value=1.0),
    )
    def test_classical_limit_is_linear_in_eps(self, c, scale):
        """New subcontexts p_j + eps*c near the old (0.3, 0.2): delta = -2*eps*c, |lambda| shrinks."""
        epsilons = [scale * x for x in (0.5, 0.25, 0.125)]
        points = [analyze(ContextTriple(0.5, 0.3 + e * c, 0.2 + e * c)) for e in epsilons]
        for e, point in zip(epsilons, points):
            assert point.delta == pytest.approx(-e * 2.0 * c, abs=1e-9)
        lams = [abs(p.lam) for p in points]
        assert lams == sorted(lams, reverse=True)


class _TrigonometricSubclass(Trigonometric):
    pass


class TestTransitionAnalysis:
    @pytest.mark.parametrize(
        "build,fragment",
        [
            pytest.param(lambda: TransitionAnalysis(math.nan, math.nan, Trigonometric(1.0)),
                         "delta and lam must be finite", id="nan-trigonometric"),
            pytest.param(lambda: TransitionAnalysis(0.1, math.nan, Hyperbolic(1, 2.0)),
                         "delta and lam must be finite", id="nan-lam-hyperbolic"),
            pytest.param(lambda: TransitionAnalysis(math.inf, 0.5, classify(0.5)),
                         "delta and lam must be finite", id="inf-delta"),
            pytest.param(lambda: TransitionAnalysis(0.1, 0.5, None), "unknown regime type",
                         id="regime-none"),
            pytest.param(lambda: TransitionAnalysis(0.1, math.cos(1.0), _TrigonometricSubclass(1.0)),
                         "unknown regime type", id="regime-subclass"),
        ],
    )
    def test_refuses_what_analyze_cannot_return(self, build, fragment):
        with pytest.raises(ValueError, match=fragment):
            build()
