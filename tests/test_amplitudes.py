import cmath
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ctxprob.amplitudes import (
    ComplexAmplitude,
    SplitComplexAmplitude,
    hyper_wave,
    trig_wave,
    wave_from_analysis,
)
from ctxprob.calculus import (
    ROUND_OFF,
    ContextTriple,
    analyze,
    lambda_range,
    reconstruct_probability,
)
from ctxprob.errors import DegenerateRegime, InadmissibleLambda

positive_probs = st.floats(min_value=0.01, max_value=1.0)


class TestTrigWave:
    def test_destructive_symmetric(self):
        wave = trig_wave(0.5, 0.5, math.pi)
        assert wave.re == 0.0
        assert abs(wave.im) < 1e-15
        assert wave.squared_modulus == pytest.approx(0.0, abs=1e-12)

    def test_oracle_case(self):
        wave = trig_wave(0.3, 0.2, math.pi / 3)
        oracle = abs(math.sqrt(0.3) + math.sqrt(0.2) * cmath.exp(1j * math.pi / 3)) ** 2
        assert wave.squared_modulus == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(0.7449489742783177, abs=1e-12)

    def test_constructive_symmetric(self):
        wave = trig_wave(0.25, 0.25, 0.0)
        assert (wave.re, wave.im) == (1.0, 0.0)
        assert wave.squared_modulus == 1.0

    def test_phase_outside_range_rejected(self):
        with pytest.raises(ValueError):
            trig_wave(0.3, 0.2, -0.1)
        with pytest.raises(ValueError):
            trig_wave(0.3, 0.2, math.pi + 0.1)

    @given(
        a=st.floats(min_value=1e-6, max_value=1.0),
        b=st.floats(min_value=1e-6, max_value=1.0),
        theta=st.floats(min_value=0.0, max_value=math.pi),
    )
    def test_modulus_identity(self, a, b, theta):
        wave = trig_wave(a, b, theta)
        oracle = abs(math.sqrt(a) + math.sqrt(b) * cmath.exp(1j * theta)) ** 2
        assert wave.squared_modulus == pytest.approx(oracle, abs=1e-12)
        closed_form = a + b + 2.0 * math.sqrt(a * b) * math.cos(theta)
        assert wave.squared_modulus == pytest.approx(closed_form, abs=1e-12)


class TestHyperWave:
    def test_positive_sign_oracle(self):
        theta = math.acosh(3.5)
        wave = hyper_wave(0.1, 0.1, theta, +1)
        assert wave.hyperbolic_modulus == pytest.approx(0.9, abs=1e-12)

    def test_zero_phase_collapses_to_square(self):
        wave = hyper_wave(0.1, 0.1, 0.0, +1)
        assert wave.hy == 0.0
        assert wave.hyperbolic_modulus == pytest.approx(0.4, abs=1e-12)

    def test_negative_sign_zero_phase(self):
        wave = hyper_wave(0.04, 0.01, 0.0, -1)
        assert wave.hyperbolic_modulus == pytest.approx(0.01, abs=1e-12)

    def test_inadmissible_rejected(self):
        with pytest.raises(InadmissibleLambda):
            hyper_wave(0.5, 0.5, 1.0, +1)  # modulus above 1
        with pytest.raises(InadmissibleLambda):
            hyper_wave(0.25, 0.25, math.acosh(1.5), -1)  # modulus below 0

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            hyper_wave(0.1, 0.1, 1.0, 0)

    def test_round_off_beyond_lambda_range(self):
        # At a = b = 0.5 the range is [-1, 0], and lambda = -1 - eps maps to -eps.
        assert lambda_range(0.5, 0.5) == (-1.0, 0.0)
        assert reconstruct_probability(0.5, 0.5, -1.0 - 5e-13) == 0.0
        assert hyper_wave(0.5, 0.5, 1e-6, -1).hyperbolic_modulus == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(InadmissibleLambda):
            reconstruct_probability(0.5, 0.5, -1.0 - 2e-12)
        with pytest.raises(InadmissibleLambda):
            hyper_wave(0.5, 0.5, 2e-6, -1)  # cosh(2e-6) is about 1 + 2e-12

    @given(
        a=positive_probs,
        b=positive_probs,
        theta=st.floats(min_value=0.0, max_value=3.0),
        sign=st.sampled_from([-1, 1]),
    )
    @example(a=0.5, b=0.5, theta=1e-6, sign=-1)  # lambda = -1 - 5e-13, just outside lambda_range
    def test_modulus_identity_where_admissible(self, a, b, theta, sign):
        lam = sign * math.cosh(theta)
        value = a + b + 2.0 * math.sqrt(a * b) * lam
        if not (-ROUND_OFF <= value <= 1.0 + ROUND_OFF):
            with pytest.raises(InadmissibleLambda):
                hyper_wave(a, b, theta, sign)
            return
        wave = hyper_wave(a, b, theta, sign)
        closed_form = a + b + sign * 2.0 * math.sqrt(a * b) * math.cosh(theta)
        assert wave.hyperbolic_modulus == pytest.approx(closed_form, abs=1e-9)
        assert wave.hyperbolic_modulus == pytest.approx(
            float(reconstruct_probability(a, b, lam)), abs=1e-9
        )


class TestSplitComplexModulus:
    def test_direct_expansion(self):
        # (sqrt(a) + sqrt(b)*cosh(t))**2 - b*sinh(t)**2 == a + b + 2*sqrt(a*b)*cosh(t)
        for a in (0.05, 0.3, 1.0):
            for b in (0.05, 0.45, 1.0):
                for t in (0.0, 1.0, 3.0):
                    amp = SplitComplexAmplitude(
                        re=math.sqrt(a) + math.sqrt(b) * math.cosh(t),
                        hy=math.sqrt(b) * math.sinh(t),
                    )
                    target = a + b + 2.0 * math.sqrt(a * b) * math.cosh(t)
                    assert amp.hyperbolic_modulus == pytest.approx(target, rel=1e-12)

    def test_modulus_may_be_negative(self):
        assert SplitComplexAmplitude(re=0.0, hy=1.0).hyperbolic_modulus == -1.0


class TestWaveFromAnalysis:
    def test_trigonometric_dispatch(self):
        analysis = analyze(ContextTriple(0.7449489742783177, 0.3, 0.2))
        wave = wave_from_analysis(0.3, 0.2, analysis)
        assert isinstance(wave, ComplexAmplitude)
        assert wave.squared_modulus == pytest.approx(0.7449489742783177, abs=1e-12)

    def test_hyperbolic_dispatch(self):
        analysis = analyze(ContextTriple(0.9, 0.1, 0.1))
        wave = wave_from_analysis(0.1, 0.1, analysis)
        assert isinstance(wave, SplitComplexAmplitude)
        assert wave.hyperbolic_modulus == pytest.approx(0.9, abs=1e-12)

    def test_no_interference_term(self):
        analysis = analyze(ContextTriple(0.5, 0.25, 0.25))
        wave = wave_from_analysis(0.25, 0.25, analysis)
        assert wave.squared_modulus == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_rejected(self):
        analysis = analyze(ContextTriple(0.5, 0.0, 0.25))
        with pytest.raises(DegenerateRegime):
            wave_from_analysis(0.0, 0.25, analysis)

    @given(a=positive_probs, b=positive_probs, u=st.floats(min_value=0.0, max_value=1.0))
    def test_round_trip_reproduces_p_s(self, a, b, u):
        lo, hi = lambda_range(a, b)
        p_s = reconstruct_probability(a, b, lo + u * (hi - lo))
        analysis = analyze(ContextTriple(p_s, a, b))
        wave = wave_from_analysis(a, b, analysis)
        modulus = (
            wave.squared_modulus
            if isinstance(wave, ComplexAmplitude)
            else wave.hyperbolic_modulus
        )
        assert modulus == pytest.approx(float(p_s), abs=1e-12)
