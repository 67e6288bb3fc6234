import cmath
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
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
    Hyperbolic,
    analyze,
    lambda_range,
    reconstruct_probability,
)
from ctxprob.data import CountRow, CountTable
from ctxprob.errors import DegenerateRegime, InadmissibleLambda
from ctxprob.simulation import report_from_counts

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


_HALF_SUBNORMAL = Fraction(2) ** -1075


def _modulus_bound(p1_prime, p2_prime, delta, theta, wave) -> float:
    """The bound on ``|re**2 - hy**2 - p_S|`` for the wave of a hyperbolic analysis.

    The amplitudes docstring states it and README derives it.
    """
    scale = max(wave.re * wave.re + wave.hy * wave.hy, 1.0)
    bound = (27.0 + 4.0 * theta) * sys.float_info.epsilon * scale
    product = Fraction(p1_prime) * Fraction(p2_prime)
    if product < sys.float_info.min:  # a subnormal product rounds lambda's normalizer
        omega = _HALF_SUBNORMAL / (product - _HALF_SUBNORMAL)
        bound += float(2 * abs(Fraction(delta)) * omega)
    return bound


# Log-uniform down to 1e-300: tiny p' drive lambda, and cosh(theta), far past 1e100.
_log_uniform = st.floats(min_value=math.log(1e-300), max_value=0.0).map(math.exp)


@st.composite
def _count_rows(draw, label):
    trials = draw(st.integers(min_value=1, max_value=2**63 - 1))
    return CountRow(label, draw(st.integers(min_value=0, max_value=trials)), trials)


class TestHyperbolicModulusBound:
    """A hyperbolic wave's modulus meets the bound stated in the amplitudes docstring.

    Its form ``re**2 - hy**2`` cancels two numbers of size ``re**2 + hy**2``,
    so that sum, not p_S, sets the error; the bound is far from p_S itself
    once p1' is small.
    """

    @given(p_s=st.one_of(st.floats(min_value=0.0, max_value=1.0), _log_uniform),
           a=_log_uniform, b=_log_uniform)
    @example(p_s=1.0, a=1e-300, b=1e-8)  # both components 4.9999999499999945e+149, modulus 0.0
    def test_direct_triples(self, p_s, a, b):
        analysis = analyze(ContextTriple(p_s, a, b))
        assume(type(analysis.regime) is Hyperbolic)
        wave = wave_from_analysis(a, b, analysis)
        bound = _modulus_bound(a, b, analysis.delta, analysis.regime.theta, wave)
        assert abs(wave.hyperbolic_modulus - p_s) <= bound

    @given(s=_count_rows("S"), s1p=_count_rows("S1p"), s2p=_count_rows("S2p"))
    @example(s=CountRow("S", 9 * 2**62 // 10, 2**62), s1p=CountRow("S1p", 1, 2**62),
             s2p=CountRow("S2p", 2**62 // 20, 2**62))  # modulus 0.0 against p_S = 0.9
    def test_count_tables(self, s, s1p, s2p):
        doc = report_from_counts(CountTable((s, s1p, s2p)), replicates=0)
        assume(type(doc.regime) is Hyperbolic)
        p_s, a, b = (doc.inputs[label].p_hat for label in ("S", "S1p", "S2p"))
        bound = _modulus_bound(a, b, doc.delta, doc.regime.theta, doc.wave)
        assert abs(doc.wave.hyperbolic_modulus - p_s) <= bound
