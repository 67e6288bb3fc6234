import cmath
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctxprob.calculus import ContextTriple, Degenerate, Hyperbolic, Trigonometric, analyze
from ctxprob.data import (
    CONTEXT_LABELS, CountRow, CountTable, context_probabilities, parse_counts, write_counts,
)
from ctxprob import simulation
from ctxprob.errors import InvalidScenario
from ctxprob.simulation import (
    GENERATOR_NAME,
    DirectScenario,
    HyperbolicUrnScenario,
    TwoSlitScenario,
    estimate,
    sample_counts,
    scenario_truth,
)

TWO_SLIT = TwoSlitScenario(math.sqrt(0.3), math.sqrt(0.2), math.pi / 3)
URN = HyperbolicUrnScenario(0.4, 0.5, 0.1, 0.1)


def _table(*rows):
    return CountTable(tuple(CountRow(*r) for r in rows))


class TestCountTable:
    def test_rows_normalize_to_canonical_order(self):
        t = _table(("S2p", 1, 10), ("S", 9, 10), ("S1p", 1, 10))
        assert t.labels == ("S", "S1p", "S2p")
        assert t.proportion("S") == 0.9

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            _table(("S", 1, 10), ("S", 2, 10), ("S1p", 1, 10), ("S2p", 1, 10))

    def test_required_labels_enforced(self):
        with pytest.raises(ValueError):
            _table(("S", 1, 10), ("S1p", 1, 10))

    def test_row_bounds(self):
        with pytest.raises(ValueError):
            CountRow("S", 11, 10)
        with pytest.raises(ValueError):
            CountRow("S", 0, 0)

    def test_trials_bounded_like_count_files(self):
        # a larger row would be written to a count file that parse_counts refuses
        with pytest.raises(ValueError, match="2\\*\\*63"):
            CountRow("S", 1, 2**63)
        with pytest.raises(ValueError, match="2\\*\\*63"):
            CountRow("S", 1, 2.0**63)
        row = CountRow("S", 1, 2**63 - 1)
        table = CountTable((row, CountRow("S1p", 0, 1), CountRow("S2p", 0, 1)))
        assert parse_counts(write_counts(table)).table == table

    def test_non_finite_counts_refused_as_value_errors(self):
        with pytest.raises(ValueError, match=r"trials must lie in \[1, 2\*\*63\)"):
            CountRow("S", 0, math.inf)
        with pytest.raises(ValueError, match="successes must lie in"):
            CountRow("S", math.nan, 10)


class TestScenarios:
    def test_two_slit_truth_matches_complex_oracle(self):
        truth = scenario_truth(TWO_SLIT)
        oracle = abs(math.sqrt(0.3) + math.sqrt(0.2) * cmath.exp(1j * math.pi / 3)) ** 2
        assert float(truth.p_s) == pytest.approx(oracle, abs=1e-12)
        assert float(truth.p1_prime) == pytest.approx(0.3, abs=1e-12)
        assert float(truth.p2_prime) == pytest.approx(0.2, abs=1e-12)
        assert truth.p1 is None

    def test_two_slit_total_destruction(self):
        truth = scenario_truth(TwoSlitScenario(math.sqrt(0.5), math.sqrt(0.5), math.pi))
        assert float(truth.p_s) == 0.0
        assert float(truth.p1_prime) == pytest.approx(0.5, abs=1e-12)

    def test_two_slit_rejects_overflowing_intensity(self):
        with pytest.raises(InvalidScenario):
            TwoSlitScenario(math.sqrt(0.5), math.sqrt(0.5), 0.0)  # combined p = 2
        with pytest.raises(InvalidScenario):
            TwoSlitScenario(1.2, 0.0, 0.0)

    def test_two_slit_phase_slack(self):
        TwoSlitScenario(math.sqrt(0.5), math.sqrt(0.5), 3.1415927)  # rounded pi
        with pytest.raises(InvalidScenario):
            TwoSlitScenario(0.5, 0.5, 3.2)

    def test_urn_truth(self):
        truth = scenario_truth(URN)
        assert float(truth.p_s) == pytest.approx(0.9, abs=1e-12)
        assert float(truth.p1) == 0.4
        assert float(truth.p2) == 0.5

    def test_urn_rejects_non_hyperbolic_parameters(self):
        with pytest.raises(InvalidScenario):
            HyperbolicUrnScenario(0.3, 0.2, 0.3, 0.2)  # identical pairs, lambda = 0
        with pytest.raises(InvalidScenario):
            HyperbolicUrnScenario(0.25, 0.25, 0.25, 0.25)

    def test_urn_rejects_super_unit_sum(self):
        with pytest.raises(InvalidScenario):
            HyperbolicUrnScenario(0.7, 0.7, 0.1, 0.1)

    def test_urn_rejects_zero_reference(self):
        with pytest.raises(InvalidScenario):
            HyperbolicUrnScenario(0.4, 0.5, 0.0, 0.1)

    @given(
        p1=st.floats(min_value=0.05, max_value=0.5),
        p2=st.floats(min_value=0.05, max_value=0.5),
    )
    def test_urn_constructor_rejects_matching_pairs(self, p1, p2):
        # pre- and post-transition pairs equal means no deviation at all
        with pytest.raises(InvalidScenario):
            HyperbolicUrnScenario(p1, p2, p1, p2)

    def test_direct_truth_round_trips(self):
        scenario = DirectScenario(0.9, 0.1, 0.1, 0.4, 0.5)
        truth = scenario_truth(scenario)
        assert (truth.p_s, truth.p1, truth.p2) == (0.9, 0.4, 0.5)


class TestSampleCounts:
    def test_bit_for_bit_reproducible(self):
        a = sample_counts(TWO_SLIT, 5000, seed=42)
        b = sample_counts(TWO_SLIT, 5000, seed=42)
        assert a == b
        assert a != sample_counts(TWO_SLIT, 5000, seed=43)

    def test_degenerate_probabilities(self):
        zero = sample_counts(DirectScenario(0.0, 0.5, 0.5), 1000, seed=0)
        assert zero.row("S").successes == 0
        one = sample_counts(DirectScenario(1.0, 0.5, 0.5), 1000, seed=0)
        assert one.row("S").successes == 1000

    def test_contexts_present_match_truth(self):
        assert sample_counts(TWO_SLIT, 10, seed=0).labels == ("S", "S1p", "S2p")
        assert sample_counts(URN, 10, seed=0).labels == ("S", "S1", "S2", "S1p", "S2p")

    def test_adding_contexts_never_shifts_draws(self):
        # same per-context probabilities, with and without the S1/S2 rows
        bare = sample_counts(DirectScenario(0.9, 0.1, 0.1), 20000, seed=7)
        full = sample_counts(URN, 20000, seed=7)
        for label in ("S", "S1p", "S2p"):
            assert bare.row(label) == full.row(label)

    @pytest.mark.parametrize("scenario", [TWO_SLIT, URN], ids=["two-slit", "urn"])
    def test_successes_have_binomial_spread(self, scenario):
        # Across 400 fixed seeds, each context's successes must vary like
        # Binomial(n, p): the sample variance over n*p*(1-p) has a standard
        # error of about sqrt(2/399) = 0.07, so the pinned band is 3.5 of
        # them wide on each side.  A draw with the wrong n or p can keep the
        # right mean but not this spread.
        n = 10**4
        tables = [sample_counts(scenario, n, seed=seed) for seed in range(400)]
        truth = context_probabilities(scenario_truth(scenario))
        for label, p in truth.items():
            successes = np.array([t.row(label).successes for t in tables], dtype=float)
            ratio = np.var(successes, ddof=1) / (n * p * (1.0 - p))
            assert 0.75 <= ratio <= 1.25, (label, ratio)

    def test_trials_bounded_like_count_files(self):
        scenario = DirectScenario(0.5, 0.2, 0.2)
        with pytest.raises(ValueError, match="2\\*\\*63"):
            sample_counts(scenario, 2**63, seed=0)
        table = sample_counts(scenario, 2**63 - 1, seed=0)
        assert all(row.trials == 2**63 - 1 for row in table.rows)
        with pytest.raises(ValueError):
            sample_counts(scenario, 0, seed=0)

    def test_proportions_near_truth(self):
        truth = scenario_truth(TWO_SLIT)
        table = sample_counts(TWO_SLIT, 10**6, seed=42)
        for label, p in (("S", truth.p_s), ("S1p", truth.p1_prime), ("S2p", truth.p2_prime)):
            bound = 4.0 * math.sqrt(float(p) * (1.0 - float(p)) / 10**6)
            assert abs(table.proportion(label) - float(p)) <= bound


def _same_class(regime, point) -> bool:
    """Whether a replicate's regime is the point's class: its type, and its sign if hyperbolic."""
    return type(regime) is type(point) and getattr(regime, "sign", 0) == getattr(point, "sign", 0)


@st.composite
def _bootstrap_cases(draw):
    """A 3- or 5-context table with small and huge trials and zero and full proportions,
    and a replicate count, confidence and seed for it."""
    labels = draw(st.sampled_from([("S", "S1p", "S2p"), CONTEXT_LABELS]))
    rows = []
    for label in labels:
        trials = draw(st.integers(1, 8) | st.integers(1, 1000) | st.integers(1, 2**62))
        successes = draw(st.just(0) | st.just(trials) | st.integers(0, trials))
        rows.append(CountRow(label, successes, trials))
    return (
        CountTable(tuple(rows)),
        draw(st.sampled_from([1, 2, 17, 200])),
        draw(st.sampled_from([0.5, 0.9, 0.95, 0.99])),
        draw(st.integers(0, 2**64 - 1)),
    )


class TestEstimate:
    def test_exact_ratio_point_estimates(self):
        table = _table(("S", 744949, 10**6), ("S1p", 300000, 10**6), ("S2p", 200000, 10**6))
        report = estimate(table, replicates=200, seed=1)
        assert report.point.lam == pytest.approx(0.5, abs=1e-5)
        assert isinstance(report.point.regime, Trigonometric)
        assert report.point.regime.theta == pytest.approx(math.pi / 3, abs=1e-5)

    def test_exactly_additive_counts(self):
        table = _table(("S", 500, 1000), ("S1p", 300, 1000), ("S2p", 200, 1000))
        report = estimate(table, replicates=100, seed=1)
        assert report.point.delta == 0.0
        assert report.point.lam == 0.0
        assert report.point.regime == Trigonometric(theta=math.pi / 2)

    def test_hyperbolic_ratios(self):
        table = _table(("S", 900000, 10**6), ("S1p", 100000, 10**6), ("S2p", 100000, 10**6))
        report = estimate(table, replicates=500, seed=1)
        assert report.point.lam == pytest.approx(3.5, abs=1e-12)
        assert isinstance(report.point.regime, Hyperbolic)
        assert report.point.regime.sign == 1
        assert report.regime_stability == 1.0

    def test_deterministic_given_seed(self):
        table = sample_counts(TWO_SLIT, 50000, seed=5)
        a = estimate(table, replicates=300, seed=9)
        b = estimate(table, replicates=300, seed=9)
        assert a == b

    def test_interval_brackets_point(self):
        table = sample_counts(TWO_SLIT, 50000, seed=5)
        report = estimate(table, replicates=500, seed=9)
        lo, hi = report.lambda_interval
        assert lo <= report.point.lam <= hi
        for row_label in ("S", "S1p", "S2p"):
            ilo, ihi = report.context_intervals[row_label]
            assert ilo <= table.proportion(row_label) <= ihi

    def test_zero_replicates(self):
        table = _table(("S", 9, 10), ("S1p", 1, 10), ("S2p", 1, 10))
        report = estimate(table, replicates=0, seed=0)
        assert report.lambda_interval is None
        assert report.regime_stability is None
        assert report.theta_std is None
        assert report.context_intervals == {"S": None, "S1p": None, "S2p": None}

    def test_degenerate_point_is_flagged_not_raised(self):
        table = _table(("S", 5, 10), ("S1p", 0, 10), ("S2p", 3, 10))
        report = estimate(table, replicates=100, seed=0)
        assert isinstance(report.point.regime, Degenerate)
        assert report.point.lam is None
        assert report.lambda_interval is None

    def test_validates_arguments(self):
        table = _table(("S", 9, 10), ("S1p", 1, 10), ("S2p", 1, 10))
        with pytest.raises(ValueError):
            estimate(table, replicates=-1)
        with pytest.raises(ValueError):
            estimate(table, confidence=1.0)
        with pytest.raises(ValueError):
            estimate(table, seed=-1)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda table: sample_counts(TWO_SLIT, math.inf), id="trials-inf"),
            pytest.param(lambda table: estimate(table, seed=math.inf), id="seed-inf"),
            pytest.param(lambda table: estimate(table, replicates=math.inf), id="replicates-inf"),
            # "5" % 1 would be string formatting, not arithmetic
            pytest.param(lambda table: sample_counts(TWO_SLIT, "5"), id="trials-text"),
        ],
    )
    def test_non_whole_arguments_refused_as_value_errors(self, call):
        # int(math.inf) raises OverflowError, so these are refused before any conversion
        table = _table(("S", 9, 10), ("S1p", 1, 10), ("S2p", 1, 10))
        with pytest.raises(ValueError, match="must lie in"):
            call(table)

    def test_replicates_capped(self, monkeypatch):
        table = _table(("S", 9, 10), ("S1p", 1, 10), ("S2p", 1, 10))
        # rejected by the argument check, before any replicate array exists
        with pytest.raises(ValueError, match=r"replicates must lie in \[0, 1000001\)"):
            estimate(table, replicates=simulation.MAX_REPLICATES + 1)
        with pytest.raises(ValueError):
            estimate(table, replicates=10**12)
        monkeypatch.setattr(simulation, "MAX_REPLICATES", 5)
        assert estimate(table, replicates=5).replicates == 5
        with pytest.raises(ValueError):
            estimate(table, replicates=6)

    def test_consistency_across_sample_sizes(self):
        # |lambda_hat - 0.5| within 0.01 at 1e6 trials for >= 95 of 100 seeds
        hits = 0
        for seed in range(100):
            table = sample_counts(TWO_SLIT, 10**6, seed=seed)
            report = estimate(table, replicates=0, seed=seed)
            if abs(report.point.lam - 0.5) <= 0.01:
                hits += 1
        assert hits >= 95

    def test_bootstrap_coverage(self):
        # 95% interval catches the true coefficient in >= 90 of 100 seeded runs
        hits = 0
        for seed in range(100):
            table = sample_counts(TWO_SLIT, 10**5, seed=seed)
            report = estimate(table, replicates=300, confidence=0.95, seed=seed)
            lo, hi = report.lambda_interval
            if lo <= 0.5 <= hi:
                hits += 1
        assert hits >= 90

    @settings(max_examples=100, deadline=None)
    @given(case=_bootstrap_cases())
    # hyperbolic points whose replicates often land on lambda = +1 or -1 exactly
    @example(case=(_table(("S", 8, 8), ("S1p", 1, 8), ("S2p", 1, 8)), 200, 0.95, 0))
    @example(case=(_table(("S", 0, 8), ("S1p", 1, 8), ("S2p", 2, 8)), 200, 0.95, 0))
    def test_every_replicate_agrees_with_analyze(self, case):
        # Redraw the replicates from each context's bootstrap stream, analyze each
        # one's proportions, and rebuild the stability and the interval from those.
        table, r, confidence, seed = case
        report = estimate(table, r, confidence, seed)
        stream = simulation._seed_streams(seed)
        boot = {}
        for row in table.rows:
            rng = stream(simulation._BOOTSTRAP_STREAM_BASE + simulation._STREAM_ID[row.label])
            draws = rng.binomial(row.trials, row.proportion, size=r)
            boot[row.label] = np.divide(draws, row.trials, out=np.empty(r)).tolist()
        analyses = [analyze(ContextTriple(*p)) for p in zip(boot["S"], boot["S1p"], boot["S2p"])]
        point = report.point.regime
        matches = sum(_same_class(a.regime, point) for a in analyses)
        assert report.regime_stability.hex() == (matches / r).hex()
        lams = sorted(a.lam for a in analyses if a.lam is not None)
        if report.point.lam is None or not lams:
            assert report.lambda_interval is None
        else:
            q_lo = (1.0 - confidence) / 2.0  # as estimate takes it; a literal 0.025 differs
            want = np.quantile(lams, (q_lo, 1.0 - q_lo)).tolist()
            assert [x.hex() for x in report.lambda_interval] == [x.hex() for x in want]


class TestStreamLayout:
    """What the stream layout promises, whatever the generator behind it.

    Each context draws on its own stream, so a context's draws depend on its
    own label, probability and trials and on the seed, and on nothing else;
    sampling and the bootstrap use disjoint streams of one seed.
    """

    # exact proportions: every p_hat is a multiple of 1/2**4 over 2**30 trials
    N = 2**30

    def _rows(self, *pairs):
        return [(label, int(p * self.N), self.N) for label, p in pairs]

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    @pytest.mark.parametrize(
        "post", [(0.5, 0.25, 0.1875), (0.9375, 0.0625, 0.0625)], ids=["trig", "hyper"]
    )
    def test_extra_contexts_leave_the_bootstrap_unmoved(self, seed, post):
        p_s, a, b = post
        bare = self._rows(("S", p_s), ("S1p", a), ("S2p", b))
        full = bare + self._rows(("S1", p_s / 2), ("S2", p_s / 2))
        three = estimate(_table(*bare), replicates=500, seed=seed)
        five = estimate(_table(*full), replicates=500, seed=seed)
        for label in ("S", "S1p", "S2p"):
            assert three.context_intervals[label] == five.context_intervals[label]
        assert three.lambda_interval == five.lambda_interval
        assert three.regime_stability == five.regime_stability
        assert three.theta_std == five.theta_std
        assert three.theta_std is not None

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_other_contexts_counts_leave_a_context_unmoved(self, seed):
        before = sample_counts(DirectScenario(0.5, 0.25, 0.1875), self.N, seed=seed)
        after = sample_counts(DirectScenario(0.5, 0.375, 0.1875), self.N, seed=seed)
        assert before.row("S1p") != after.row("S1p")
        assert before.row("S2p") == after.row("S2p")
        rows = self._rows(("S", 0.5), ("S2p", 0.1875))
        a = estimate(_table(*rows, ("S1p", 1000, self.N)), replicates=200, seed=seed)
        b = estimate(_table(*rows, ("S1p", 2000, self.N)), replicates=200, seed=seed)
        assert a.context_intervals["S1p"] != b.context_intervals["S1p"]
        assert a.context_intervals["S2p"] == b.context_intervals["S2p"]
        assert a.context_intervals["S"] == b.context_intervals["S"]

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**64 - 1])
    def test_sampling_and_bootstrap_streams_differ(self, seed):
        # one replicate is one draw on each bootstrap stream; an aliased stream
        # would give the sampled count again, with the same trials and p
        pairs = (("S", 0.5), ("S1", 0.25), ("S2", 0.25), ("S1p", 0.5), ("S2p", 0.5))
        sampled = sample_counts(DirectScenario(0.5, 0.5, 0.5, 0.25, 0.25), self.N, seed=seed)
        boot = estimate(_table(*self._rows(*pairs)), replicates=1, seed=seed)
        for label, _ in pairs:
            lo, hi = boot.context_intervals[label]
            assert lo == hi
            assert sampled.row(label).successes != lo * self.N, label


class TestStreamDefinition:
    """The streams behind ``GENERATOR_NAME``, against their definition:
    stream ``j`` of seed ``s`` is
    ``Generator(Philox(SeedSequence(s), counter=[0, 0, 0, j]))``."""

    STREAMS = (0, 1, 2, 3, 4, 16, 17, 18, 19, 20)
    # scalar and vector draws mixed, with trials up to 2**63 - 1 and p of 0 and 1
    DRAWS = (
        (1, 0.5, None), (10**7, 0.3, None), (2**63 - 1, 0.25, 1000), (2**63 - 1, 0.0, None),
        (1000, 1.0, 1000), (2**63 - 1, 1.0, None), (40, 0.999, 1000), (2**62, 0.7, None),
        (1000, 0.0, 1000), (25, 0.5, 1000),
    )

    def _draws(self, rng):
        return [np.asarray(rng.binomial(n, p, size=size)).tolist() for n, p, size in self.DRAWS]

    def test_generator_name(self):
        assert GENERATOR_NAME == "philox4x64-counterblock-v3"

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_streams_match_their_definition(self, seed):
        shuffle = random.Random(seed)
        first = shuffle.sample(self.STREAMS, len(self.STREAMS))
        again = shuffle.sample(self.STREAMS, len(self.STREAMS))
        stream = simulation._seed_streams(seed)
        for j in first + again:
            fresh = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(seed), counter=[0, 0, 0, j])
            )
            assert self._draws(stream(j)) == self._draws(fresh), (seed, j)


# Digest of ``repr(estimate(...))`` over seeded count tables: 3 and 5
# contexts, trials from 1 to 2**62, zero and full proportions, and every
# replicate count and confidence in the grids below.  The bootstrap draws come
# from ``Generator.binomial``, so, like the byte goldens, the digest is fixed
# for a given numpy version and the ``GENERATOR_NAME`` it was taken with.
# Recapture both with ``python tests/test_simulation.py``.
ESTIMATE_DIGEST_GENERATOR = "philox4x64-counterblock-v3"
ESTIMATE_DIGEST = "7558bf6fa07783a99ccfd208ccd7ac808957fefb263584832b27dcf9c8598df4"
_DIGEST_REPLICATES = (1, 2, 3, 5, 17, 100, 1000)
_DIGEST_CONFIDENCES = (0.5, 0.9, 0.95, 0.99)


def _digest_tables():
    rng = random.Random(20260107)
    for _ in range(300):
        labels = CONTEXT_LABELS if rng.random() < 0.5 else ("S", "S1p", "S2p")
        rows = []
        for label in labels:
            trials = max(1, min(2**62, int(2.0 ** rng.uniform(0.0, 62.0))))
            edge = rng.random()
            successes = 0 if edge < 0.1 else trials if edge < 0.2 else rng.randint(0, trials)
            rows.append(CountRow(label, successes, trials))
        yield (
            CountTable(tuple(rows)),
            rng.choice(_DIGEST_REPLICATES),
            rng.choice(_DIGEST_CONFIDENCES),
            rng.randrange(2**64),
        )


def estimate_digest() -> str:
    h = hashlib.sha256()
    for table, replicates, confidence, seed in _digest_tables():
        h.update(repr(estimate(table, replicates, confidence, seed)).encode())
        h.update(b"\n")
    return h.hexdigest()


class TestBootstrapIntervals:
    def test_estimate_digest(self):
        assert estimate_digest() == ESTIMATE_DIGEST

    def test_estimate_digest_was_taken_with_the_current_generator(self):
        assert ESTIMATE_DIGEST_GENERATOR == GENERATOR_NAME

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 1000])
    def test_linear_quantiles_match_numpy_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        rows = np.stack([
            rng.normal(size=n),
            rng.integers(0, 4, size=n) / 3.0,  # ties
            np.full(n, 0.3),  # all equal
            rng.binomial(7, 0.4, size=n) / 7.0,
            -rng.random(size=n),
        ])
        levels = [0.0, 1.0]
        for confidence in (0.5, 0.9, 0.95, 0.99, 1.0 - 1e-9):
            q_lo = (1.0 - confidence) / 2.0
            levels += [q_lo, 1.0 - q_lo]
        levels = tuple(levels)
        want = np.quantile(rows, levels, axis=1)
        got = np.array(simulation._linear_quantiles(np.sort(rows, axis=1), levels))
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        for row in rows:
            want = np.quantile(row, levels)
            got = np.array(simulation._linear_quantiles(np.sort(row), levels))
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_linear_quantiles_keep_numpy_signed_zeros(self):
        # at v >= n - 1 numpy measures the weight from index -1, which decides
        # the sign of a zero result
        levels = (0.0, 0.5, 1.0)
        for n in (1, 2, 3):
            row = np.full(n, -0.0)
            got = np.array(simulation._linear_quantiles(row, levels))
            assert got.view(np.uint64).tolist() == np.quantile(row, levels).view(np.uint64).tolist()


# Digest of ``repr(scenario_truth(family(*args)))``, or of the exception's type
# and message, over a seeded grid of two-slit and urn parameters: the named
# edge cases first (phases at 0, pi, a rounded pi and past the slack; NaN,
# negative and infinite inputs; p1 + p2 > 1; zero and underflowing references;
# |lambda| <= 1 for the urn), then random draws that mix those values with
# uniform ones.  No random stream is involved, so the digest is fixed across
# numpy versions.
SCENARIO_DIGEST = "cb970bada8f3d5cf125a7a6be0f94ed5a1764209dc00fa81646432dd60671965"
_SCENARIO_SPECIALS = (
    0.0, 1.0, 0.5, math.pi, 3.1415927, 3.2, -1e-7, -0.1, 1.5, 1e-170,
    math.nan, math.inf, -math.inf,
)
_SCENARIO_EDGES = [
    (TwoSlitScenario, (math.sqrt(0.5), math.sqrt(0.5), 0.0)),
    (TwoSlitScenario, (math.sqrt(0.5), math.sqrt(0.5), math.pi)),
    (TwoSlitScenario, (math.sqrt(0.5), math.sqrt(0.5), 3.1415927)),
    (TwoSlitScenario, (0.5, 0.5, 3.2)),
    (TwoSlitScenario, (0.5, 0.5, -1e-7)),
    (TwoSlitScenario, (0.5, 0.5, -1e-5)),
    (TwoSlitScenario, (math.nan, 0.5, 1.0)),
    (TwoSlitScenario, (0.5, math.nan, 1.0)),
    (TwoSlitScenario, (0.5, 0.5, math.nan)),
    (TwoSlitScenario, (-0.1, 0.5, 1.0)),
    (TwoSlitScenario, (math.inf, 0.5, 1.0)),
    (TwoSlitScenario, (0.5, 0.5, math.inf)),
    (TwoSlitScenario, (1.2, 0.0, 0.0)),
    (TwoSlitScenario, (0.0, 0.0, 1.0)),
    (TwoSlitScenario, (1e-170, 0.5, 1.0)),
    (HyperbolicUrnScenario, (0.4, 0.5, 0.1, 0.1)),
    (HyperbolicUrnScenario, (0.7, 0.7, 0.1, 0.1)),
    (HyperbolicUrnScenario, (0.5, 0.5 + 1e-13, 0.1, 0.1)),
    (HyperbolicUrnScenario, (0.4, 0.5, 0.0, 0.1)),
    (HyperbolicUrnScenario, (0.4, 0.5, 0.0, 0.0)),
    (HyperbolicUrnScenario, (0.4, 0.5, 1e-170, 1e-170)),
    (HyperbolicUrnScenario, (0.4, 0.5, 1e-170, 0.1)),
    (HyperbolicUrnScenario, (0.3, 0.2, 0.3, 0.2)),
    (HyperbolicUrnScenario, (0.25, 0.25, 0.25, 0.25)),
    (HyperbolicUrnScenario, (0.0, 0.0, 0.5, 0.5)),
    (HyperbolicUrnScenario, (math.nan, 0.5, 0.1, 0.1)),
    (HyperbolicUrnScenario, (0.4, -0.1, 0.1, 0.1)),
    (HyperbolicUrnScenario, (0.4, 0.5, math.inf, 0.1)),
    (HyperbolicUrnScenario, (0.4, 0.5, 0.1, -math.inf)),
]


def _scenario_grid():
    yield from _SCENARIO_EDGES
    rng = random.Random(20261018)

    def draw(lo, hi):
        return rng.choice(_SCENARIO_SPECIALS) if rng.random() < 0.1 else rng.uniform(lo, hi)

    for _ in range(200):
        yield TwoSlitScenario, (draw(0.0, 0.8), draw(0.0, 0.8), draw(0.0, math.pi))
    for _ in range(200):
        hi = 0.15 if rng.random() < 0.7 else 1.0  # small references make |lambda| > 1 likely
        yield HyperbolicUrnScenario, (draw(0.0, 0.6), draw(0.0, 0.6), draw(0.0, hi), draw(0.0, hi))


def scenario_digest() -> str:
    h = hashlib.sha256()
    for family, args in _scenario_grid():
        try:
            record = repr(scenario_truth(family(*args)))
        except Exception as e:  # the record is the refusal itself
            record = f"{type(e).__name__}: {e}"
        h.update(record.encode())
        h.update(b"\n")
    return h.hexdigest()


def test_scenario_digest():
    assert scenario_digest() == SCENARIO_DIGEST


if __name__ == "__main__":
    print(f"ESTIMATE_DIGEST_GENERATOR = {GENERATOR_NAME!r}")
    print(f"ESTIMATE_DIGEST = {estimate_digest()!r}")
