import numpy as np
import pytest

from cdgproc import stats
from cdgproc.canonical import SequenceClass, TABLE_LIMITS
from cdgproc.process import IncrementDistribution
from cdgproc.stats import (
    AllZeroInputError,
    TooLargeError,
    class_probability,
    count_pairs,
    event_probabilities,
    exhaustive_expectations,
    monte_carlo_frequencies,
    ones_count_statistics,
)
from oracles import (
    all_digit_matrix,
    block_substream_rows,
    naive_pair_cells,
    per_trial_moments,
    per_trial_substream_rows,
)

EXAMPLE = [0, 0, 1, -1, 0, 1, 0, 1, -1, 1, 1]


def _signs(mat):
    first = (mat != 0).argmax(axis=1)
    return mat[np.arange(mat.shape[0]), first]


class TestCountPairs:
    def test_eleven_digit_example(self):
        h = count_pairs(EXAMPLE)
        assert int(h.column_counts[2]) == 2
        # a=9 is odd with raw pair (-1, 1); a=10 is even with raw pair (1, 1)
        assert h.cells[3, 2, 1] == 1
        assert h.cells[0, 2, 0] == 1
        assert (h.n1, h.n2, h.n3, h.n4) == (1, 0, 1, 0)
        assert h.total == len(EXAMPLE) - 1

    def test_all_ones(self):
        h = count_pairs([1, 1, 1])
        assert h.n1 == 2
        assert h.total == 2 and h.cells[0, 2].sum() == 2

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroInputError):
            count_pairs([0, 0, 0])

    def test_single_digit_has_no_pairs(self):
        assert count_pairs([1]).total == 0

    def test_matches_naive_oracle_exhaustively(self):
        mat = all_digit_matrix(7)
        for row in mat[_signs(mat) != 0]:
            np.testing.assert_array_equal(count_pairs(row).cells, naive_pair_cells(row))

    def test_matches_naive_oracle_random_long(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            digits = rng.integers(-1, 2, size=251, dtype=np.int8)
            np.testing.assert_array_equal(count_pairs(digits).cells, naive_pair_cells(digits))

    def test_partition_and_column_split_counts(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            digits = rng.integers(-1, 2, size=400, dtype=np.int8)
            h = count_pairs(digits)
            assert h.total == 399
            assert h.n2 == 0
            assert h.n1 + h.n2 + h.n3 + h.n4 == int(h.column_counts[2])

    def test_negation_symmetry(self):
        mat = all_digit_matrix(7)
        for row in mat[_signs(mat) == 1][:200]:
            plus = count_pairs(row)
            minus = count_pairs(-row)
            np.testing.assert_array_equal(plus.cells, minus.cells)
            assert minus.sequence_class is SequenceClass.FIRST_MINUS_ONE


class TestExhaustive:
    def test_no_raw_one_then_non_one_in_canonical_ones(self):
        assert exhaustive_expectations(10).n2_count == 0

    def test_cell_expectations_near_limits(self):
        rep = exhaustive_expectations(12)
        assert np.abs(rep.combined_freq - TABLE_LIMITS).max() <= 0.35 / 12

    def test_partition_of_positions(self):
        rep = exhaustive_expectations(9)
        assert rep.freq_mean.sum() == pytest.approx(8 / 9, rel=1e-12)
        assert rep.counts.sum() == rep.trials * 8

    def test_conditioned_string_count(self):
        rep = exhaustive_expectations(9)
        assert rep.trials == (3**9 - 1) // 2

    def test_column_sums_move_toward_limits(self):
        targets = np.array([4 / 18, 5 / 18, 4 / 18, 5 / 18])
        devs = [
            np.abs(exhaustive_expectations(n).column_sums - targets)
            for n in (12, 13, 14)
        ]
        assert (devs[1] < devs[0]).all() and (devs[2] < devs[1]).all()

    def test_minus_class_matches_by_negation(self):
        a = exhaustive_expectations(8, SequenceClass.FIRST_ONE)
        b = exhaustive_expectations(8, SequenceClass.FIRST_MINUS_ONE)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            exhaustive_expectations(15)

    def test_all_zero_conditioning_rejected(self):
        with pytest.raises(ValueError):
            exhaustive_expectations(8, SequenceClass.ALL_ZERO)


class TestMonteCarlo:
    def test_deterministic_given_seed(self):
        a = monte_carlo_frequencies(500, 40, seed=9)
        b = monte_carlo_frequencies(500, 40, seed=9)
        np.testing.assert_array_equal(a.counts, b.counts)
        np.testing.assert_array_equal(a.freq_mean, b.freq_mean)

    def test_matches_exhaustive_within_four_stderr(self):
        mc = monte_carlo_frequencies(12, 100_000, seed=7)
        ex = exhaustive_expectations(12)
        stderr = np.where(mc.freq_stderr > 0, mc.freq_stderr, np.inf)
        assert (np.abs(mc.freq_mean - ex.freq_mean) <= 4 * stderr).all()

    def test_partition_of_positions(self):
        rep = monte_carlo_frequencies(777, 32, seed=0)
        assert rep.freq_mean.sum() == pytest.approx(776 / 777, rel=1e-12)

    def test_structural_zero_cells(self):
        rep = monte_carlo_frequencies(5000, 50, seed=13)
        assert rep.n2_count == 0

    def test_report_metadata(self):
        rep = monte_carlo_frequencies(64, 10, seed=3)
        assert rep.mode == "monte-carlo"
        assert rep.trials == 10
        d = rep.to_dict()
        assert len(d["cells"]) == 48 and len(d["cells_combined"]) == 24

    @pytest.mark.parametrize("n, trials, seed", [(20, 7000, 11), (2**16, 5, 12)])
    def test_matches_block_substream_oracle(self, n, trials, seed):
        rows = block_substream_rows(n, trials, seed, block=max(1, 2**16 // n))
        if n >= 2**16:
            # one trial per block: each trial draws alone from its own child
            np.testing.assert_array_equal(rows, per_trial_substream_rows(n, trials, seed))
        cells = np.stack([count_pairs(r).cells for r in rows if r.any()])
        counts, mean, stderr = per_trial_moments(cells, n)
        rep = monte_carlo_frequencies(n, trials, seed)
        assert rep.trials == len(cells)
        np.testing.assert_array_equal(rep.counts, counts)
        np.testing.assert_allclose(rep.freq_mean, mean, rtol=1e-12, atol=0)
        np.testing.assert_allclose(rep.freq_stderr, stderr, rtol=1e-12, atol=0)

    def test_chunking_does_not_change_result(self, monkeypatch):
        base = monte_carlo_frequencies(20, 20_000, seed=8)
        original, chunks = stats._per_row_counts, []

        def recording(codes):  # called once per chunk
            chunks.append(codes.shape[0])
            return original(codes)

        monkeypatch.setattr(stats, "_per_row_counts", recording)
        monkeypatch.setattr(stats, "_CHUNK_CELLS", 1)
        small = monte_carlo_frequencies(20, 20_000, seed=8)
        assert len(chunks) >= 3
        np.testing.assert_array_equal(small.counts, base.counts)
        np.testing.assert_array_equal(small.freq_mean, base.freq_mean)
        np.testing.assert_array_equal(small.freq_stderr, base.freq_stderr)

    @pytest.fixture
    def no_drawing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("drew before the checks")

        monkeypatch.setattr(stats.np.random, "default_rng", refuse)

    def test_cost_refused_before_drawing(self, no_drawing):
        limit = stats.MAX_MC_COST // (20 + 48)
        with pytest.raises(ValueError, match="cost"):
            monte_carlo_frequencies(20, limit + 1, seed=0)
        with pytest.raises(AssertionError, match="drew"):
            monte_carlo_frequencies(20, limit, seed=0)

    def test_length_refused_before_drawing(self, no_drawing):
        with pytest.raises(ValueError, match="length"):
            monte_carlo_frequencies(stats.MAX_MC_LENGTH + 1, 1, seed=0)
        with pytest.raises(AssertionError, match="drew"):
            monte_carlo_frequencies(stats.MAX_MC_LENGTH, 1, seed=0)


class TestClassProbability:
    def test_exact_formula(self):
        assert class_probability(10) == 0.5 * (1 - 3.0**-10)
        assert class_probability(0) == 0.0
        assert class_probability(1) == pytest.approx(1 / 3)

    def test_matches_exhaustive_class_fraction(self):
        n = 9
        mat = all_digit_matrix(n)
        frac = float((_signs(mat) == 1).mean())
        assert frac == pytest.approx(class_probability(n), rel=1e-12)


@pytest.fixture(scope="module")
def report():
    return event_probabilities(horizon=4000, trials=60, seed=3)


class TestEventProbabilities:
    def test_single_then_clean_near_one_sixth(self, report):
        assert abs(report.single_then_clean_freq - 1 / 6) < 0.003

    def test_minus_then_clean_near_one_sixth(self, report):
        assert abs(report.minus_then_clean_freq - 1 / 6) < 0.003

    def test_class_frequencies_match_formula(self, report):
        sigma = (0.25 / report.class_trials) ** 0.5
        exact = report.class_prob_exact
        assert abs(report.class_freq_first_one - exact) < 3 * sigma
        assert abs(report.class_freq_first_minus_one - exact) < 3 * sigma
        total = (
            report.class_freq_first_one
            + report.class_freq_first_minus_one
            + report.class_freq_all_zero
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        a = event_probabilities(200, 10, seed=42)
        b = event_probabilities(200, 10, seed=42)
        assert a == b

    def test_blocks_observed(self, report):
        assert report.blocks_observed == 60 * 4001

    def test_validation(self):
        with pytest.raises(ValueError):
            event_probabilities(0, 10, seed=1)


class TestOnesCount:
    def test_always_one(self):
        rep = ones_count_statistics(IncrementDistribution(0, 0, 1), 100, 500, seed=1, eps=0.01)
        assert rep.min == rep.max == 100 and rep.frac_within == 1.0

    def test_never_one(self):
        rep = ones_count_statistics(IncrementDistribution(0, 1, 0), 100, 500, seed=1, eps=0.01)
        assert rep.min == rep.max == 0 and rep.frac_within == 1.0

    def test_biased_concentration(self):
        dist = IncrementDistribution(0.0, 0.6, 0.4)
        rep = ones_count_statistics(dist, 10_000, 2000, seed=6, eps=0.02)
        assert rep.frac_within >= 0.999
        assert rep.mean / rep.n == pytest.approx(0.4, abs=0.005)

    def test_band_edges_are_exclusive(self):
        # band (4, 6) at n=10, q1=0.5: only exact count 5 is inside
        dist = IncrementDistribution(0.25, 0.25, 0.5)
        rep = ones_count_statistics(dist, 10, 4000, seed=2, eps=0.1)
        p_five = 252 / 1024  # Binomial(10, 1/2) at 5
        assert abs(rep.frac_within - p_five) < 0.03

    def test_validation(self):
        with pytest.raises(ValueError):
            ones_count_statistics(IncrementDistribution(0, 0.6, 0.4), 10, 5, seed=0, eps=0.0)
