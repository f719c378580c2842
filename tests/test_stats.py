import hashlib
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from cdgproc import process, stats
from cdgproc.canonical import SequenceClass, TABLE_LIMITS, _canonicalize_matrix, pair_cell
from cdgproc.stats import (
    BlockEventReport,
    class_probability,
    event_probabilities,
    exhaustive_expectations,
    monte_carlo_frequencies,
)
from oracles import (
    all_digit_matrix,
    bigint_canonical,
    block_substream_rows,
    naive_pair_cells,
    per_trial_moments,
    per_trial_substream_rows,
)

EXAMPLE = [0, 0, 1, -1, 0, 1, 0, 1, -1, 1, 1]

# (n, trials, seed) -> (the 48 summed counts, sha256 of freq_mean and freq_stderr
# bytes), recorded with the column-sweep canonicalizer: draws, counts and stderrs
# must stay the same for every seed
PINNED_MC = {
    (100000, 6, 31): (
        [0, 0, 0, 0, 16574, 16600, 16831, 16671, 33406, 33320, 33493, 33403,
         33434, 33411, 33359, 33425, 16626, 16540, 16736, 16448, 0, 0, 0, 0,
         0, 0, 0, 0, 16597, 16717, 16759, 16609, 0, 0, 16652, 16701,
         0, 0, 16359, 16638, 16585, 16880, 16583, 16637, 0, 0, 0, 0],
        "5575bddd6b0a259f8fdfd1da3031a002a3e290b475b6da7f729a2dddc026ae20",
    ),
    (20, 20000, 5): (
        [0, 0, 0, 0, 10823, 13509, 10158, 11152, 19779, 22050, 18984, 19554,
         19378, 19850, 19126, 19562, 9940, 11081, 10946, 13486, 0, 0, 0, 0,
         0, 0, 0, 0, 10032, 11206, 9328, 8639, 0, 0, 10144, 11280,
         0, 0, 10634, 13797, 9977, 10977, 10751, 13857, 0, 0, 0, 0],
        "6a7c06125119964580af10e04d42326cd018997592343c04cda902b974d2b9f1",
    ),
}


# n -> the 48 exhaustive counts, recorded by enumerating every first-1 string of length n
PINNED_EXHAUSTIVE = {
    13: [0, 0, 0, 0, 332152, 332152, 232504, 298934, 531438, 531438, 498226, 431796,
         498226, 431796, 498226, 431796, 232504, 298934, 332152, 332152, 0, 0, 0, 0,
         0, 0, 0, 0, 298934, 232504, 199292, 199292, 0, 0, 232504, 298934,
         0, 0, 332152, 332152, 232504, 298934, 332152, 332152, 0, 0, 0, 0],
    14: [0, 0, 0, 0, 896808, 1228959, 797160, 930020, 1594320, 1860040, 1494678, 1561108,
         1494678, 1561108, 1494678, 1561108, 797160, 930020, 896808, 1228959, 0, 0, 0, 0,
         0, 0, 0, 0, 797160, 930020, 697518, 631088, 0, 0, 797160, 930020,
         0, 0, 896808, 1228959, 797160, 930020, 896808, 1228959, 0, 0, 0, 0],
}

CLASSES = pytest.mark.parametrize(
    "cls, sign",
    [(SequenceClass.FIRST_ONE, 1), (SequenceClass.FIRST_MINUS_ONE, -1)],
    ids=["first_one", "first_minus_one"],
)


def _signs(mat):
    first = (mat != 0).argmax(axis=1)
    return mat[np.arange(mat.shape[0]), first]


def row_cells(digits):
    """The library's cell counts of one nonzero string, tallied as a one-row matrix."""
    row = np.asarray(digits, dtype=np.int8)[None, :]
    row = row * _signs(row)[:, None]
    codes = stats._pair_codes(row, _canonicalize_matrix(row))
    return stats._fold(np.bincount(codes.ravel(), minlength=36)).reshape(6, 4, 2)


class TestCountPairs:
    def test_eleven_digit_example(self):
        cells = row_cells(EXAMPLE)
        assert int(cells[:, 2].sum()) == 2
        # a=9 is odd with raw pair (-1, 1); a=10 is even with raw pair (1, 1)
        assert cells[3, 2, 1] == 1
        assert cells[0, 2, 0] == 1
        assert tuple(map(int, stats._col11_split(cells))) == (1, 0, 1, 0)
        assert cells.sum() == len(EXAMPLE) - 1

    def test_all_ones(self):
        cells = row_cells([1, 1, 1])
        assert stats._col11_split(cells)[0] == 2
        assert cells.sum() == 2 and cells[0, 2].sum() == 2

    def test_single_digit_has_no_pairs(self):
        assert row_cells([1]).sum() == 0

    def test_matches_naive_oracle_exhaustively(self):
        mat = all_digit_matrix(7)
        for row in mat[_signs(mat) != 0]:
            np.testing.assert_array_equal(row_cells(row), naive_pair_cells(row))

    def test_matches_naive_oracle_random_long(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            digits = rng.integers(-1, 2, size=251, dtype=np.int8)
            np.testing.assert_array_equal(row_cells(digits), naive_pair_cells(digits))

    def test_partition_and_column_split_counts(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            digits = rng.integers(-1, 2, size=400, dtype=np.int8)
            cells = row_cells(digits)
            n1, n2, n3, n4 = stats._col11_split(cells)
            assert cells.sum() == 399
            assert n2 == 0
            assert n1 + n2 + n3 + n4 == cells[:, 2].sum()

    def test_negation_symmetry(self):
        mat = all_digit_matrix(7)
        for row in mat[_signs(mat) == 1][:200]:
            np.testing.assert_array_equal(row_cells(row), row_cells(-row))


class TestPairCodes:
    # (b_{a-1}, b_a, c_a, a & 1): c_a is the carry into a, so bt_a = (b_a + c_a) & 1
    INPUTS = list(product((-1, 0, 1), (-1, 0, 1), (0, -1), (0, 1)))

    def test_table_matches_pair_cell(self):
        indices = set()
        for b_prev, b_cur, carry, odd in self.INPUTS:
            bt_cur = (b_cur + carry) & 1
            bt_prev = (b_prev + ((b_cur + carry) >> 1)) & 1  # the sweep's carry into a - 1
            index = (((b_prev + 1) * 6 + (b_cur + 1) * 2 + bt_cur) * 2) + odd
            row, col = pair_cell(b_prev, b_cur, bt_prev, bt_cur)
            assert stats._CODE36[index] == (row * 4 + col) * 2 + odd
            indices.add(index)
        assert indices == set(range(36))  # the 18 inputs at both parities are every index

    def test_index_matches_bigint_oracle(self):
        # every position of every first-1 string of length 6, bt from the big-integer oracle
        mat = all_digit_matrix(6)
        raw = mat[_signs(mat) == 1]
        canon = np.array([bigint_canonical(r) for r in raw], dtype=np.int8)
        seen = set()
        for r, bt, idx in zip(raw.tolist(), canon.tolist(), stats._pair_codes(raw, canon).tolist()):
            for a in range(1, 6):
                row, col = pair_cell(r[a - 1], r[a], bt[a - 1], bt[a])
                assert stats._CODE36[idx[a - 1]] == (row * 4 + col) * 2 + a % 2
                seen.add(idx[a - 1])
        assert seen == set(range(36))

    def test_int8_index_below_36_with_parity(self):
        mat = np.random.default_rng(4).integers(-1, 2, size=(300, 41), dtype=np.int8)
        sign = _signs(mat)
        work = mat[sign != 0] * sign[sign != 0, None]
        codes = stats._pair_codes(work, _canonicalize_matrix(work))
        assert codes.dtype == np.int8
        assert codes.shape == (work.shape[0], 40)
        assert codes.min() >= 0 and codes.max() < 36
        assert (codes % 2 == np.arange(1, 41) % 2).all()  # parity of a

    def test_width_one_has_no_codes(self):
        raw = np.ones((5, 1), dtype=np.int8)
        assert stats._pair_codes(raw, raw).shape == (5, 0)

    def test_limits_derived_from_the_windows(self):
        # far from both ends a position's window (b_{a-1}, b_a, s) is uniform over
        # the 18 with s != 0, so each limit is the share of those 18 the index sends
        # to its cell, read at position 2 of (1, b_{a-1}, b_a, s) as in exhaustive mode
        windows = np.array([(1, *w) for w in product((-1, 0, 1), repeat=3)], dtype=np.int8)
        codes = stats._pair_codes(windows, _canonicalize_matrix(windows))[:, 1]
        derived = [[Fraction(0)] * 4 for _ in range(6)]
        for window, code in zip(windows.tolist(), codes.tolist()):
            if window[3] != 0:
                row, col = divmod(int(stats._CODE36[code]) // 2, 4)
                derived[row][col] += Fraction(1, 18)
        literal = TABLE_LIMITS.tolist()
        assert derived == [[Fraction(x).limit_denominator(18) for x in r] for r in literal]
        assert [[float(f) for f in r] for r in derived] == literal


class TestPerRowCounts:
    @pytest.mark.parametrize("n", [2, 3, 21, 40002, 2**16 + 2, 200004])
    def test_matches_per_trial_moments(self, n):
        # row counts that leave a short last piece of _PIECE_UNITS, or one row per
        # piece and a short last slice of the row; the long rows hold an odd number
        # of codes, so every other row's uint16 pairs start at an odd offset
        per = stats._PIECE_UNITS // (n - 1 + 36)
        size = (2 * per + 7 if per else 3, n)
        mat = np.random.default_rng(n).integers(-1, 2, size=size, dtype=np.int8)
        sign = _signs(mat)
        mat = mat[sign != 0] * sign[sign != 0, None]
        rows = mat.shape[0]
        assert per == 0 or rows % per != 0
        s1, s2 = stats._per_row_counts(stats._pair_codes(mat, _canonicalize_matrix(mat)))
        cells = np.stack([naive_pair_cells(r) for r in mat])
        counts, mean, stderr = per_trial_moments(cells, n)
        flat = cells.reshape(rows, 48)
        np.testing.assert_array_equal(s1, counts.ravel())
        np.testing.assert_array_equal(s2, (flat * flat).sum(axis=0))
        np.testing.assert_allclose(s1 / (rows * n), mean.ravel(), rtol=1e-12, atol=0)
        var = (rows * s2 - s1.astype(float) ** 2) / (rows * (rows - 1))
        np.testing.assert_allclose(np.sqrt(var) / (n * np.sqrt(rows)), stderr.ravel(),
                                   rtol=1e-12, atol=0)


class TestUniformDigits:
    @staticmethod
    def assert_draws_integers(seed, shape):
        out = np.empty(shape, dtype=np.int8)
        assert stats._uniform_digits(np.random.default_rng(seed), out) is out
        expected = np.random.default_rng(seed).integers(-1, 2, size=shape, dtype=np.int8)
        np.testing.assert_array_equal(out, expected)

    def test_matches_integers_over_many_seeds(self):
        for seed in range(300):
            self.assert_draws_integers(seed, 1000)

    @pytest.mark.parametrize("size", [1, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5])
    @pytest.mark.parametrize("seed", [0, 1, 2**40 + 7])
    def test_matches_integers_around_piece_edges(self, seed, size):
        self.assert_draws_integers(seed, size)

    @pytest.mark.parametrize("shape", [(32768, 2), (3276, 20), (218, 300), (1, 100000), (3, 40001)])
    def test_matches_integers_at_block_shapes(self, shape):
        self.assert_draws_integers(17, shape)

    @pytest.mark.parametrize("size", [8, 5000, 2**16 + 3])
    def test_short_pieces_are_topped_up(self, monkeypatch, size):
        # with no margin, the first piece is the digits wanted rounded up to whole
        # words, and any zero byte among them leaves it short
        monkeypatch.setattr(process, "_DRAW_MARGIN", 0)
        seeds = range(100)
        words = [np.random.default_rng(s).bit_generator.random_raw(-(-min(size, 2**16) // 8))
                 for s in seeds]
        short = [s for s, w in zip(seeds, words)
                 if np.count_nonzero(w.astype("<u8").view(np.uint8)[:size]) < min(size, 2**16)]
        assert short
        for seed in short:
            self.assert_draws_integers(seed, size)

    def test_substreams_draw_from_pcg64(self):
        # the raw-word reading above is numpy's bounded int8 draw on this generator
        for rng, _ in process.substreams(5, 3, 1):
            assert type(rng.bit_generator) is np.random.PCG64


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

    @pytest.mark.parametrize("n", range(1, 10))
    @CLASSES
    def test_counts_match_naive_oracle(self, n, cls, sign):
        # pure-Python cells over every string of the class, no library counting code
        mat = all_digit_matrix(n)
        rows = mat[_signs(mat) == sign]
        rep = exhaustive_expectations(n, cls)
        assert rep.trials == len(rows)
        np.testing.assert_array_equal(rep.counts, sum(naive_pair_cells(r) for r in rows))

    @pytest.mark.parametrize("n", range(1, 13))
    @CLASSES
    def test_counts_match_enumeration(self, n, cls, sign):
        # every string of the class, turned first-1, through the sweep and the pair tally
        mat = all_digit_matrix(n)
        rows = mat[_signs(mat) == sign] * np.int8(sign)
        codes = stats._pair_codes(rows, _canonicalize_matrix(rows))
        rep = exhaustive_expectations(n, cls)
        assert rep.trials == len(rows)
        np.testing.assert_array_equal(
            rep.counts.ravel(), stats._fold(np.bincount(codes.ravel(), minlength=36))
        )

    @pytest.mark.parametrize("n", sorted(PINNED_EXHAUSTIVE))
    @CLASSES
    def test_counts_pinned(self, n, cls, sign):
        rep = exhaustive_expectations(n, cls)
        assert rep.trials == (3**n - 1) // 2
        assert rep.counts.ravel().tolist() == PINNED_EXHAUSTIVE[n]

    def test_peak_memory_does_not_grow_with_3_to_the_n(self, heap_peak):
        # 27 windows a position and no enumerated rows: about 7 KB at any n
        def peak(n):
            return heap_peak(exhaustive_expectations, n)[1]

        exhaustive_expectations(3)
        assert max(peak(n) for n in (12, 13, 14)) <= 1 << 16

    def test_minus_class_matches_by_negation(self):
        a = exhaustive_expectations(8, SequenceClass.FIRST_ONE)
        b = exhaustive_expectations(8, SequenceClass.FIRST_MINUS_ONE)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_too_large(self):
        with pytest.raises(ValueError, match=r"^length 15 exceeds exhaustive bound 14$"):
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
        cells = np.stack([row_cells(r) for r in rows if r.any()])
        counts, mean, stderr = per_trial_moments(cells, n)
        rep = monte_carlo_frequencies(n, trials, seed)
        assert rep.trials == len(cells)
        np.testing.assert_array_equal(rep.counts, counts)
        np.testing.assert_allclose(rep.freq_mean, mean, rtol=1e-12, atol=0)
        np.testing.assert_allclose(rep.freq_stderr, stderr, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n, trials, seed", [(2, 5000, 23), (20, 5000, 21), (300, 400, 22)])
    def test_counts_match_bigint_tally(self, n, trials, seed):
        # pure-Python cells over the same draws, with no library counting code
        rows = block_substream_rows(n, trials, seed, block=max(1, 2**16 // n))
        nonzero = [r for r in rows if r.any()]
        rep = monte_carlo_frequencies(n, trials, seed)
        assert rep.trials == len(nonzero)
        np.testing.assert_array_equal(rep.counts, sum(naive_pair_cells(r) for r in nonzero))

    @pytest.mark.parametrize("args", list(PINNED_MC))
    def test_seeded_outputs_pinned(self, args):
        counts, digest = PINNED_MC[args]
        rep = monte_carlo_frequencies(*args)
        assert rep.counts.ravel().tolist() == counts
        moments = rep.freq_mean.tobytes() + rep.freq_stderr.tobytes()
        assert hashlib.sha256(moments).hexdigest() == digest

    @pytest.mark.parametrize(
        "n, trials", [(2, 3 * 2**15 + 5), (20, 30_000), (2**16, 20), (100000, 25)]
    )
    def test_chunks_are_whole_blocks_within_the_budget(self, monkeypatch, n, trials):
        sign, row_counts = stats._first_nonzero_sign, stats._per_row_counts
        drawn, tallied = [], []

        def drawn_rows(mat):  # called once per chunk, before all-zero rows are dropped
            drawn.append(mat.shape[0])
            return sign(mat)

        def tallied_rows(codes):
            tallied.append(codes.shape[0])
            return row_counts(codes)

        monkeypatch.setattr(stats, "_first_nonzero_sign", drawn_rows)
        monkeypatch.setattr(stats, "_per_row_counts", tallied_rows)
        rep = monte_carlo_frequencies(n, trials, seed=13)
        # a chunk is one seed block: about 2^16 digits, or one row past that
        block = max(1, 2**16 // n)
        assert sum(drawn) == trials and sum(tallied) == rep.trials
        assert len(tallied) == len(drawn) >= 2
        assert all(rows == block for rows in drawn[:-1])
        assert all(t <= d for t, d in zip(tallied, drawn))
        assert all(rows * n <= max(2**16, n) for rows in drawn)

    def test_peak_memory_per_digit(self, heap_peak):
        # ten blocks of one 100000-digit row, each drawn and swept in the same
        # three int8 buffers: about 5.1 bytes a digit of one block, with the
        # tally's pieces
        monte_carlo_frequencies(100000, 1, seed=2)
        _, peak = heap_peak(monte_carlo_frequencies, 100000, 10, seed=2)
        assert peak <= 6 * 100000

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

    def test_pinned_report(self):
        # every field at one small input, so that no edit moves the seeded report silently
        assert event_probabilities(30, 200, 7) == BlockEventReport(
            horizon=30,
            trials=200,
            blocks_observed=6200,
            single_then_clean_freq=0.16116666666666668,
            single_then_clean_stderr=0.005293071965497679,
            minus_then_clean_freq=0.17266666666666666,
            minus_then_clean_stderr=0.004029206604611702,
            class_length=10,
            class_trials=100000,
            class_freq_first_one=0.49735,
            class_freq_first_minus_one=0.50264,
            class_freq_all_zero=1e-05,
            class_prob_exact=0.4999915324560958,
        )
