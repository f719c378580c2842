import numpy as np
import pytest

from cdgproc.canonical import (
    COL_LABELS,
    ROW_LABELS,
    SequenceClass,
    TABLE_LIMITS,
    _canonicalize_matrix,
    canonicalize,
    classify,
    decompose_blocks,
    pair_cell,
)
from cdgproc.process import value_of
from oracles import all_digit_matrix, bigint_canonical, horner_value

EXAMPLE = [0, 0, 1, -1, 0, 1, 0, 1, -1, 1, 1]


class TestClassify:
    def test_first_one(self):
        assert classify(EXAMPLE) is SequenceClass.FIRST_ONE

    def test_all_zero(self):
        assert classify([0, 0, 0]) is SequenceClass.ALL_ZERO
        assert classify([]) is SequenceClass.ALL_ZERO

    def test_first_minus_one(self):
        assert classify([0, -1, 1]) is SequenceClass.FIRST_MINUS_ONE

    def test_matches_sign_of_value_exhaustively(self):
        by_sign = {
            1: SequenceClass.FIRST_ONE,
            -1: SequenceClass.FIRST_MINUS_ONE,
            0: SequenceClass.ALL_ZERO,
        }
        for row in all_digit_matrix(8):
            value = horner_value(row)
            assert classify(row) is by_sign[(value > 0) - (value < 0)]


class TestCanonicalize:
    def test_three_digit_example(self):
        form = canonicalize([1, -1, -1])
        assert form.digits.tolist() == [0, 0, 1]
        assert form.sequence_class is SequenceClass.FIRST_ONE

    def test_eleven_digit_example(self):
        form = canonicalize(EXAMPLE)
        assert form.digits.tolist() == [0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 1]

    def test_negative_example(self):
        form = canonicalize([-1, 0, 1])
        assert form.digits.tolist() == [0, -1, -1]
        assert form.sequence_class is SequenceClass.FIRST_MINUS_ONE

    def test_all_zero(self):
        form = canonicalize([0, 0])
        assert form.digits.tolist() == [0, 0]
        assert form.sequence_class is SequenceClass.ALL_ZERO

    def test_empty(self):
        assert canonicalize([]).digits.size == 0


def _signs(mat):
    first = (mat != 0).argmax(axis=1)
    return mat[np.arange(mat.shape[0]), first]


EXHAUSTIVE_N = 10


@pytest.fixture(scope="module")
def mats():
    mat = all_digit_matrix(EXHAUSTIVE_N)
    return mat, _canonicalize_matrix(mat)


class TestCanonicalizeExhaustive:
    N = EXHAUSTIVE_N

    def test_matches_bigint_oracle(self, mats):
        mat, canon = mats
        sample = np.random.default_rng(0).choice(len(mat), 500, replace=False)
        for i in sample:
            assert canon[i].tolist() == bigint_canonical(mat[i])

    def test_value_preserved(self, mats):
        mat, canon = mats
        w = 2 ** np.arange(self.N - 1, -1, -1, dtype=np.int64)
        np.testing.assert_array_equal(canon.astype(np.int64) @ w, mat.astype(np.int64) @ w)

    def test_digit_signs_match_class(self, mats):
        mat, canon = mats
        sign = _signs(mat).astype(np.int64)
        assert (canon * np.where(sign == 0, 1, sign)[:, None] >= 0).all()

    def test_sign_coherence_with_value(self, mats):
        # first nonzero digit dominates the tail, so it decides the sign
        mat, canon = mats
        w = 2 ** np.arange(self.N - 1, -1, -1, dtype=np.int64)
        values = mat.astype(np.int64) @ w
        np.testing.assert_array_equal(np.sign(values), _signs(mat).astype(np.int64))

    def test_idempotent(self, mats):
        _, canon = mats
        np.testing.assert_array_equal(_canonicalize_matrix(canon), canon)

    def test_negation_equivariant(self, mats):
        mat, canon = mats
        np.testing.assert_array_equal(_canonicalize_matrix(-mat), -canon)


    def test_reused_buffers_give_the_same_result(self, mats):
        # one out and one scratch for chunks of every size, stale contents and all
        mat, canon = mats
        out = np.full(mat.shape, 7, dtype=np.int8)
        scratch = np.full(mat.shape, 7, dtype=np.int8)
        for lo, hi in ((0, len(mat)), (5, 900), (1000, 1001), (3, 3)):
            got = _canonicalize_matrix(mat[lo:hi], out=out[: hi - lo], scratch=scratch[: hi - lo])
            assert got.size == 0 or np.shares_memory(got, out)
            np.testing.assert_array_equal(got, canon[lo:hi])

class TestCanonicalizeLong:
    def test_random_ten_thousand_digits(self):
        rng = np.random.default_rng(512)
        for _ in range(10):
            digits = rng.integers(-1, 2, size=10_000, dtype=np.int8)
            form = canonicalize(digits)
            assert value_of(form.digits) == value_of(digits)
            assert form.digits.tolist() == bigint_canonical(digits)
            again = canonicalize(form.digits)
            assert np.array_equal(again.digits, form.digits)


def _assert_rows_match_oracle(mat):
    canon = _canonicalize_matrix(mat)
    assert canon.shape == mat.shape
    for row, form in zip(mat, canon):
        assert form.tolist() == bigint_canonical(row)


class TestCanonicalizeZeroRuns:
    """Rows whose carry has to cross a zero run, at run lengths around powers of two.

    Random digits almost never hold a zero run longer than about 20, so only
    rows like these reach the late passes of the nearest-nonzero doubling and
    check where it stops.
    """

    RUNS = sorted({2**k + e for k in range(13) for e in (-1, 0, 1)})

    @pytest.mark.parametrize("run", RUNS)
    def test_carry_crosses_the_run(self, run):
        # 1, run zeros, -1 has the value 2^(run+1) - 1: the -1 borrows across the run
        row = np.array([1] + [0] * run + [-1], dtype=np.int8)
        _assert_rows_match_oracle(row[None, :])
        _assert_rows_match_oracle(-row[None, :])
        padded = np.concatenate([np.zeros(2, np.int8), row, np.zeros(run, np.int8)])
        _assert_rows_match_oracle(padded[None, :])
        # the same row among an all-zero, a first-minus-1 and a random row
        rng = np.random.default_rng(run)
        mixed = np.stack([
            row,
            np.zeros_like(row),
            -row,
            rng.integers(-1, 2, size=row.size, dtype=np.int8),
        ])
        _assert_rows_match_oracle(mixed)

    def test_all_zero_rows(self):
        for n in (1, 2, 3, 64, 4097):
            mat = np.zeros((3, n), dtype=np.int8)
            np.testing.assert_array_equal(_canonicalize_matrix(mat), mat)

    def test_first_minus_one_rows(self):
        rng = np.random.default_rng(7)
        mat = rng.integers(-1, 2, size=(200, 40), dtype=np.int8)
        mat[:, 0] = -1
        mat[:50, 1:30] = 0
        _assert_rows_match_oracle(mat)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_narrow_widths(self, n):
        mat = all_digit_matrix(n)
        assert mat.shape == (3**n, n)
        _assert_rows_match_oracle(mat)

    def test_no_rows(self):
        assert _canonicalize_matrix(np.zeros((0, 5), dtype=np.int8)).shape == (0, 5)


class TestDecomposeBlocks:
    def test_eleven_digit_example(self):
        dec = decompose_blocks(EXAMPLE)
        assert dec.leading_zeros == 2
        assert dec.blocks == ((1, -1, 0), (1, 0), (1, -1), (1,), (1,))
        assert dec.start_positions == (2, 5, 7, 9, 10)
        assert dec.blocks[:-1] == ((1, -1, 0), (1, 0), (1, -1), (1,))

    def test_single_one(self):
        dec = decompose_blocks([1])
        assert dec.leading_zeros == 0
        assert dec.blocks == ((1,),)

    def test_trailing_zeros_absorbed(self):
        dec = decompose_blocks([0, 1, 0, 0])
        assert dec.leading_zeros == 1
        assert dec.blocks == ((1, 0, 0),)

    def test_wrong_class_all_zero(self):
        with pytest.raises(ValueError, match=r"needs a first-1 string, got all_zero$"):
            decompose_blocks([0, 0])

    def test_wrong_class_first_minus_one(self):
        with pytest.raises(ValueError, match=r"got first_minus_one \(negate the digits first\)$"):
            decompose_blocks([-1, 1])

    def test_roundtrip_exhaustive(self):
        mat = all_digit_matrix(9)
        first_one = mat[_signs(mat) == 1]
        for row in first_one[:: 7]:
            dec = decompose_blocks(row)
            assert (0,) * dec.leading_zeros + sum(dec.blocks, ()) == tuple(row.tolist())
            for block in dec.blocks:
                assert block[0] == 1 and 1 not in block[1:]

    def test_roundtrip_random_long(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            digits = rng.integers(-1, 2, size=2000, dtype=np.int8)
            if classify(digits) is not SequenceClass.FIRST_ONE:
                digits = np.abs(digits, dtype=np.int8) if not digits.any() else -digits
            if classify(digits) is not SequenceClass.FIRST_ONE:
                continue
            dec = decompose_blocks(digits)
            assert (0,) * dec.leading_zeros + sum(dec.blocks, ()) == tuple(digits.tolist())


class TestPairCell:
    def test_examples(self):
        assert pair_cell(1, 1, 1, 1) == (0, 2)
        assert pair_cell(0, 0, 0, 0) == (1, 0)
        assert pair_cell(-1, 1, 1, 1) == (3, 2)

    def test_rows_partition_raw_pairs(self):
        seen = {}
        for u in (-1, 0, 1):
            for v in (-1, 0, 1):
                row, _ = pair_cell(u, v, 0, 0)
                seen[(u, v)] = row
        assert sorted(seen.values()).count(1) == 4  # the (not1, not1) row holds 4 pairs
        assert set(seen.values()) == {0, 1, 2, 3, 4, 5}

    def test_validation(self):
        with pytest.raises(ValueError):
            pair_cell(2, 0, 0, 0)
        with pytest.raises(ValueError):
            pair_cell(0, 0, -1, 0)


class TestTableLimits:
    def test_shape_and_labels(self):
        assert TABLE_LIMITS.shape == (len(ROW_LABELS), len(COL_LABELS)) == (6, 4)

    def test_total_mass(self):
        assert TABLE_LIMITS.sum() == pytest.approx(1.0, abs=1e-15)

    def test_column_sums(self):
        np.testing.assert_allclose(
            TABLE_LIMITS.sum(axis=0), [4 / 18, 5 / 18, 4 / 18, 5 / 18], atol=1e-15
        )

    def test_forbidden_cells_are_zero(self):
        # a raw 1 followed by a non-1 can never leave both standard digits 1
        assert TABLE_LIMITS[4, 2] == 0.0 and TABLE_LIMITS[5, 2] == 0.0
