"""Standard form of signed-digit strings and their block structure.

Every digit string (b_0, ..., b_{n-1}) over {-1, 0, 1} has a unique
value-preserving standard form whose digits are all in {0, 1} when the
value is positive, all in {0, -1} when negative, and all 0 otherwise.
The sign of the value is decided by the first nonzero digit, which also
classifies the string.  Strings whose first nonzero digit is 1 decompose,
after their leading zeros, into blocks: maximal substrings starting with
a 1 and containing no other 1.

The adjacent-pair frequency table used by the statistics layer lives here
too: each position a in {1, ..., n-1} falls into exactly one cell indexed
by the raw pair (b_{a-1}, b_a) (six rows) and the standard-form pair
(bt_{a-1}, bt_a) (four columns).
"""

from __future__ import annotations

import enum

import numpy as np

from .process import as_digit_array

__all__ = [
    "COL_LABELS",
    "ROW_LABELS",
    "SequenceClass",
    "TABLE_LIMITS",
    "canonicalize",
    "classify",
    "decompose_blocks",
    "pair_cell",
]


class SequenceClass(enum.Enum):
    """Classification by the first nonzero digit."""

    FIRST_ONE = "first_one"
    FIRST_MINUS_ONE = "first_minus_one"
    ALL_ZERO = "all_zero"


#: class of a string by the sign of its first nonzero digit (0: none)
_SIGN_CLASS = {
    1: SequenceClass.FIRST_ONE,
    -1: SequenceClass.FIRST_MINUS_ONE,
    0: SequenceClass.ALL_ZERO,
}


# Pair-table geometry.  Rows partition the nine raw pairs (b_{a-1}, b_a);
# columns are the four standard-form pairs in the order (0,0), (0,1), (1,1), (1,0).
ROW_LABELS = (
    "raw(1,1)",
    "raw(not1,not1)",
    "raw(0,1)",
    "raw(-1,1)",
    "raw(1,0)",
    "raw(1,-1)",
)
COL_LABELS = ("canon(0,0)", "canon(0,1)", "canon(1,1)", "canon(1,0)")

# limiting frequency (cell count / n as n grows) of each cell for uniform
# increments, conditioned on the first-1 class
TABLE_LIMITS = np.array(
    [
        [0.0, 0.0, 1 / 18, 1 / 18],
        [1 / 9, 1 / 9, 1 / 9, 1 / 9],
        [1 / 18, 1 / 18, 0.0, 0.0],
        [0.0, 0.0, 1 / 18, 1 / 18],
        [0.0, 1 / 18, 0.0, 1 / 18],
        [1 / 18, 1 / 18, 0.0, 0.0],
    ]
)

# row index from the raw pair, looked up at [b_prev + 1, b_cur + 1]
_ROW_LUT = np.array(
    [
        [1, 1, 3],  # b_prev = -1
        [1, 1, 2],  # b_prev = 0
        [5, 4, 0],  # b_prev = 1
    ],
    dtype=np.int8,
)

# column index from the standard-form pair, looked up at [bt_prev, bt_cur]
_COL_LUT = np.array([[0, 1], [3, 2]], dtype=np.int8)


def classify(digits) -> SequenceClass:
    """Class of a digit string per its first nonzero digit."""
    sign = _first_nonzero_sign(as_digit_array(digits)[None, :])[0]
    return _SIGN_CLASS[int(sign)]


def _first_nonzero_sign(mat: np.ndarray) -> np.ndarray:
    """Per-row sign of the first nonzero digit (0 for all-zero rows)."""
    if mat.shape[1] == 0:
        return np.zeros(mat.shape[0], dtype=np.int8)
    first = (mat != 0).argmax(axis=1)
    return mat[np.arange(mat.shape[0]), first]


def _canonicalize_matrix(
    mat: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Row-wise standard form of an int8 digit matrix, written to out if given.

    Rows are first normalized to nonnegative value by their class sign.  The
    right-to-left sweep would then carry c in {0, -1}, and the carry into
    position k is -1 exactly when the nearest nonzero digit right of k is -1,
    so bt_k = (b_k + c_k) & 1.  That nearest nonzero digit is found for all
    positions at once by pointer doubling: in the pass with shift d = 1, 2,
    4, ... a zero entry takes the entry d places to its right, so the passes
    stop after about log2 of the longest zero run.  The sign is applied back
    at the end.  No big integers and no loop over columns.  out and scratch
    are C-contiguous int8 arrays of mat's shape, allocated when not given: a
    caller that sweeps many chunks passes the same two each time, so no chunk
    touches fresh pages.
    """
    if mat.shape[1] == 0:
        return mat.copy() if out is None else out
    sign = _first_nonzero_sign(mat)[:, None]
    # one scratch buffer: the normalized digits, then each pass's step
    scratch = np.multiply(mat, sign, out=scratch, dtype=np.int8)
    # near[:, k]: nearest nonzero digit right of k, within the window so far.
    # Each row ends in a 1 that stands for "none" (no carry) and stops every
    # window inside its row, so the rows can be swept as one flat array.
    near = np.empty_like(scratch) if out is None else out
    flat = near.reshape(-1)
    flat[:-1] = scratch.reshape(-1)[1:]
    near[:, -1] = 1
    d = 1
    while d < flat.size:
        head = flat[:-d]
        zero = np.equal(head, 0, out=scratch.view(bool).reshape(-1)[:-d])
        if not zero.any():
            break
        step = zero.view(np.int8)
        step *= flat[d:]
        head += step
        d *= 2
    near >>= 1  # the carry: -1 below a -1, else 0
    # a nonnegative value below 2^n: position 0 emits no carry
    assert not (mat[:, 0] * sign[:, 0] + near[:, 0] < 0).any()
    near += mat  # b_k and sign * b_k have the same parity
    near &= 1
    near *= sign
    return near


def canonicalize(digits) -> np.ndarray:
    """Value-preserving standard form of a digit string, as an int8 array."""
    return _canonicalize_matrix(as_digit_array(digits)[None, :])[0]


def decompose_blocks(digits) -> tuple[int, ...]:
    """Block starts of a first-1 string: the positions of its 1s.

    The first start is the leading-zero count.  Block i runs from start i up
    to the next start, and the final block is always cut by the end of the
    string: a longer string could extend it.  Strings of the first-minus-1
    class must be negated by the caller first; all-zero strings have no
    blocks at all.
    """
    arr = as_digit_array(digits)
    cls = classify(arr)
    if cls is not SequenceClass.FIRST_ONE:
        raise ValueError(
            f"block decomposition needs a first-1 string, got {cls.value}"
            + (" (negate the digits first)" if cls is SequenceClass.FIRST_MINUS_ONE else "")
        )
    return tuple(np.flatnonzero(arr == 1).tolist())


def pair_cell(b_prev: int, b_cur: int, bt_prev: int, bt_cur: int) -> tuple[int, int]:
    """(row, column) of the pair table holding this raw/standard-form combination."""
    if b_prev not in (-1, 0, 1) or b_cur not in (-1, 0, 1):
        raise ValueError(f"raw digits ({b_prev}, {b_cur}) must lie in {{-1, 0, 1}}")
    if bt_prev not in (0, 1) or bt_cur not in (0, 1):
        raise ValueError(
            f"standard-form digits ({bt_prev}, {bt_cur}) must lie in {{0, 1}}"
        )
    return int(_ROW_LUT[b_prev + 1, b_cur + 1]), int(_COL_LUT[bt_prev, bt_cur])
