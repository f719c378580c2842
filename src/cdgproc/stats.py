"""Adjacent-pair counts of standard forms, exactly and by Monte Carlo.

For a digit string with standard form bt, every position a in {1, ..., n-1}
falls into one cell of the 6 x 4 pair table (see canonical.TABLE_LIMITS),
additionally split by the parity of a.  This module counts those cells
exactly over every first-1 string of small length, and by seeded Monte Carlo
for large lengths; it also measures the block-pattern events behind the pair
counts.

A position's cell depends only on (b_{a-1}, b_a, bt_a) and the parity of a,
since b_a and bt_a fix the carry.  So each position gets one of 36 int8 pair
indices, built in place with no table gather, and the tallies are taken over
the 36 indices and folded into the 48 cells exactly in int64.

The exact counts need no enumeration.  In a first-1 string, s, the sign of
the nearest nonzero digit right of a (0 if none), fixes the carry into a, so
the window (b_{a-1}, b_a, s) and the parity of a fix the cell.  The window
shows at a in suffixes(s) x (prefixes(a) + lead) first-1 strings: suffixes
is 1 for s = 0, else (3^(n-1-a) - 1)/2; prefixes(a) = (3^(a-1) - 1)/2 counts
the first-1 digits before a - 1; lead is 1 when the window's first nonzero
digit is +1, so those digits may all be 0.  27 windows a position give every
count.

Monte Carlo draws one substream (process.substreams, also the seed rule of
the chain's sampler process.sample_endpoints) per block of about 2^16 digits
of trials and keeps per-cell sums and sums of squares, so its memory does not
grow with the trial count; its cost, trials x (n + 48), is checked before
anything is drawn.  Every block is swept in the same two int8 buffers, so
the peak is about 4 bytes a digit of one block.

All reports use the first-1 table orientation.  Statistics are identical
under negation, so Monte Carlo negates first-minus-1 draws before counting,
and exhaustive mode counts the first-1 strings for either class.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .canonical import (
    COL_LABELS,
    ROW_LABELS,
    TABLE_LIMITS,
    SequenceClass,
    _canonicalize_matrix,
    _first_nonzero_sign,
    pair_cell,
)
from .process import substreams

__all__ = [
    "BlockEventReport",
    "EVENT_CLASS_LENGTH",
    "EVENT_CLASS_TRIALS",
    "EXHAUSTIVE_MAX_N",
    "FrequencyReport",
    "MAX_MC_COST",
    "MAX_MC_LENGTH",
    "class_probability",
    "event_probabilities",
    "exhaustive_expectations",
    "monte_carlo_frequencies",
]

#: exhaustive length bound.  The window count costs O(n) at any n, so cost does not set
#: it: 14 is the largest length pinned against enumeration, and raising it waits for a
#: form of the counts above 2^63, which a cell passes from n = 40 on
EXHAUSTIVE_MAX_N = 14

_CELLS = 6 * 4 * 2

#: Monte Carlo refuses trials * (n + 48) above this: digits plus per-row cells.
#: It also keeps the int64 sums of squares, at most trials * n^2 < 2^56, exact.
#: Measured on a 2-core x86 VM: 3.7 ns a unit at n = 2, 5.9 at n = 20, 8 to 12
#: at n = 100 to 1000, 10.0 at n = 100000 and 11.1 at n = 2^16 (one trial per
#: substream), so the largest accepted input takes about 1 minute.
MAX_MC_COST = 1 << 32
#: one row is the smallest block, so n alone sets the Monte Carlo memory: about
#: 4 bytes a digit of one block (the draw, two int8 buffers and the sign's
#: bool temporary), 64 MiB at this length
MAX_MC_LENGTH = 1 << 24
#: a Monte Carlo substream covers about this many digits (whole rows, at least one)
_BLOCK_DIGITS = 1 << 16
#: event_probabilities' empirical class histogram counts this many fresh strings
EVENT_CLASS_TRIALS = 100_000
#: the length of those strings, whose exact class probability is reported beside them
EVENT_CLASS_LENGTH = 10

#: a bincount of _per_row_counts covers whole rows of at most this many positions plus
#: 36 counts a row; a longer row is one piece, counted in slices of this many positions
_PIECE_UNITS = 1 << 15


def _pair_table() -> tuple[np.ndarray, np.ndarray]:
    """The cell code of every pair index, and the index pairs that share a cell.

    Index ((b_{a-1} + 1) * 6 + (b_a + 1) * 2 + bt_a) * 2 + (a & 1) fixes the
    cell: b_a and bt_a fix the carry c_a into a (bt_a = (b_a + c_a) & 1), the
    carry into a - 1 is (b_a + c_a) >> 1, and bt_{a-1} = (b_{a-1} + that) & 1.
    Of the 36 indices, 8 pairs share a cell and 20 have one alone.  Python
    integers, not numpy: array arithmetic here raised the import's peak RSS
    by about 0.3 MB.
    """
    codes = []
    for b_prev, b_cur, bt_cur, odd in itertools.product((-1, 0, 1), (-1, 0, 1), (0, 1), (0, 1)):
        carry = -((b_cur + bt_cur) & 1)
        bt_prev = (b_prev + ((b_cur + carry) >> 1)) & 1
        row, col = pair_cell(b_prev, b_cur, bt_prev, bt_cur)
        codes.append((row * 4 + col) * 2 + odd)
    shared = [(i, j) for i in range(36) for j in range(i + 1, 36) if codes[i] == codes[j]]
    return np.array(codes, dtype=np.intp), np.array(shared).T


# cell code ((row * 4) + col) * 2 + parity at each pair index; index pairs sharing a cell
_CODE36, _SHARED = _pair_table()


def _pair_codes(raw: np.ndarray, canon: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pair index per position a: ((b_{a-1} + 1) * 6 + (b_a + 1) * 2 + bt_a) * 2 + (a & 1).

    raw must already be normalized to the first-1 orientation, so canon
    entries are in {0, 1}.  The index is built in int8 in place, in out if
    given, with no gather: _CODE36 maps it to its cell.  Shape (rows, n) in,
    (rows, n-1) out.
    """
    idx = np.multiply(raw[:, :-1], 3, out=out)
    idx += raw[:, 1:]
    idx += 4
    idx *= 2
    idx += canon[:, 1:]
    idx *= 2
    idx[:, ::2] += 1  # column j is position a = j + 1
    return idx


def _fold(per_index: np.ndarray) -> np.ndarray:
    """Sum int64 values per pair index into their 48 cells, exactly."""
    cells = np.zeros(_CELLS, dtype=np.int64)
    np.add.at(cells, _CODE36, per_index)
    return cells


def _col11_split(cells: np.ndarray) -> tuple:
    """(n1, n2, n3, n4): canon(1,1) by raw pair (1,1), (1,non-1), (non-1,1), neither; n2 = 0."""
    col = cells[:, 2].sum(axis=1)
    return col[0], col[4] + col[5], col[2] + col[3], col[1]


def _per_row_counts(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell sums and sums of squares, over the rows, of each row's cell counts.

    codes are pair indices (see _pair_codes).  A piece of whole rows within
    _PIECE_UNITS is offset by 36 a row into one intp buffer and tallied by one
    bincount into rows x 36 counts; a longer row is counted in slices.  So no
    temporary grows with the block or the row, and no int64 copy of every
    position is made.  A cell's count is the sum of its
    indices' counts, so its square is their squares plus twice the product of
    its _SHARED pair; both fold into the 48 cells exactly in int64.  Both
    results have shape (48,).
    """
    rows, width = codes.shape
    per = max(1, _PIECE_UNITS // (width + 36))  # rows per piece
    s1 = np.zeros(36, dtype=np.int64)
    sq = np.zeros(36, dtype=np.int64)
    cross = np.zeros(_SHARED.shape[1], dtype=np.int64)
    if per > 1:
        offset = np.arange(0, min(per, rows) * 36, 36, dtype=np.intp)[:, None]
        piece = np.empty((min(per, rows), width), dtype=np.intp)
    for lo in range(0, rows, per):
        k = min(per, rows - lo)
        if per > 1:
            np.add(codes[lo : lo + k], offset[:k], out=piece[:k])
            counts = np.bincount(piece[:k].ravel(), minlength=k * 36).reshape(k, 36)
        else:
            row = codes[lo]
            counts = sum(np.bincount(row[j : j + _PIECE_UNITS], minlength=36)
                         for j in range(0, width, _PIECE_UNITS))[None, :]
        s1 += counts.sum(axis=0)
        sq += np.einsum("ij,ij->j", counts, counts)
        cross += np.einsum("ij,ij->j", counts[:, _SHARED[0]], counts[:, _SHARED[1]])
    s2 = _fold(sq)
    np.add.at(s2, _CODE36[_SHARED[0]], 2 * cross)
    return _fold(s1), s2


@dataclass(frozen=True, eq=False)
class FrequencyReport:
    """Mean cell frequencies (count / n) over many strings.

    counts holds summed integer cell counts over all strings used; freq_mean
    is the per-string mean of count/n, read from counts; freq_stderr is the
    standard error over strings (None in exhaustive mode, where the mean is
    exact).
    """

    n: int
    mode: str
    conditioning: str
    trials: int
    counts: np.ndarray
    freq_stderr: np.ndarray | None

    @property
    def freq_mean(self) -> np.ndarray:
        return self.counts / (self.trials * self.n)

    @property
    def combined_freq(self) -> np.ndarray:
        """Parity-summed cell frequencies, shape (6, 4)."""
        return self.freq_mean.sum(axis=2)

    @property
    def column_sums(self) -> np.ndarray:
        """Frequency totals of the four standard-form columns."""
        return self.freq_mean.sum(axis=(0, 2))

    @property
    def n2_count(self) -> int:
        return int(_col11_split(self.counts)[1])

    def col11_parity_freq(self) -> tuple[float, float]:
        """(even-a, odd-a) frequency of the canon(1,1) column."""
        return (
            float(self.freq_mean[:, 2, 0].sum()),
            float(self.freq_mean[:, 2, 1].sum()),
        )

    def to_dict(self) -> dict:
        mean = self.freq_mean
        combined_freq = self.combined_freq
        cells = {}
        combined = {}
        for r, rlabel in enumerate(ROW_LABELS):
            for c, clabel in enumerate(COL_LABELS):
                for par, plabel in enumerate(("even", "odd")):
                    err = None if self.freq_stderr is None else float(self.freq_stderr[r, c, par])
                    cells[f"{rlabel}|{clabel}|{plabel}"] = {
                        "count": int(self.counts[r, c, par]),
                        "frequency": float(mean[r, c, par]),
                        "stderr": err,
                    }
                combined[f"{rlabel}|{clabel}"] = {
                    "count": int(self.counts[r, c].sum()),
                    "frequency": float(combined_freq[r, c]),
                    "limit": float(TABLE_LIMITS[r, c]),
                }
        n1, n2, n3, n4 = _col11_split(mean)
        col11_even, col11_odd = self.col11_parity_freq()
        return {
            "n": self.n,
            "mode": self.mode,
            "conditioning": self.conditioning,
            "trials": self.trials,
            "cells": cells,
            "cells_combined": combined,
            "derived": {
                "n1": float(n1),
                "n2": float(n2),
                "n3": float(n3),
                "n4": float(n4),
                "column_sums": [float(x) for x in self.column_sums],
                "col11_even": col11_even,
                "col11_odd": col11_odd,
            },
        }


def _digit_matrix() -> np.ndarray:
    """The 27 first-1 windows (1, b_{a-1}, b_a, s) as int8 rows, the last digit varying fastest."""
    return np.array([(1, *w) for w in itertools.product((-1, 0, 1), repeat=3)], dtype=np.int8)


def exhaustive_expectations(
    n: int, sequence_class: SequenceClass = SequenceClass.FIRST_ONE
) -> FrequencyReport:
    """Exact conditional cell-frequency expectations over one class of length-n strings.

    Every one of the (3^n - 1)/2 first-1 strings enters with equal weight, so
    a cell's count is the number of (string, position) pairs that fall into
    it.  Position a shows the window (b_{a-1}, b_a, s), s the sign of the
    nearest nonzero digit right of a (0 if none), in suffixes(s) x
    (prefixes(a) + lead) first-1 strings: suffixes is 1 for s = 0, else
    (3^(n-1-a) - 1)/2; prefixes(a) is (3^(a-1) - 1)/2; lead is 1 when the
    window's first nonzero digit is +1.  The window and the parity of a fix
    the cell, read once per window at position 2 of the first-1 string
    (1, b_{a-1}, b_a, s) by the same sweep and pair index as Monte Carlo.
    The first-minus-1 strings are the negations, with the same counts in the
    first-1 orientation, so sequence_class only sets the conditioning label.
    The result is the exact value the Monte Carlo path is checked against.
    """
    if n < 1:
        raise ValueError(f"length {n} must be at least 1")
    if n > EXHAUSTIVE_MAX_N:
        raise ValueError(f"length {n} exceeds exhaustive bound {EXHAUSTIVE_MAX_N}")
    if sequence_class is SequenceClass.ALL_ZERO:
        raise ValueError("cannot condition on the all-zero class")

    windows = _digit_matrix()
    index = _pair_codes(windows, _canonicalize_matrix(windows))[:, 1].astype(np.intp)
    lead = _first_nonzero_sign(windows[:, 1:]) == 1
    nonzero_s = windows[:, 3] != 0
    per_index = np.zeros(36, dtype=np.int64)
    for a in range(1, n):
        suffixes = np.where(nonzero_s, (3 ** (n - 1 - a) - 1) // 2, 1)
        np.add.at(per_index, index + (a & 1), suffixes * ((3 ** (a - 1) - 1) // 2 + lead))
    return FrequencyReport(
        n=n,
        mode="exhaustive",
        conditioning=sequence_class.value,
        trials=(3**n - 1) // 2,
        counts=_fold(per_index).reshape(6, 4, 2),
        freq_stderr=None,
    )


def monte_carlo_frequencies(n: int, trials: int, seed) -> FrequencyReport:
    """Seeded Monte Carlo estimate of the pair-table cell frequencies.

    Digits are drawn from the uniform law on {-1, 0, 1}, the setting of the
    standard-form pair analysis.  Trials come in blocks of
    B = max(1, 2^16 // n) rows from process.substreams(seed, trials, B), one
    draw a block, so the result depends only on (seed, n, trial index).  Each
    block is tallied into per-cell sums and sums of squares, so the memory
    does not grow with trials.  All-zero draws are
    discarded; first-minus-1 draws are negated in place and pooled with
    first-1 draws.
    """
    if n < 2:
        raise ValueError(f"length {n} must be at least 2")
    if trials < 1:
        raise ValueError(f"trial count {trials} must be at least 1")
    if n > MAX_MC_LENGTH:
        raise ValueError(f"length {n} exceeds the Monte Carlo limit {MAX_MC_LENGTH}")
    if trials * (n + _CELLS) > MAX_MC_COST:
        raise ValueError(
            f"estimated Monte Carlo cost {trials * (n + _CELLS)} (digits plus per-row cells) "
            f"exceeds the limit {MAX_MC_COST}; reduce trials or n"
        )

    block = max(1, _BLOCK_DIGITS // n)
    s1 = np.zeros(_CELLS, dtype=np.int64)
    s2 = np.zeros(_CELLS, dtype=np.int64)
    used = 0
    # every block is swept in these two buffers: fresh pages for each chunk of
    # 10 rows took about 0.1 s of 0.5 s at 600 rows of 100000 digits
    canon, scratch = (np.empty((min(block, trials), n), dtype=np.int8) for _ in range(2))
    for rng, rows in substreams(seed, trials, block):
        mat = rng.integers(-1, 2, size=(rows, n), dtype=np.int8)
        sign = _first_nonzero_sign(mat)
        mat *= sign[:, None]
        if not sign.all():
            mat = mat[sign != 0]
        k = mat.shape[0]
        _canonicalize_matrix(mat, out=canon[:k], scratch=scratch[:k])
        # the index goes, contiguous, into the scratch the sweep is done with
        codes = scratch.reshape(-1)[: k * (n - 1)].reshape(k, n - 1)
        c1, c2 = _per_row_counts(_pair_codes(mat, canon[:k], out=codes))
        s1 += c1
        s2 += c2
        used += k
    if used == 0:
        raise ValueError("all trials drew the all-zero string; increase n or trials")
    if used > 1:
        # exact integer variance numerators, rounded once
        freq_stderr = np.array([
            math.sqrt((used * int(b) - int(a) ** 2) / (used * (used - 1))) / (n * math.sqrt(used))
            for a, b in zip(s1, s2)
        ])
    else:
        freq_stderr = np.zeros(_CELLS)
    return FrequencyReport(
        n=n,
        mode="monte-carlo",
        conditioning="first_one (first_minus_one negated and pooled)",
        trials=used,
        counts=s1.reshape(6, 4, 2),
        freq_stderr=freq_stderr.reshape(6, 4, 2),
    )


def class_probability(n: int) -> float:
    """P(first nonzero digit is +1) for a length-n uniform string: (1/2)(1 - 3^-n)."""
    if n < 0:
        raise ValueError(f"length {n} is negative")
    return 0.5 * (1.0 - 3.0 ** (-n))


@dataclass(frozen=True)
class BlockEventReport:
    """Empirical block-pattern event frequencies and class frequencies.

    single_then_clean: block i is a bare (1,) and block i+1 contains no -1.
    minus_then_clean: block i ends with -1 and block i+1 contains no -1.
    Both events have limiting probability 1/6.
    """

    horizon: int
    trials: int
    blocks_observed: int
    single_then_clean_freq: float
    single_then_clean_stderr: float
    minus_then_clean_freq: float
    minus_then_clean_stderr: float
    class_length: int
    class_trials: int
    class_freq_first_one: float
    class_freq_first_minus_one: float
    class_freq_all_zero: float
    class_prob_exact: float


def event_probabilities(horizon: int, trials: int, seed) -> BlockEventReport:
    """Measure the two block-pair events over trials x horizon block pairs.

    Per trial, an i.i.d. digit stream is drawn until it contains horizon + 1
    complete blocks (a block is complete once the next 1 appears); events are
    evaluated on consecutive complete blocks.  The exact first-1 class
    probability for length EVENT_CLASS_LENGTH is reported next to an
    empirical class histogram over EVENT_CLASS_TRIALS fresh strings.  Of
    process.substreams(seed, trials + 1, 1), trial t draws from block t and
    the class strings from block `trials`.
    """
    if horizon < 1 or trials < 1:
        raise ValueError("horizon and trials must be at least 1")

    streams = substreams(seed, trials + 1, 1)
    need_ones = horizon + 2
    single_freqs = np.empty(trials)
    minus_freqs = np.empty(trials)
    for t, (rng, _) in enumerate(itertools.islice(streams, trials)):
        d = np.empty(0, dtype=np.int8)
        while (seen := int((d == 1).sum())) < need_ones:
            d = np.concatenate((d, rng.integers(-1, 2, size=4 * (need_ones - seen) + 64,
                                                dtype=np.int8)))
        ones = np.flatnonzero(d == 1)[:need_ones]
        starts, ends = ones[:-1], ones[1:]
        is_single = (ends - starts) == 1
        ends_minus = d[ends - 1] == -1
        csum = np.concatenate(([0], np.cumsum(d == -1)))
        no_minus = (csum[ends] - csum[starts]) == 0
        single_freqs[t] = (is_single[:-1] & no_minus[1:]).mean()
        minus_freqs[t] = (ends_minus[:-1] & no_minus[1:]).mean()

    def _stderr(x):
        return float(x.std(ddof=1) / np.sqrt(x.size)) if x.size > 1 else 0.0

    class_rng, _ = next(streams)
    shape = (EVENT_CLASS_TRIALS, EVENT_CLASS_LENGTH)
    mat = class_rng.integers(-1, 2, size=shape, dtype=np.int8)
    sign = _first_nonzero_sign(mat)
    return BlockEventReport(
        horizon=horizon,
        trials=trials,
        blocks_observed=trials * (horizon + 1),
        single_then_clean_freq=float(single_freqs.mean()),
        single_then_clean_stderr=_stderr(single_freqs),
        minus_then_clean_freq=float(minus_freqs.mean()),
        minus_then_clean_stderr=_stderr(minus_freqs),
        class_length=EVENT_CLASS_LENGTH,
        class_trials=EVENT_CLASS_TRIALS,
        class_freq_first_one=float((sign == 1).mean()),
        class_freq_first_minus_one=float((sign == -1).mean()),
        class_freq_all_zero=float((sign == 0).mean()),
        class_prob_exact=class_probability(EVENT_CLASS_LENGTH),
    )
