"""Adjacent-pair counts of standard forms, by exhaustive enumeration and Monte Carlo.

For a digit string with standard form bt, every position a in {1, ..., n-1}
falls into one cell of the 6 x 4 pair table (see canonical.TABLE_LIMITS),
additionally split by the parity of a.  This module counts those cells for
single strings, exactly over all 3^n strings of small length, and by seeded
Monte Carlo for large lengths; it also measures the block-pattern events
behind the pair counts and the concentration of the number of +1 increments.

Monte Carlo draws one substream per block of about 2^16 digits of trials and
keeps per-cell sums and sums of squares, so its memory does not grow with
the trial count; its cost, trials x (n + 48), is checked before anything is
drawn.

First-minus-1 strings are negated onto the first-1 case before counting
(their statistics are identical under negation), so all reports use the
first-1 table orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .canonical import (
    COL_LABELS,
    ROW_LABELS,
    TABLE_LIMITS,
    SequenceClass,
    _canonicalize_matrix,
    _COL_LUT,
    _first_nonzero_sign,
    _ROW_LUT,
)
from .process import IncrementDistribution, as_digit_array

__all__ = [
    "AllZeroInputError",
    "BlockEventReport",
    "EXHAUSTIVE_MAX_N",
    "FrequencyReport",
    "MAX_MC_COST",
    "MAX_MC_LENGTH",
    "OnesCountReport",
    "PairHistogram",
    "TooLargeError",
    "class_probability",
    "count_pairs",
    "event_probabilities",
    "exhaustive_expectations",
    "monte_carlo_frequencies",
    "ones_count_statistics",
]

#: exhaustive enumeration bound; 3^14 strings is the practical ceiling
EXHAUSTIVE_MAX_N = 14

_CELLS = 6 * 4 * 2

#: Monte Carlo refuses trials * (n + 48) above this: digits plus per-row cells.
#: It also keeps the int64 sums of squares, at most trials * n^2 < 2^56, exact.
MAX_MC_COST = 1 << 32
#: one row is the smallest chunk, so n alone sets the Monte Carlo memory
MAX_MC_LENGTH = 1 << 24
#: a Monte Carlo substream covers about this many digits (whole rows, at least one)
_BLOCK_DIGITS = 1 << 16
#: a Monte Carlo chunk is whole blocks of at most this many digits (or one block) ...
_CHUNK_DIGITS = 1 << 24
#: ... and at most this many per-row cells, which bounds its per-row bookkeeping
_CHUNK_CELLS = 1 << 20


class AllZeroInputError(ValueError):
    """Pair counting is undefined on the all-zero string."""


class TooLargeError(ValueError):
    """Length exceeds the exhaustive enumeration bound."""


def _pair_codes(raw: np.ndarray, canon: np.ndarray) -> np.ndarray:
    """Cell code per position a: ((row * 4) + col) * 2 + parity(a).

    raw must already be normalized to the first-1 orientation, so canon
    entries are in {0, 1}.  Shape (rows, n) in, (rows, n-1) out.
    """
    row = _ROW_LUT[raw[:, :-1] + 1, raw[:, 1:] + 1].astype(np.int16)
    col = _COL_LUT[canon[:, :-1], canon[:, 1:]].astype(np.int16)
    parity = (np.arange(1, raw.shape[1], dtype=np.int16) & 1)[None, :]
    return (row * 4 + col) * 2 + parity


def _aggregate_counts(codes: np.ndarray) -> np.ndarray:
    return np.bincount(codes.ravel(), minlength=_CELLS).reshape(6, 4, 2)


def _per_row_counts(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell sums and sums of squares, over the rows, of each row's cell counts.

    Rows are tallied in sub-blocks of about 2^20 codes plus per-row cells, so
    no rows x 48 array is built.  Both results have shape (48,).
    """
    rows, width = codes.shape
    s1 = np.zeros(_CELLS, dtype=np.int64)
    s2 = np.zeros(_CELLS, dtype=np.int64)
    block = max(1, (1 << 20) // (width + _CELLS))
    for lo in range(0, rows, block):
        hi = min(lo + block, rows)
        chunk = codes[lo:hi].astype(np.int64)
        chunk += np.arange(hi - lo, dtype=np.int64)[:, None] * _CELLS
        counts = np.bincount(chunk.ravel(), minlength=(hi - lo) * _CELLS)
        counts = counts.reshape(hi - lo, _CELLS)
        s1 += counts.sum(axis=0)
        s2 += np.einsum("ij,ij->j", counts, counts)
    return s1, s2


@dataclass(frozen=True, eq=False)
class PairHistogram:
    """Cell counts of one digit string: (6 rows, 4 columns, 2 parities).

    The parity axis is indexed by a mod 2, so cells[..., 1] counts odd a.
    The four splits of the canon(1,1) column by the raw pair are exposed as
    n1 (raw 1,1), n2 (raw 1 then non-1), n3 (raw non-1 then 1) and
    n4 (raw neither 1); n2 is structurally zero.
    """

    n: int
    sequence_class: SequenceClass
    cells: np.ndarray

    @property
    def total(self) -> int:
        return int(self.cells.sum())

    @property
    def column_counts(self) -> np.ndarray:
        return self.cells.sum(axis=(0, 2))

    @property
    def n1(self) -> int:
        return int(self.cells[0, 2].sum())

    @property
    def n2(self) -> int:
        return int(self.cells[4, 2].sum() + self.cells[5, 2].sum())

    @property
    def n3(self) -> int:
        return int(self.cells[2, 2].sum() + self.cells[3, 2].sum())

    @property
    def n4(self) -> int:
        return int(self.cells[1, 2].sum())


def count_pairs(digits) -> PairHistogram:
    """Tally every position a of one string into its pair-table cell."""
    arr = as_digit_array(digits)
    sign = int(_first_nonzero_sign(arr[None, :])[0])
    if sign == 0:
        raise AllZeroInputError("cannot count pairs of the all-zero string")
    work = (arr * sign).astype(np.int8)[None, :]
    canon = _canonicalize_matrix(work)
    cells = _aggregate_counts(_pair_codes(work, canon))
    cls = SequenceClass.FIRST_ONE if sign == 1 else SequenceClass.FIRST_MINUS_ONE
    return PairHistogram(n=arr.size, sequence_class=cls, cells=cells)


@dataclass(frozen=True, eq=False)
class FrequencyReport:
    """Mean cell frequencies (count / n) over many strings.

    counts holds summed integer cell counts over all strings used; freq_mean
    is the per-string mean of count/n; freq_stderr is the standard error over
    strings (None in exhaustive mode, where the mean is exact).
    """

    n: int
    mode: str
    conditioning: str
    trials: int
    counts: np.ndarray
    freq_mean: np.ndarray
    freq_stderr: np.ndarray | None

    @property
    def combined_freq(self) -> np.ndarray:
        """Parity-summed cell frequencies, shape (6, 4)."""
        return self.freq_mean.sum(axis=2)

    @property
    def column_sums(self) -> np.ndarray:
        """Frequency totals of the four standard-form columns."""
        return self.freq_mean.sum(axis=(0, 2))

    @property
    def n1_freq(self) -> float:
        return float(self.freq_mean[0, 2].sum())

    @property
    def n2_freq(self) -> float:
        return float(self.freq_mean[4, 2].sum() + self.freq_mean[5, 2].sum())

    @property
    def n3_freq(self) -> float:
        return float(self.freq_mean[2, 2].sum() + self.freq_mean[3, 2].sum())

    @property
    def n4_freq(self) -> float:
        return float(self.freq_mean[1, 2].sum())

    @property
    def n2_count(self) -> int:
        return int(self.counts[4, 2].sum() + self.counts[5, 2].sum())

    def col11_parity_freq(self) -> tuple[float, float]:
        """(even-a, odd-a) frequency of the canon(1,1) column."""
        return (
            float(self.freq_mean[:, 2, 0].sum()),
            float(self.freq_mean[:, 2, 1].sum()),
        )

    def to_dict(self) -> dict:
        cells = {}
        for r, rlabel in enumerate(ROW_LABELS):
            for c, clabel in enumerate(COL_LABELS):
                for par, plabel in enumerate(("even", "odd")):
                    err = (
                        None
                        if self.freq_stderr is None
                        else float(self.freq_stderr[r, c, par])
                    )
                    cells[f"{rlabel}|{clabel}|{plabel}"] = {
                        "count": int(self.counts[r, c, par]),
                        "frequency": float(self.freq_mean[r, c, par]),
                        "stderr": err,
                    }
        combined = {}
        for r, rlabel in enumerate(ROW_LABELS):
            for c, clabel in enumerate(COL_LABELS):
                combined[f"{rlabel}|{clabel}"] = {
                    "count": int(self.counts[r, c].sum()),
                    "frequency": float(self.freq_mean[r, c].sum()),
                    "limit": float(TABLE_LIMITS[r, c]),
                }
        even11, odd11 = self.col11_parity_freq()
        return {
            "n": self.n,
            "mode": self.mode,
            "conditioning": self.conditioning,
            "trials": self.trials,
            "cells": cells,
            "cells_combined": combined,
            "derived": {
                "n1": self.n1_freq,
                "n2": self.n2_freq,
                "n3": self.n3_freq,
                "n4": self.n4_freq,
                "column_sums": [float(x) for x in self.column_sums],
                "col11_even": even11,
                "col11_odd": odd11,
            },
        }


def _digit_matrix(lo: int, hi: int, n: int) -> np.ndarray:
    """Rows lo..hi-1 of the base-3 enumeration of all length-n strings."""
    idx = np.arange(lo, hi, dtype=np.int64)[:, None]
    pows = 3 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return ((idx // pows) % 3 - 1).astype(np.int8)


def exhaustive_expectations(
    n: int, sequence_class: SequenceClass = SequenceClass.FIRST_ONE
) -> FrequencyReport:
    """Exact conditional cell-frequency expectations over all 3^n strings.

    Every string of the requested class enters with equal weight; the result
    is the brute-force oracle the Monte Carlo path is checked against.
    """
    if n < 1:
        raise ValueError(f"length {n} must be at least 1")
    if n > EXHAUSTIVE_MAX_N:
        raise TooLargeError(f"length {n} exceeds exhaustive bound {EXHAUSTIVE_MAX_N}")
    if sequence_class is SequenceClass.ALL_ZERO:
        raise ValueError("cannot condition on the all-zero class")
    target = 1 if sequence_class is SequenceClass.FIRST_ONE else -1

    total = 3**n
    chunk = 3 ** min(n, 12)
    ranges = [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]

    def process(bounds):
        lo, hi = bounds
        mat = _digit_matrix(lo, hi, n)
        sign = _first_nonzero_sign(mat)
        work = (mat[sign == target] * target).astype(np.int8)
        counts = _aggregate_counts(_pair_codes(work, _canonicalize_matrix(work)))
        return counts, work.shape[0]

    counts = np.zeros((6, 4, 2), dtype=np.int64)
    used = 0
    for c, k in map(process, ranges):
        counts += c
        used += k
    assert used == (total - 1) // 2
    return FrequencyReport(
        n=n,
        mode="exhaustive",
        conditioning=sequence_class.value,
        trials=used,
        counts=counts,
        freq_mean=counts / (used * n),
        freq_stderr=None,
    )


def monte_carlo_frequencies(n: int, trials: int, seed) -> FrequencyReport:
    """Seeded Monte Carlo estimate of the pair-table cell frequencies.

    Digits are drawn from the uniform law on {-1, 0, 1}, the setting of the
    standard-form pair analysis.  Trials come in blocks of
    B = max(1, 2^16 // n) rows; block b is one draw from child b of
    SeedSequence(seed).spawn(ceil(trials / B)), so the result depends only on
    (seed, n, trial index), never on chunking.  Chunks of whole blocks are
    tallied into per-cell sums and sums of squares, so the memory does not
    grow with trials.  All-zero draws are discarded; first-minus-1 draws are
    negated and pooled with first-1 draws.
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

    root = np.random.SeedSequence(seed)
    block = max(1, _BLOCK_DIGITS // n)
    per_chunk = block * max(
        1, min(_CHUNK_DIGITS // (block * n), _CHUNK_CELLS // (block * _CELLS))
    )
    ranges = [(lo, min(lo + per_chunk, trials)) for lo in range(0, trials, per_chunk)]

    def process(bounds):
        lo, hi = bounds
        mat = np.empty((hi - lo, n), dtype=np.int8)
        for start in range(lo, hi, block):
            # child b of root.spawn(...), built on its own so that no list grows with trials
            child = np.random.SeedSequence(
                root.entropy, spawn_key=(*root.spawn_key, start // block), pool_size=root.pool_size
            )
            rows = min(block, hi - start)
            mat[start - lo : start - lo + rows] = np.random.default_rng(child).integers(
                -1, 2, size=(rows, n), dtype=np.int8
            )
        sign = _first_nonzero_sign(mat)
        work = (mat[sign != 0] * sign[sign != 0, None]).astype(np.int8)
        codes = _pair_codes(work, _canonicalize_matrix(work))
        return (*_per_row_counts(codes), work.shape[0])

    s1 = np.zeros(_CELLS, dtype=np.int64)
    s2 = np.zeros(_CELLS, dtype=np.int64)
    used = 0
    for c1, c2, k in map(process, ranges):
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
        freq_mean=(s1 / (used * n)).reshape(6, 4, 2),
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


def event_probabilities(
    horizon: int, trials: int, seed, class_length: int = 10, class_trials: int = 100_000
) -> BlockEventReport:
    """Measure the two block-pair events over trials x horizon block pairs.

    Per trial, an i.i.d. digit stream is drawn until it contains horizon + 1
    complete blocks (a block is complete once the next 1 appears); events are
    evaluated on consecutive complete blocks.  The exact first-1 class
    probability for length class_length is reported next to an empirical
    class histogram over class_trials fresh strings.
    """
    if horizon < 1 or trials < 1:
        raise ValueError("horizon and trials must be at least 1")
    if class_length < 1 or class_trials < 1:
        raise ValueError("class_length and class_trials must be at least 1")

    children = np.random.SeedSequence(seed).spawn(trials + 1)
    need_ones = horizon + 2
    single_freqs = np.empty(trials)
    minus_freqs = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng(children[t])
        parts = [rng.integers(-1, 2, size=4 * need_ones + 64, dtype=np.int8)]
        ones_seen = int((parts[0] == 1).sum())
        while ones_seen < need_ones:
            more = rng.integers(
                -1, 2, size=4 * (need_ones - ones_seen) + 64, dtype=np.int8
            )
            ones_seen += int((more == 1).sum())
            parts.append(more)
        d = np.concatenate(parts) if len(parts) > 1 else parts[0]
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

    class_rng = np.random.default_rng(children[trials])
    mat = class_rng.integers(-1, 2, size=(class_trials, class_length), dtype=np.int8)
    sign = _first_nonzero_sign(mat)
    return BlockEventReport(
        horizon=horizon,
        trials=trials,
        blocks_observed=trials * (horizon + 1),
        single_then_clean_freq=float(single_freqs.mean()),
        single_then_clean_stderr=_stderr(single_freqs),
        minus_then_clean_freq=float(minus_freqs.mean()),
        minus_then_clean_stderr=_stderr(minus_freqs),
        class_length=class_length,
        class_trials=class_trials,
        class_freq_first_one=float((sign == 1).mean()),
        class_freq_first_minus_one=float((sign == -1).mean()),
        class_freq_all_zero=float((sign == 0).mean()),
        class_prob_exact=class_probability(class_length),
    )


@dataclass(frozen=True)
class OnesCountReport:
    """Concentration summary of the number of +1 increments in n draws."""

    n: int
    trials: int
    eps: float
    q_plus1: float
    mean: float
    sd: float
    min: int
    max: int
    band_low: float
    band_high: float
    frac_within: float


def ones_count_statistics(
    dist: IncrementDistribution, n: int, trials: int, seed, eps: float
) -> OnesCountReport:
    """Empirical distribution of the +1 count and its concentration band.

    The count of +1 digits in n i.i.d. draws is Binomial(n, q_plus1), so it
    is sampled directly.  frac_within is the fraction of trials strictly
    inside ((q_plus1 - eps) n, (q_plus1 + eps) n).
    """
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be at least 1")
    if eps <= 0:
        raise ValueError(f"eps {eps} must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = rng.binomial(n, dist.q_plus1, size=trials)
    lo, hi = (dist.q_plus1 - eps) * n, (dist.q_plus1 + eps) * n
    return OnesCountReport(
        n=n,
        trials=trials,
        eps=eps,
        q_plus1=dist.q_plus1,
        mean=float(counts.mean()),
        sd=float(counts.std(ddof=1)) if trials > 1 else 0.0,
        min=int(counts.min()),
        max=int(counts.max()),
        band_low=lo,
        band_high=hi,
        frac_within=float(((counts > lo) & (counts < hi)).mean()),
    )
