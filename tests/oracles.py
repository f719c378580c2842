"""Independent reference implementations the library is checked against.

Everything here deliberately avoids the library's production code paths:
values come from Horner evaluation, standard forms from big-integer binary
expansion, distributions from direct enumeration of all increment strings,
pair cells from a hand-written classification, trace functionals from a full
sort and whole-vector numpy formulas, Fourier coefficients of the exact law
from the Chung-Diaconis-Graham product, whole vectors of mirrored halves
and dense vectors of residue vectors from index maps, and `simulate`
histograms from its replayed draws, decoded digit by digit and walked with
Python integers.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from collections import Counter
from itertools import accumulate, product

import numpy as np


def horner_value(digits) -> int:
    """Exact value via Horner's rule (independent of the packbits path)."""
    v = 0
    for d in digits:
        v = 2 * v + int(d)
    return v


def bigint_canonical(digits) -> list[int]:
    """Standard form as the n-digit binary expansion of |value|, negated if value < 0."""
    digits = [int(d) for d in digits]
    n = len(digits)
    v = horner_value(digits)
    sign = 1 if v >= 0 else -1
    bits = [int(ch) for ch in format(abs(v), "b").zfill(n)] if n else []
    assert len(bits) == n, "value must fit in n binary digits"
    return [sign * b for b in bits]


def all_digit_matrix(n: int) -> np.ndarray:
    """All 3^n digit strings as an int8 matrix, base-3 enumeration order."""
    idx = np.arange(3**n, dtype=np.int64)[:, None]
    pows = 3 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return ((idx // pows) % 3 - 1).astype(np.int8)


def brute_force_distribution(p: int, n: int, q=(1 / 3, 1 / 3, 1 / 3), multiplier=2):
    """Endpoint law by direct enumeration of all 3^n weighted increment strings."""
    if n == 0:
        out = np.zeros(p)
        out[0] = 1.0
        return out
    mat = all_digit_matrix(n).astype(np.int64)
    weights_vec = multiplier ** np.arange(n - 1, -1, -1, dtype=np.int64)
    values = mat @ weights_vec
    c_plus = (mat == 1).sum(axis=1)
    c_minus = (mat == -1).sum(axis=1)
    c_zero = n - c_plus - c_minus
    w = (q[2] ** c_plus) * (q[1] ** c_zero) * (q[0] ** c_minus)
    return np.bincount(values % p, weights=w, minlength=p)


def naive_pair_cells(digits) -> np.ndarray:
    """Pure-Python pair tally (6 rows, 4 cols, 2 parities) via the big-int oracle."""
    digits = [int(d) for d in digits]
    sign = next((1 if d > 0 else -1 for d in digits if d), 0)
    assert sign != 0, "all-zero input has no pair statistics"
    raw = [d * sign for d in digits]
    canon = bigint_canonical(raw)
    cells = np.zeros((6, 4, 2), dtype=np.int64)
    col_of = {(0, 0): 0, (0, 1): 1, (1, 1): 2, (1, 0): 3}
    for a in range(1, len(raw)):
        u, v = raw[a - 1], raw[a]
        if u == 1 and v == 1:
            row = 0
        elif u != 1 and v != 1:
            row = 1
        elif u == 0 and v == 1:
            row = 2
        elif u == -1 and v == 1:
            row = 3
        elif u == 1 and v == 0:
            row = 4
        else:
            row = 5
        cells[row, col_of[(canon[a - 1], canon[a])], a % 2] += 1
    return cells


def string_count_in_region(m: int, ranges) -> int:
    """Number of length-m strings over 4 symbols whose symbol counts satisfy ranges.

    Direct enumeration of all 4^m strings; equals the multinomial sum over the
    integer tuples inside ranges (inclusive (lo, hi) per symbol).
    """
    count = 0
    for s in product(range(4), repeat=m):
        counts = [s.count(k) for k in range(4)]
        if all(lo <= c <= hi for c, (lo, hi) in zip(counts, ranges)):
            count += 1
    return count


def pascal_binomial_tail(n: int, eps: float) -> int:
    """Binomial tail sum from an explicitly built Pascal triangle."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    lo = max(math.ceil((0.4 - eps) * n), 0)
    hi = min(math.floor((0.4 + eps) * n), n)
    return sum(row[lo : hi + 1])


def direct_region_count(m: int, ranges) -> int:
    """Multinomial sum m!/(l1! l2! l3! l4!) by a direct loop over (l1, l2, l3).

    l4 = m - l1 - l2 - l3 is kept when it lies in its range; ranges holds an
    inclusive (lo, hi) per coordinate.
    """
    (lo1, hi1), (lo2, hi2), (lo3, hi3), (lo4, hi4) = ranges
    count = 0
    for l1 in range(lo1, hi1 + 1):
        for l2 in range(lo2, hi2 + 1):
            for l3 in range(lo3, hi3 + 1):
                l4 = m - l1 - l2 - l3
                if lo4 <= l4 <= hi4:
                    count += math.comb(m, l1) * math.comb(m - l1, l2) * math.comb(m - l1 - l2, l3)
    return count


def block_substream_rows(n: int, trials: int, seed, block: int) -> np.ndarray:
    """Digit rows of trials 0..trials-1 when trials come in blocks of `block` rows.

    Block b is one (rows, n) draw from its own generator, seeded with child b
    of SeedSequence(seed).spawn(ceil(trials / block)); the last block may be
    short.
    """
    children = np.random.SeedSequence(seed).spawn(math.ceil(trials / block))
    parts = [
        np.random.default_rng(child).integers(
            -1, 2, size=(min(block, trials - b * block), n), dtype=np.int8
        )
        for b, child in enumerate(children)
    ]
    return np.concatenate(parts)


def per_trial_substream_rows(n: int, trials: int, seed) -> np.ndarray:
    """Digit rows when every trial draws its n digits alone from its own spawned child."""
    children = np.random.SeedSequence(seed).spawn(trials)
    return np.stack(
        [np.random.default_rng(c).integers(-1, 2, size=n, dtype=np.int8) for c in children]
    )


def simulate_group_size(p: int) -> int:
    """Steps per draw of `cdg simulate` at modulus p: the most, up to 10, with p * 2^k <= 2^62."""
    return max(k for k in range(1, 11) if p << k <= 1 << 62)


@functools.lru_cache(maxsize=None)
def _product_cdf(q: tuple, size: int) -> list[float]:
    """Running sums of prod_i q[d_i] over the base-3 digit tuples d in order, over their total."""
    cdf = list(accumulate(math.prod(q[d] for d in ds) for ds in product(range(3), repeat=size)))
    return [c / cdf[-1] for c in cdf]


def simulate_group(rng, size: int, rows: int, q) -> list[list[int]]:
    """The `size` increments of each of `rows` trials drawn by one of the sampler's generator calls.

    One index u in [0, 3^size) a trial: rng.integers(0, 3^size, dtype=uint32) when q
    is None (the uniform law), else rng.random() placed by bisect_right in the product
    law's cumulative masses.  u's base-3 digits, most significant first, are b + 1.
    """
    if q is None:
        indices = rng.integers(0, 3**size, size=rows, dtype=np.uint32).tolist()
    else:
        cdf = _product_cdf(tuple(q), size)
        indices = [bisect.bisect_right(cdf, r) for r in rng.random(rows).tolist()]
    out = []
    for u in indices:
        digits = []
        for _ in range(size):
            u, d = divmod(u, 3)
            digits.append(d - 1)
        out.append(digits[::-1])
    return out


def simulate_endpoints(p: int, steps: int, trials: int, seed, q, block: int) -> dict[int, int]:
    """Endpoint histogram of `cdg simulate`, walked with Python integers, residues ascending.

    Trials come in blocks of `block`; block b draws from child b of
    SeedSequence(seed).spawn(ceil(trials / block)).  The draws replay the CLI's
    generator calls, one simulate_group per simulate_group_size(p) steps and one
    for the last steps % size, each over the whole block (the CLI's calls on
    pieces of a block draw the same numbers).  Every trial is reduced,
    x = (2x + b) % p, after every step.
    """
    k = simulate_group_size(p)
    sizes = [k] * (steps // k) + [steps % k] * (steps % k > 0)
    tally = Counter()
    for b, child in enumerate(np.random.SeedSequence(seed).spawn(-(-trials // block))):
        rng = np.random.default_rng(child)
        rows = min(block, trials - b * block)
        x = [0] * rows
        for size in sizes:
            for i, digits in enumerate(simulate_group(rng, size, rows, q)):
                for d in digits:
                    x[i] = (2 * x[i] + d) % p
        tally.update(x)
    return dict(sorted(tally.items()))


def per_trial_moments(cells: np.ndarray, n: int):
    """(counts, freq_mean, freq_stderr) of per-trial cell counts of shape (trials, 6, 4, 2).

    The moments are numpy's two-pass mean and std (ddof=1) of the per-trial
    frequencies count / n, with nothing accumulated in integers.
    """
    freqs = cells / n
    stderr = freqs.std(axis=0, ddof=1) / np.sqrt(len(cells))
    return cells.sum(axis=0), freqs.mean(axis=0), stderr


def sorted_typical_set_size(dist, delta: float) -> int:
    """Typical-set size by a full sort: masses summed largest first until they reach 1 - delta."""
    dist = np.asarray(dist, dtype=np.float64)
    ordered = np.sort(dist)[::-1]
    cum = np.cumsum(ordered)
    idx = int(np.searchsorted(cum, 1.0 - delta, side="left"))
    return min(idx, dist.size - 1) + 1


def whole_vector_tvd_uniform(dist, p: int | None = None) -> float:
    """0.5 * sum |mass - 1/p| over one p-sized temporary; missing residues have mass 0."""
    dist = np.asarray(dist, dtype=np.float64)
    p = dist.size if p is None else p
    return float(0.5 * (np.abs(dist - 1.0 / p).sum() + (p - dist.size) / p))


def masked_entropy_bits(dist) -> float:
    """Shannon entropy in bits over the positive masses only."""
    dist = np.asarray(dist, dtype=np.float64)
    m = dist[dist > 0.0]
    return float(-(m * np.log2(m)).sum() + 0.0)


def residue_integers(m: int) -> np.ndarray:
    """The integer each residue 0..m - 1 mod an odd m stands for: r, or r - m above (m - 1)/2."""
    r = np.arange(m, dtype=np.int64)
    return np.where(2 * r < m, r, r - m)


def dense_vector(mass, p: int) -> np.ndarray:
    """The p-vector of a residue vector mod m <= p, by its integers reduced mod p."""
    mass = np.asarray(mass, dtype=np.float64)
    out = np.zeros(p)
    out[residue_integers(mass.size) % p] = mass
    return out


def fourier_coefficient(mass, p: int, xi: int) -> complex:
    """sum_x mass[x] e^(2 pi i xi x / p) of a residue vector mod its length m <= p."""
    mass = np.asarray(mass, dtype=np.float64)
    x = residue_integers(mass.size)
    return complex(np.sum(mass * np.exp(2j * np.pi * ((x * xi) % p) / p)))


def fourier_product(q, n: int, p: int, xi: int) -> complex:
    """prod_{j<n} phi(2^j xi / p), phi(t) = q0 + q+ e^(2 pi i t) + q- e^(-2 pi i t).

    By Chung, Diaconis and Graham (1987) this is the Fourier coefficient at xi of
    the law of X_n, X_{k+1} = 2 X_k + b_k (mod p), X_0 = 0, with b_k drawn from
    q = (q-, q0, q+): X_n = sum_j 2^j b_{n-1-j} and the b_j are independent.
    """
    q_minus, q_zero, q_plus = q
    out = 1.0 + 0.0j
    for j in range(n):
        theta = 2.0 * math.pi * (pow(2, j, p) * xi % p) / p
        out *= q_zero + q_plus * cmath.exp(1j * theta) + q_minus * cmath.exp(-1j * theta)
    return out


def unfold_mirrored(half) -> np.ndarray:
    """The vector a mirrored half stands for, in which x and -x have the same mass.

    m values are the residues 0..m - 1 mod P = 2*m - 1 and give the residue
    vector mod P, read back by index min(x, P - x).
    """
    half = np.asarray(half, dtype=np.float64)
    x = np.arange(2 * half.size - 1)
    return half[np.minimum(x, x[-1] + 1 - x)]
