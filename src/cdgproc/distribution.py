"""Exact evolution of the walk's distribution on Z/pZ and its functionals.

A distribution is a dense float64 array of length p indexed by residue.
One step pushes mass along the three bijections x -> 2*x + b (mod p),
b in {-1, 0, 1}; since each map is a permutation of Z/pZ this is exact up
to float rounding, and the uniform vector is stationary.

`iter_evolve` is the one evolution loop.  Before reduction mod p the endpoint
after k steps is an integer in [-(2^k - 1), 2^k - 1] (the trivial support
bound), and these integers are distinct mod P_k = 2^(k+1) - 1.  So while P_k
is below p the walk mod p is the walk mod P_k, and `iter_evolve` steps a
residue vector mod P = min(P_k, p), grown by `_embed` before each step until
P = p.  Under a symmetric law (q+ = q-) x and -x have the same mass at every
step, so the walk holds only the residues 0..(P - 1)/2: the mirrored half.
The trace functionals read it with `mirrored=True`, which counts every mass
but residue 0's twice, and `evolve` unfolds it into the dense vector.  Only
this module knows that layout: `evolve`, `evolve_with_trace` and
`first_crossings` read the walk for every caller in the package.  Every
vector lives in a prefix of one of two buffers of the dense length, p or
(p + 1)/2, that the steps ping-pong between, so under a symmetric law the
walk holds one p-vector's worth in all.  A step reads the old masses and
writes the new ones `_STEP_BLOCK` output pairs at a time through one small
block buffer, so each block's work stays in cache.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from typing import NamedTuple

import numpy as np

from .process import ProcessParams

__all__ = [
    "MAX_MODULUS",
    "TraceRow",
    "check_modulus",
    "entropy_bits",
    "evolve",
    "evolve_with_trace",
    "first_crossings",
    "initial_dist",
    "iter_evolve",
    "step",
    "support_size",
    "tvd_uniform",
    "typical_set_size",
]

#: dense-vector memory guard: a walk's two p-vectors are 1 GiB here; `cdg simulate` goes beyond
MAX_MODULUS = 1 << 26

#: values per block of the trace functionals: 2^15 float64 values (256 KiB) stay in cache
_BLOCK = 1 << 15
#: `typical_set_size` sorts vectors up to this length: the histogram costs a fixed ~50 us
#: and overtakes the sort between 8191 values (92 us against 98 us) and 16383 (178 us
#: against 143 us), measured on window vectors of a p = 4194301 walk
_SORT_MAX = 1 << 13
#: most buckets of the typical-set histogram; each block's bincount allocates and adds
#: this many doubles, so it stays well below `_BLOCK`
_MAX_BUCKETS = 1 << 13
_TINY = np.finfo(np.float64).smallest_subnormal
#: output pairs per block of the exact step: a block spreads 2^15 + 2 old masses and
#: writes 2^15 new ones through a product temporary, 768 KiB in all with `out`
_STEP_BLOCK = 1 << 14


def check_modulus(p: int) -> None:
    """Refuse a modulus whose dense vectors would exceed the guard `MAX_MODULUS`."""
    if p > MAX_MODULUS:
        raise ValueError(f"modulus {p} exceeds guard {MAX_MODULUS}; use `cdg simulate` above it")


def initial_dist(p: int) -> np.ndarray:
    """Point mass at residue 0 (the walk starts at x = 0)."""
    check_modulus(ProcessParams(p).modulus)
    return _embed(np.ones(1), p)


def _step_buffer() -> np.ndarray:
    """The block buffer that `_apply_step` takes as `scratch`."""
    return np.empty(4 * _STEP_BLOCK + 2)


def _apply_step(
    dist: np.ndarray, params: ProcessParams, out: np.ndarray, scratch: np.ndarray,
    mirrored: bool = False,
) -> np.ndarray:
    """One step mod P of `dist` written into `out`, which is returned; `dist` is only read.

    `dist` and `out` have the same length: P, or under `mirrored` the
    residues 0..h - 1 of P = 2*h - 1, whose negatives have the same masses.
    new[y] = q0*d[y] + q+*d[y - 1] + q-*d[y + 1] (indices mod P), where d lays
    the old masses out in the order the step sends them: with h = (P + 1)/2,
    d[2*j] = dist[j] and d[2*j + 1] = dist[h + j], or when `mirrored`
    d[2*j + 1] = dist[h - 1 - j] and d[-1] = dist[h - 1].  Each output is
    added in the order of the full step, so for a law with q+ = q- the
    mirrored masses are those the full step gives these residues.
    d is never built whole.  For each block of `_STEP_BLOCK` output pairs
    (new[2*j], new[2*j + 1]), the d[2*j - 1 .. 2*k] it reads are spread into
    `scratch`, and the three products are added straight into that block of
    `out`; the last output, if any, is a scalar sum.  `scratch` holds
    4 * `_STEP_BLOCK` + 2 values.
    """
    q = params.increments
    d, t = scratch[: 2 * _STEP_BLOCK + 2], scratch[2 * _STEP_BLOCK + 2 :]
    # even[i] = d[2*i], odd[i] = d[2*i + 1] and first = d[-1]; the tail entry is
    # (d[y], d[y - 1], d[y + 1]) of the output y past the pairs
    if mirrored:
        even, odd, first, pairs = dist, dist[::-1], dist[-1], dist.size // 2
        tail = [(dist[pairs], dist[pairs + 1], dist[pairs])] if dist.size % 2 else []
    else:
        h = (dist.size + 1) // 2
        even, odd, first, pairs = dist[:h], dist[h:], dist[h - 1], h - 1
        tail = [(even[-1], odd[-1], even[0])]
    for j in range(0, pairs, _STEP_BLOCK):
        k = min(j + _STEP_BLOCK, pairs)
        block = d[: 2 * (k - j) + 2]  # d[2*j - 1 .. 2*k]
        block[0] = odd[j - 1] if j else first
        block[1::2], block[2::2] = even[j : k + 1], odd[j:k]
        new, tmp = out[2 * j : 2 * k], t[: 2 * (k - j)]
        np.multiply(block[1:-1], q.q_zero, out=new)
        new += np.multiply(block[:-2], q.q_plus1, out=tmp)
        new += np.multiply(block[2:], q.q_minus1, out=tmp)
    for y, (here, before, after) in enumerate(tail, 2 * pairs):
        out[y] = q.q_zero * here + q.q_plus1 * before + q.q_minus1 * after
    return out


def _embed(mass: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """A residue vector mod P = `mass.size` <= p as one mod p, written into `out` if given.

    The residues 0..(P - 1)/2 stand for themselves and the rest for the
    negative integers -(P - 1)/2..-1, which are distinct mod p; every other
    residue gets 0.  A vector mod p is returned as is.
    """
    if mass.size == p:
        return mass
    h = (mass.size + 1) // 2
    dense = np.empty(p) if out is None else out
    gap = p - mass.size + h  # the first negative residue mod p
    dense[:h], dense[h:gap], dense[gap:] = mass[:h], 0.0, mass[h:]
    return dense


def iter_evolve(params: ProcessParams, n: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (k, mass) for k = 0..n, starting from the point mass at 0.

    `mass` is the residue vector mod P = min(2^(k+1) - 1, p): below p it
    holds every integer the walk can reach, so every residue mod p it leaves
    out has mass 0, which the functionals allow for (pass p to
    `tvd_uniform`), and `_embed` gives the dense vector.  Under a symmetric
    law (q+ = q-) x and -x have the same mass at every step, and `mass`
    holds only the residues 0..(P - 1)/2: pass `mirrored=True` to the
    functionals; `evolve` returns the whole vector.  Either way `mass` is a
    view of one of two buffers of its dense length, which the next step may
    overwrite: copy it to keep it.  These two buffers and one block buffer
    are all the walk allocates.
    """
    if n < 0:
        raise ValueError(f"step count {n} is negative")
    p = params.modulus
    check_modulus(p)
    mirrored = params.increments.is_symmetric
    dense = (p + 1) // 2 if mirrored else p
    held, free, scratch = np.empty(dense), np.empty(dense), _step_buffer()
    mass, modulus = held[:1], 1
    mass[0] = 1.0
    yield 0, mass
    for k in range(1, n + 1):
        if modulus < p:  # grow the vector to the next modulus
            modulus = min(2 * modulus + 1, p)
            if mirrored:  # the residues 0..(P - 1)/2 keep their masses
                held[mass.size : (modulus + 1) // 2] = 0.0
                mass = held[: (modulus + 1) // 2]
            else:
                mass, held, free = _embed(mass, modulus, free[:modulus]), free, held
        out = free[: mass.size]
        mass, held, free = _apply_step(mass, params, out, scratch, mirrored), free, held
        yield k, mass


def step(dist: np.ndarray, params: ProcessParams) -> np.ndarray:
    """One exact step of the distribution under the walk; `dist` is left as it is."""
    dist = np.ascontiguousarray(dist, dtype=np.float64)
    p = params.modulus
    if dist.shape != (p,):
        raise ValueError(f"distribution has length {dist.shape}, parameters have modulus {p}")
    return _apply_step(dist, params, np.empty(p), _step_buffer())


def evolve(params: ProcessParams, n: int) -> np.ndarray:
    """Distribution after n steps from the point mass at 0."""
    for _, mass in iter_evolve(params, n):
        pass
    if params.increments.is_symmetric:
        mass = np.concatenate((mass, mass[:0:-1]))
    return _embed(mass, params.modulus)


class TraceRow(NamedTuple):
    """Per-step functionals of evolve_with_trace: `cdg evolve`'s columns, in order."""

    step: int
    tvd: float
    entropy_bits: float
    support: int
    typical99: int


def evolve_with_trace(params: ProcessParams, n: int, delta: float = 0.01) -> list[TraceRow]:
    """The rows (tvd, entropy, support, typical-set size) of steps 0..n of a walk.

    The typical-set column uses mass 1 - delta.  Only the rows are returned:
    `evolve` gives the final distribution.
    """
    p, mirrored = params.modulus, params.increments.is_symmetric
    rows = []
    for k, mass in iter_evolve(params, n):
        rows.append(TraceRow(k, tvd_uniform(mass, p, mirrored=mirrored),
                             entropy_bits(mass, mirrored=mirrored),
                             support_size(mass, mirrored=mirrored),
                             typical_set_size(mass, delta, mirrored=mirrored)))
    return rows


def first_crossings(params: ProcessParams, thresholds: Sequence[float], n: int) -> list[int | None]:
    """For each threshold, the first step k in 1..n whose tvd from uniform is below it.

    The start, k = 0, is never a crossing, and a threshold not crossed by
    step n gets None.  The walk stops at the step that crosses the last one.
    """
    p, mirrored = params.modulus, params.increments.is_symmetric
    crossings: list[int | None] = [None] * len(thresholds)
    for k, mass in iter_evolve(params, n):
        if k == 0:
            continue
        tvd = tvd_uniform(mass, p, mirrored=mirrored)
        crossings = [k if c is None and tvd < t else c for c, t in zip(crossings, thresholds)]
        if None not in crossings:
            break
    return crossings


def _fold(dist: np.ndarray, term, combine=operator.add, dtype=np.float64, *, mirrored=False):
    """term(x, buf) of each consecutive block x of `dist`, combined left to right.

    Blocks hold at most `_BLOCK` values, and `buf` is one scratch buffer of
    `dtype` for all of them, cut to x's length.  A `mirrored` vector counts
    every value but the first twice: the blocks run over the rest, their
    total is combined with itself, and then with the term of the first value.
    """
    buf = np.empty(min(_BLOCK, dist.size), dtype)
    rest = dist[1:] if mirrored else dist
    x = rest[:_BLOCK]
    total = term(x, buf[: x.size])
    for i in range(_BLOCK, rest.size, _BLOCK):
        x = rest[i : i + _BLOCK]
        total = combine(total, term(x, buf[: x.size]))
    return combine(combine(total, total), term(dist[:1], buf[:1])) if mirrored else total


def _full_size(dist: np.ndarray, mirrored: bool) -> int:
    """The values a vector stands for: a mirrored one of m values holds 2*m - 1."""
    return 2 * dist.size - 1 if mirrored else dist.size


def tvd_uniform(dist: np.ndarray, p: int | None = None, *, mirrored: bool = False) -> float:
    """Total variation distance from uniform: 0.5 * sum |mass(s) - 1/p|.

    `p` defaults to the values `dist` stands for; the residues missing from it
    have mass 0.  A `mirrored` `dist` holds x = 0, 1, ... of a vector in which
    x and -x have the same mass.  The sum runs over blocks of `_BLOCK` values.
    """
    dist = np.asarray(dist, dtype=np.float64)
    size = _full_size(dist, mirrored)
    p = size if p is None else p

    def term(x, buf):
        dev = np.subtract(x, 1.0 / p, out=buf)
        return np.abs(dev, out=dev).sum()

    return float(0.5 * (_fold(dist, term, mirrored=mirrored) + (p - size) / p))


def entropy_bits(dist: np.ndarray, *, mirrored: bool = False) -> float:
    """Shannon entropy in bits of nonnegative masses, with 0*log(0) = 0.

    Each mass x adds x * log2(max(x, smallest subnormal)): that is x * log2(x)
    for x > 0 and 0 for x = 0, with no mask.  A `mirrored` `dist` counts every
    mass but the first twice.  The sum runs over blocks of `_BLOCK` values.
    """
    dist = np.asarray(dist, dtype=np.float64)

    def term(x, buf):
        logs = np.maximum(x, _TINY, out=buf)
        np.log2(logs, out=logs)
        return np.multiply(logs, x, out=logs).sum()

    # + 0.0 normalizes the -0.0 a point mass would produce
    return float(-_fold(dist, term, mirrored=mirrored) + 0.0)


def support_size(dist: np.ndarray, *, mirrored: bool = False) -> int:
    """Number of residues with positive mass; a `mirrored` `dist` counts all but the first twice."""
    dist = np.asarray(dist, dtype=np.float64)
    return int(_fold(dist, lambda x, buf: np.count_nonzero(x > 0), mirrored=mirrored))


def _running_sums(above: float, masses: np.ndarray) -> np.ndarray:
    """Running sums of `masses` added to `above` one at a time, largest first.

    This is the order in which a sort of the whole vector would add them.
    """
    cum = np.sort(masses)[::-1]
    if above:
        cum[0] += above
    return np.cumsum(cum)


def typical_set_size(dist: np.ndarray, delta: float, *, mirrored: bool = False) -> int:
    """Smallest k such that the k largest masses sum to at least 1 - delta.

    Masses are nonnegative (-0.0 counts as 0); if all of them sum to less than
    1 - delta the answer is their number.  A `mirrored` `dist` of m masses
    stands for 2*m - 1 of them, every mass but the first twice, both in the
    histogram and in the sorted bucket.  Up to `_SORT_MAX` values the masses
    are sorted.  Longer vectors are selected by a histogram: nonnegative
    doubles order like their int64 bit patterns, so a mass falls in the bucket
    given by the top bits of (bits - lo), lo the smallest positive pattern
    (zeros join bucket 0), with about len/16 and at most `_MAX_BUCKETS`
    buckets.  One weighted bincount per block of `_BLOCK` values tallies the
    mass of each bucket.  Summed from the top bucket down, these masses locate
    the bucket in which 1 - delta is reached, and only that bucket is sorted.
    Should rounding leave its masses short of 1 - delta, the count goes on
    into the next nonempty bucket down.  The buckets' masses are added in
    another order than the sort would add them, so where a partial sum lies
    within rounding of 1 - delta the two counts can differ.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta {delta} must be in (0, 1)")
    dist = np.asarray(dist, dtype=np.float64)
    n, target = _full_size(dist, mirrored), 1.0 - delta
    if n <= _SORT_MAX:
        cum = _running_sums(0.0, np.concatenate((dist, dist[1:])) if mirrored else dist)
        return min(int(np.searchsorted(cum, target, side="left")), n - 1) + 1
    hi = int(dist.view(np.int64).max())  # -0.0 is INT64_MIN, below every positive pattern
    if hi <= 0:  # no positive mass
        return n
    # less 1, the patterns of 0 and -0.0 wrap above every positive one
    lo = 1 + int(_fold(dist.view(np.uint64), lambda x, buf: np.subtract(x, 1, out=buf).min(),
                       min, np.uint64))
    shift = max((hi - lo).bit_length() + 1 - min(n >> 4, _MAX_BUCKETS).bit_length(), 0)
    buckets = ((hi - lo) >> shift) + 1

    def tally(x, buf):
        idx = np.maximum(x.view(np.int64), lo, out=buf)
        idx -= lo
        idx >>= shift
        return np.bincount(idx, weights=x, minlength=buckets)

    hist = _fold(dist, tally, operator.iadd, np.int64, mirrored=mirrored)
    from_top = np.cumsum(hist[::-1])
    c = max(buckets - 1 - int(np.searchsorted(from_top, target, side="left")), 0)
    above = float(from_top[buckets - 2 - c]) if c < buckets - 1 else 0.0
    ceiling = lo + ((c + 1) << shift)  # the smallest pattern above bucket c

    def split(x, buf):  # [the count above bucket c, its masses]; the lists join
        b = x.view(np.int64)
        inside = np.greater_equal(b, floor, out=buf)
        inside &= b < ceiling
        return [np.count_nonzero(b >= ceiling), x[inside]]

    while True:
        floor = lo + (c << shift) if c else np.iinfo(np.int64).min
        parts = _fold(dist, split, operator.iadd, bool, mirrored=mirrored)
        cum = _running_sums(above, np.concatenate(parts[1::2]))
        k = int(np.searchsorted(cum, target, side="left"))
        if k < cum.size:
            return int(sum(parts[::2])) + k + 1
        above = float(cum[-1])
        # the buckets between are empty, and zeros add nothing
        lower = np.flatnonzero(hist[:c] > 0.0)
        if not lower.size:
            return n
        c, ceiling = int(lower[-1]), floor
