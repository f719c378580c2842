"""Chain definition and the one sampler of x_{k+1} = 2*x_k + b_k (mod p).

The increments b_k are i.i.d. on {-1, 0, 1}.  A length-n increment string
(b_0, ..., b_{n-1}) determines the endpoint exactly:

    X_n = sum_i  2^(n-1-i) * b_i   (before reduction mod p)

so trajectories, endpoint values and digit strings are interchangeable here.
`sample_endpoints` is the library's one sampler of the chain, behind
`cdg simulate`; `substreams`, the one seed rule, also serves `stats`, whose
uniform digits `_uniform_digits` reads from a substream's raw words.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IncrementDistribution",
    "ProcessParams",
    "SIMULATE_BLOCK",
    "SIMULATE_MAX_MODULUS",
    "UNIFORM_INCREMENTS",
    "as_digit_array",
    "format_digits",
    "is_prime",
    "parse_digits",
    "sample_endpoints",
    "substream",
    "substreams",
    "value_of",
]

#: probabilities must sum to 1 within this absolute tolerance
DIST_TOLERANCE = 1e-12
#: moduli above this cannot be walked with int64 arithmetic
SIMULATE_MAX_MODULUS = 1 << 61
#: sample_endpoints walks its trials in blocks of this many, block b on substream b of the seed
SIMULATE_BLOCK = 1 << 20
#: sample_endpoints draws at most this many steps at once: 3^10 table entries, |S| < 2^10
_MAX_GROUP = 10
#: trials per generator call, and entries per gather of _tally, so that temporaries stay below 1 MB
_DRAW_CHUNK = 1 << 16
#: _uniform_digits draws at most this many bytes of raw words at once
_DRAW_BYTES = 1 << 16
#: bytes drawn beyond the digits still wanted, for the zero bytes dropped: 1 in 256,
#: so a piece of 2^16 bytes drops 256 +- 16 and a margin this wide is not used up
_DRAW_MARGIN = 1 << 10


@dataclass(frozen=True)
class IncrementDistribution:
    """Law of one increment: P(b=-1), P(b=0), P(b=+1)."""

    q_minus1: float
    q_zero: float
    q_plus1: float

    def __post_init__(self) -> None:
        qs = self.as_tuple()
        if not all(math.isfinite(q) for q in qs):
            raise ValueError(f"non-finite probability in {qs}")
        if any(q < 0 for q in qs):
            raise ValueError(f"negative probability in {qs}")
        if abs(sum(qs) - 1.0) > DIST_TOLERANCE:
            raise ValueError(f"probabilities {qs} sum to {sum(qs)!r}, not 1")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.q_minus1, self.q_zero, self.q_plus1)

    @property
    def is_symmetric(self) -> bool:
        """True when P(b=-1) == P(b=+1) exactly, so that x and -x keep equal masses."""
        return self.q_minus1 == self.q_plus1


UNIFORM_INCREMENTS = IncrementDistribution(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


@dataclass(frozen=True)
class ProcessParams:
    """Parameters of the walk x_{k+1} = 2*x_k + b_k (mod modulus), x_0 = 0."""

    modulus: int
    increments: IncrementDistribution = UNIFORM_INCREMENTS

    def __post_init__(self) -> None:
        p = self.modulus
        if p < 3:
            raise ValueError(f"modulus {p} is below 3")
        if p % 2 == 0:
            raise ValueError(f"modulus {p} is even")


def as_digit_array(digits) -> np.ndarray:
    """Coerce a digit sequence to an int8 array, checking every digit is in {-1, 0, 1}."""
    arr = np.asarray(digits)
    if arr.size == 0:
        return np.zeros(0, dtype=np.int8)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d digit sequence, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        cast = arr.astype(np.int64)
        if not np.array_equal(cast, arr):
            raise ValueError("digits must be integers")
        arr = cast
    if arr.min() < -1 or arr.max() > 1:
        raise ValueError("digits must lie in {-1, 0, 1}")
    return arr.astype(np.int8, copy=False)


def _bits_to_int(bits: np.ndarray, n: int) -> int:
    # big-endian pack; packbits pads with zeros on the least significant side
    packed = np.packbits(bits)
    return int.from_bytes(packed.tobytes(), "big") >> ((-n) % 8)


def value_of(digits) -> int:
    """Exact signed integer b_0*2^(n-1) + b_1*2^(n-2) + ... + b_{n-1}."""
    arr = as_digit_array(digits)
    return _bits_to_int(arr == 1, arr.size) - _bits_to_int(arr == -1, arr.size)


_CHAR_TO_DIGIT = {"+": 1, "1": 1, "0": 0, "-": -1}
#: the character of digit d at index d + 1
_DIGIT_CHARS = np.frombuffer(b"-0+", dtype=np.uint8)


def parse_digits(text: str) -> np.ndarray:
    """Parse compact digit text ('+' or '1' for +1, '0', '-' for -1)."""
    text = text.strip()
    try:
        return np.array([_CHAR_TO_DIGIT[ch] for ch in text], dtype=np.int8)
    except KeyError as exc:
        raise ValueError(f"invalid digit character {exc.args[0]!r}") from None


def format_digits(digits) -> str:
    """Render digits as compact text using '+', '0', '-'."""
    return _DIGIT_CHARS[as_digit_array(digits) + 1].tobytes().decode("ascii")


def is_prime(n: int) -> bool:
    """Trial division, O(sqrt(n)): the CLI tests only moduli it can walk, below 2^26."""
    if n < 4:
        return n > 1
    return n % 2 == 1 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def substream(root: np.random.SeedSequence, b: int) -> np.random.Generator:
    """A generator on child b of root.spawn(...), built on its own so that no list grows with b."""
    child = np.random.SeedSequence(
        root.entropy, spawn_key=(*root.spawn_key, b), pool_size=root.pool_size
    )
    return np.random.default_rng(child)


def substreams(seed, total: int, size: int) -> Iterator[tuple[np.random.Generator, int]]:
    """(generator, count) for each block of `size` of `total` draws; only the last may be short.

    Block b draws from substream(SeedSequence(seed), b), so a draw depends
    only on the seed, `size` and its index.  A negative integer seed is
    refused here, before any block is drawn.
    """
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValueError(f"seed {seed} is negative")
    root = np.random.SeedSequence(seed)
    return ((substream(root, b), min(size, total - lo))
            for b, lo in enumerate(range(0, total, size)))


def _uniform_digits(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill int8 `out` with exactly the digits of rng.integers(-1, 2, out.shape, dtype=int8).

    That draw takes the bytes of the generator's raw 64-bit words in
    little-endian order, one byte b a digit, rejects b = 0 (3b = 0 mod 256)
    and returns (3b >> 8) - 1, which is (b >= 86) + (b >= 171) - 1.  This
    reads the raw words in pieces of at most _DRAW_BYTES bytes and does the
    same, with no per-digit call, drawing another piece while digits are
    missing.  It reads more words than numpy's draw, which leaves the
    generator in another state, so the digits match only as the generator's
    one draw: one a Monte Carlo substream.  `out` must be C-contiguous.
    """
    flat = out.reshape(-1)
    done = 0
    while done < flat.size:
        want = flat.size - done
        nbytes = min(_DRAW_BYTES, want + _DRAW_MARGIN)
        words = rng.bit_generator.random_raw(-(-nbytes // 8))
        b = words.astype("<u8", copy=False).view(np.uint8)
        b = b[b != 0][:want]
        digits = flat[done : done + b.size]
        np.greater_equal(b, 86, out=digits.view(np.bool_))
        digits += b >= 171
        digits -= 1
        done += b.size
    return out


def _group_sums(k: int) -> np.ndarray:
    """S(u) = sum_i 2^(k-1-i) * b_i of every u in [0, 3^k), as int16 (|S| < 2^10 for k <= 10).

    u's base-3 digits, most significant first, are b_0 + 1, ..., b_{k-1} + 1.
    """
    sums, digits = np.zeros(1, dtype=np.int16), np.array([-1, 0, 1], dtype=np.int16)
    for _ in range(k):
        sums = (2 * sums[:, None] + digits).ravel()
    return sums


def _group_cdf(k: int, dist: IncrementDistribution) -> np.ndarray:
    """Cumulative product law of u in [0, 3^k), digits as in _group_sums, scaled to end at 1."""
    mass = np.ones(1)
    for _ in range(k):
        mass = np.outer(mass, dist.as_tuple()).ravel()
    cdf = np.cumsum(mass)
    return cdf / cdf[-1]


def _block_walk(rng, params: ProcessParams, steps: int, trials: int) -> np.ndarray:
    """Endpoints mod p, unsorted, of `trials` walks drawn k steps at a time.

    X_{t+k} = 2^k X_t + S(u): per trial and group one index u below 3^k, whose base-3
    digits are the k increments (see _group_sums), drawn by integers(0, 3^k) as uint32
    under the uniform law, else by a uniform float placed in the cumulative product law
    (_group_cdf), in calls of up to _DRAW_CHUNK trials.  The last steps % k are one
    more group.
    """
    p, dist = params.modulus, params.increments
    # x advances in place without reduction, |x| < span, and is reduced mod p only
    # before a group of s steps could reach 2^62: (span - 1) * 2^s + 2^s - 1 < 2^62.
    # After a reduction span = p, so p * 2^k <= 2^62 sets k (1 for p near 2^61).
    k = min(_MAX_GROUP, 62 - p.bit_length())
    full, rest = divmod(steps, k)
    x = np.zeros(trials, dtype=np.int64)
    span = 1
    for s, groups in ((k, full), (rest, 1 if rest else 0)):
        sums = _group_sums(s)
        cdf = None if dist == UNIFORM_INCREMENTS else _group_cdf(s, dist)
        for _ in range(groups):
            if span << s > 1 << 62:
                np.remainder(x, p, out=x)
                span = p
            for lo in range(0, trials, _DRAW_CHUNK):
                part = x[lo:lo + _DRAW_CHUNK]
                if cdf is None:
                    u = rng.integers(0, 3**s, size=part.size, dtype=np.uint32)
                else:
                    u = np.searchsorted(cdf, rng.random(part.size), side="right")
                part <<= s
                part += sums.take(u)
            span <<= s
    np.remainder(x, p, out=x)
    return x


def _tally(x: np.ndarray):
    """np.unique(x, return_counts=True), consuming x: its buffer becomes the residues.

    x is sorted in place and its m distinct values are gathered into its own prefix;
    the offsets where its runs start become the counts in place.  So beside x a call
    holds a bool mask of x's size and the m offsets, and no other array above 1 MB.
    x is then cut to its first m entries: in place when nothing else refers to it (a
    caller that passes the only reference hands the buffer over), else by a copy.
    """
    x.sort()
    change = np.empty(x.size, dtype=bool)
    change[:1] = True
    np.not_equal(x[1:], x[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    del change
    m = starts.size
    for lo in range(0, m, _DRAW_CHUNK):
        hi = min(lo + _DRAW_CHUNK, m)
        # starts[i] >= i, so a piece reads no entry of x that an earlier piece wrote
        x.take(starts[lo:hi], out=x[lo:hi])
        # and it reads the next piece's first offset before that becomes a count
        ends = starts[lo + 1:hi + 1]
        np.subtract(ends, starts[lo:lo + ends.size], out=starts[lo:lo + ends.size])
    starts[m - 1:] = x.size - starts[m - 1:]  # the last run ends with x
    try:
        x.resize(m)  # numpy refuses while another name or a view refers to x
    except ValueError:
        x = x[:m].copy()
    return x, starts


def _merge_tally(residues, counts, new, new_counts):
    """The sorted tally of two sorted tallies, each with distinct residues; counts is updated."""
    pos = np.searchsorted(residues, new)
    hit = residues.take(pos, mode="clip") == new
    counts[pos[hit]] += new_counts[hit]
    miss = ~hit
    return (np.insert(residues, pos[miss], new[miss]),
            np.insert(counts, pos[miss], new_counts[miss]))


def sample_endpoints(params: ProcessParams, steps: int, trials: int, seed) -> tuple:
    """Endpoints X_steps of `trials` walks from 0: ascending distinct residues, and counts.

    The trials come in blocks from substreams(seed, trials, SIMULATE_BLOCK),
    one index below 3^k per trial and group of k <= 10 steps (see _block_walk).
    Raises ValueError unless trials >= 1, steps >= 0 and modulus <=
    SIMULATE_MAX_MODULUS, checked in that order.
    """
    if trials < 1:
        raise ValueError(f"trial count {trials} must be at least 1")
    if steps < 0:
        raise ValueError(f"step count {steps} is negative")
    if params.modulus > SIMULATE_MAX_MODULUS:
        raise ValueError(f"modulus {params.modulus} exceeds the int64 simulation limit")
    # each walk's only reference goes to _tally, which keeps its buffer for the residues
    tallies = (_tally(_block_walk(rng, params, steps, count))
               for rng, count in substreams(seed, trials, SIMULATE_BLOCK))
    residues, counts = next(tallies)
    for tally in tallies:
        residues, counts = _merge_tally(residues, counts, *tally)
    return residues, counts
