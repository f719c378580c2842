"""Chain definition and trajectory sampling for x_{k+1} = 2*x_k + b_k (mod p).

The increments b_k are i.i.d. on {-1, 0, 1}.  A length-n increment string
(b_0, ..., b_{n-1}) determines the endpoint exactly:

    X_n = sum_i  2^(n-1-i) * b_i   (before reduction mod p)

so trajectories, endpoint values and digit strings are interchangeable here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BadDigitError",
    "BadDistributionError",
    "DigitParseError",
    "EvenModulusError",
    "IncrementDistribution",
    "ModulusTooSmallError",
    "ProcessParams",
    "UNIFORM_INCREMENTS",
    "as_digit_array",
    "format_digits",
    "parse_digits",
    "sample_trajectory",
    "value_of",
]

#: probabilities must sum to 1 within this absolute tolerance
DIST_TOLERANCE = 1e-12


class BadDistributionError(ValueError):
    """Increment probabilities are negative or do not sum to 1."""


class EvenModulusError(ValueError):
    """The modulus must be odd."""


class ModulusTooSmallError(ValueError):
    """The modulus must be at least 3."""


class BadDigitError(ValueError):
    """A digit outside {-1, 0, 1} was supplied."""


class DigitParseError(ValueError):
    """Text is not a valid compact digit string."""


@dataclass(frozen=True)
class IncrementDistribution:
    """Law of one increment: P(b=-1), P(b=0), P(b=+1)."""

    q_minus1: float
    q_zero: float
    q_plus1: float

    def __post_init__(self) -> None:
        qs = self.as_tuple()
        if not all(math.isfinite(q) for q in qs):
            raise BadDistributionError(f"non-finite probability in {qs}")
        if any(q < 0 for q in qs):
            raise BadDistributionError(f"negative probability in {qs}")
        if abs(sum(qs) - 1.0) > DIST_TOLERANCE:
            raise BadDistributionError(f"probabilities {qs} sum to {sum(qs)!r}, not 1")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.q_minus1, self.q_zero, self.q_plus1)

    @property
    def is_uniform_thirds(self) -> bool:
        """True when all three probabilities equal 1/3 (up to 1e-12)."""
        return all(abs(q - 1.0 / 3.0) <= 1e-12 for q in self.as_tuple())


UNIFORM_INCREMENTS = IncrementDistribution(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


@dataclass(frozen=True)
class ProcessParams:
    """Parameters of the walk x_{k+1} = 2*x_k + b_k (mod modulus), x_0 = 0."""

    modulus: int
    increments: IncrementDistribution = UNIFORM_INCREMENTS

    def __post_init__(self) -> None:
        p = self.modulus
        if p < 3:
            raise ModulusTooSmallError(f"modulus {p} is below 3")
        if p % 2 == 0:
            raise EvenModulusError(f"modulus {p} is even")


def as_digit_array(digits) -> np.ndarray:
    """Coerce a digit sequence to an int8 array, checking every digit is in {-1, 0, 1}."""
    arr = np.asarray(digits)
    if arr.size == 0:
        return np.zeros(0, dtype=np.int8)
    if arr.ndim != 1:
        raise BadDigitError(f"expected a 1-d digit sequence, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        cast = arr.astype(np.int64)
        if not np.array_equal(cast, arr):
            raise BadDigitError("digits must be integers")
        arr = cast
    if arr.min() < -1 or arr.max() > 1:
        raise BadDigitError("digits must lie in {-1, 0, 1}")
    return arr.astype(np.int8, copy=False)


def _bits_to_int(bits: np.ndarray, n: int) -> int:
    # big-endian pack; packbits pads with zeros on the least significant side
    packed = np.packbits(bits)
    return int.from_bytes(packed.tobytes(), "big") >> ((-n) % 8)


def value_of(digits) -> int:
    """Exact signed integer b_0*2^(n-1) + b_1*2^(n-2) + ... + b_{n-1}."""
    arr = as_digit_array(digits)
    n = arr.size
    if n == 0:
        return 0
    return _bits_to_int(arr == 1, n) - _bits_to_int(arr == -1, n)


_CHAR_TO_DIGIT = {"+": 1, "1": 1, "0": 0, "-": -1}
_DIGIT_TO_CHAR = {1: "+", 0: "0", -1: "-"}


def parse_digits(text: str) -> np.ndarray:
    """Parse compact digit text ('+' or '1' for +1, '0', '-' for -1)."""
    text = text.strip()
    try:
        return np.array([_CHAR_TO_DIGIT[ch] for ch in text], dtype=np.int8)
    except KeyError as exc:
        raise DigitParseError(f"invalid digit character {exc.args[0]!r}") from None


def format_digits(digits) -> str:
    """Render digits as compact text using '+', '0', '-'."""
    arr = as_digit_array(digits)
    return "".join(_DIGIT_TO_CHAR[int(d)] for d in arr)


def sample_trajectory(params: ProcessParams, n: int, seed) -> tuple[np.ndarray, int]:
    """Sample n i.i.d. increments and return (digit string, final residue).

    Identical (params, n, seed) always yields identical output.  The final
    residue is computed through the recurrence itself, so it doubles as a
    cross-check of value_of (their agreement mod p is a tested invariant).
    """
    if n < 0:
        raise ValueError(f"step count {n} is negative")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    q = params.increments
    if q.is_uniform_thirds:
        digits = rng.integers(-1, 2, size=n, dtype=np.int8)
    else:
        digits = rng.choice(
            np.array([-1, 0, 1], dtype=np.int8), size=n, p=list(q.as_tuple())
        ).astype(np.int8)
    x, p = 0, params.modulus
    for b in digits.tolist():
        x = (2 * x + b) % p
    return digits, x
