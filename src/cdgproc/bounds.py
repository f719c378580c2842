"""Mixing-threshold rate constants and the counting bounds behind them.

The walk needs roughly c * log2(p) steps to mix.  Three rate constants are
evaluated here in closed form: an upper-bound rate c_hat (from prior work on
this walk) and two lower-bound rates, a basic one from constraining only the
odd-position (1,1) pairs of the standard form and a refined one from
constraining all four standard-form pair types.  Supporting those rates are
exact big-integer counts of binomial tails and of multinomial sums over the
constraint regions, plus a log-gamma path for lengths where exact counts are
impractical; the two count paths overlap and are cross-checked in tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

__all__ = [
    "BoundConstants",
    "CountRegion",
    "DomainError",
    "EXACT_COUNT_MAX_N",
    "EmptyRangeError",
    "EmptyRegionError",
    "RegionCount",
    "StirlingBound",
    "binomial_tail_count",
    "c2_of_eps",
    "compute_constants",
    "multinomial_region_count",
    "predict_threshold",
    "stirling_upper_bound",
]

#: exact big-integer counting is used up to this length, log-gamma above
EXACT_COUNT_MAX_N = 2000

_LN2 = math.log(2.0)


class DomainError(ValueError):
    """Argument outside the validity range of a bound."""


class EmptyRangeError(ValueError):
    """The binomial tail range contains no integer."""


class EmptyRegionError(ValueError):
    """The constraint region contains no integer tuple."""


@dataclass(frozen=True)
class BoundConstants:
    """The three mixing rate constants and the exponents they invert.

    c_hat is the upper-bound rate; c1_basic and c1_refined are lower-bound
    rates, reciprocals of exponent_basic and exponent_refined (the per-step
    log2 growth rates of the corresponding endpoint-count bounds).
    """

    c_hat: float
    c1_basic: float
    c1_refined: float
    exponent_basic: float
    exponent_refined: float


def compute_constants() -> BoundConstants:
    """Evaluate all closed-form rate constants at double precision."""
    c_hat = 1.0 / (1.0 - math.log2((5.0 + math.sqrt(17.0)) / 9.0))
    exponent_basic = (
        0.5 * math.log2(0.5)
        - (2 / 18) * math.log2(2 / 18)
        - (7 / 18) * math.log2(7 / 54)
    )
    exponent_refined = (
        0.5 * math.log2(0.5)
        - (4 / 18) * math.log2(4 / 36)
        - (5 / 18) * math.log2(5 / 36)
    )
    return BoundConstants(
        c_hat=c_hat,
        c1_basic=1.0 / exponent_basic,
        c1_refined=1.0 / exponent_refined,
        exponent_basic=exponent_basic,
        exponent_refined=exponent_refined,
    )


def c2_of_eps(eps: float) -> float:
    """Lower-bound rate for the biased walk with P(b=1)=0.4, P(b=0)=0.6.

    Equals 1 / -((0.4+eps) log2(0.4+eps) + (0.6-eps) log2(0.6-eps)), which
    exceeds 1 on the whole validity range 0 < eps < 0.1.
    """
    if not 0.0 < eps < 0.1:
        raise DomainError(f"eps {eps} outside (0, 0.1)")
    a, b = 0.4 + eps, 0.6 - eps
    return 1.0 / -(a * math.log2(a) + b * math.log2(b))


def binomial_tail_count(n: int, eps: float) -> int:
    """Exact sum of C(n, j) for ceil((0.4-eps) n) <= j <= floor((0.4+eps) n)."""
    if n < 1:
        raise DomainError(f"length {n} must be at least 1")
    if not (0.0 < eps and 0.4 + eps < 0.5):
        warnings.warn(
            f"eps {eps} outside (0, 0.1): the count is still exact, but the "
            "associated tail bound is not valid there",
            stacklevel=2,
        )
    lo = max(math.ceil((0.4 - eps) * n), 0)
    hi = min(math.floor((0.4 + eps) * n), n)
    if lo > hi:
        raise EmptyRangeError(f"no integer j satisfies the range for n={n}, eps={eps}")
    return sum(math.comb(n, j) for j in range(lo, hi + 1))


@dataclass(frozen=True)
class CountRegion:
    """Constraint region over splits (l1, l2, l3, l4) with l1+l2+l3+l4 = n/2.

    kind "R" caps only l1:  l1 <= (2/18 + eps/2) n  (non-strict).
    kind "S" pins all four:  (4/36 - eps) n < l1, l4 < (4/36 + eps) n  and
    (5/36 - eps) n < l2, l3 < (5/36 + eps) n  (all strict).
    """

    kind: str
    n: int
    eps: float

    def __post_init__(self) -> None:
        if self.kind not in ("R", "S"):
            raise DomainError(f"region kind {self.kind!r} must be 'R' or 'S'")
        if self.n < 2 or self.n % 2:
            raise DomainError(f"length {self.n} must be even and at least 2")
        if self.eps <= 0:
            raise DomainError(f"eps {self.eps} must be positive")


def _region_ranges(region: CountRegion) -> list[tuple[int, int]]:
    """Inclusive integer range per coordinate (before the sum constraint)."""
    m = region.n // 2
    if region.kind == "R":
        cap = min(math.floor((2 / 18 + region.eps / 2) * region.n), m)
        return [(0, cap), (0, m), (0, m), (0, m)]
    ranges = []
    for center in (4 / 36, 5 / 36, 5 / 36, 4 / 36):
        lo = math.floor((center - region.eps) * region.n) + 1
        hi = math.ceil((center + region.eps) * region.n) - 1
        ranges.append((max(lo, 0), min(hi, m)))
    return ranges


@dataclass(frozen=True)
class RegionCount:
    """Multinomial sum over a region: exact count (when computed) and log2."""

    count: int | None
    log2_count: float
    method: str


def multinomial_region_count(region: CountRegion, method: str = "auto") -> RegionCount:
    """Sum of (n/2)! / (l1! l2! l3! l4!) over the region's integer tuples.

    method "exact" uses big integers, "lgamma" a log-domain float sum; "auto"
    picks exact up to EXACT_COUNT_MAX_N.
    """
    if method == "auto":
        method = "exact" if region.n <= EXACT_COUNT_MAX_N else "lgamma"
    if method not in ("exact", "lgamma"):
        raise ValueError(f"unknown method {method!r}")
    m = region.n // 2
    ranges = _region_ranges(region)
    if any(lo > hi for lo, hi in ranges):
        raise EmptyRegionError(f"{region} contains no integer tuple")

    if region.kind == "R":
        # l2..l4 are unconstrained, so their inner sum collapses to 3^(m - l1)
        (lo1, hi1) = ranges[0]
        if method == "exact":
            count = sum(math.comb(m, l1) * 3 ** (m - l1) for l1 in range(lo1, hi1 + 1))
            return RegionCount(count, math.log2(count), method)
        l1 = np.arange(lo1, hi1 + 1)
        logs = (
            gammaln(m + 1)
            - gammaln(l1 + 1)
            - gammaln(m - l1 + 1)
            + (m - l1) * math.log(3.0)
        )
        return RegionCount(None, float(logsumexp(logs) / _LN2), method)

    (lo1, hi1), (lo2, hi2), (lo3, hi3), (lo4, hi4) = ranges
    tuples = (hi1 - lo1 + 1) * (hi2 - lo2 + 1) * (hi3 - lo3 + 1)
    if tuples > (1 << 26):
        raise ValueError(
            f"S-region enumeration would visit {tuples} tuples; reduce eps or n"
        )
    if method == "exact":
        count = 0
        for l1 in range(lo1, hi1 + 1):
            c1 = math.comb(m, l1)
            for l2 in range(lo2, hi2 + 1):
                c2 = c1 * math.comb(m - l1, l2)
                for l3 in range(lo3, hi3 + 1):
                    l4 = m - l1 - l2 - l3
                    if lo4 <= l4 <= hi4:
                        count += c2 * math.comb(m - l1 - l2, l3)
        if count == 0:
            raise EmptyRegionError(f"{region} contains no integer tuple")
        return RegionCount(count, math.log2(count), method)

    g1, g2, g3 = np.meshgrid(
        np.arange(lo1, hi1 + 1),
        np.arange(lo2, hi2 + 1),
        np.arange(lo3, hi3 + 1),
        indexing="ij",
    )
    g4 = m - g1 - g2 - g3
    mask = (g4 >= lo4) & (g4 <= hi4)
    if not mask.any():
        raise EmptyRegionError(f"{region} contains no integer tuple")
    l1, l2, l3, l4 = (g[mask] for g in (g1, g2, g3, g4))
    logs = (
        gammaln(m + 1)
        - gammaln(l1 + 1)
        - gammaln(l2 + 1)
        - gammaln(l3 + 1)
        - gammaln(l4 + 1)
    )
    return RegionCount(None, float(logsumexp(logs) / _LN2), method)


@dataclass(frozen=True)
class StirlingBound:
    """Closed-form upper bound on log2 of the kind-R region count.

    The bound is 2^(exponent * n) times a polynomial prefactor of degree at
    most prefactor_degree, which is reported but not evaluated.
    """

    exponent: float
    log2_bound: float
    prefactor_degree: int


def stirling_upper_bound(n: int, eps: float) -> StirlingBound:
    """Exponent of the Stirling bound on the kind-R count at slack eps.

    Valid for even n and 0 < eps with 2/18 + eps/2 < 1/8; the exponent is
    0.5 log2(0.5) - (2/18 + eps/2) log2(2/18 + eps/2)
                  - (7/18 - eps/2) log2(7/54 - eps/6).
    """
    if n < 2 or n % 2:
        raise DomainError(f"length {n} must be even and at least 2")
    if not (0.0 < eps and 2 / 18 + eps / 2 < 1 / 8):
        raise DomainError(f"eps {eps} outside the bound's validity range")
    a = 2 / 18 + eps / 2
    b = 7 / 18 - eps / 2
    g = 7 / 54 - eps / 6
    exponent = 0.5 * math.log2(0.5) - a * math.log2(a) - b * math.log2(g)
    return StirlingBound(exponent=exponent, log2_bound=exponent * n, prefactor_degree=3)


#: selector -> rate constant used by predict_threshold
_SELECTORS = ("support", "c1_basic", "c1_refined", "c_hat")


def predict_threshold(p: int, which: str) -> int:
    """floor(c * log2 p) for the selected rate constant.

    "support" selects c = 1 (below log2 p steps the walk cannot even reach
    every residue); the other selectors name fields of BoundConstants.
    """
    if p < 3:
        raise DomainError(f"modulus {p} must be at least 3")
    if which not in _SELECTORS:
        raise ValueError(f"unknown selector {which!r}; choose from {_SELECTORS}")
    if which == "support":
        c = 1.0
    else:
        c = getattr(compute_constants(), which)
    return math.floor(c * math.log2(p))
