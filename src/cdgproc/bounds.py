"""Mixing-threshold rate constants and the counting bounds behind them.

The walk needs roughly c * log2(p) steps to mix.  Three rate constants are
evaluated here in closed form: an upper-bound rate c_hat (from prior work on
this walk) and two lower-bound rates, a basic one from constraining only the
odd-position (1,1) pairs of the standard form and a refined one from
constraining all four standard-form pair types.  Supporting those rates are
exact big-integer counts of binomial tails and of multinomial sums over the
constraint regions, plus a log-gamma path for lengths where exact counts are
impractical; the two count paths overlap and are cross-checked in tests.

The four-type region S is counted as a convolution over s = l1 + l4: with
m = n/2, m!/(l1! l2! l3! l4!) = C(m, s) C(s, l1) C(m-s, l2), so the sum is
sum_s C(m, s) A(s) B(m-s), where A(s) sums C(s, l1) over the allowed l1 with
s - l1 allowed for l4, and B(t) sums C(t, l2) likewise with t - l2 for l3.
That visits about 2 W x 2W cells for coordinate intervals of width W, rather
than the W^3 tuples (l1, l2, l3).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundConstants",
    "CountRegion",
    "EXACT_COUNT_MAX_N",
    "MAX_COUNT_COST",
    "RegionCount",
    "SELECTORS",
    "StirlingBound",
    "binomial_tail_count",
    "c2_of_eps",
    "compute_constants",
    "count_cost",
    "log2_binomial_tail",
    "multinomial_region_count",
    "predict_threshold",
    "stirling_upper_bound",
]

#: exact big-integer counting is used up to this length, log-gamma above
EXACT_COUNT_MAX_N = 2000

#: largest count_cost the CLI accepts: at about 13 ns a grid cell and 120 ns a
#: 1-D term (2-core x86 host, numpy 2.4), about a second of counting
MAX_COUNT_COST = 1 << 26

#: grid cells charged per 1-D log-gamma term (two log-factorials each)
_TERM_COST = 6

#: log-domain sums run over blocks of at most this many float64 cells
_BLOCK_CELLS = 1 << 16

_LN2 = math.log(2.0)
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

#: ln k! for k below the table's length; Stirling's series from there on
_LOG_FACTORIALS = np.array([math.lgamma(k + 1.0) for k in range(256)])


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


def _basic_exponent(eps: float) -> float:
    """Per-step log2 growth rate of the kind-R count at slack eps; 1/c1_basic at eps = 0."""
    a, b, g = 2 / 18 + eps / 2, 7 / 18 - eps / 2, 7 / 54 - eps / 6
    return 0.5 * math.log2(0.5) - a * math.log2(a) - b * math.log2(g)


def compute_constants() -> BoundConstants:
    """Evaluate all closed-form rate constants at double precision."""
    c_hat = 1.0 / (1.0 - math.log2((5.0 + math.sqrt(17.0)) / 9.0))
    exponent_basic = _basic_exponent(0.0)
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
        raise ValueError(f"eps {eps} outside (0, 0.1)")
    a, b = 0.4 + eps, 0.6 - eps
    return 1.0 / -(a * math.log2(a) + b * math.log2(b))


def _log_factorial(k):
    """ln k! for an integer or an integer array k >= 0.

    Below 256 it is read from a table of math.lgamma; from 256 up it is
    Stirling's series with five correction terms in Horner form, whose
    truncation error there is below 1e-20 relative.
    """
    k = np.asarray(k)
    size = _LOG_FACTORIALS.size
    x = np.maximum(k, size).astype(np.float64)
    r = 1.0 / (x * x)
    series = (1 / 12 + r * (-1 / 360 + r * (1 / 1260 + r * (-1 / 1680 + r / 1188)))) / x
    log_x = np.log(x)
    large = x * (log_x - 1.0) + (0.5 * log_x + _HALF_LN_2PI + series)
    return np.where(k < size, _LOG_FACTORIALS[np.minimum(k, size - 1)], large)


def _logsumexp(x, axis=None):
    """ln of the sum of exp(x) along axis, shifted by the maximum; -inf where every entry is -inf.

    x may be overwritten: the maximum is subtracted and exponentiated in place,
    so callers pass fresh temporaries.
    """
    x = np.asarray(x, dtype=np.float64)
    top = x.max(axis=axis, keepdims=True)
    top[top == -np.inf] = 0.0  # an all -inf slice then sums to 0, whose log is -inf
    x -= top
    np.exp(x, out=x)
    with np.errstate(divide="ignore"):
        return np.log(x.sum(axis=axis)) + top.squeeze(axis)


def _log2_sum(log_terms, lo: int, hi: int, width: int = 1) -> float:
    """log2 of the sum of exp(log_terms(j)) over lo <= j <= hi.

    log_terms maps an index array to its natural-log terms, using width cells
    per index; the indices go in blocks of at most _BLOCK_CELLS cells, so the
    memory stays bounded at any length.
    """
    step = max(1, _BLOCK_CELLS // width)
    parts = [_logsumexp(log_terms(np.arange(j, min(j + step, hi + 1))))
             for j in range(lo, hi + 1, step)]
    return float(_logsumexp(parts)) / _LN2


def _tail_bounds(n: int, eps: float) -> tuple[int, int]:
    """Inclusive j range ceil((0.4-eps) n) .. floor((0.4+eps) n) within 0..n."""
    return max(math.ceil((0.4 - eps) * n), 0), min(math.floor((0.4 + eps) * n), n)


def _tail_range(n: int, eps: float) -> tuple[int, int]:
    """The binomial tail's j range, checked to be non-empty."""
    if n < 1:
        raise ValueError(f"length {n} must be at least 1")
    if not (0.0 < eps and 0.4 + eps < 0.5):
        warnings.warn(
            f"eps {eps} outside (0, 0.1): the count is still computed, but the "
            "associated tail bound is not valid there",
            stacklevel=3,
        )
    lo, hi = _tail_bounds(n, eps)
    if lo > hi:
        raise ValueError(f"no integer j satisfies the range for n={n}, eps={eps}")
    return lo, hi


def _binomial_sum(t: int, lo: int, hi: int, base: int = 1) -> int:
    """Exact sum of C(t, a) * base^(t - a) over lo <= a <= hi, each term from the previous one."""
    term, total = math.comb(t, lo) * base ** (t - lo), 0
    for a in range(lo, hi + 1):
        total += term
        term = term * (t - a) // ((a + 1) * base)
    return total


def _log2_binomial_sum(t: int, lo: int, hi: int, base: int = 1) -> float:
    """log2 of _binomial_sum(t, lo, hi, base), summed with log-gamma in log space."""
    log_t, log_base = _log_factorial(t), math.log(base)
    return _log2_sum(
        lambda a: log_t - _log_factorial(a) - _log_factorial(t - a) + (t - a) * log_base, lo, hi
    )


def binomial_tail_count(n: int, eps: float) -> int:
    """Exact sum of C(n, j) for ceil((0.4-eps) n) <= j <= floor((0.4+eps) n)."""
    return _binomial_sum(n, *_tail_range(n, eps))


def log2_binomial_tail(n: int, eps: float) -> float:
    """log2 of binomial_tail_count(n, eps), summed with log-gamma in log space."""
    return _log2_binomial_sum(n, *_tail_range(n, eps))


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
            raise ValueError(f"region kind {self.kind!r} must be 'R' or 'S'")
        if self.n < 2 or self.n % 2:
            raise ValueError(f"length {self.n} must be even and at least 2")
        if self.eps <= 0:
            raise ValueError(f"eps {self.eps} must be positive")


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


def _s_totals(ranges: list[tuple[int, int]], m: int) -> tuple[int, int]:
    """Inclusive range of s = l1 + l4 for which s and m - s = l2 + l3 are both reachable."""
    (lo1, hi1), (lo2, hi2), (lo3, hi3), (lo4, hi4) = ranges
    return max(lo1 + lo4, m - hi2 - hi3), min(hi1 + hi4, m - lo2 - lo3)


@dataclass(frozen=True)
class RegionCount:
    """Multinomial sum over a region: exact count (when computed) and log2."""

    count: int | None
    log2_count: float
    method: str


def multinomial_region_count(region: CountRegion, method: str = "auto") -> RegionCount:
    """Sum of (n/2)! / (l1! l2! l3! l4!) over the region's integer tuples.

    method "exact" uses big integers, "lgamma" a log-domain float sum; "auto"
    picks exact up to EXACT_COUNT_MAX_N.  Kind S is summed over s = l1 + l4
    as sum_s C(m, s) A(s) B(m-s), with A(s) = sum C(s, l1) over the allowed l1
    with s - l1 allowed for l4 and B(t) = sum C(t, l2) over the allowed l2
    with t - l2 allowed for l3 (see the module docstring); both paths use it.
    """
    if method == "auto":
        method = "exact" if region.n <= EXACT_COUNT_MAX_N else "lgamma"
    if method not in ("exact", "lgamma"):
        raise ValueError(f"unknown method {method!r}")
    m = region.n // 2
    ranges = _region_ranges(region)
    if any(lo > hi for lo, hi in ranges):
        raise ValueError(f"{region} contains no integer tuple")

    if region.kind == "R":
        # l2..l4 are unconstrained, so their inner sum collapses to 3^(m - l1)
        (lo1, hi1) = ranges[0]
        if method == "exact":
            count = _binomial_sum(m, lo1, hi1, 3)
            return RegionCount(count, math.log2(count), method)
        return RegionCount(None, _log2_binomial_sum(m, lo1, hi1, 3), method)

    (lo1, hi1), (lo2, hi2), (lo3, hi3), (lo4, hi4) = ranges
    s_lo, s_hi = _s_totals(ranges, m)
    if s_lo > s_hi:
        raise ValueError(f"{region} contains no integer tuple")
    if method == "exact":
        count = sum(
            math.comb(m, s)
            * _binomial_sum(s, max(lo1, s - hi4), min(hi1, s - lo4))
            * _binomial_sum(m - s, max(lo2, m - s - hi3), min(hi2, m - s - lo3))
            for s in range(s_lo, s_hi + 1)
        )
        return RegionCount(count, math.log2(count), method)

    # ln C(m, s) A(s) B(m-s) = ln m! + ln P14(s) + ln P23(m - s), with P the pair sums below
    pair14 = _log_pair_sums(lo1, hi1, lo4, hi4, s_lo, s_hi)
    pair23 = _log_pair_sums(lo2, hi2, lo3, hi3, m - s_hi, m - s_lo)
    log_m = _log_factorial(m)
    return RegionCount(None, _log2_sum(
        lambda s: log_m + pair14(s) + pair23(m - s),
        s_lo, s_hi, width=max(hi1 - lo1, hi2 - lo2) + 1,
    ), method)


def _log_pair_sums(lo_a: int, hi_a: int, lo_b: int, hi_b: int, t_lo: int, t_hi: int):
    """A map from totals t in [t_lo, t_hi] to ln of the sum of 1/(a! b!) over a + b = t.

    a runs over [lo_a, hi_a] and b over [lo_b, hi_b].  The map builds one grid
    row per total and one column per a, from a table of b's terms padded with
    -inf outside [lo_b, hi_b]: with a descending, row t is the table's window
    starting at b = t - hi_a.  Each row then gets its own _logsumexp.
    """
    log_a = -_log_factorial(np.arange(hi_a, lo_a - 1, -1))
    b = np.arange(t_lo - hi_a, t_hi - lo_a + 1)
    log_b = np.where((lo_b <= b) & (b <= hi_b), -_log_factorial(np.clip(b, lo_b, hi_b)), -np.inf)
    windows = np.lib.stride_tricks.sliding_window_view(log_b, log_a.size)

    return lambda t: _logsumexp(windows[t - t_lo] + log_a, axis=1)


def count_cost(n: int, eps: float) -> int:
    """Estimated work of the CLI's counts at even n and eps > 0, in S-grid cells.

    Covers the binomial tail's j range, the R range of l1 (about 0.11 n) and
    the two S pair grids (one cell per total s and coordinate value); each
    tail and R term counts as _TERM_COST cells.  The log-domain sums run in
    blocks, so memory stays bounded and the estimate tracks time.
    """
    lo, hi = _tail_bounds(n, eps)
    _, cap = _region_ranges(CountRegion("R", n, eps))[0]
    ranges = _region_ranges(CountRegion("S", n, eps))
    s_lo, s_hi = _s_totals(ranges, n // 2)
    widths = [max(hi_k - lo_k + 1, 0) for lo_k, hi_k in ranges]
    terms = max(hi - lo + 1, 0) + cap + 1
    return _TERM_COST * terms + max(s_hi - s_lo + 1, 0) * (widths[0] + widths[1])


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
    the kind-R rate `_basic_exponent(eps)`.
    """
    if n < 2 or n % 2:
        raise ValueError(f"length {n} must be even and at least 2")
    if not (0.0 < eps and 2 / 18 + eps / 2 < 1 / 8):
        raise ValueError(f"eps {eps} outside the bound's validity range")
    exponent = _basic_exponent(eps)
    return StirlingBound(exponent=exponent, log2_bound=exponent * n, prefactor_degree=3)


#: selector -> rate constant used by predict_threshold
SELECTORS = ("support", "c1_basic", "c1_refined", "c_hat")


def predict_threshold(p: int, which: str) -> int:
    """floor(c * log2 p) for the selected rate constant.

    "support" selects c = 1 (below log2 p steps the walk cannot even reach
    every residue); the other selectors name fields of BoundConstants.
    """
    if p < 3:
        raise ValueError(f"modulus {p} must be at least 3")
    if which not in SELECTORS:
        raise ValueError(f"unknown selector {which!r}; choose from {SELECTORS}")
    if which == "support":
        c = 1.0
    else:
        c = getattr(compute_constants(), which)
    return math.floor(c * math.log2(p))
