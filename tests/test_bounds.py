import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdgproc.bounds import (
    CountRegion,
    binomial_tail_count,
    c2_of_eps,
    compute_constants,
    log2_binomial_tail,
    multinomial_region_count,
    predict_threshold,
    stirling_upper_bound,
)
from oracles import direct_region_count, pascal_binomial_tail, string_count_in_region
from cdgproc.bounds import (
    _binomial_sum,
    _log2_binomial_sum,
    _log_factorial,
    _logsumexp,
    _region_ranges,
)


class TestConstants:
    def test_reference_values(self):
        c = compute_constants()
        assert abs(c.c_hat - 1.01999186) <= 1e-7
        assert abs(c.c1_basic - 1.001525) <= 1e-4
        assert abs(c.c1_refined - 1.00448) <= 1e-4

    def test_ordering(self):
        c = compute_constants()
        assert 1.0 < c.c1_basic < c.c1_refined < c.c_hat

    def test_exponents_are_reciprocals(self):
        c = compute_constants()
        assert c.c1_basic * c.exponent_basic == pytest.approx(1.0, rel=1e-14)
        assert c.c1_refined * c.exponent_refined == pytest.approx(1.0, rel=1e-14)

    def test_regression_values(self):
        c = compute_constants()
        assert c.c_hat == pytest.approx(1.0199918598312272, rel=1e-14)
        assert c.c1_basic == pytest.approx(1.0015257653229963, rel=1e-14)
        assert c.c1_refined == pytest.approx(1.0044819684901956, rel=1e-14)


class TestC2:
    def test_matches_entropy_formula_near_zero(self):
        h = -(0.4 * math.log2(0.4) + 0.6 * math.log2(0.6))
        assert c2_of_eps(1e-9) == pytest.approx(1.0 / h, abs=1e-8)

    def test_exceeds_one_on_domain(self):
        for eps in (1e-6, 0.01, 0.05, 0.0999):
            assert c2_of_eps(eps) > 1.0

    @pytest.mark.parametrize("eps", [0.0, -0.01, 0.1, 0.2])
    def test_domain(self, eps):
        with pytest.raises(ValueError, match=r"^eps .* outside \(0, 0\.1\)$"):
            c2_of_eps(eps)


class TestBinomialTail:
    def test_range_collapses_to_single_term(self):
        assert binomial_tail_count(10, 0.05) == 210  # C(10, 4)

    def test_tiny_n(self):
        with pytest.warns(UserWarning):
            assert binomial_tail_count(2, 0.1) == 2  # C(2, 1)

    def test_matches_pascal_triangle(self):
        for n in (1, 7, 23, 40, 60):
            for eps in (0.01, 0.05, 0.099):
                try:
                    got = binomial_tail_count(n, eps)
                except ValueError as exc:
                    if not str(exc).startswith("no integer j satisfies the range"):
                        raise
                    continue
                assert got == pascal_binomial_tail(n, eps)

    def test_large_eps_covers_whole_row(self):
        with pytest.warns(UserWarning):
            assert binomial_tail_count(10, 0.7) == 2**10

    def test_empty_range(self):
        with pytest.raises(ValueError, match="no integer j satisfies the range for n=3,"):
            binomial_tail_count(3, 0.01)

    def test_growth_rate_stays_below_one(self):
        # frozen exact value at n = 10^4, eps = 0.01
        rate = math.log2(binomial_tail_count(10**4, 0.01)) / 10**4
        assert rate == pytest.approx(0.9759767899846818, abs=1e-12)
        assert rate < 1.0

    @pytest.mark.parametrize("n", [2000, 2002, 10**4])
    @pytest.mark.parametrize("eps", [0.005, 0.02])
    def test_log2_matches_exact_count(self, n, eps):
        exact = math.log2(binomial_tail_count(n, eps))
        assert log2_binomial_tail(n, eps) == pytest.approx(exact, rel=1e-12)

    def test_log2_checks_like_exact_count(self):
        with pytest.raises(ValueError, match="no integer j satisfies the range for n=3,"):
            log2_binomial_tail(3, 0.01)
        with pytest.raises(ValueError, match=r"^length 0 must be at least 1$"):
            log2_binomial_tail(0, 0.01)
        with pytest.warns(UserWarning):
            assert log2_binomial_tail(10, 0.7) == pytest.approx(10.0, rel=1e-12)


class TestWeightedBinomialSum:
    """The one sum of C(t, a) * base^(t - a) behind the tail (base 1) and region R (base 3)."""

    @staticmethod
    def direct(t, lo, hi, base):
        return sum(math.comb(t, a) * base ** (t - a) for a in range(lo, hi + 1))

    @pytest.mark.parametrize("base", [1, 3])
    def test_exact_matches_direct_sum(self, base):
        for t in range(41):
            for lo in range(t + 1):
                for hi in range(lo, t + 1):
                    assert _binomial_sum(t, lo, hi, base) == self.direct(t, lo, hi, base)

    @pytest.mark.parametrize("base", [1, 3])
    @pytest.mark.parametrize(
        "t, lo, hi", [(1, 0, 1), (40, 0, 40), (40, 17, 17), (333, 100, 200), (1000, 0, 111),
                      (2000, 780, 820), (2000, 0, 2000), (2000, 1990, 2000)],
    )
    def test_log2_matches_log2_of_exact_sum(self, t, lo, hi, base):
        exact = math.log2(self.direct(t, lo, hi, base))
        assert _log2_binomial_sum(t, lo, hi, base) == pytest.approx(exact, rel=1e-12)


class TestLogFactorial:
    @staticmethod
    def assert_close(ks, got):
        for k, g in zip(ks, got):
            want = math.lgamma(k + 1.0)
            assert abs(g - want) <= 2e-15 * abs(want), k

    def test_every_k_across_table_and_series(self):
        # 0..255 come from the table, 256 on from Stirling's series
        ks = list(range(1001))
        self.assert_close(ks, _log_factorial(np.arange(1001)).tolist())

    def test_seeded_sample_up_to_2e8(self):
        ks = np.random.default_rng(20000).integers(256, 2 * 10**8, 5000)
        self.assert_close(ks.tolist(), _log_factorial(ks).tolist())

    def test_scalar_matches_array(self):
        for k in (0, 1, 255, 256, 10**6):
            assert _log_factorial(k) == _log_factorial(np.array([k]))[0]


class TestLogSumExp:
    @staticmethod
    def direct(xs):
        return math.log(math.fsum(math.exp(x) for x in xs))

    def test_mixed_magnitudes(self):
        for xs in ([-700.0, -30.5, 0.25, 12.0, 700.0], [1e-3, 2e-3], [-5.0], [3.0, 3.0, 3.0]):
            assert _logsumexp(xs) == pytest.approx(self.direct(xs), rel=1e-15, abs=1e-15)

    def test_negative_infinite_entries_add_nothing(self):
        xs = [-math.inf, 1.5, -math.inf, -2.0]
        assert _logsumexp(xs) == pytest.approx(self.direct([1.5, -2.0]), rel=1e-15)
        assert _logsumexp(np.array(xs)) == _logsumexp([1.5, -2.0])

    def test_all_negative_infinite(self):
        assert _logsumexp([-math.inf]) == -math.inf
        assert _logsumexp(np.full(4, -np.inf)) == -math.inf
        rows = _logsumexp(np.array([[-np.inf, -np.inf], [0.0, 0.0]]), axis=1)
        assert rows[0] == -math.inf and rows[1] == pytest.approx(math.log(2.0), rel=1e-15)


class TestLogGammaAgainstBigIntegers:
    """The log-gamma counts at n = 20000, eps = 0.005 against exact integers."""

    N, EPS = 20000, 0.005

    def test_binomial_tail(self):
        lo, hi = math.ceil((0.4 - self.EPS) * self.N), math.floor((0.4 + self.EPS) * self.N)
        term, total = math.comb(self.N, lo), 0
        for j in range(lo, hi + 1):
            total += term
            term = term * (self.N - j) // (j + 1)
        assert log2_binomial_tail(self.N, self.EPS) == pytest.approx(math.log2(total), rel=1e-12)

    def test_region_r(self):
        # C(m, l1) 3^(m - l1) for l1 = 0..cap, each term from the previous one
        m = self.N // 2
        region = CountRegion("R", self.N, self.EPS)
        cap = _region_ranges(region)[0][1]
        term, total = 3**m, 0
        for l1 in range(cap + 1):
            total += term
            term = term * (m - l1) // (3 * (l1 + 1))
        got = multinomial_region_count(region, method="lgamma")
        assert got.log2_count == pytest.approx(math.log2(total), rel=1e-12)

    def test_region_s(self):
        region = CountRegion("S", self.N, self.EPS)
        exact = multinomial_region_count(region, method="exact")
        got = multinomial_region_count(region, method="lgamma")
        assert got.log2_count == pytest.approx(math.log2(exact.count), rel=1e-12)


class TestCountRegion:
    def test_validation(self):
        with pytest.raises(ValueError, match=r"^region kind 'X' must be 'R' or 'S'$"):
            CountRegion("X", 10, 0.01)
        with pytest.raises(ValueError, match=r"^length 9 must be even and at least 2$"):
            CountRegion("R", 9, 0.01)
        with pytest.raises(ValueError, match=r"^eps 0\.0 must be positive$"):
            CountRegion("S", 10, 0.0)


class TestRegionCounts:
    def test_unconstrained_r_is_power_of_four(self):
        # cap above n/2 leaves the multinomial sum unconstrained
        rc = multinomial_region_count(CountRegion("R", 4, 1.0))
        assert rc.count == 16
        for n in (6, 10):
            rc = multinomial_region_count(CountRegion("R", n, 2.0))
            assert rc.count == 4 ** (n // 2)

    def test_r_count_matches_string_enumeration(self):
        for n, eps in [(4, 0.02), (8, 0.02), (8, 0.2), (10, 0.1)]:
            region = CountRegion("R", n, eps)
            rc = multinomial_region_count(region)
            assert rc.count == string_count_in_region(n // 2, _region_ranges(region))

    def test_s_count_matches_string_enumeration(self):
        # at n=4, eps=0.25 the printed strict bounds keep exactly the
        # twelve strings with two distinct symbols
        region = CountRegion("S", 4, 0.25)
        rc = multinomial_region_count(region)
        assert rc.count == 12
        assert rc.count == string_count_in_region(2, _region_ranges(region))
        for n, eps in [(8, 0.2), (10, 0.15)]:
            region = CountRegion("S", n, eps)
            rc = multinomial_region_count(region)
            assert rc.count == string_count_in_region(n // 2, _region_ranges(region))

    def test_empty_region(self):
        with pytest.raises(ValueError, match=r"contains no integer tuple$"):
            multinomial_region_count(CountRegion("S", 10, 0.005))

    def test_log2_of_exact_count(self):
        rc = multinomial_region_count(CountRegion("S", 100, 0.05))
        assert rc.log2_count == pytest.approx(math.log2(rc.count), rel=1e-14)

    def test_exact_and_lgamma_agree_on_overlap(self):
        for n in (500, 1000, 2000):
            for eps in (0.005, 0.02):
                region = CountRegion("S", n, eps)
                exact = multinomial_region_count(region, method="exact")
                approx = multinomial_region_count(region, method="lgamma")
                assert approx.log2_count == pytest.approx(exact.log2_count, rel=1e-12)
                assert approx.count is None and exact.count is not None

    @pytest.mark.parametrize("n", [100, 500, 1000])
    @pytest.mark.parametrize("eps", [0.005, 0.02, 0.0275])
    def test_s_count_matches_direct_loop(self, n, eps):
        region = CountRegion("S", n, eps)
        rc = multinomial_region_count(region)
        assert rc.count == direct_region_count(n // 2, _region_ranges(region))

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=6),
        eps=st.floats(min_value=1e-6, max_value=0.3, exclude_max=True),
    )
    def test_s_count_matches_string_enumeration_property(self, m, eps):
        region = CountRegion("S", 2 * m, eps)
        want = string_count_in_region(m, _region_ranges(region))
        try:
            got = multinomial_region_count(region).count
        except ValueError as exc:
            if not str(exc).endswith("contains no integer tuple"):
                raise
            got = 0
        assert got == want

    def test_auto_method_switches(self):
        assert multinomial_region_count(CountRegion("S", 2000, 0.005)).method == "exact"
        assert multinomial_region_count(CountRegion("S", 5000, 0.005)).method == "lgamma"

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            multinomial_region_count(CountRegion("R", 4, 0.1), method="magic")

    def test_s_exponent_sequence(self):
        # frozen regression values, eps = 0.005
        expected = {
            500: 0.9850560640951125,
            1000: 0.9919119995254716,
            2000: 0.9948318473223766,
            5000: 0.9965441206390174,
        }
        for n, want in expected.items():
            rc = multinomial_region_count(CountRegion("S", n, 0.005))
            assert rc.log2_count / n == pytest.approx(want, abs=1e-9)


class TestStirlingBound:
    def test_exponent_at_vanishing_slack(self):
        sb = stirling_upper_bound(100, 1e-9)
        assert abs(sb.exponent - 0.998475) <= 1e-5
        assert sb.exponent == pytest.approx(compute_constants().exponent_basic, abs=1e-8)

    def test_monotone_increasing_in_eps(self):
        exps = [stirling_upper_bound(100, e).exponent for e in np.linspace(1e-6, 0.02, 40)]
        assert all(b > a for a, b in zip(exps, exps[1:]))

    def test_dominates_exact_count(self):
        for n in (100, 200, 400):
            for eps in (0.01, 0.02):
                sb = stirling_upper_bound(n, eps)
                rc = multinomial_region_count(CountRegion("R", n, eps))
                slack = sb.prefactor_degree * math.log2(n) + 2
                assert sb.log2_bound + slack >= rc.log2_count

    def test_log2_bound_scales_with_n(self):
        sb = stirling_upper_bound(200, 0.01)
        assert sb.log2_bound == pytest.approx(200 * sb.exponent, rel=1e-14)

    @pytest.mark.parametrize("n,eps", [(99, 0.01), (100, 0.0), (100, 0.03), (100, -0.1)])
    def test_domain(self, n, eps):
        message = "must be even and at least 2" if n % 2 else "outside the bound's validity range"
        with pytest.raises(ValueError, match=message):
            stirling_upper_bound(n, eps)


class TestPredictThreshold:
    def test_support_rate_near_power_of_two(self):
        assert predict_threshold(2**20 + 7, "support") == 20

    def test_refined_rate_example(self):
        assert predict_threshold(10007, "c1_refined") == 13

    def test_ordering_across_selectors(self):
        for p in (3, 101, 10007, 2**20 + 7, 2**31 - 1):
            a = predict_threshold(p, "support")
            b = predict_threshold(p, "c1_basic")
            c = predict_threshold(p, "c1_refined")
            d = predict_threshold(p, "c_hat")
            assert a <= b <= c <= d

    def test_unknown_selector(self):
        with pytest.raises(ValueError):
            predict_threshold(101, "c3")

    def test_small_modulus(self):
        with pytest.raises(ValueError, match=r"^modulus 2 must be at least 3$"):
            predict_threshold(2, "support")
