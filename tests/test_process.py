import math

import numpy as np
import pytest

from cdgproc.process import (
    BadDigitError,
    BadDistributionError,
    DigitParseError,
    EvenModulusError,
    IncrementDistribution,
    ModulusTooSmallError,
    ProcessParams,
    UNIFORM_INCREMENTS,
    as_digit_array,
    format_digits,
    parse_digits,
    sample_trajectory,
    value_of,
)
from oracles import horner_value


class TestValidateParams:
    def test_canonical_setting(self):
        params = ProcessParams(101, IncrementDistribution(1 / 3, 1 / 3, 1 / 3))
        assert params.modulus == 101
        assert params == ProcessParams(101)
        assert params.increments.is_uniform_thirds

    def test_even_modulus_rejected(self):
        with pytest.raises(EvenModulusError):
            ProcessParams(100, IncrementDistribution(1 / 3, 1 / 3, 1 / 3))

    def test_small_modulus_rejected(self):
        with pytest.raises(ModulusTooSmallError):
            ProcessParams(1)

    def test_biased_distribution_accepted(self):
        params = ProcessParams(101, IncrementDistribution(0.0, 0.6, 0.4))
        assert params.increments.q_plus1 == 0.4
        assert not params.increments.is_uniform_thirds

    @pytest.mark.parametrize("qs", [(-0.1, 0.6, 0.5), (0.2, 0.2, 0.2), (0.5, 0.5, 0.5)])
    def test_bad_distribution_rejected(self, qs):
        with pytest.raises(BadDistributionError):
            IncrementDistribution(*qs)

    @pytest.mark.parametrize(
        "qs", [(math.nan, 0.0, 1.0), (0.0, math.inf, 1.0), (-math.inf, 1.0, math.inf)]
    )
    def test_non_finite_distribution_rejected(self, qs):
        with pytest.raises(BadDistributionError, match="non-finite"):
            IncrementDistribution(*qs)


class TestValueOf:
    def test_one_minus_minus(self):
        assert value_of([1, -1, -1]) == 1

    def test_all_zero(self):
        assert value_of([0] * 40) == 0

    def test_eleven_digit_example(self):
        digits = [0, 0, 1, -1, 0, 1, 0, 1, -1, 1, 1]
        assert value_of(digits) == 167
        # the value-preserving standard form of the same string
        assert value_of([0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 1]) == 167

    def test_empty(self):
        assert value_of([]) == 0

    def test_matches_horner_exhaustively(self):
        from itertools import product

        for n in range(0, 9):
            for digits in product((-1, 0, 1), repeat=n):
                assert value_of(digits) == horner_value(digits)

    def test_matches_horner_on_long_strings(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            digits = rng.integers(-1, 2, size=3001, dtype=np.int8)
            assert value_of(digits) == horner_value(digits)

    def test_extremes(self):
        n = 200
        assert value_of([1] * n) == 2**n - 1
        assert value_of([-1] * n) == -(2**n) + 1


class TestDigitText:
    def test_parse_plus_minus_zero(self):
        assert parse_digits("00+-0+0+-++").tolist() == [0, 0, 1, -1, 0, 1, 0, 1, -1, 1, 1]

    def test_parse_accepts_one(self):
        assert parse_digits("10-").tolist() == [1, 0, -1]

    def test_parse_rejects_garbage(self):
        with pytest.raises(DigitParseError):
            parse_digits("0+2")

    def test_roundtrip(self):
        text = "00+-0+0+-++"
        assert format_digits(parse_digits(text)) == text

    def test_as_digit_array_rejects_out_of_range(self):
        with pytest.raises(BadDigitError):
            as_digit_array([0, 2, 1])

    def test_as_digit_array_rejects_fractional(self):
        with pytest.raises(BadDigitError):
            as_digit_array([0.5, 0.5])

    def test_as_digit_array_accepts_float_integers(self):
        assert as_digit_array([1.0, -1.0, 0.0]).tolist() == [1, -1, 0]


class TestSampleTrajectory:
    def test_zero_steps(self):
        digits, final = sample_trajectory(ProcessParams(101), 0, seed=1)
        assert digits.size == 0 and final == 0

    def test_single_step_range(self):
        for seed in range(20):
            _, final = sample_trajectory(ProcessParams(101), 1, seed=seed)
            assert final in (100, 0, 1)

    def test_determinism(self):
        params = ProcessParams(101)
        d1, f1 = sample_trajectory(params, 500, seed=42)
        d2, f2 = sample_trajectory(params, 500, seed=42)
        assert np.array_equal(d1, d2) and f1 == f2

    def test_different_seeds_differ(self):
        params = ProcessParams(101)
        d1, _ = sample_trajectory(params, 500, seed=42)
        d2, _ = sample_trajectory(params, 500, seed=43)
        assert not np.array_equal(d1, d2)

    @pytest.mark.parametrize("increments", [UNIFORM_INCREMENTS, IncrementDistribution(0.2, 0.5, 0.3)])
    def test_final_state_consistent_with_value(self, increments):
        params = ProcessParams(10007, increments)
        for seed in (0, 7, 123):
            digits, final = sample_trajectory(params, 300, seed=seed)
            assert value_of(digits) % params.modulus == final

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            sample_trajectory(ProcessParams(101), -1, seed=0)

    def test_empirical_plus_one_fraction(self):
        # fraction of +1 digits concentrates at q_plus1
        q = IncrementDistribution(0.0, 0.6, 0.4)
        params = ProcessParams(101, q)
        n, trials = 500, 200
        total = sum(
            int((sample_trajectory(params, n, seed=s)[0] == 1).sum())
            for s in range(trials)
        )
        frac = total / (n * trials)
        tol = 4 * math.sqrt(0.4 * 0.6 / (n * trials))
        assert abs(frac - 0.4) < tol
