import math
from collections import Counter

import numpy as np
import pytest

from cdgproc import process
from cdgproc.cli import main
from cdgproc.process import (
    IncrementDistribution,
    ProcessParams,
    UNIFORM_INCREMENTS,
    as_digit_array,
    format_digits,
    parse_digits,
    sample_endpoints,
    substream,
    substreams,
    value_of,
)
from cdgproc.distribution import evolve
from oracles import (
    all_digit_matrix,
    horner_value,
    simulate_endpoints,
    simulate_group,
    simulate_group_size,
)


class TestValidateParams:
    def test_canonical_setting(self):
        params = ProcessParams(101, IncrementDistribution(1 / 3, 1 / 3, 1 / 3))
        assert params.modulus == 101
        assert params == ProcessParams(101)
        assert params.increments == UNIFORM_INCREMENTS
        assert params.increments.is_symmetric

    @pytest.mark.parametrize("qs, symmetric", [
        ((0.25, 0.5, 0.25), True), ((0.5, 0.0, 0.5), True), ((0.0, 1.0, 0.0), True),
        ((0.2, 0.5, 0.3), False), ((0.3, 0.4, 0.3 + 1e-15), False),
    ])
    def test_symmetric_means_equal_outer_probabilities(self, qs, symmetric):
        assert IncrementDistribution(*qs).is_symmetric is symmetric

    def test_even_modulus_rejected(self):
        with pytest.raises(ValueError, match=r"^modulus 100 is even$"):
            ProcessParams(100, IncrementDistribution(1 / 3, 1 / 3, 1 / 3))

    def test_small_modulus_rejected(self):
        with pytest.raises(ValueError, match=r"^modulus 1 is below 3$"):
            ProcessParams(1)

    def test_biased_distribution_accepted(self):
        params = ProcessParams(101, IncrementDistribution(0.0, 0.6, 0.4))
        assert params.increments.q_plus1 == 0.4
        assert params.increments != UNIFORM_INCREMENTS

    @pytest.mark.parametrize("qs", [(-0.1, 0.6, 0.5), (0.2, 0.2, 0.2), (0.5, 0.5, 0.5)])
    def test_bad_distribution_rejected(self, qs):
        message = "negative probability" if min(qs) < 0 else r"sum to .*, not 1$"
        with pytest.raises(ValueError, match=message):
            IncrementDistribution(*qs)

    @pytest.mark.parametrize(
        "qs", [(math.nan, 0.0, 1.0), (0.0, math.inf, 1.0), (-math.inf, 1.0, math.inf)]
    )
    def test_non_finite_distribution_rejected(self, qs):
        with pytest.raises(ValueError, match="^non-finite probability in"):
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
        with pytest.raises(ValueError, match=r"^invalid digit character '2'$"):
            parse_digits("0+2")

    def test_roundtrip(self):
        text = "00+-0+0+-++"
        assert format_digits(parse_digits(text)) == text
        for digits in (np.array([1, 0, -1, -1], dtype=np.int8),
                       np.array([0, -1, 1], dtype=np.int64), np.zeros(0, dtype=np.int64)):
            back = parse_digits(format_digits(digits))
            assert back.dtype == np.int8 and back.tolist() == digits.tolist()

    def test_as_digit_array_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"^digits must lie in \{-1, 0, 1\}$"):
            as_digit_array([0, 2, 1])

    def test_as_digit_array_rejects_fractional(self):
        with pytest.raises(ValueError, match=r"^digits must be integers$"):
            as_digit_array([0.5, 0.5])

    def test_as_digit_array_accepts_float_integers(self):
        assert as_digit_array([1.0, -1.0, 0.0]).tolist() == [1, -1, 0]


class TestSubstream:
    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_matches_spawned_child(self, seed):
        # every seeded draw relies on child b of spawn(...) without the list of children
        children = np.random.SeedSequence(seed).spawn(9)
        for b, child in enumerate(children):
            expected = np.random.default_rng(child).integers(0, 1 << 62, size=4)
            got = substream(np.random.SeedSequence(seed), b).integers(0, 1 << 62, size=4)
            np.testing.assert_array_equal(got, expected)


class TestSubstreams:
    @pytest.mark.parametrize("total, size", [(1, 1), (5, 1), (6, 3), (7, 3), (10, 4), (3, 8)])
    def test_blocks_cover_the_total(self, total, size):
        counts = [count for _, count in substreams(0, total, size)]
        assert sum(counts) == total
        assert len(counts) == math.ceil(total / size)
        assert all(count == size for count in counts[:-1]) and 1 <= counts[-1] <= size

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_block_b_draws_from_substream_b(self, seed):
        for b, (rng, _) in enumerate(substreams(seed, 9 * 5, 5)):
            expected = substream(np.random.SeedSequence(seed), b).integers(0, 1 << 62, size=4)
            np.testing.assert_array_equal(rng.integers(0, 1 << 62, size=4), expected)


class TestSampleEndpointsDomain:
    """The sampler refuses what `cdg simulate` refuses, with the message the CLI prints."""

    @pytest.mark.parametrize("p, steps, trials, message", [
        (2**63 - 25, 130, 10, f"modulus {2**63 - 25} exceeds the int64 simulation limit"),
        (2**61 + 1, 1, 1, f"modulus {2**61 + 1} exceeds the int64 simulation limit"),
        (101, -3, 10, "step count -3 is negative"),
        (101, 10, 0, "trial count 0 must be at least 1"),
        (101, 10, -4, "trial count -4 must be at least 1"),
    ])
    def test_refused_like_the_cli(self, capsys, p, steps, trials, message):
        with pytest.raises(ValueError) as exc:
            sample_endpoints(ProcessParams(p), steps, trials, 0)
        assert str(exc.value) == message
        code = main(["simulate", f"--p={p}", f"--steps={steps}", f"--trials={trials}"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestTally:
    @pytest.mark.parametrize("size, values", [(1, 1), (9, 1), (10, 10), (100_000, 50),
                                              (100_000, 1 << 40)])
    def test_equals_numpy_unique(self, size, values):
        # sizes well above the values make long runs of collisions
        x = np.random.default_rng(size + values).integers(-values, values, size=size)
        got = process._tally(x.copy())
        expected = np.unique(x, return_counts=True)
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype

    @pytest.mark.parametrize("x", [
        np.arange(200_000, 0, -1),  # all distinct: the gather moves every entry, in pieces
        np.full(200_000, -7),  # all equal: one run
        np.array([5]),
    ], ids=["distinct", "equal", "single"])
    def test_returns_owned_arrays(self, x):
        expected = np.unique(x, return_counts=True)
        held = x.copy()  # a buffer its caller still refers to is copied, not cut in place
        for residues, counts in (process._tally(x.copy()), process._tally(held)):
            np.testing.assert_array_equal(residues, expected[0])
            np.testing.assert_array_equal(counts, expected[1])
            assert not np.shares_memory(residues, counts)

    def test_heap_peak_of_a_block(self, heap_peak):
        # every endpoint distinct: beside the walk's 8 B a trial, only the change
        # mask (1 B) and the start offsets (8 B) may be held at once
        trials = 1 << 20
        (residues, _), peak = heap_peak(sample_endpoints, ProcessParams(2**61 - 1), 60,
                                        trials, 29)
        assert residues.size == trials
        assert peak <= 20 * trials


class TestSampleTrajectory:
    """Walks of the chain, sampled through sample_endpoints, its one sampler."""

    def test_zero_steps(self):
        residues, counts = sample_endpoints(ProcessParams(101), 0, 5, seed=1)
        assert residues.tolist() == [0] and counts.tolist() == [5]

    def test_single_step_range(self):
        for seed in range(20):
            residues, counts = sample_endpoints(ProcessParams(101), 1, 50, seed=seed)
            assert set(residues.tolist()) <= {100, 0, 1} and counts.sum() == 50

    def test_determinism(self):
        params = ProcessParams(101)
        r1, c1 = sample_endpoints(params, 500, 300, seed=42)
        r2, c2 = sample_endpoints(params, 500, 300, seed=42)
        assert np.array_equal(r1, r2) and np.array_equal(c1, c2)

    def test_different_seeds_differ(self):
        params = ProcessParams(101)
        r1, c1 = sample_endpoints(params, 500, 300, seed=42)
        r2, c2 = sample_endpoints(params, 500, 300, seed=43)
        assert not (np.array_equal(r1, r2) and np.array_equal(c1, c2))

    @pytest.mark.parametrize("increments", [UNIFORM_INCREMENTS, IncrementDistribution(0.2, 0.5, 0.3)])
    def test_final_state_consistent_with_value(self, increments):
        # one block's k-step indices, decoded into 20 digit strings of 300 digits each,
        # end where value_of puts them mod p
        params = ProcessParams(10007, increments)
        q = None if increments == UNIFORM_INCREMENTS else increments.as_tuple()
        k = simulate_group_size(10007)
        for seed in (0, 7, 123):
            rng = substream(np.random.SeedSequence(seed), 0)
            groups = [simulate_group(rng, k, 20, q) for _ in range(300 // k)]
            strings = [sum((group[i] for group in groups), []) for i in range(20)]
            assert {len(digits) for digits in strings} == {300}
            ends = Counter(value_of(digits) % 10007 for digits in strings)
            residues, counts = sample_endpoints(params, 300, 20, seed=seed)
            assert dict(zip(residues.tolist(), counts.tolist())) == ends

    def test_empirical_plus_one_fraction(self):
        # after one step from 0 the endpoint is the increment, so residue 1 is b = +1
        params = ProcessParams(101, IncrementDistribution(0.0, 0.6, 0.4))
        trials = 100_000
        residues, counts = sample_endpoints(params, 1, trials, seed=0)
        assert set(residues.tolist()) <= {0, 1}
        frac = counts[residues == 1].sum() / trials
        tol = 4 * math.sqrt(0.4 * 0.6 / trials)
        assert abs(frac - 0.4) < tol

    @pytest.mark.parametrize("q", [None, (1 / 6, 1 / 2, 1 / 3)],
                             ids=["uniform", "sixth_half_third"])
    @pytest.mark.parametrize("p", [3, 1000003, 2**55 - 55, 2**61 - 1])
    def test_matches_python_integer_oracle(self, monkeypatch, p, q):
        # the walk reduces mod p only before int64 could overflow, the oracle on every step;
        # groups are 10 steps at p = 3 and 1000003, 7 at 2^55 - 55 and 1 at 2^61 - 1.
        # Blocks of 7 split the 100 trials into 15 tallies to merge
        params = ProcessParams(p, UNIFORM_INCREMENTS if q is None else IncrementDistribution(*q))
        for block in (process.SIMULATE_BLOCK, 7):
            monkeypatch.setattr(process, "SIMULATE_BLOCK", block)
            for steps in (0, 1, 61, 62, 63, 130):
                residues, counts = sample_endpoints(params, steps, 100, seed=29)
                assert residues.dtype == counts.dtype == np.int64
                assert dict(zip(residues.tolist(), counts.tolist())) == simulate_endpoints(
                    p, steps, 100, 29, q, block)
                assert np.all(np.diff(residues) > 0)


class TestGroupDraws:
    """sample_endpoints draws k steps at once: one index u below 3^k a trial and group."""

    @pytest.mark.parametrize("k", range(1, 11))
    def test_tables_are_digit_sums_and_products(self, k):
        # row u of all_digit_matrix(k) is u's base-3 digits minus 1, most significant first
        digits = all_digit_matrix(k).astype(np.int64)
        sums = process._group_sums(k)
        assert sums.dtype == np.int16
        np.testing.assert_array_equal(sums, digits @ (1 << np.arange(k - 1, -1, -1)))
        q = np.array([0.2, 0.5, 0.3])
        cdf = process._group_cdf(k, IncrementDistribution(*q))
        assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0)
        np.testing.assert_allclose(np.diff(cdf, prepend=0.0), q[digits + 1].prod(axis=1),
                                   rtol=1e-10, atol=1e-15)

    @pytest.mark.parametrize("p, k", [(3, 10), (1000003, 10), (2**52 - 47, 10),
                                      (2**52 + 15, 9), (2**55 - 55, 7), (2**61 - 1, 1)])
    def test_group_size_shrinks_as_p_grows(self, p, k):
        # a group after a reduction starts below p and must stay below 2^62
        assert simulate_group_size(p) == k
        residues, counts = sample_endpoints(ProcessParams(p), 3 * k + 1, 50, seed=4)
        assert dict(zip(residues.tolist(), counts.tolist())) == simulate_endpoints(
            p, 3 * k + 1, 50, 4, None, process.SIMULATE_BLOCK)

    @pytest.mark.parametrize("q", [None, (0.2, 0.5, 0.3)], ids=["uniform", "biased"])
    @pytest.mark.parametrize("steps", [7, 10, 13])
    def test_endpoints_follow_the_exact_law(self, steps, q):
        # inside, at and past one group of 10 steps: every residue's count is within
        # 6 standard errors of trials x its mass under distribution.evolve, which
        # catches a wrong product-law table that a replaying oracle would share.
        # Chi-square, within 6 of its standard deviations, also catches swapping
        # q- and q+ at 7 steps, where no residue is off by 3 standard errors
        trials = 200_000
        params = ProcessParams(101, UNIFORM_INCREMENTS if q is None else IncrementDistribution(*q))
        mass = evolve(params, steps)
        residues, counts = sample_endpoints(params, steps, trials, seed=steps)
        observed = np.zeros(101)
        observed[residues] = counts
        sd = np.sqrt(trials * mass * (1 - mass))
        assert np.all(np.abs(observed - trials * mass) <= 6 * sd)
        seen = mass > 0
        chi2 = ((observed - trials * mass)[seen] ** 2 / (trials * mass[seen])).sum()
        df = seen.sum() - 1
        assert chi2 <= df + 6 * math.sqrt(2 * df)

    @pytest.mark.parametrize("q", [None, (0.2, 0.5, 0.3)], ids=["uniform", "biased"])
    @pytest.mark.parametrize("p", [1000003, 2**55 - 55])
    def test_draw_pieces_do_not_change_the_stream(self, monkeypatch, p, q):
        # the oracle draws each group of a block in one call; pieces of 5 trials draw
        # the same numbers
        params = ProcessParams(p, UNIFORM_INCREMENTS if q is None else IncrementDistribution(*q))
        monkeypatch.setattr(process, "_DRAW_CHUNK", 5)
        residues, counts = sample_endpoints(params, 73, 101, seed=17)
        assert dict(zip(residues.tolist(), counts.tolist())) == simulate_endpoints(
            p, 73, 101, 17, q, process.SIMULATE_BLOCK)

    @pytest.mark.parametrize("trials", [1000, process._DRAW_CHUNK + 1])
    @pytest.mark.parametrize("q", [None, (0.2, 0.5, 0.3)], ids=["uniform", "biased"])
    def test_one_draw_call_per_group(self, monkeypatch, q, trials):
        # one block of 60 steps at p = 1000003 makes ceil(60 / 10) generator calls, not 60,
        # per piece of at most _DRAW_CHUNK trials
        law = UNIFORM_INCREMENTS if q is None else IncrementDistribution(*q)
        params = ProcessParams(1000003, law)
        calls, real = [], process.substream

        class Spy:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                method = getattr(self.rng, name)

                def call(*args, **kwargs):
                    calls.append(name)
                    return method(*args, **kwargs)

                return call

        monkeypatch.setattr(process, "substream", lambda root, b: Spy(real(root, b)))
        residues, counts = sample_endpoints(params, 60, trials, seed=3)
        assert counts.sum() == trials
        pieces = math.ceil(trials / process._DRAW_CHUNK)
        assert calls == ["integers" if q is None else "random"] * (math.ceil(60 / 10) * pieces)
