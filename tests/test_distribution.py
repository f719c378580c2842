import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdgproc import distribution
from cdgproc.distribution import (
    _BLOCK,
    _SORT_MAX,
    _STEP_BLOCK,
    _apply_step,
    _embed,
    _step_buffer,
    MAX_MODULUS,
    check_modulus,
    entropy_bits,
    evolve,
    evolve_with_trace,
    first_crossings,
    initial_dist,
    iter_evolve,
    step,
    support_size,
    tvd_uniform,
    typical_set_size,
)
from cdgproc.process import IncrementDistribution, ProcessParams
from oracles import (
    brute_force_distribution,
    dense_vector,
    fourier_coefficient,
    fourier_product,
    masked_entropy_bits,
    sorted_typical_set_size,
    spread_step,
    unfold_mirrored,
    whole_vector_tvd_uniform,
)

#: masses from the subnormal range up to 1e-100, far below every dyadic mass in use
TINY_MASSES = (5e-324, 7 * 5e-324, 2.2250738585072014e-308, 1e-300, 1e-200, 1e-100)
#: lengths on both sides of the sort cutoff and of one block
EDGE_SIZES = (1, 2, 3, _SORT_MAX - 1, _SORT_MAX, _SORT_MAX + 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3)
#: moduli whose (p - 1)/2 output pairs of a step fill its blocks exactly, or miss by one
STEP_EDGE_MODULI = (3, 2 * _STEP_BLOCK - 1, 2 * _STEP_BLOCK + 1, 2 * _STEP_BLOCK + 3,
                    4 * _STEP_BLOCK + 1, 6 * _STEP_BLOCK - 1)
#: laws with q+ = q-, under which iter_evolve walks the mirrored half
SYMMETRIC_LAWS = [(1 / 3, 1 / 3, 1 / 3), (0.25, 0.5, 0.25), (0.5, 0.0, 0.5)]


class TestInitialDist:
    def test_point_mass_examples(self):
        assert initial_dist(5).tolist() == [1, 0, 0, 0, 0]
        assert initial_dist(3).tolist() == [1, 0, 0]

    def test_sums_to_one(self):
        assert initial_dist(101).sum() == 1.0

    @pytest.mark.parametrize("p", [1, 2, 100])
    def test_invalid_modulus(self, p):
        with pytest.raises(ValueError):
            initial_dist(p)

    def test_memory_guard(self):
        with pytest.raises(ValueError, match=r"^modulus 67108865 exceeds guard 67108864;"):
            initial_dist(2**26 + 1)
        check_modulus(MAX_MODULUS)  # the guard is inclusive
        with pytest.raises(ValueError, match="exceeds guard"):
            check_modulus(MAX_MODULUS + 1)


class TestStep:
    def test_single_step_from_zero(self):
        out = step(initial_dist(5), ProcessParams(5))
        np.testing.assert_allclose(out[[4, 0, 1]], 1 / 3)
        assert out[2] == 0 and out[3] == 0

    def test_p3_reaches_uniform_in_one_step(self):
        out = step(initial_dist(3), ProcessParams(3))
        np.testing.assert_allclose(out, 1 / 3)

    def test_uniform_is_stationary(self):
        p = 101
        u = np.full(p, 1 / p)
        out = step(u, ProcessParams(p))
        assert np.abs(out - u).max() <= 1e-14

    def test_mass_preserved(self):
        out = step(initial_dist(31), ProcessParams(31))
        assert abs(out.sum() - 1.0) <= 1e-12

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError, match=r"^distribution has length \(5,\), .* modulus 7$"):
            step(initial_dist(5), ProcessParams(7))

    def test_biased_increments(self):
        params = ProcessParams(5, IncrementDistribution(0.0, 0.6, 0.4))
        out = step(initial_dist(5), params)
        np.testing.assert_allclose(out[[0, 1]], [0.6, 0.4])

    @pytest.mark.parametrize("multiplier", [2])
    def test_matches_gather_and_roll_reference(self, multiplier):
        # the arithmetic of the step is unchanged, so the results are equal, not close
        for p, law in itertools.product((5, 7, 31, 101, 1021, *STEP_EDGE_MODULI),
                                        [(0.2, 0.5, 0.3), (1 / 3, 1 / 3, 1 / 3)]):
            params = ProcessParams(p, IncrementDistribution(*law))
            q = params.increments
            dist = np.random.default_rng(p).random(p)
            d = dist[(np.arange(p) * pow(multiplier, -1, p)) % p]
            expected = q.q_zero * d
            expected += q.q_plus1 * np.roll(d, 1)
            expected += q.q_minus1 * np.roll(d, -1)
            np.testing.assert_array_equal(step(dist, params), expected)

    def test_does_not_mutate_input(self):
        dist = evolve(ProcessParams(31), 6)
        before = dist.copy()
        step(dist, ProcessParams(31))
        np.testing.assert_array_equal(dist, before)

    @pytest.mark.parametrize("p", STEP_EDGE_MODULI)
    def test_leaves_every_input_as_it_is(self, p):
        # the step runs in place on a copy: of a float64 vector, a strided view or a list
        params = ProcessParams(p, IncrementDistribution(0.2, 0.5, 0.3))
        whole = np.random.default_rng(p).random(2 * p)
        before = whole.copy()
        for dist in (whole[:p], whole[::2], whole[1::2].tolist()):
            expected = spread_step(dist, params.increments.as_tuple())
            np.testing.assert_array_equal(step(dist, params), expected)
        np.testing.assert_array_equal(whole, before)

    #: mirrored lengths m and moduli P around the block edges and around the split
    #: s = m // 3 or (P + 1) // 4 below which the step writes in place
    IN_PLACE_SIZES = {
        True: (2, 3, 4, 5, 6, 7, 8, 2 * _STEP_BLOCK, 2 * _STEP_BLOCK + 1, 3 * _STEP_BLOCK - 1,
               3 * _STEP_BLOCK, 3 * _STEP_BLOCK + 1, 3 * _STEP_BLOCK + 2, 3 * _STEP_BLOCK + 3,
               *((p + 1) // 2 for p in STEP_EDGE_MODULI)),
        False: (5, 7, 9, 11, 13, 4 * _STEP_BLOCK - 3, 4 * _STEP_BLOCK - 1, 4 * _STEP_BLOCK + 1,
                4 * _STEP_BLOCK + 3, *STEP_EDGE_MODULI),
    }

    @pytest.mark.parametrize("mirrored", [False, True])
    def test_in_place_step_equals_the_out_of_place_oracle(self, mirrored):
        # equal, not close: each output adds the same three products in the same order;
        # the walk's scratch is sized for its dense length, so a longer one is tried too
        rng = np.random.default_rng(36)
        for size, law in itertools.product(self.IN_PLACE_SIZES[mirrored],
                                           [(0.2, 0.5, 0.3), (1 / 3, 1 / 3, 1 / 3)]):
            params = ProcessParams(2 * size - 1 if mirrored else size, IncrementDistribution(*law))
            for room in (size, 4 * size):
                dist = rng.random(size)
                expected = spread_step(dist, law, mirrored)
                assert _apply_step(dist, params, _step_buffer(room, mirrored), mirrored) is dist
                np.testing.assert_array_equal(dist, expected, err_msg=f"{size} {law} {room}")

    @settings(max_examples=60, deadline=None)
    @given(
        half=st.integers(1, 4000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_step_conserves_mass_and_fixes_uniform(self, half, seed):
        p = 2 * half + 1
        params = ProcessParams(p, IncrementDistribution(0.2, 0.5, 0.3))
        dist = np.random.default_rng(seed).random(p)
        dist /= dist.sum()
        assert abs(step(dist, params).sum() - 1.0) <= 1e-12
        u = np.full(p, 1 / p)
        assert np.abs(step(u, params) - u).max() <= 1e-14


class TestEvolve:
    def test_zero_steps(self):
        np.testing.assert_array_equal(evolve(ProcessParams(7), 0), initial_dist(7))

    def test_p3_one_step_uniform(self):
        np.testing.assert_allclose(evolve(ProcessParams(3), 1), 1 / 3)

    def test_p5_one_step_tvd(self):
        assert tvd_uniform(evolve(ProcessParams(5), 1)) == pytest.approx(0.4, abs=1e-15)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            evolve(ProcessParams(5), -1)

    @pytest.mark.parametrize("q", [(1 / 3, 1 / 3, 1 / 3), (0.25, 0.45, 0.3)])
    def test_matches_enumeration_oracle(self, q):
        for p in (3, 5, 13):
            params = ProcessParams(p, IncrementDistribution(*q))
            for n in range(0, 8):
                expected = brute_force_distribution(p, n, q)
                np.testing.assert_allclose(evolve(params, n), expected, atol=1e-12)

    @pytest.mark.parametrize("q", [(1 / 3, 1 / 3, 1 / 3), (0.0, 0.5, 0.5), (0.2, 0.5, 0.3)])
    @pytest.mark.parametrize("multiplier", [2])
    def test_oracle_across_window_switch(self, q, multiplier):
        # n runs past the switch from the integer window to the dense vector
        for p in (3, 5, 7, 9, 15, 17, 31, 33, 63, 65):
            params = ProcessParams(p, IncrementDistribution(*q))
            for n in range(0, 10):
                expected = brute_force_distribution(p, n, q, multiplier)
                assert np.abs(evolve(params, n) - expected).max() <= 1e-12, (p, n)

    @pytest.mark.parametrize("multiplier", [2])
    def test_window_phase_equals_dense_steps(self, multiplier):
        # the last windows of 4B + 1 and 4B - 1 (B the step's block) span several
        # blocks and hold p - 2 and about p/2 integers
        for p in (7, 17, 31, 65, 1021, 4 * _STEP_BLOCK + 1, 4 * _STEP_BLOCK - 1):
            params = ProcessParams(p, IncrementDistribution(0.2, 0.5, 0.3))
            dist = initial_dist(p)
            for n in range(1, 18):
                dist = step(dist, params)
                np.testing.assert_array_equal(evolve(params, n), dist)
                # every integer in the window -(2^n - 1)..2^n - 1 is reachable
                assert support_size(dist) == min(p, 2 * multiplier**n - 1)

    def test_mass_conserved_200_steps(self):
        dist = evolve(ProcessParams(101), 200)
        assert abs(dist.sum() - 1.0) <= 1e-9

    def test_tvd_non_increasing(self):
        params = ProcessParams(101)
        rows = evolve_with_trace(params, 60)
        tvds = [r.tvd for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(tvds, tvds[1:]))

    def test_support_lower_bounds_tvd(self):
        # with at most 2^(n+1)-1 residues charged, tvd stays near 1
        p = 10007
        params = ProcessParams(p)
        dist = initial_dist(p)
        for n in range(13):
            assert tvd_uniform(dist) >= 1 - (2 ** (n + 1) - 1) / p - 1e-12
            dist = step(dist, params)


class TestIterEvolve:
    def test_window_phase_then_dense(self):
        # windows hold 2^(k+1) - 1 integers while the next one has fewer than p
        law = IncrementDistribution(0.2, 0.5, 0.3)
        sizes = [mass.size for _, mass in iter_evolve(ProcessParams(65, law), 8)]
        assert sizes == [1, 3, 7, 15, 31, 63, 65, 65, 65]
        sizes = [mass.size for _, mass in iter_evolve(ProcessParams(63, law), 6)]
        assert sizes == [1, 3, 7, 15, 31, 63, 63]
        # under a symmetric law the 2^k integers 0..w, then the residues 0..(p - 1)/2
        sizes = [mass.size for _, mass in iter_evolve(ProcessParams(65), 8)]
        assert sizes == [1, 2, 4, 8, 16, 32, 33, 33, 33]
        sizes = [mass.size for _, mass in iter_evolve(ProcessParams(63), 6)]
        assert sizes == [1, 2, 4, 8, 16, 32, 32]

    def test_window_order_is_residue_order(self):
        # after two steps the walk is mod 7: residues 0..3 are the integers 0..3 and
        # residues 4..6 the integers -3..-1; under a symmetric law it holds 0..3
        _, mass = list(iter_evolve(ProcessParams(101), 2))[-1]
        np.testing.assert_allclose(mass * 9, [1, 2, 1, 1])
        np.testing.assert_allclose(unfold_mirrored(mass) * 9, [1, 2, 1, 1, 1, 1, 2])
        law = IncrementDistribution(0.2, 0.5, 0.3)
        _, mass = list(iter_evolve(ProcessParams(101, law), 2))[-1]
        np.testing.assert_allclose(mass, [0.25, 0.21, 0.15, 0.09, 0.04, 0.1, 0.16])

    @pytest.mark.parametrize("q", [(1 / 3, 1 / 3, 1 / 3), (0.2, 0.5, 0.3)])
    def test_window_phase_is_the_walk_mod_its_modulus(self, q):
        # the integers -(2^k - 1)..2^k - 1 reached in k steps are distinct mod
        # 2^(k+1) - 1, so below p step k is the walk mod that modulus; 4B + 1 and
        # 4B - 1 (B the step's block) make the last steps span several blocks
        law = IncrementDistribution(*q)
        for p in (1048573, 4 * _STEP_BLOCK + 1, 4 * _STEP_BLOCK - 1):
            for k, mass in iter_evolve(ProcessParams(p, law), 12):
                if k:
                    expected = evolve(ProcessParams(2 ** (k + 1) - 1, law), k)
                    if law.is_symmetric:  # the half holds residues 0..2^k - 1
                        expected = expected[: 2**k]
                    np.testing.assert_array_equal(mass, expected)

    def test_yields_every_step(self):
        assert [k for k, _ in iter_evolve(ProcessParams(31), 12)] == list(range(13))

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            next(iter_evolve(ProcessParams(5), -1))

    def test_memory_guard(self):
        with pytest.raises(ValueError, match=r"^modulus 67108865 exceeds guard 67108864;"):
            next(iter_evolve(ProcessParams(2**26 + 1), 3))

    @staticmethod
    def walk(params: ProcessParams) -> None:
        for _ in iter_evolve(params, 24):
            pass

    @pytest.mark.parametrize("p", [1048577, 1048573])
    def test_allocates_two_vectors(self, p, heap_peak):
        # at most two p-vectors and the block buffer: no p-sized temporary
        params = ProcessParams(p, IncrementDistribution(0.2, 0.5, 0.3))
        assert heap_peak(self.walk, params)[1] <= 2 * 8 * p + 2**20

    @pytest.mark.parametrize("p", [1048577, 1048573])
    def test_symmetric_law_allocates_two_half_vectors(self, p, heap_peak):
        # at most two vectors of (p + 1)/2 values and the block buffer
        assert heap_peak(self.walk, ProcessParams(p))[1] <= 8 * (p + 1) + 2**20

    # p = 1048577 grows from P = 2^20 - 1 to p, so the negatives move up by two places
    # over themselves; p = 1048573 grows from 2^19 - 1, with no overlap
    @pytest.mark.parametrize("p", [1048577, 1048573])
    def test_steps_in_place_on_one_vector(self, p, heap_peak):
        # the p-vector and its step's scratch: blocks, then (p + 1)/2 staged outputs
        params = ProcessParams(p, IncrementDistribution(0.2, 0.5, 0.3))
        assert heap_peak(self.walk, params)[1] <= 8 * (p + (p + 1) // 2) + 2**20

    @pytest.mark.parametrize("p", [1048577, 1048573])
    def test_symmetric_law_steps_in_place_on_one_half_vector(self, p, heap_peak):
        # h = (p + 1)/2 values and the step's scratch: blocks, then h // 3 + 2 staged outputs
        h = (p + 1) // 2
        assert heap_peak(self.walk, ProcessParams(p))[1] <= 8 * (h + -(-h // 3) + 2) + 2**20


class TestFunctionals:
    def test_tvd_point_mass(self):
        assert tvd_uniform(initial_dist(101)) == pytest.approx(1 - 1 / 101, abs=1e-15)

    def test_tvd_counts_missing_residues(self):
        window = np.array([0.25, 0.5, 0.25])
        dense = np.zeros(101)
        dense[[100, 0, 1]] = window
        assert tvd_uniform(window, 101) == pytest.approx(tvd_uniform(dense), abs=1e-15)

    def test_tvd_uniform_zero(self):
        assert tvd_uniform(np.full(101, 1 / 101)) == pytest.approx(0.0, abs=1e-15)

    def test_entropy_point_mass_is_positive_zero(self):
        e = entropy_bits(initial_dist(11))
        assert e == 0.0 and math.copysign(1.0, e) == 1.0

    def test_entropy_uniform(self):
        for p in (3, 101):
            assert entropy_bits(np.full(p, 1 / p)) == pytest.approx(math.log2(p), rel=1e-12)

    def test_entropy_three_atoms(self):
        dist = evolve(ProcessParams(5), 1)
        assert entropy_bits(dist) == pytest.approx(math.log2(3), rel=1e-12)

    def test_support_point_mass(self):
        assert support_size(initial_dist(17)) == 1

    def test_support_after_four_steps_large_p(self):
        # every integer in [-15, 15] is reachable in four steps
        assert support_size(evolve(ProcessParams(10007), 4)) == 31

    def test_support_one_step_p5(self):
        assert support_size(evolve(ProcessParams(5), 1)) == 3

    def test_support_threshold(self):
        # the threshold is zero: every positive mass counts, down to the smallest subnormal
        tiny = np.finfo(np.float64).smallest_subnormal
        assert support_size(np.array([0.5, 0.0, tiny, 0.5 - tiny, 0.0])) == 3

    def test_typical_point_mass(self):
        for delta in (0.01, 0.5, 0.99):
            assert typical_set_size(initial_dist(101), delta) == 1

    def test_typical_uniform(self):
        assert typical_set_size(np.full(101, 1 / 101), 0.01) == 100

    def test_typical_three_atoms(self):
        assert typical_set_size(evolve(ProcessParams(5), 1), 0.5) == 2

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 1.5])
    def test_typical_delta_domain(self, delta):
        with pytest.raises(ValueError):
            typical_set_size(initial_dist(5), delta)

    def test_typical_does_not_mutate(self):
        dist = evolve(ProcessParams(11), 3)
        before = dist.copy()
        typical_set_size(dist, 0.3)
        np.testing.assert_array_equal(dist, before)


class TestTrace:
    def test_row_zero(self):
        rows = evolve_with_trace(ProcessParams(101), 0)
        assert len(rows) == 1
        r = rows[0]
        assert (r.step, r.entropy_bits, r.support, r.typical99) == (0, 0.0, 1, 1)
        assert r.tvd == pytest.approx(1 - 1 / 101, abs=1e-15)

    def test_p3_one_step(self):
        rows = evolve_with_trace(ProcessParams(3), 1)
        r = rows[1]
        assert r.tvd == pytest.approx(0.0, abs=1e-15)
        assert r.entropy_bits == pytest.approx(math.log2(3), rel=1e-12)
        assert (r.support, r.typical99) == (3, 3)

    def test_trace_matches_direct_functionals(self):
        params = ProcessParams(31)
        rows = evolve_with_trace(params, 7, delta=0.05)
        assert len(rows) == 8
        dist = evolve(params, 7)
        assert rows[-1].tvd == pytest.approx(tvd_uniform(dist), abs=1e-15)
        assert rows[-1].typical99 == typical_set_size(dist, 0.05)

    @pytest.mark.parametrize("p", [5, 31, 33, 1021])
    def test_every_row_matches_functionals_of_evolve(self, p):
        params = ProcessParams(p, IncrementDistribution(0.2, 0.5, 0.3))
        rows = evolve_with_trace(params, 16, delta=0.05)
        for row in rows:
            dist = evolve(params, row.step)
            assert row.tvd == pytest.approx(tvd_uniform(dist), abs=1e-15)
            assert row.entropy_bits == pytest.approx(entropy_bits(dist), rel=1e-13, abs=1e-15)
            assert row.support == support_size(dist)
            assert row.typical99 == typical_set_size(dist, 0.05)


#: the tvd thresholds of `cdg scan`
THRESHOLDS = (0.75, 0.5, 0.25, 0.05)


def stepped_tvds(params, n):
    """tvd from uniform of steps 0..n, from whole p-vectors: initial_dist, then `step` n times."""
    p = params.modulus
    dist = initial_dist(p)
    tvds = [whole_vector_tvd_uniform(dist, p)]
    for _ in range(n):
        dist = step(dist, params)
        tvds.append(whole_vector_tvd_uniform(dist, p))
    return tvds


class TestFirstCrossings:
    LAWS = [(1 / 3, 1 / 3, 1 / 3), (0.25, 0.5, 0.25), (0.2, 0.5, 0.3)]

    @pytest.mark.parametrize("q", LAWS)
    @pytest.mark.parametrize("p", [3, 101, 10007])
    def test_matches_whole_vector_steps(self, p, q):
        params = ProcessParams(p, IncrementDistribution(*q))
        n = 4 * math.ceil(math.log2(p)) + 64  # the scan's default cap
        tvds = stepped_tvds(params, n)
        expected = [next((k for k in range(1, n + 1) if tvds[k] < t), None) for t in THRESHOLDS]
        assert None not in expected
        # half and whole sums differ in the last bits: no tvd up to the last crossing
        # lies close enough to a threshold for that to move a crossing
        assert all(abs(tvd - t) > 1e-12 for tvd in tvds[1 : max(expected) + 1] for t in THRESHOLDS)
        assert first_crossings(params, THRESHOLDS, n) == expected

    @pytest.mark.parametrize("q", LAWS)
    def test_caps_short_of_a_crossing(self, q):
        params = ProcessParams(101, IncrementDistribution(*q))
        full = first_crossings(params, THRESHOLDS, 200)
        assert min(full) > 1
        for cap in (0, min(full) - 1):
            assert first_crossings(params, THRESHOLDS, cap) == [None] * len(THRESHOLDS)
        # a cap at the second crossing: the thresholds crossed later get None
        cap = full[1]
        assert first_crossings(params, THRESHOLDS, cap) == [k if k <= cap else None for k in full]

    def test_the_start_is_never_a_crossing(self):
        params = ProcessParams(101)  # step 0's tvd, 1 - 1/101, is below 1.5
        assert first_crossings(params, (1.5, 0.75), 0) == [None, None]
        assert first_crossings(params, (1.5,), 5) == [1]

    @pytest.mark.parametrize("q", LAWS)
    def test_no_step_after_the_last_crossing(self, monkeypatch, q):
        consumed, original = [], distribution.iter_evolve

        def counted(*args):
            for k, mass in original(*args):
                consumed.append(k)
                yield k, mass

        monkeypatch.setattr(distribution, "iter_evolve", counted)
        crossings = first_crossings(ProcessParams(10007, IncrementDistribution(*q)), THRESHOLDS, 1000)
        assert None not in crossings
        assert consumed == list(range(max(crossings) + 1))


@st.composite
def dyadic_masses(draw):
    """Masses w * 2^-e for integers w whose total is below 2^53, plus zeros, -0.0 and tiny masses.

    Every partial sum of the dyadic masses is exact, and the tiny ones vanish
    next to them, so every summation order gives the same sums: a count that
    differs from the sort's is a wrong count, not rounding.
    """
    size = draw(st.one_of(
        st.sampled_from(EDGE_SIZES),
        st.integers(1, 3 * _SORT_MAX),
        st.integers(1, 16).map(lambda k: 2**k - 1),  # window lengths
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(1, 2**20))  # few levels make many ties
    w = rng.integers(0, levels, size=size, endpoint=True)
    w <<= rng.integers(0, draw(st.integers(0, 16)), size=size, endpoint=True)
    w[rng.random(size) < draw(st.floats(0.0, 1.0))] = 0
    scale = max(int(w.sum()), 1).bit_length() + draw(st.integers(0, 3))  # total below 1
    mass = np.ldexp(w.astype(np.float64), -scale)
    mass[(w == 0) & (rng.random(size) < 0.5)] = -0.0
    spots = rng.integers(0, size, size=draw(st.integers(0, 4)))
    mass[spots] = rng.choice(TINY_MASSES, size=spots.size)
    return mass


class TestBlockedFunctionals:
    @settings(max_examples=150, deadline=None)
    @given(masses=dyadic_masses(), data=st.data())
    def test_typical_equals_sort_oracle(self, masses, data):
        delta = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        if data.draw(st.booleans()):  # 1 - delta equal to a partial sum, where it can be
            cum = np.cumsum(np.sort(masses)[::-1])
            tie = 1.0 - float(cum[data.draw(st.integers(0, masses.size - 1))])
            delta = tie if 0.0 < tie < 1.0 else delta
        assert typical_set_size(masses, delta) == sorted_typical_set_size(masses, delta)

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.one_of(st.sampled_from(EDGE_SIZES), st.integers(1, 3 * _BLOCK)),
        seed=st.integers(0, 2**32 - 1),
        zeros=st.floats(0.0, 1.0),
        skew=st.floats(1.0, 40.0),
        missing=st.integers(0, 2**20),
    )
    def test_tvd_and_entropy_match_whole_vector_formulas(self, size, seed, zeros, skew, missing):
        rng = np.random.default_rng(seed)
        mass = rng.random(size) ** skew
        mass[rng.random(size) < zeros] = 0.0
        mass[rng.integers(0, size, size=3)] = rng.choice(TINY_MASSES, size=3)
        mass /= mass.sum() if mass.sum() > 0 else 1.0
        mass[(mass == 0.0) & (rng.random(size) < 0.5)] = -0.0
        p = size + missing  # a window: the residues beyond `size` have mass 0
        assert abs(tvd_uniform(mass, p) - whole_vector_tvd_uniform(mass, p)) <= 1e-12
        assert abs(tvd_uniform(mass) - whole_vector_tvd_uniform(mass)) <= 1e-12
        assert abs(entropy_bits(mass) - masked_entropy_bits(mass)) <= 1e-12

    @pytest.mark.parametrize("size", [1, _BLOCK - 1, _BLOCK, 2 * _BLOCK + 3])
    def test_tvd_of_counts_is_the_tvd_of_their_masses(self, size):
        # counts divided a block at a time give the same masses, blocks and fold
        counts = np.random.default_rng(size).integers(0, 50, size=size)
        total = int(counts.sum()) + 7
        for p in (size, size + 1000):
            assert (tvd_uniform(counts, p, total=total)
                    == tvd_uniform(counts / total, p)
                    == pytest.approx(whole_vector_tvd_uniform(counts / total, p), abs=1e-12))

    def test_negative_zero_regression(self):
        # the bit pattern of -0.0 is INT64_MIN; it must count as a zero mass
        assert typical_set_size(np.array([-0.0, 1.0]), 0.01) == 1
        long = np.full(3 * _SORT_MAX, -0.0)
        long[[5, 700, 9000]] = [0.5, 0.25, 0.25]
        for delta in (0.01, 0.5, 0.7):
            assert typical_set_size(long, delta) == sorted_typical_set_size(long, delta)
        assert typical_set_size(np.full(3 * _SORT_MAX, -0.0), 0.5) == 3 * _SORT_MAX
        assert entropy_bits(long) == masked_entropy_bits(long) == 1.5

    def test_ties_on_bucket_edges(self):
        # powers of two above the smallest one differ from it by whole exponents,
        # so with the smallest a power of two every mass lies on a bucket edge
        rng = np.random.default_rng(8)
        for size in (_SORT_MAX + 1, 3 * _SORT_MAX, 2 * _BLOCK + 3):
            mass = np.ldexp(1.0, -rng.integers(16, 40, size=size))
            mass[rng.random(size) < 0.2] = 0.0
            cum = np.cumsum(np.sort(mass)[::-1])
            deltas = [1.0 - c for c in cum[:: max(size // 50, 1)] if 0.0 < 1.0 - c < 1.0]
            for delta in deltas + [1e-300, 0.01, 0.5, 0.999]:
                assert typical_set_size(mass, delta) == sorted_typical_set_size(mass, delta)

    def test_rounding_short_of_the_target_continues_into_the_next_bucket(self):
        # Summed in the order of the sort, 0.5 + k * (2^-20 + 2^-54) rounds down to
        # 0.5 + k * 2^-20 at every step (a tie, rounded to even), while the bucket
        # of those 2000 masses sums them exactly.  With 1 - delta equal to that
        # exact sum, the bucket falls short and the count is the first 2^-30 mass.
        mass = np.concatenate(([0.5], np.full(2000, 2.0**-20 + 2.0**-54), np.full(8000, 2.0**-30)))
        np.random.default_rng(3).shuffle(mass)
        target = 0.5 + 2000 * (2.0**-20 + 2.0**-54)
        delta = 1.0 - target
        assert 1.0 - delta == target
        assert sorted_typical_set_size(mass, delta) == 2002
        assert typical_set_size(mass, delta) == 2002
        # a mirrored half standing for the same 10001 masses: 0.5 at x = 0, counted
        # once, and half of each other kind, every one counted twice in every part
        half = np.concatenate((np.full(1000, 2.0**-20 + 2.0**-54), np.full(4000, 2.0**-30)))
        np.random.default_rng(4).shuffle(half)
        half = np.concatenate(([0.5], half))
        assert sorted_typical_set_size(unfold_mirrored(half), delta) == 2002
        assert typical_set_size(half, delta, mirrored=True) == 2002
        # the buckets just below are empty and the next masses fall short again:
        # 3 * 2^-45 < 2000 * 2^-54, so the count ends in the 29th 2^-50 mass, past
        # another run of empty buckets, ahead of the zeros
        mass = np.concatenate(([0.5], np.full(2000, 2.0**-20 + 2.0**-54), np.full(3, 2.0**-45),
                               np.full(100, 2.0**-50), np.zeros(8000)))
        np.random.default_rng(5).shuffle(mass)
        assert sorted_typical_set_size(mass, delta) == 2033
        assert typical_set_size(mass, delta) == 2033
        # with only zeros below the short bucket, it is bucket 0 and no count reaches 1 - delta
        mass = np.concatenate(([0.5], np.full(2000, 2.0**-20 + 2.0**-54), np.zeros(9000)))
        np.random.default_rng(6).shuffle(mass)
        assert sorted_typical_set_size(mass, delta) == mass.size
        assert typical_set_size(mass, delta) == mass.size

    @pytest.mark.parametrize(
        "p, q",
        [(10007, (1 / 3, 1 / 3, 1 / 3)), (100003, (0.2, 0.5, 0.3)), (10007, (1e-300, 0.0, 1.0)),
         (100003, (0.0, 0.5, 0.5)), (100003, (0.25, 0.5, 0.25))],
    )
    def test_evolve_vectors_match_oracles(self, p, q):
        # a symmetric law's halves are read mirrored, against the oracles on whole vectors
        params = ProcessParams(p, IncrementDistribution(*q))
        mirrored = params.increments.is_symmetric
        for _, mass in iter_evolve(params, 24):
            whole = unfold_mirrored(mass) if mirrored else mass
            for delta in (1e-300, 1e-12, 0.01, 0.3, 0.5, 0.99):
                assert (typical_set_size(mass, delta, mirrored=mirrored)
                        == sorted_typical_set_size(whole, delta))
            assert (abs(tvd_uniform(mass, p, mirrored=mirrored) - whole_vector_tvd_uniform(whole, p))
                    <= 1e-12)
            assert abs(entropy_bits(mass, mirrored=mirrored) - masked_entropy_bits(whole)) <= 1e-12
            assert support_size(mass, mirrored=mirrored) == np.count_nonzero(whole > 0)


class TestMirrored:
    """The half walk of a symmetric law and the functionals that read its halves mirrored."""

    @pytest.mark.parametrize("q", SYMMETRIC_LAWS)
    def test_half_walk_is_the_full_kernel_on_its_residues(self, q):
        # each half step, from the whole vector of the last half, equals the full step
        # on residues 0..(p - 1)/2: it adds every output in the full step's order
        for p in (5, 7, 9, 31, 33, 65, 101, 1021, *STEP_EDGE_MODULI):
            params = ProcessParams(p, IncrementDistribution(*q))
            before = None
            for k, mass in iter_evolve(params, 20):
                whole = dense_vector(unfold_mirrored(mass), p)
                if before is not None:
                    full = step(before, params)
                    np.testing.assert_array_equal(whole[: (p + 1) // 2], full[: (p + 1) // 2])
                    assert np.abs(whole - full).max() <= 1e-15, (p, k)
                before = whole
            np.testing.assert_array_equal(evolve(params, 20), before)

    @pytest.mark.parametrize("q", SYMMETRIC_LAWS)
    def test_one_half_step_of_a_symmetric_vector(self, q):
        # a random symmetric input, mod p and mod a smaller P, across block edges
        rng = np.random.default_rng(18)
        for p in STEP_EDGE_MODULI:
            params, h = ProcessParams(p, IncrementDistribution(*q)), (p + 1) // 2
            half = rng.random(h)
            out = _apply_step(half.copy(), params, _step_buffer(h, True), mirrored=True)
            np.testing.assert_array_equal(out, step(unfold_mirrored(half), params)[:h])
            # halves of 0..m - 1 mod 2*m - 1 grown to mod P = 4*m - 1 < p, where
            # the step of the integers 0..m - 1 does not wrap
            for m in [m for m in (1, 2, 3, _STEP_BLOCK, _STEP_BLOCK + 1, h // 2) if 2 * m < h]:
                grown = _embed(unfold_mirrored(rng.random(m)), 4 * m - 1)
                out = _apply_step(grown[: 2 * m].copy(), params, _step_buffer(2 * m, True),
                                  mirrored=True)
                expected = step(dense_vector(grown, p), params)
                np.testing.assert_array_equal(out, expected[: 2 * m])

    @settings(max_examples=150, deadline=None)
    @given(masses=dyadic_masses(), data=st.data())
    def test_functionals_equal_whole_vector_oracles(self, masses, data):
        # masses holds x = 0..m - 1; the whole vector repeats all but the first for -x
        whole = np.concatenate((masses[:0:-1], masses))
        delta = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        if data.draw(st.booleans()):  # 1 - delta equal to a partial sum of the whole
            cum = np.cumsum(np.sort(whole)[::-1])
            tie = 1.0 - float(cum[data.draw(st.integers(0, whole.size - 1))])
            delta = tie if 0.0 < tie < 1.0 else delta
        assert typical_set_size(masses, delta, mirrored=True) == sorted_typical_set_size(whole, delta)
        assert support_size(masses, mirrored=True) == np.count_nonzero(whole > 0)
        p = whole.size + data.draw(st.integers(0, 2**20))
        assert abs(tvd_uniform(masses, p, mirrored=True) - whole_vector_tvd_uniform(whole, p)) <= 1e-12
        assert abs(tvd_uniform(masses, mirrored=True) - whole_vector_tvd_uniform(whole)) <= 1e-12
        assert abs(entropy_bits(masses, mirrored=True) - masked_entropy_bits(whole)) <= 1e-12

    @pytest.mark.parametrize("size", [3, _SORT_MAX // 2, 3 * _SORT_MAX, 2 * _BLOCK + 3])
    @pytest.mark.parametrize("zero", [0.5, 0.25, 2.0**-21, 0.0, -0.0])
    def test_ties_across_the_crossing_and_mass_at_residue_zero(self, size, zero):
        # residue 0 holds the largest mass, one equal to a tied level, or none (0 and -0.0);
        # the others take three dyadic levels, so every sum is exact and every
        # crossing falls among ties
        rng = np.random.default_rng(size)
        half = np.ldexp(1.0, -rng.integers(20, 23, size=size))
        half[rng.random(size) < 0.3] = 0.0
        half[0] = zero
        whole = np.concatenate((half[:0:-1], half))
        cum = np.cumsum(np.sort(whole)[::-1])
        targets = cum[:: max(whole.size // 40, 1)].tolist() + [zero, zero + half.max()]
        for delta in [1.0 - t for t in targets if 0.0 < 1.0 - t < 1.0] + [0.01, 0.5, 0.9]:
            expected = sorted_typical_set_size(whole, delta)
            assert typical_set_size(half, delta, mirrored=True) == expected, delta
        assert support_size(half, mirrored=True) == np.count_nonzero(whole > 0)
        assert entropy_bits(half, mirrored=True) == pytest.approx(masked_entropy_bits(whole),
                                                                 rel=1e-13, abs=1e-15)


#: (p, steps, law) -> (typical99, support) columns of evolve_with_trace, recorded
#: with the full-sort typical set and the whole-vector support count
PINNED_COLUMNS = {
    (10007, 30, (1 / 3, 1 / 3, 1 / 3)): (
        [1, 3, 7, 15, 31, 61, 120, 237, 474, 945, 1886, 3764, 7517, 9501, 9789, 9863, 9892,
         9900, 9904, 9906, 9906] + [9907] * 10,
        [1, 3, 7, 15, 31, 63, 127, 255, 511, 1023, 2047, 4095, 8191] + [10007] * 18,
    ),
    (100003, 40, (0.2, 0.5, 0.3)): (
        [1, 3, 7, 14, 29, 57, 114, 228, 455, 910, 1820, 3639, 7277, 14554, 29108, 58215, 98212,
         98922, 98961, 98996, 99000] + [99003] * 20,
        [1, 3, 7, 15, 31, 63, 127, 255, 511, 1023, 2047, 4095, 8191, 16383, 32767, 65535]
        + [100003] * 25,
    ),
    (101, 20, (1e-300, 0.0, 1.0)): ([1] * 21, list(range(1, 22))),
}


@pytest.mark.parametrize("key", list(PINNED_COLUMNS))
def test_pinned_integer_columns(key):
    p, steps, q = key
    rows = evolve_with_trace(ProcessParams(p, IncrementDistribution(*q)), steps)
    typical, support = PINNED_COLUMNS[key]
    assert [r.typical99 for r in rows] == typical
    assert [r.support for r in rows] == support


class TestFourierOracle:
    #: p -> the steps checked, the last two of them mod p:
    #: - 1048573, the largest prime below 2^20: mod 2^(k+1) - 1 up to step 18, mod p
    #:   from step 19;
    #: - 1048583 = 2^20 + 7, prime: step 19 is mod p - 8, so step 20 embeds that
    #:   vector into a nearly full buffer
    CASES = {1048573: (6, 18, 19, 24), 1048583: (6, 19, 20, 24)}

    @pytest.mark.parametrize("q", [(1 / 3, 1 / 3, 1 / 3), (0.2, 0.5, 0.3)])
    def test_iter_evolve_matches_the_product_formula(self, q):
        for p, steps in self.CASES.items():
            params = ProcessParams(p, IncrementDistribution(*q))
            xis = [int(x) for x in np.random.default_rng(1987).integers(1, p, size=3)]
            checked = []
            for k, mass in iter_evolve(params, 24):
                if k not in steps:
                    continue
                if params.increments.is_symmetric:  # the half holds residues 0..(P - 1)/2
                    mass = unfold_mirrored(mass)
                checked.append((k, mass.size < p))
                for xi in xis:
                    got = fourier_coefficient(mass, p, xi)
                    assert abs(got - fourier_product(q, k, p, xi)) <= 1e-12, (p, k, xi)
            assert checked == [(k, window) for k, window in zip(steps, (True, True, False, False))]
