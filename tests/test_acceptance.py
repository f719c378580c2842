"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is fixed here, not calibrated elsewhere.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cdgproc.bounds import (
    CountRegion,
    compute_constants,
    multinomial_region_count,
    stirling_upper_bound,
)
from cdgproc.canonical import SequenceClass, TABLE_LIMITS, _canonicalize_matrix
from cdgproc.cli import main
from cdgproc.distribution import initial_dist, step, tvd_uniform
from cdgproc.process import IncrementDistribution, ProcessParams, value_of
from cdgproc.stats import (
    event_probabilities,
    exhaustive_expectations,
    monte_carlo_frequencies,
)
from oracles import all_digit_matrix, bigint_canonical, brute_force_distribution


@contextmanager
def criterion(num: int, name: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    dt = time.perf_counter() - t0
    if dt >= budget_s:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL (runtime {dt:.2f}s over {budget_s}s budget)")
        pytest.fail(f"criterion {num} exceeded its {budget_s}s budget ({dt:.2f}s)")
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({dt:.2f}s, budget {budget_s:g}s)")


def test_01_constants():
    with criterion(1, "rate-constants", 60):
        compute_constants()  # warm-up call
        timings = []
        for _ in range(5):
            t0 = time.perf_counter()
            compute_constants()
            timings.append(time.perf_counter() - t0)
        assert min(timings) < 1e-3, f"compute_constants took {min(timings) * 1e3:.3f} ms"
        c = compute_constants()
        assert abs(c.c_hat - 1.01999186) <= 1e-7
        assert abs(c.c1_basic - 1.001525) <= 1e-4
        assert abs(c.c1_refined - 1.00448) <= 1e-4
        assert c.c1_basic < c.c1_refined < c.c_hat


def test_02_no_ones_pair_after_raw_one_nononone():
    with criterion(2, "structural-zero-cell-exhaustive-3^12", 30):
        for cls in (SequenceClass.FIRST_ONE, SequenceClass.FIRST_MINUS_ONE):
            report = exhaustive_expectations(12, cls)
            assert report.n2_count == 0
            assert report.trials == (3**12 - 1) // 2


def test_03_pair_table_monte_carlo():
    with criterion(3, "pair-table-frequencies-mc", 120):
        report = monte_carlo_frequencies(10**5, 200, seed=20260810)
        cell_dev = np.abs(report.combined_freq - TABLE_LIMITS)
        assert cell_dev.max() <= 0.005, f"worst cell deviation {cell_dev.max():.5f}"
        col_dev = np.abs(report.column_sums - np.array([4, 5, 4, 5]) / 18)
        assert col_dev.max() <= 0.005, f"worst column deviation {col_dev.max():.5f}"
        even11, odd11 = report.col11_parity_freq()
        assert abs(even11 - 2 / 18) <= 0.005
        assert abs(odd11 - 2 / 18) <= 0.005
        print(
            f"  cells max dev {cell_dev.max():.2e}, columns max dev {col_dev.max():.2e}, "
            f"col11 even/odd {even11:.5f}/{odd11:.5f}"
        )


def test_04_block_event_probabilities():
    with criterion(4, "block-event-probabilities", 60):
        report = event_probabilities(horizon=10**4, trials=110, seed=3)
        assert report.blocks_observed >= 10**6
        assert abs(report.single_then_clean_freq - 1 / 6) <= 0.003
        assert abs(report.minus_then_clean_freq - 1 / 6) <= 0.003
        sigma = math.sqrt(0.25 / report.class_trials)
        assert abs(report.class_freq_first_one - report.class_prob_exact) <= 3 * sigma
        assert abs(report.class_freq_first_minus_one - report.class_prob_exact) <= 3 * sigma
        print(
            f"  single/clean {report.single_then_clean_freq:.6f}, "
            f"minus/clean {report.minus_then_clean_freq:.6f}, 1/6 = {1 / 6:.6f}"
        )


def test_05_exact_evolution_oracle():
    with criterion(5, "evolution-vs-enumeration-oracle", 60):
        from cdgproc.distribution import evolve

        for p in range(3, 32, 2):
            params = ProcessParams(p)
            for n in range(0, 11):
                expected = brute_force_distribution(p, n)
                got = evolve(params, n)
                assert np.abs(got - expected).max() <= 1e-12, (p, n)
        # one biased-law spot check of the weighted enumeration
        q = (0.2, 0.5, 0.3)
        expected = brute_force_distribution(31, 9, q)
        got = evolve(ProcessParams(31, IncrementDistribution(*q)), 9)
        assert np.abs(got - expected).max() <= 1e-12


def test_06_support_bound_inequality():
    with criterion(6, "support-bound-p10007", 1):
        p = 10007
        params = ProcessParams(p)
        dist = initial_dist(p)
        for n in range(13):
            assert tvd_uniform(dist) >= 1 - (2 ** (n + 1) - 1) / p - 1e-12, n
            dist = step(dist, params)


def test_07_monotone_mass_stationary():
    with criterion(7, "monotonicity-mass-stationarity", 1):
        p = 101
        params = ProcessParams(p)
        dist = initial_dist(p)
        prev = tvd_uniform(dist)
        for _ in range(200):
            dist = step(dist, params)
            cur = tvd_uniform(dist)
            assert cur <= prev + 1e-12
            prev = cur
        assert abs(dist.sum() - 1.0) <= 1e-9
        u = np.full(p, 1 / p)
        assert np.abs(step(u, params) - u).max() <= 1e-14


def test_08_canonicalizer_oracle():
    with criterion(8, "canonicalizer-vs-bigint-oracle", 60):
        # all 3^12 strings against a shift-based binary-expansion oracle
        n = 12
        mat = all_digit_matrix(n)
        canon = _canonicalize_matrix(mat)
        w = 2 ** np.arange(n - 1, -1, -1, dtype=np.int64)
        values = mat.astype(np.int64) @ w
        bits = ((np.abs(values)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.int8)
        oracle = bits * np.sign(values).astype(np.int8)[:, None]
        assert np.array_equal(canon, oracle)
        assert np.array_equal(canon.astype(np.int64) @ w, values)  # value preserved
        assert np.array_equal(_canonicalize_matrix(canon), canon)  # idempotent

        # 10^4 random strings of 4096 digits against the big-integer oracle
        rng = np.random.default_rng(2026)
        big = rng.integers(-1, 2, size=(10**4, 4096), dtype=np.int8)
        canon_big = _canonicalize_matrix(big)
        assert np.array_equal(_canonicalize_matrix(canon_big), canon_big)
        for i in range(big.shape[0]):
            assert value_of(canon_big[i]) == value_of(big[i])
        for i in range(0, big.shape[0], 20):
            assert canon_big[i].tolist() == bigint_canonical(big[i])


def test_09_exponent_convergence():
    with criterion(9, "count-exponent-convergence", 60):
        reference = 0.99554
        values = {}
        for n in (500, 1000, 2000, 5000):
            rc = multinomial_region_count(CountRegion("S", n, 0.005))
            values[n] = rc.log2_count / n
        seq = [values[n] for n in (500, 1000, 2000, 5000)]
        print("  exponents:", ", ".join(f"n={n}: {v:.6f}" for n, v in values.items()))
        # monotone climb toward the reference rate, from below
        assert all(b > a for a, b in zip(seq, seq[1:]))
        below = [v for v in seq if v < reference]
        gaps = [reference - v for v in below]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert abs(seq[-1] - reference) <= 0.01
        # closed-form exponent of the single-constraint count at vanishing slack
        assert abs(stirling_upper_bound(500, 1e-9).exponent - 0.998475) <= 1e-3


def test_10_scan_first_crossings(tmp_path):
    with criterion(10, "scan-first-crossings-to-2^22", 600):
        primes = [3, 101, 10007, 1048573, 4194301]
        out = tmp_path / "scan.json"
        code = main(
            ["scan", "--primes", ",".join(map(str, primes)), "--format", "json",
             "--out", str(out)]
        )
        assert code == 0
        rows = json.loads(out.read_text())["rows"]
        assert [row["p"] for row in rows] == primes
        for row in rows:
            p = row["p"]
            assert row["cross_005"] >= math.floor(math.log2(p)) - 1, row
            assert row["pred_c1_basic"] <= row["pred_c1_refined"] <= row["pred_c_hat"]
        # the support bound pins tvd near 1 below log2(p) steps, at every scanned p
        for p in primes:
            params = ProcessParams(p)
            dist = initial_dist(p)
            for n in range(math.floor(math.log2(p))):
                assert tvd_uniform(dist) >= 1 - (2 ** (n + 1) - 1) / p - 1e-12, (p, n)
                dist = step(dist, params)
        crossings = {row["p"]: row["cross_005"] for row in rows}
        print(f"  first crossings below 0.05: {crossings}")
