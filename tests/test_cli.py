import argparse
import inspect
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdgproc
from cdgproc import bounds, canonical, cli, distribution, process, stats
from cdgproc.cli import MAX_TRACE_STEPS, _emit_json, build_parser, main
from cdgproc.process import is_prime
from oracles import horner_value, simulate_endpoints


@pytest.fixture(scope="module")
def schema():
    ref = resources.files("cdgproc").joinpath("schemas/cli_output.schema.json")
    with ref.open() as fh:
        return json.load(fh)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_line_error(code, err):
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err


def run_captured(*argv):
    """(exit code, stdout, stderr) of main, with argument errors' SystemExit as the code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def child_peak_kib(*args):
    """(exit code, peak RSS in KiB) of `python *args`, started from a small launcher.

    os.wait4 reports at least the peak RSS of the process a child was started
    from, and pytest is large, so the launcher stands between them.
    """
    launcher = ("import os, subprocess, sys; child = subprocess.Popen(sys.argv[1:]); "
                "_, status, usage = os.wait4(child.pid, 0); "
                "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
    src = str(Path(cdgproc.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", launcher, sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    code, peak_kib = map(int, proc.stdout.split())  # ru_maxrss is in KiB on Linux
    return code, peak_kib


def int_text_limit() -> int:
    """The interpreter's cap on int <-> decimal text (Python 3.11 on), 0 for none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


@contextmanager
def int_text_unlimited():
    limit = int_text_limit()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def run_json(capsys, schema, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    return payload


class TestIsPrime:
    def test_small(self):
        primes = [2, 3, 5, 7, 11, 101, 10007, 1048573, 4194301]
        for p in primes:
            assert is_prime(p)
        for c in [1, 4, 9, 91, 1048575, 4194303, 2**22]:
            assert not is_prime(c)

    def test_against_sieve(self):
        sieve = [True] * 2000
        sieve[0] = sieve[1] = False
        for i in range(2, 45):
            if sieve[i]:
                for j in range(i * i, 2000, i):
                    sieve[j] = False
        assert [is_prime(i) for i in range(2000)] == sieve


class TestEvolve:
    def test_csv_step_zero(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "--p", "101", "--steps", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "step,tvd,entropy_bits,support,typical99"
        assert lines[1] == "0,0.990099009901,0,1,1"

    def test_csv_p3_one_step(self, capsys):
        _, out, _ = run_cli(capsys, "evolve", "--p", "3", "--steps", "1")
        assert out.strip().splitlines()[2] == "1,0,1.58496250072,3,3"

    def test_tvd_column_non_increasing(self, capsys):
        _, out, _ = run_cli(capsys, "evolve", "--p", "101", "--steps", "40")
        tvds = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(tvds, tvds[1:]))

    def test_json_schema(self, capsys, schema):
        payload = run_json(
            capsys, schema, "evolve", "--p", "11", "--steps", "4", "--format", "json"
        )
        assert payload["command"] == "evolve"
        assert len(payload["trace"]) == 5

    def test_bitwise_stable(self, capsys):
        _, out1, _ = run_cli(capsys, "evolve", "--p", "101", "--steps", "20")
        _, out2, _ = run_cli(capsys, "evolve", "--p", "101", "--steps", "20")
        assert out1 == out2

    def test_memory_guard_error(self, capsys):
        for steps in ("0", "1"):
            code, out, err = run_cli(capsys, "evolve", "--p", str(2**26 + 1), "--steps", steps)
            assert_one_line_error(code, err)
            assert "exceeds guard" in err and out == ""

    def test_guard_modulus_without_steps_stays_small(self, tmp_path):
        # one trace row at the largest prime below the guard touches no p-vector
        target = tmp_path / "trace.csv"
        code, peak_kib = child_peak_kib("-m", "cdgproc.cli", "evolve", "--p", "67108859",
                                        "--steps", "0", "--out", str(target))
        assert code == 0
        assert len(target.read_text().splitlines()) == 2
        assert peak_kib < 256 * 1024

    @pytest.mark.parametrize("command", [("evolve", "--p", "101", "--steps", "1"),
                                         ("scan", "--primes", "101")])
    def test_guard_is_not_an_option(self, command):
        code, out, err = run_captured(*command, "--max-p-override", "5")
        assert_one_line_error(code, err)
        assert "unrecognized arguments" in err and out == ""

    def test_step_count_above_trace_limit_is_error(self, capsys):
        code, out, err = run_cli(
            capsys, "evolve", "--p", "3", "--steps", str(MAX_TRACE_STEPS + 1)
        )
        assert_one_line_error(code, err)
        assert out == ""

    def test_even_modulus_error(self, capsys):
        code, _, err = run_cli(capsys, "evolve", "--p", "100", "--steps", "1")
        assert code == 1 and "error" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            capsys, "evolve", "--p", "11", "--steps", "2", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("step,tvd")


class TestScan:
    def test_small_primes_csv(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--primes", "3,101,10007")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("p,log2_p,cross_075")
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["3", "101", "10007"]
        # tvd hits 0 after one step at p=3
        assert rows[0][2:6] == ["1", "1", "1", "1"]
        for r in rows:
            p = int(r[0])
            assert int(r[5]) >= math.floor(math.log2(p)) - 1
            assert int(r[7]) <= int(r[8]) <= int(r[9])

    def test_json_schema(self, capsys, schema):
        payload = run_json(capsys, schema, "scan", "--primes", "5,31", "--format", "json")
        assert [row["p"] for row in payload["rows"]] == [5, 31]

    def test_range_mode_filters_primes(self, capsys):
        _, out, _ = run_cli(
            capsys, "scan", "--p-min", "3", "--p-max", "30", "--format", "json"
        )
        ps = [row["p"] for row in json.loads(out)["rows"]]
        assert ps == [3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_composite_skipped_with_warning(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--primes", "9,11")
        assert code == 0
        assert "NonPrimeInput" in err
        assert [line.split(",")[0] for line in out.strip().splitlines()[1:]] == ["11"]

    def test_composite_kept_with_flag(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--primes", "9", "--allow-composite")
        assert code == 0 and "NonPrimeInput" in err
        assert out.strip().splitlines()[1].startswith("9,")

    def test_even_input_is_error(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--primes", "10")
        assert code == 1 and "error" in err

    def test_step_cap_leaves_blank_crossings(self, capsys, schema):
        payload = run_json(
            capsys, schema, "scan", "--primes", "10007", "--steps", "3",
            "--format", "json",
        )
        row = payload["rows"][0]
        assert row["cross_005"] is None and row["cross_075"] is None
        _, out, _ = run_cli(capsys, "scan", "--primes", "10007", "--steps", "3")
        assert out.strip().splitlines()[1].endswith(",,,,13,13,13,13")

    def test_needs_primes_or_range(self, capsys):
        code, _, err = run_cli(capsys, "scan")
        assert code == 1 and "error" in err

    def test_zero_step_cap_is_honoured(self, capsys, schema):
        payload = run_json(
            capsys, schema, "scan", "--primes", "3,101", "--steps", "0", "--format", "json"
        )
        for row in payload["rows"]:
            crossings = [row[f"cross_{t}"] for t in ("075", "050", "025", "005")]
            assert crossings == [None] * 4

    def test_cap_beyond_last_crossing_matches_default(self, capsys, schema):
        capped = run_json(capsys, schema, "scan", "--primes", "101", "--steps", "500",
                          "--format", "json")
        default = run_json(capsys, schema, "scan", "--primes", "101", "--format", "json")
        assert capped == default

    def test_negative_step_cap_is_error(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--primes", "101", "--steps", "-1")
        assert_one_line_error(code, err)

    @pytest.mark.parametrize("primes, entry", [(",101", "''"), ("1e3", "'1e3'"),
                                               ("101,x", "'x'"), ("5,,7", "''")])
    def test_bad_primes_entry_is_named(self, capsys, primes, entry):
        code, out, err = run_cli(capsys, "scan", "--primes", primes)
        assert_one_line_error(code, err)
        assert f"--primes entry {entry} is not an integer" in err and out == ""

    def test_range_across_guard_refused_before_any_modulus(self, capsys, monkeypatch):
        calls = []
        original = distribution.iter_evolve

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(distribution, "iter_evolve", counted)
        # 67108859 lies below the guard and 67108879 above it
        code, out, err = run_cli(
            capsys, "scan", "--p-min", "67108800", "--p-max", "67108900", "--steps", "0"
        )
        assert_one_line_error(code, err)
        assert "exceeds guard" in err and out == "" and calls == []

    def test_guard_checked_before_any_modulus(self, capsys):
        # the composite 9 would be warned about and evolved first
        code, out, err = run_cli(
            capsys, "scan", "--primes", "9,67108865", "--allow-composite"
        )
        assert_one_line_error(code, err)
        assert "exceeds guard" in err and out == ""


class TestCanon:
    def test_eleven_digit_example(self, capsys, schema):
        payload = run_json(capsys, schema, "canon", "00+-0+0+-++")
        assert payload["canonical"] == "000+0+00+++"
        assert payload["value"] == 167
        assert payload["class"] == "first_one"
        assert payload["leading_zeros"] == 2
        assert payload["blocks"] == ["+-0", "+0", "+-", "+", "+"]
        assert payload["start_positions"] == [2, 5, 7, 9, 10]
        assert payload["last_block_partial"] is True
        assert payload["block_source"] == "input"

    def test_all_zero(self, capsys, schema):
        payload = run_json(capsys, schema, "canon", "000")
        assert payload["class"] == "all_zero"
        assert payload["value"] == 0
        assert payload["blocks"] is None

    def test_plus_minus_minus(self, capsys, schema):
        payload = run_json(capsys, schema, "canon", "+--")
        assert payload["canonical"] == "00+"
        assert payload["value"] == 1

    def test_leading_minus_via_separator(self, capsys, schema):
        payload = run_json(capsys, schema, "canon", "--", "-0+")
        assert payload["class"] == "first_minus_one"
        assert payload["value"] == -3
        assert payload["canonical"] == "0--"
        assert payload["block_source"] == "negated_input"

    def test_accepts_ones(self, capsys, schema):
        payload = run_json(capsys, schema, "canon", "1-1")
        assert payload["value"] == 3
        assert payload["input"] == "+-+"

    def test_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "canon", "0+2")
        assert code == 1 and "error" in err

    @settings(max_examples=60, deadline=None)
    @given(zeros=st.integers(min_value=0, max_value=40), first=st.sampled_from("+-"),
           rest=st.text(alphabet="+0-", max_size=5000 - 41))
    def test_blocks_cut_the_source_text(self, zeros, first, rest):
        # the source is the input, or its negation for the first-minus-1 class; its text
        # is the leading zeros, then the blocks, each cut before one '+'
        text = "0" * zeros + first + rest
        code, out, err = run_captured("canon", "--", text)
        assert code == 0, err
        payload = json.loads(out)
        source = text if first == "+" else text.translate(str.maketrans("+-", "-+"))
        assert payload["block_source"] == ("input" if first == "+" else "negated_input")
        blocks = payload["blocks"]
        assert "0" * payload["leading_zeros"] + "".join(blocks) == source
        assert all(b.startswith("+") and b.count("+") == 1 for b in blocks)
        assert payload["start_positions"] == [i for i, c in enumerate(source) if c == "+"]

    @pytest.mark.parametrize("digits", [
        "+" * 20_000,
        # about the longest one argument can be on Linux (128 KiB)
        "".join(random.Random(26).choices("+-0", k=130_000)),
    ], ids=["plus_20000", "mixed_130000"])
    def test_long_value_is_written_in_full(self, capsys, schema, digits):
        # lengths are never capped: `value` is the whole JSON integer, past the
        # interpreter's 4300-digit default for int text, and that cap is left as found
        limit = int_text_limit()
        code, out, err = run_cli(capsys, "canon", "--", digits)
        assert code == 0, err
        assert int_text_limit() == limit
        with int_text_unlimited():
            payload = json.loads(out)
        jsonschema.validate(payload, schema)
        expected = horner_value({"+": 1, "0": 0, "-": -1}[c] for c in digits)
        assert payload["value"] == expected == process.value_of(process.parse_digits(digits))
        if digits == "+" * 20_000:
            assert expected == 2**20_000 - 1

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int text cap")
    def test_int_text_cap_is_put_back_after_success_and_failure(self, capsys, tmp_path):
        before = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(5000)
            assert run_cli(capsys, "canon", "+" * 20_000)[0] == 0
            assert sys.get_int_max_str_digits() == 5000
            # --out names a directory: the write fails after the cap was lifted
            code, _, err = run_cli(capsys, "canon", "+" * 20_000, f"--out={tmp_path}")
            assert_one_line_error(code, err)
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(before)


class TestStats:
    def test_exhaustive_json(self, capsys, schema):
        payload = run_json(capsys, schema, "stats", "--mode", "exhaustive", "--n", "8")
        assert payload["mode"] == "exhaustive"
        assert payload["derived"]["n2"] == 0.0
        assert sum(c["count"] for c in payload["cells"].values()) == payload["trials"] * 7

    def test_mc_json(self, capsys, schema):
        payload = run_json(
            capsys, schema, "stats", "--mode", "mc", "--n", "500", "--trials", "20",
            "--seed", "5", "--format", "json",
        )
        assert payload["mode"] == "monte-carlo"
        assert payload["seed"] == 5

    def test_long_rows_stay_small(self, tmp_path):
        # 20 rows of 100000 digits over a bare import: about 10 MB, where int64
        # per-position offsets took about 18
        code, base_kib = child_peak_kib("-c", "import cdgproc.cli")
        assert code == 0
        target = tmp_path / "stats.json"
        code, peak_kib = child_peak_kib("-m", "cdgproc.cli", "stats", "--mode", "mc",
                                        "--n", "100000", "--trials", "20", "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text())["trials"] == 20
        assert peak_kib - base_kib < 14 * 1024

    def test_csv_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "stats", "--mode", "exhaustive", "--n", "6", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "row,col,parity,count,frequency,stderr"
        assert len(lines) == 49

    def test_exhaustive_too_large(self, capsys):
        code, _, err = run_cli(capsys, "stats", "--mode", "exhaustive", "--n", "15")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("n, trials, message", [
        ("20", "1000000000000", "estimated Monte Carlo cost"),
        ("100000000", "1", "exceeds the Monte Carlo limit"),
    ])
    def test_mc_limits_refused_before_drawing(self, capsys, monkeypatch, n, trials, message):
        def refuse(*args, **kwargs):
            raise AssertionError("drew before the checks")

        monkeypatch.setattr(stats.np.random, "default_rng", refuse)
        code, out, err = run_cli(
            capsys, "stats", "--mode", "mc", "--n", n, "--trials", trials
        )
        assert_one_line_error(code, err)
        assert message in err and out == ""

    @settings(max_examples=60, deadline=None)
    @given(
        mode=st.sampled_from(["mc", "exhaustive"]),
        n=st.integers(min_value=-5, max_value=300),
        trials=st.integers(min_value=-5, max_value=3000),
        seed=st.integers(min_value=-5, max_value=10**40),
        fmt=st.sampled_from(["csv", "json"]),
    )
    def test_fuzz_exit_zero_with_output_or_one_line_error(
        self, schema, mode, n, trials, seed, fmt
    ):
        code, out, err = run_captured(
            "stats", "--mode", mode, "--n", str(n), "--trials", str(trials),
            "--seed", str(seed), "--format", fmt,
        )
        if code != 0:
            assert_one_line_error(code, err)
        elif fmt == "json":
            jsonschema.validate(json.loads(out), schema)
        else:
            lines = out.splitlines()
            assert lines[0] == "row,col,parity,count,frequency,stderr" and len(lines) == 49


class TestBounds:
    def test_constants_only(self, capsys, schema):
        payload = run_json(capsys, schema, "bounds")
        consts = payload["constants"]
        assert abs(consts["c_hat"] - 1.01999186) <= 1e-7
        assert "counts" not in payload

    def test_with_counts(self, capsys, schema):
        payload = run_json(capsys, schema, "bounds", "--n", "100", "--eps", "0.005")
        counts = payload["counts"]
        assert counts["region_R"]["method"] == "exact"
        assert int(counts["region_R"]["count"]) >= 1
        assert counts["stirling"]["prefactor_degree"] == 3
        # exact count and its log agree
        assert math.log2(int(counts["region_S"]["count"])) == pytest.approx(
            counts["region_S"]["log2_count"], rel=1e-12
        )

    def test_bad_eps_is_error(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--eps", "0.2")
        assert code == 1 and "error" in err

    @pytest.fixture
    def no_counting(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("counted before the checks")

        for name in ("binomial_tail_count", "log2_binomial_tail", "multinomial_region_count"):
            monkeypatch.setattr(bounds, name, refuse)

    def test_eps_domain_checked_before_counting(self, capsys, no_counting):
        code, _, err = run_cli(capsys, "bounds", "--n", "1000", "--eps", "0.05")
        assert_one_line_error(code, err)
        assert "eps 0.05 outside the bound's validity range" in err

    def test_cost_estimate_refuses_before_counting(self, capsys, no_counting):
        code, _, err = run_cli(capsys, "bounds", "--n", "10000000")
        assert_one_line_error(code, err)
        assert "estimated counting cost" in err

    def test_large_n_within_the_cost_limit(self, capsys, schema):
        payload = run_json(capsys, schema, "bounds", "--n", "200000", "--eps", "0.005")
        counts = payload["counts"]
        assert counts["binomial_tail"]["count"] is None
        assert counts["binomial_tail"]["log2_count"] < 200000
        # a single global max with exp underflows here; per-row maxima do not
        assert counts["region_S"]["method"] == "lgamma"
        assert 0.9965 < counts["region_S"]["log2_count"] / 200000 < 1.0

    def test_tail_log2_switches_at_the_exact_limit(self, capsys, schema):
        limit = bounds.EXACT_COUNT_MAX_N
        for n in (limit, limit + 2):
            tail = run_json(capsys, schema, "bounds", "--n", str(n))["counts"]["binomial_tail"]
            assert (tail["count"] is None) == (n > limit)
            assert tail["log2_count"] == pytest.approx(
                math.log2(bounds.binomial_tail_count(n, 0.005)), rel=1e-12
            )

    def test_huge_n_is_one_line_error(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--n", str(10**400))
        assert_one_line_error(code, err)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.one_of(
            st.integers(min_value=-10, max_value=10**6),
            st.integers(min_value=-5, max_value=5 * 10**5).map(lambda k: 2 * k),
        ),
        eps=st.one_of(
            st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -0.01]),
            st.floats(min_value=-0.01, max_value=0.03),
            st.floats(allow_nan=True, allow_infinity=True),
        ),
    )
    def test_fuzz_exit_zero_with_schema_or_one_line_error(self, schema, n, eps):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["bounds", f"--n={n}", f"--eps={eps!r}"])
        out, err = out.getvalue(), err.getvalue()
        if code == 0:
            jsonschema.validate(json.loads(out), schema)
        else:
            assert_one_line_error(code, err)


class TestSimulate:
    def test_deterministic(self, capsys):
        args = ("simulate", "--p", "101", "--steps", "10", "--trials", "5000", "--seed", "3")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_schema_and_histogram(self, capsys, schema):
        payload = run_json(
            capsys, schema, "simulate", "--p", "101", "--steps", "10",
            "--trials", "5000", "--seed", "3",
        )
        assert sum(payload["histogram"].values()) == 5000
        assert payload["distinct_endpoints"] == len(payload["histogram"])

    def test_few_steps_leave_large_tvd(self, capsys, schema):
        # after 3 steps only 15 residues are reachable
        payload = run_json(
            capsys, schema, "simulate", "--p", "101", "--steps", "3",
            "--trials", "100000", "--seed", "1",
        )
        assert payload["distinct_endpoints"] <= 15
        assert payload["tvd_estimate"] >= 0.8

    def test_mixed_chain_small_tvd(self, capsys, schema):
        payload = run_json(
            capsys, schema, "simulate", "--p", "101", "--steps", "50",
            "--trials", "1000000", "--seed", "1",
        )
        assert payload["tvd_estimate"] <= 0.05

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--p", "11", "--steps", "8", "--trials", "1000",
            "--seed", "0", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# p=11")
        assert any(line.startswith("# tvd_estimate=") for line in lines)
        assert "residue,count" in lines

    @pytest.mark.parametrize("steps", ["0", "1", "9"])
    def test_histogram_text_matches_dumped_dict(self, capsys, steps):
        # the histogram is written from arrays; the text must equal the dump of the dict
        args = ("simulate", "--p", "10007", "--steps", steps, "--trials", "3000", "--seed", "5")
        _, out, _ = run_cli(capsys, *args)
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2) + "\n"
        _, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
        rows = csv_out.splitlines()
        assert rows[rows.index("residue,count") + 1:] == [
            f"{r},{c}" for r, c in payload["histogram"].items()]
        assert csv_out.endswith("\n")

    @pytest.mark.parametrize("dist, q", [("1/3,1/3,1/3", None),
                                         ("1/6,1/2,1/3", (1 / 6, 1 / 2, 1 / 3))],
                             ids=["uniform", "sixth_half_third"])
    @pytest.mark.parametrize("steps", [0, 1, 61, 62, 63, 130])
    @pytest.mark.parametrize("p", [3, 1000003, 2**55 - 55, 2**61 - 1])
    def test_histogram_matches_python_integer_oracle(self, capsys, monkeypatch, p, steps,
                                                     dist, q):
        # the walk reduces mod p only before int64 could overflow; the oracle reduces
        # Python integers on every step, and 2^61 - 1 is the largest accepted prime.
        # It draws one step at a time, 2^55 - 55 seven and the others ten.
        # Blocks of 7 split the 300 trials into 43 tallies to merge: at p = 3 every
        # block's residues collide with the others', at 2^61 - 1 (steps >= 61) none do.
        args = ("simulate", f"--p={p}", f"--steps={steps}", "--trials=300", "--seed=23",
                f"--dist={dist}")
        for block in (process.SIMULATE_BLOCK, 7):
            monkeypatch.setattr(process, "SIMULATE_BLOCK", block)
            expected = simulate_endpoints(p, steps, 300, 23, q, block)
            _, out, _ = run_cli(capsys, *args)
            payload = json.loads(out)
            assert [(int(r), c) for r, c in payload["histogram"].items()] == list(expected.items())
            assert payload["distinct_endpoints"] == len(expected)
            _, csv_out, _ = run_cli(capsys, *args, "--format=csv")
            rows = csv_out.splitlines()
            assert rows[rows.index("residue,count") + 1:] == [
                f"{r},{c}" for r, c in expected.items()]

    @pytest.mark.parametrize("steps", ["0", "1", "12"])
    def test_streamed_output_is_the_whole_text(self, capsys, monkeypatch, tmp_path, steps):
        # the histogram is written in pieces of 5 rows, every one through _emit's `text`,
        # and the text is the one a single piece gives
        args = ("simulate", "--p", "1009", "--steps", steps, "--trials", "400", "--seed", "8")
        whole = {fmt: run_cli(capsys, *args, f"--format={fmt}")[1] for fmt in ("json", "csv")}
        monkeypatch.setattr(cli, "_HISTOGRAM_PIECE", 5)
        emit, texts = cli._emit, []

        def spy(*args, **kwargs):
            text = inspect.signature(emit).bind(*args, **kwargs).arguments["text"]
            assert isinstance(text, str)
            texts.append(text)
            return emit(*args, **kwargs)

        monkeypatch.setattr(cli, "_emit", spy)
        for fmt in ("json", "csv"):
            texts.clear()
            code, out, _ = run_cli(capsys, *args, f"--format={fmt}")
            assert code == 0 and out == whole[fmt] and "".join(texts) == out
            if steps == "12":
                assert len(texts) > 10
            if fmt == "json":
                assert out == json.dumps(json.loads(out), indent=2) + "\n"
            path = tmp_path / f"histogram.{fmt}"
            path.write_text("stale text longer than nothing\n" * 1000)
            code, file_out, _ = run_cli(capsys, *args, f"--format={fmt}", f"--out={path}")
            assert code == 0 and file_out == ""
            assert path.read_bytes() == out.encode()

    def test_refused_run_creates_no_out_file(self, capsys, tmp_path):
        path = tmp_path / "histogram.json"
        code, out, err = run_cli(capsys, "simulate", "--p", "101", "--steps", "1000000000",
                                 "--trials", "1", f"--out={path}")
        assert_one_line_error(code, err)
        assert out == "" and not path.exists()

    def test_peak_memory_does_not_grow_with_trials(self, monkeypatch, tmp_path, heap_peak):
        # blocks of 2^14 trials at p = 1009: four blocks peak about where one does
        # (holding every trial at once, 4 x 2^14 trials peaked 1.3 MB above 2^14)
        monkeypatch.setattr(process, "SIMULATE_BLOCK", 1 << 14)

        def peak(trials):
            argv = ["simulate", "--p", "1009", "--steps", "30", "--trials", str(trials),
                    f"--out={tmp_path / 'histogram.json'}"]
            code, peak_bytes = heap_peak(main, argv)
            assert code == 0
            return peak_bytes

        peak(100)
        assert peak(4 << 14) <= peak(1 << 14) + (1 << 17)

    def test_tvd_makes_no_float_copy_of_the_counts(self, tmp_path, heap_peak):
        # the tvd divides the counts a block at a time, so the command peaks within
        # 2^19 B of its sampler; a float64 copy of the 632,000 counts peaked 1.4 MB above
        argv = ["simulate", "--p", "1000003", "--steps", "60", "--trials", "1000000",
                "--seed", "3", f"--out={tmp_path / 'histogram.json'}"]
        main(argv[:5] + ["--trials", "10", argv[-1]])
        code, peak = heap_peak(main, argv)
        assert code == 0
        _, sampler = heap_peak(process.sample_endpoints, process.ProcessParams(1000003), 60,
                               1000000, 3)
        assert peak <= sampler + (1 << 19)

    def test_histogram_writer_holds_one_piece(self, monkeypatch, heap_peak):
        # 632,000 JSON rows, about simulate's endpoints at p = 1000003 and 10^6 trials:
        # each piece's text goes straight to _emit, so no two pieces are alive at once
        # (holding a piece's text past its _emit call peaked at 4.21 MB)
        residues = np.arange(632_000, dtype=np.int64) * 1000003 // 632_000
        counts = np.arange(632_000, dtype=np.int64) % 5 + 1
        written = []
        monkeypatch.setattr(cli, "_emit", lambda text, out, append=False: written.append(len(text)))
        args = ("{\n", '    "%d": %d,\n', '    "%d": %d\n  }\n}\n', residues, counts, None)
        _, peak = heap_peak(cli._emit_histogram, *args)
        assert len(written) == 2 + math.ceil(631_999 / cli._HISTOGRAM_PIECE)
        assert peak <= 3_500_000


class TestEmit:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        ("evolve", "--p", "101", "--steps", "6"),
        ("scan", "--primes", "3,101"),
        ("stats", "--mode", "exhaustive", "--n", "6"),
        ("stats", "--mode", "mc", "--n", "8", "--trials", "30", "--seed", "2"),
    ], ids=lambda a: "-".join(a[:1] + a[2:3]))
    def test_table_output_goes_through_emit(self, capsys, monkeypatch, argv, fmt):
        # every byte these commands write passes through _emit's `text`, in either format
        emit, texts = cli._emit, []

        def spy(*args, **kwargs):
            texts.append(inspect.signature(emit).bind(*args, **kwargs).arguments["text"])
            return emit(*args, **kwargs)

        monkeypatch.setattr(cli, "_emit", spy)
        code, out, err = run_cli(capsys, *argv, f"--format={fmt}")
        assert code == 0, err
        assert texts and "".join(texts) == out
        if fmt == "json":
            assert json.loads(out)["command"] == argv[0]
        else:
            assert out.count("\n") > 1 and not out.startswith("{")


class TestCostLimits:
    @pytest.fixture
    def no_work(self, monkeypatch):
        """Primality tests, random draws and distribution steps raise."""
        def refuse(*args, **kwargs):
            raise AssertionError("work began")

        monkeypatch.setattr(cli, "is_prime", refuse)
        monkeypatch.setattr(process.np.random, "default_rng", refuse)
        monkeypatch.setattr(distribution, "_apply_step", refuse)

    @pytest.mark.parametrize("argv, what", [
        (("simulate", "--p", "101", "--steps", "1000000000", "--trials", "1"), "simulate"),
        (("scan", "--p-min", "3", "--p-max", "1000000000"), "scan"),
        (("scan", "--primes", "101", "--steps", "1000000000", "--dist", "0,1,0"), "scan"),
        (("scan", "--primes", "3,5,9", "--steps", "10000000000"), "scan"),
        # listing the candidates is charged even when no step is evolved
        (("scan", "--p-min", "3", "--p-max", "1000000000000", "--steps", "0"), "scan"),
        (("evolve", "--p", "67108859", "--steps", "100000"), "evolve"),
        # each candidate is charged at its own p: 3..22468 is the widest range from 3
        (("scan", "--p-min", "3", "--p-max", "22469"), "scan"),
    ])
    def test_refused_before_any_work(self, capsys, no_work, argv, what):
        code, out, err = run_cli(capsys, *argv)
        assert_one_line_error(code, err)
        assert f"estimated {what} cost" in err and out == ""

    @pytest.mark.parametrize("argv", [
        # the benchmark's sizes, and a default-cap scan at the dense-vector guard
        ("scan", "--primes", "4194301"),
        ("evolve", "--p", "4194301", "--steps", "45"),
        ("simulate", "--p", "1000003", "--steps", "60", "--trials", "1000000"),
        ("scan", "--primes", "67108859"),
        ("scan", "--p-min", "3", "--p-max", "10000"),
        ("scan", "--p-min", "3", "--p-max", "20000"),
        ("scan", "--p-min", "3", "--p-max", "22468"),
    ])
    def test_large_inputs_pass_the_check(self, capsys, no_work, argv):
        with pytest.raises(AssertionError, match="work began"):
            run_cli(capsys, *argv)

    @pytest.mark.parametrize("limit, argv, cost", [
        ("MAX_EVOLVE_COST", ("evolve", "--p", "11", "--steps", "{}"), lambda k: k * 11),
        ("MAX_SCAN_COST", ("scan", "--primes", "101", "--steps", "{}"),
         lambda k: (k + 1) * (101 + cli._STEP_UNITS)),
        ("MAX_SCAN_COST", ("scan", "--p-min", "3", "--p-max", "31", "--steps", "{}"),
         lambda k: 15 * (k + 1) * ((3 + 31) // 2 + cli._STEP_UNITS)),
        ("MAX_SIMULATE_COST", ("simulate", "--p", "11", "--steps", "{}", "--trials", "7"),
         lambda k: (k + cli._TRIAL_UNITS) * (7 + cli._STEP_UNITS)),
    ])
    def test_limit_is_inclusive(self, capsys, monkeypatch, limit, argv, cost):
        monkeypatch.setattr(cli, limit, cost(4))
        code, _, err = run_cli(capsys, *(a.format(4) for a in argv))
        assert code == 0, err
        code, _, err = run_cli(capsys, *(a.format(5) for a in argv))
        assert_one_line_error(code, err)
        assert "cost" in err


def mostly(common, *rare):
    """`common` in about three draws of four, else one of `rare`."""
    return st.one_of(common, common, common, st.one_of(*rare))


class TestArgvFuzz:
    """Any argv exits 0 with valid output or exits 1 with one `error:` line."""

    HEADERS = {"evolve": "step,tvd,entropy_bits,support,typical99", "scan": "p,log2_p,",
               "simulate": "# p="}

    def check(self, schema, argv):
        code, out, err = run_captured(*argv)
        if code != 0:
            assert_one_line_error(code, err)
        elif "--format" in argv and argv[argv.index("--format") + 1] == "csv":
            assert out.startswith(self.HEADERS[argv[0]]), out[:80]
        else:
            jsonschema.validate(json.loads(out), schema)

    odd = st.integers(min_value=1, max_value=5000).map(lambda k: 2 * k + 1)
    raw = st.integers(min_value=-5, max_value=10**4)
    dists = mostly(st.sampled_from(["1/3,1/3,1/3", "0.2,0.5,0.3", "0,1,0", "1,0,0"]),
                   st.sampled_from(["0.5,0.6,-0.1", "1,2", "x,0,1"]))
    formats = st.sampled_from(["csv", "json"])
    negative = st.integers(min_value=-5, max_value=-1)

    @settings(max_examples=40, deadline=None)
    @given(
        p=mostly(odd, raw, st.integers(min_value=2**26 + 1, max_value=2**40)),
        steps=mostly(st.integers(min_value=0, max_value=200), negative,
                     st.integers(min_value=129, max_value=MAX_TRACE_STEPS),
                     st.integers(min_value=MAX_TRACE_STEPS + 1, max_value=10**12)),
        dist=dists,
        fmt=formats,
    )
    def test_evolve(self, schema, p, steps, dist, fmt):
        if p <= 2**26 and steps <= MAX_TRACE_STEPS:
            steps = min(steps, 200)  # keep the accepted runs small
        self.check(schema, ["evolve", "--p", str(p), "--steps", str(steps), "--dist", dist,
                            "--format", fmt])

    @settings(max_examples=40, deadline=None)
    @given(
        moduli=st.one_of(
            st.lists(mostly(odd, raw, st.integers(min_value=2**26 + 1, max_value=2**40)),
                     min_size=1, max_size=3).map(lambda ps: ["--primes", ",".join(map(str, ps))]),
            st.tuples(st.integers(min_value=-5, max_value=2000),
                      mostly(st.integers(min_value=-5, max_value=2000),
                             st.integers(min_value=10**6, max_value=10**12)))
            .map(lambda r: [f"--p-min={r[0]}", f"--p-max={r[1]}"]),
        ),
        steps=mostly(st.one_of(st.none(), st.integers(min_value=0, max_value=200)), negative,
                     st.integers(min_value=10**8, max_value=10**12)),
        composite=st.booleans(),
        dist=dists,
        fmt=formats,
    )
    def test_scan(self, schema, moduli, steps, composite, dist, fmt):
        argv = ["scan", *moduli, "--dist", dist, "--format", fmt]
        argv += [] if steps is None else [f"--steps={steps}"]
        argv += ["--allow-composite"] if composite else []
        self.check(schema, argv)

    @settings(max_examples=40, deadline=None)
    @given(
        p=mostly(odd, raw, st.integers(min_value=2**61 - 3, max_value=2**70)),
        steps=mostly(st.integers(min_value=0, max_value=200), negative,
                     st.integers(min_value=10**9, max_value=10**15)),
        trials=mostly(st.integers(min_value=1, max_value=5000),
                      st.integers(min_value=-5, max_value=0),
                      st.integers(min_value=10**9, max_value=10**15)),
        dist=dists,
        fmt=formats,
    )
    def test_simulate(self, schema, p, steps, trials, dist, fmt):
        self.check(schema, ["simulate", f"--p={p}", f"--steps={steps}", f"--trials={trials}",
                            "--dist", dist, "--format", fmt])

    @settings(max_examples=40, deadline=None)
    @given(digits=st.text(alphabet="+-01 x", max_size=60))
    def test_canon(self, schema, digits):
        self.check(schema, ["canon", "--", digits])


class TestInputContract:
    @pytest.mark.parametrize("dist", ["1/0,0,1", "0/0,0,1", "nan,0,1", "1/nan,0,1", "inf,0,1"])
    @pytest.mark.parametrize("command", [
        ("evolve", "--p", "11", "--steps", "2"),
        ("scan", "--primes", "11"),
        ("simulate", "--p", "11", "--steps", "2", "--trials", "10"),
    ])
    def test_bad_dist_is_one_line_error(self, capsys, command, dist):
        code, _, err = run_cli(capsys, *command, "--dist", dist, "--format", "json")
        assert_one_line_error(code, err)

    @pytest.mark.parametrize("argv, line", [
        (("evolve", "--p", "4", "--steps", "1"), "modulus 4 is even"),
        (("evolve", "--p", "1", "--steps", "1"), "modulus 1 is below 3"),
        (("evolve", "--p", "11", "--steps", "2", "--dist", "0.5,0.5,0.5"),
         "probabilities (0.5, 0.5, 0.5) sum to 1.5, not 1"),
        (("canon", "+x"), "invalid digit character 'x'"),
        (("evolve", "--p", "67108865", "--steps", "1"),
         "modulus 67108865 exceeds guard 67108864; use `cdg simulate` above it"),
        (("bounds", "--eps", "0.2"), "eps 0.2 outside (0, 0.1)"),
        (("bounds", "--n", "2"), "no integer j satisfies the range for n=2, eps=0.005"),
        (("bounds", "--n", "20", "--eps", "1e-300"),
         "CountRegion(kind='S', n=20, eps=1e-300) contains no integer tuple"),
        (("stats", "--mode", "exhaustive", "--n", "15"), "length 15 exceeds exhaustive bound 14"),
        (("stats", "--mode", "mc", "--n", "20", "--trials", "10", "--seed", "-1"),
         "seed -1 is negative"),
        (("simulate", "--p", "11", "--steps", "2", "--trials", "10", "--seed", "-1"),
         "seed -1 is negative"),
        (("scan", "--primes", ""), "--primes entry '' is not an integer"),
    ])
    def test_refusal_line_is_pinned(self, argv, line):
        # one input for each library refusal the CLI can reach: exit 1, this line, no output
        assert run_captured(*argv) == (1, "", f"error: {line}\n")

    def test_simulate_negative_steps_is_error(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--p", "101", "--steps", "-5", "--trials", "10"
        )
        assert_one_line_error(code, err)
        assert out == ""

    def test_memory_error_is_one_line_error(self, capsys, monkeypatch):
        def exhausted(args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli, "cmd_simulate", exhausted)
        code, out, err = run_cli(
            capsys, "simulate", "--p", "3", "--steps", "1", "--trials", "10"
        )
        assert_one_line_error(code, err)
        assert "Unable to allocate" in err and out == ""

    @pytest.mark.parametrize("argv", [
        ("bounds", "--n", "100", "--eps", "-1e-05"),
        ("simulate", "--p", "101", "--steps", "5", "--trials", "-1e3"),
        ("no-such-command",),
        ("simulate", "--steps", "5", "--trials", "10"),
    ])
    def test_argument_error_is_one_line_error(self, argv):
        code, out, err = run_captured(*argv)
        assert_one_line_error(code, err)
        assert out == ""

    @pytest.mark.parametrize("argv", [("--help",), ("stats", "--help")])
    def test_help_exits_zero(self, argv):
        code, out, err = run_captured(*argv)
        assert code == 0 and out.startswith("usage: cdg") and err == ""

    def test_json_refuses_nan(self, capsys):
        with pytest.raises(ValueError):
            _emit_json({"tvd": float("nan")}, None)
        assert capsys.readouterr().out == ""


class TestEntryPoint:
    def test_package_import_loads_no_submodule(self):
        src = str(Path(cdgproc.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, cdgproc; "
             "print(sorted(m for m in sys.modules if m.startswith('cdgproc.')), "
             "cdgproc.__version__)"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
        )
        assert proc.stdout == "[] 0.1.0\n"

    def test_cli_import_loads_no_package_beyond_numpy(self):
        # start-up stays lean: every subcommand pays for what cdgproc.cli imports
        src = str(Path(cdgproc.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, numpy; before = set(sys.modules); import cdgproc.cli; "
             "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
             " - {'cdgproc', 'numpy'} - set(sys.stdlib_module_names)))"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
        )
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize("module", [bounds, canonical, cli, distribution, process, stats],
                             ids=lambda m: m.__name__)
    def test_all_names_exist_once(self, module):
        # a removal that leaves its name in __all__ fails here
        names = module.__all__
        assert len(names) == len(set(names))
        assert [n for n in names if not hasattr(module, n)] == []

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cdgproc.cli", "canon", "+--"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["canonical"] == "00+"

    def test_parser_lists_all_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for name in ("evolve", "scan", "canon", "stats", "bounds", "simulate"):
            assert name in text


class TestReadme:
    """The README's Command line, Output formats and Library sections keep up with the code."""

    @staticmethod
    def section(title):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]

    def test_examples_parse(self):
        block = self.section("Command line").split("```sh\n", 1)[1].split("```", 1)[0]
        examples = [shlex.split(line)[1:] for line in block.splitlines()
                    if line.startswith("cdg ")]
        assert len(examples) >= 6
        for argv in examples:
            build_parser().parse_args(argv)  # an unknown flag exits 1

    def test_named_flags_exist(self):
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        options = {flag for sp in subparsers.choices.values()
                   for flag in sp._option_string_actions}
        for title in ("Command line", "Output formats"):
            named = set(re.findall(r"--[a-z][a-z-]*", self.section(title)))
            assert named and named <= options, named - options

    def test_library_names_exist(self):
        # a bare name or a call in a `cdgproc.<mod>` bullet must be public in that module;
        # the paragraph after the bullet list is not read
        modules = {m.__name__: m for m in (bounds, canonical, cli, distribution, process, stats)}
        allowed = {"SeedSequence", "mass", "bincount"} | {m.split(".")[1] for m in modules}
        listing = next(par for par in self.section("Library").split("\n\n")
                       if par.startswith("- "))
        bullets = listing[2:].split("\n- ")
        assert len(bullets) == 5
        for bullet in bullets:
            module = modules[re.match(r"`(cdgproc\.\w+)`", bullet).group(1)]
            names = {m.group(1) for token in re.findall(r"`([^`]+)`", bullet)
                     if (m := re.fullmatch(r"([A-Za-z_]\w*)(?:\(.*\))?", token, re.S))}
            missing = names - set(module.__all__) - allowed
            assert not missing, (module.__name__, missing)
