import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdgproc
from cdgproc import bounds, cli, distribution, stats
from cdgproc.cli import MAX_TRACE_STEPS, _emit_json, build_parser, is_prime, main


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
        code, _, err = run_cli(capsys, "evolve", "--p", str(2**26 + 1), "--steps", "1")
        assert code == 1 and "error" in err

    def test_memory_guard_override(self, capsys):
        code, _, err = run_cli(
            capsys, "evolve", "--p", "101", "--steps", "1", "--max-p-override", "99"
        )
        assert code == 1 and "error" in err
        code, out, _ = run_cli(
            capsys, "evolve", "--p", "101", "--steps", "1", "--max-p-override", "101"
        )
        assert code == 0 and len(out.strip().splitlines()) == 3

    @pytest.mark.parametrize("command", [("evolve", "--p", "101", "--steps", "1"),
                                         ("scan", "--primes", "101")])
    def test_memory_guard_override_zero_is_honoured(self, capsys, command):
        code, _, err = run_cli(capsys, *command, "--max-p-override", "0")
        assert_one_line_error(code, err)
        assert "exceeds guard 0" in err

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


class TestCostLimits:
    @pytest.fixture
    def no_work(self, monkeypatch):
        """Primality tests, random draws and distribution steps raise."""
        def refuse(*args, **kwargs):
            raise AssertionError("work began")

        monkeypatch.setattr(cli, "is_prime", refuse)
        monkeypatch.setattr(cli.np.random, "default_rng", refuse)
        monkeypatch.setattr(distribution, "_apply_step", refuse)

    @pytest.mark.parametrize("argv, what", [
        (("simulate", "--p", "101", "--steps", "1000000000", "--trials", "1"), "simulate"),
        (("scan", "--p-min", "3", "--p-max", "1000000000"), "scan"),
        (("scan", "--primes", "101", "--steps", "1000000000", "--dist", "0,1,0"), "scan"),
        (("scan", "--primes", "3,5,9", "--steps", "10000000000"), "scan"),
        # listing the candidates is charged even when no step is evolved
        (("scan", "--p-min", "3", "--p-max", "1000000000000", "--steps", "0"), "scan"),
        (("evolve", "--p", "67108859", "--steps", "100000"), "evolve"),
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
    ])
    def test_large_inputs_pass_the_check(self, capsys, no_work, argv):
        with pytest.raises(AssertionError, match="work began"):
            run_cli(capsys, *argv)

    @pytest.mark.parametrize("limit, argv, cost", [
        ("MAX_EVOLVE_COST", ("evolve", "--p", "11", "--steps", "{}"), lambda k: k * 11),
        ("MAX_SCAN_COST", ("scan", "--primes", "101", "--steps", "{}"),
         lambda k: (k + 1) * (101 + cli._STEP_UNITS)),
        ("MAX_SCAN_COST", ("scan", "--p-min", "3", "--p-max", "31", "--steps", "{}"),
         lambda k: 15 * (k + 1) * (31 + cli._STEP_UNITS)),
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
