"""Self-tests of the benchmark: the checker catches corrupted outputs, and every
workload runs clean at toy sizes, timed and traced.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import NAMES, invocations  # noqa: E402


@pytest.fixture(scope="module")
def checker():
    return checks.Checker(checks.load_schema(run.ROOT), checks.load_reference())


def toy(workload: str, command: str):
    return next(i for i in invocations(workload, seed=5, toy=True) if i.command == command)


def output(inv) -> dict:
    code, out, err = tracing.run_inprocess(inv.argv)
    assert code == 0, err
    return json.loads(out)


def failed_share(checker, inv, cases) -> float:
    """error_rate of a pass whose invocations printed `cases` (exit code, text)."""
    outcomes = [run.Outcome(inv.metric, 1.0, 1.0, checker.problems(inv, code, text))
                for code, text in cases]
    return run.tally(outcomes)[2]


def test_clean_outputs_pass(checker):
    for name in NAMES:
        for inv in invocations(name, seed=11, toy=True):
            assert checker.problems(inv, 0, json.dumps(output(inv))) == [], inv.argv


def test_changed_scan_crossing_fails(checker):
    inv = toy("exact-walk", "scan")
    good = output(inv)
    bad = json.loads(json.dumps(good))
    bad["rows"][0]["cross_050"] += 1
    assert any("cross_050" in p for p in checker.problems(inv, 0, json.dumps(bad)))
    assert failed_share(checker, inv, [(0, json.dumps(good)), (0, json.dumps(bad))]) == 0.5


def test_rising_tvd_fails(checker):
    inv = toy("exact-walk", "evolve")
    bad = output(inv)
    bad["trace"][6]["tvd"] = bad["trace"][5]["tvd"] + 1e-6
    assert any("tvd rises at step 6" in p for p in checker.problems(inv, 0, json.dumps(bad)))
    assert failed_share(checker, inv, [(0, json.dumps(bad))]) == 1.0


def test_schema_invalid_payload_fails(checker):
    inv = toy("exact-walk", "evolve")
    bad = output(inv)
    bad["trace"][3]["support"] = -1
    assert checker.problems(inv, 0, json.dumps(bad))[0].startswith("schema:")
    assert failed_share(checker, inv, [(0, json.dumps(bad))]) == 1.0


def test_bare_nan_fails(checker):
    inv = toy("exact-walk", "evolve")
    bad = output(inv)
    bad["trace"][2]["entropy_bits"] = float("nan")
    text = json.dumps(bad)
    assert "NaN" in text
    assert checker.problems(inv, 0, text)[0].startswith("invalid JSON")
    assert failed_share(checker, inv, [(0, text)]) == 1.0


def test_exit_code_one_fails(checker):
    inv = toy("counting", "bounds")
    text = json.dumps(output(inv))
    assert checker.problems(inv, 1, text) == ["exit code 1"]
    assert failed_share(checker, inv, [(1, text), (0, text), (0, text), (0, text)]) == 0.25


def test_value_checks_of_other_commands(checker):
    inv = toy("counting", "bounds")
    bad = output(inv)
    digits = bad["counts"]["region_S"]["count"]
    bad["counts"]["region_S"]["count"] = digits[:-1] + str((int(digits[-1]) + 1) % 10)
    assert checker.problems(inv, 0, json.dumps(bad))

    inv = toy("many-short", "stats")
    bad = output(inv)
    bad["cells"]["raw(1,1)|canon(0,0)|odd"]["count"] += 1
    assert any("structural-zero" in p for p in checker.problems(inv, 0, json.dumps(bad)))

    inv = toy("many-short", "simulate")
    bad = output(inv)
    key = next(iter(bad["histogram"]))
    bad["histogram"][key] += 1
    assert any("sum to trials" in p for p in checker.problems(inv, 0, json.dumps(bad)))


def test_bad_histogram_entry_fails_the_schema(checker):
    inv = toy("many-short", "simulate")
    for key, value in (("12a", 1), ("7", 0), ("7", 1.0)):
        bad = output(inv)
        bad["histogram"].pop(next(iter(bad["histogram"])))
        bad["histogram"][key] = value
        assert checker.problems(inv, 0, json.dumps(bad))[0].startswith("schema:"), (key, value)


def test_simulate_band_contains_poisson_mean():
    lo, hi = checks.simulate_tvd_band(1000003, 1000000)
    assert lo < 0.3679 < hi and hi - lo < 0.02


@pytest.mark.parametrize("workload", NAMES)
def test_toy_workload_timed(workload):
    result = run.measure(workload, seed=7, seconds=0, trace=False, toy=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(invocations(workload, 7, toy=True))
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_toy_workloads_traced():
    seen = {}
    for workload in NAMES:
        result = run.measure(workload, seed=9, seconds=0, trace=True, toy=True)
        assert result["correct"], workload
        assert set(result["metrics"]) == set(tracing.LAYER_METRICS)
        for name, metric in result["metrics"].items():
            seen[name] = max(seen.get(name, 0.0), metric["value"])

        spans = [json.loads(line) for line in
                 (run.TRACES / f"{workload}-seed9.jsonl").read_text().splitlines()]
        roots = [s for s in spans if s["parent"] is None]
        assert {s["name"] for s in roots} == {"cli.main"}
        assert len(roots) == len(invocations(workload, 9, toy=True))
        for root in roots:
            own = sum(s["self"] for s in spans
                      if s["invocation"] == root["invocation"] and s["pass"] == root["pass"])
            assert own == pytest.approx(root["end"] - root["start"], abs=1e-9)

    # every layer metric is exercised by some workload (no MC draw at n >= 20 is all-zero,
    # and the overhead estimate may have either sign)
    idle = [n for n, v in seen.items() if v <= 0
            and n not in ("stats.discarded_all_zero", "trace.overhead_s")]
    assert idle == []


def test_traced_run_unsets_worker_threads(monkeypatch):
    # threads under the single-threaded Tracer would give spans the wrong parents
    monkeypatch.setenv("CDG_THREADS", "2")
    result = run.measure("few-long", seed=3, seconds=0, trace=True, toy=True)
    assert result["correct"] and "CDG_THREADS" not in os.environ
    spans = [json.loads(line) for line in
             (run.TRACES / "few-long-seed3.jsonl").read_text().splitlines()]
    root = next(s for s in spans if s["parent"] is None)
    assert sum(s["self"] for s in spans) == pytest.approx(root["end"] - root["start"], abs=1e-9)


def test_benchmark_json_matches_the_harness():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == \
        tracing.LAYER_METRICS
