"""The names the benchmark's tracer rebinds still exist in the package.

perfbench/tracing.py wraps module-level names of cdgproc for its traced runs;
a refactor that renames one fails here in seconds rather than only in the
traced benchmark run.  A traced scan and a traced exhaustive count check
that their calls still go through those names.
"""

import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

from cdgproc import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

PATCHES = [(mod, attr) for mod, attr, _, _ in tracing._patches(cli)]


@pytest.mark.parametrize("mod, attr", PATCHES, ids=[f"{m}.{a}" for m, a in PATCHES])
def test_rebound_name_exists(mod, attr):
    assert callable(getattr(importlib.import_module(f"cdgproc.{mod}"), attr))


def test_step_span_reads_dist():
    # the distribution.step span counts residues from the argument named dist
    from cdgproc import distribution

    assert "dist" in inspect.signature(distribution._apply_step).parameters


def test_scan_spans_follow_every_step():
    # scan's only tvd calls are first_crossings', one after each evolved step k >= 1:
    # a call that bypassed the module global would drop out of this sequence
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        code, out, err = tracing.run_inprocess(["scan", "--primes", "10007", "--format", "json"],
                                               tracer)
    assert code == 0, err
    row = json.loads(out)["rows"][0]
    last = max(row[c] for c in ("cross_075", "cross_050", "cross_025", "cross_005"))
    walk = [s.name for s in tracer.spans if s.name in ("distribution.step", "distribution.tvd")]
    assert walk == ["distribution.step", "distribution.tvd"] * last


def test_exhaustive_spans_sweep_the_windows_once():
    # the exact count builds, sweeps and indexes its 27 windows once, through the
    # module globals of stats, whatever the length
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        code, out, err = tracing.run_inprocess(
            ["stats", "--mode", "exhaustive", "--n", "8", "--format", "json"], tracer)
    assert code == 0, err
    assert json.loads(out)["trials"] == (3**8 - 1) // 2
    names = [s.name for s in tracer.spans]
    for name in ("stats.enumerate", "canonical.sweep", "stats.pair_codes"):
        assert names.count(name) == 1, name
    sweep, = (s for s in tracer.spans if s.name == "canonical.sweep")
    assert sweep.counts["digits"] == 27 * 4


def test_evolve_spans_follow_every_row():
    # evolve's functionals read each trace row through the module globals of distribution
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        code, out, err = tracing.run_inprocess(
            ["evolve", "--p", "10007", "--steps", "20", "--format", "json"], tracer)
    assert code == 0, err
    rows = len(json.loads(out)["trace"])
    assert rows == 21
    names = [s.name for s in tracer.spans]
    for name in ("tvd", "entropy", "support", "typical"):
        assert names.count(f"distribution.{name}") == rows, name
