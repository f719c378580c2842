"""The names the benchmark's tracer rebinds still exist in the package.

perfbench/tracing.py wraps module-level names of cdgproc for its traced runs;
a refactor that renames one fails here in seconds rather than only in the
traced benchmark run.
"""

import importlib
import inspect
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
