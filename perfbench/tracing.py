"""Traced in-process runs: per-layer spans recorded from the benchmark's side.

Nothing under src/ knows about tracing.  For a traced run the benchmark
rebinds module-level names of the package to timing wrappers; the package's
call sites look those names up through their module globals, so the wrappers
see every call.  Each wrapped call becomes a span (name, start, end, parent
span, invocation id, counts).  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct
children.  Every invocation has one root span, `cli.main`, so the self times
of an invocation's spans add up to its in-process wall time.
"""

from __future__ import annotations

import inspect
import io
import math
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from time import perf_counter

#: bytes one exact step reads and writes per residue, computed from the array
#: sizes of `_apply_step` (float64 values, int64 gather index): gather 24,
#: scaled copy 16, and 56 for each rolled term (roll 16, scale 16, add 24)
STEP_BYTES_PER_RESIDUE = 152


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    invocation: int
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped calls; single-threaded by design."""

    def __init__(self):
        self.spans: list[Span] = []
        self.invocation = 0
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, counts=None):
        span = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                    self.invocation)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
        if counts is not None:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            span.counts = counts(bound.arguments, result)
        return result

    def wrap(self, name, fn, counts=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts)
        return traced

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def records(self) -> list[dict]:
        return [{**asdict(s), "self": t} for s, t in zip(self.spans, self.self_times())]


# ---------------------------------------------------------------- counts

def _tail_terms(a, _result) -> dict:
    # binomial_tail_count sums C(n, j) over ceil((0.4-eps)n) <= j <= floor((0.4+eps)n)
    n, eps = a["n"], a["eps"]
    lo = max(math.ceil((0.4 - eps) * n), 0)
    hi = min(math.floor((0.4 + eps) * n), n)
    return {"terms": max(hi - lo + 1, 0)}


def _region_counts(a, result) -> dict:
    # the S region pins l1..l3 to open intervals around (4, 5, 5)/36 * n; the
    # exact and lgamma paths both visit every (l1, l2, l3) of their product
    region = a["region"]
    tuples = 0
    if region.kind == "S":
        n, m, eps = region.n, region.n // 2, region.eps
        tuples = 1
        for center in (4 / 36, 5 / 36, 5 / 36):
            lo = max(math.floor((center - eps) * n) + 1, 0)
            hi = min(math.ceil((center + eps) * n) - 1, m)
            tuples *= max(hi - lo + 1, 0)
    return {"kind": region.kind, "method": result.method, "tuples": tuples}


def _patches(cli) -> list[tuple[str, str, str, object]]:
    """(module, attribute, span name, counts) for every wrapped call site."""
    table = [
        ("distribution", "_apply_step", "distribution.step",
         lambda a, r: {"residues": a["dist"].size}),
        ("distribution", "tvd_uniform", "distribution.tvd", None),
        ("distribution", "entropy_bits", "distribution.entropy", None),
        ("distribution", "support_size", "distribution.support", None),
        ("distribution", "typical_set_size", "distribution.typical", None),
        ("distribution", "evolve_with_trace", "distribution.evolve", None),
        ("stats", "_canonicalize_matrix", "canonical.sweep",
         lambda a, r: {"digits": a["mat"].size}),
        ("stats", "_pair_codes", "stats.pair_codes", None),
        ("stats", "_per_row_counts", "stats.row_counts", None),
        ("stats", "_digit_matrix", "stats.enumerate", None),
        # the CLI imported these two by name, so they are rebound where it looks them up
        ("cli", "monte_carlo_frequencies", "stats.mc",
         lambda a, r: {"requested": a["trials"], "used": r.trials}),
        ("cli", "exhaustive_expectations", "stats.exhaustive", None),
        ("bounds", "binomial_tail_count", "bounds.tail", _tail_terms),
        ("bounds", "multinomial_region_count", "bounds.region", _region_counts),
        ("cli", "_emit_json", "cli.emit_json", None),
        ("cli", "_emit", "cli.emit", lambda a, r: {"bytes": len(a["text"].encode())}),
    ]
    table += [("cli", name, "cli." + name, None)
              for name in vars(cli) if name.startswith("cmd_")]
    return table


@contextmanager
def installed(tracer: Tracer):
    """Rebind the package's layer entry points to tracer wrappers, then restore them."""
    from cdgproc import bounds, cli, distribution, stats

    modules = {"bounds": bounds, "cli": cli, "distribution": distribution, "stats": stats}
    saved = []
    try:
        for mod, attr, name, counts in _patches(cli):
            original = getattr(modules[mod], attr)
            saved.append((modules[mod], attr, original))
            setattr(modules[mod], attr, tracer.wrap(name, original, counts))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def run_inprocess(argv, tracer: Tracer | None = None) -> tuple[int, str, str]:
    """Run `cdgproc.cli.main(argv)` in this process: (exit code, stdout, stderr).

    With a tracer the call is the invocation's root span, `cli.main`.
    """
    from cdgproc import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if tracer is None:
                code = cli.main(list(argv))
            else:
                code = tracer.call("cli.main", cli.main, (list(argv),), {})
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed invocation, not a crashed run
            print(f"traceback: {type(exc).__name__}: {exc}", file=err)
            code = 1
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------- metrics

#: per-layer metric -> (unit, better); documented with their targets in baseline.json
LAYER_METRICS = {
    "distribution.step.calls": ("count", "lower"),
    "distribution.step.self_s": ("s", "lower"),
    "distribution.step.ns_per_residue": ("ns", "lower"),
    "distribution.step.bytes_computed": ("B", "lower"),
    "distribution.tvd.self_s": ("s", "lower"),
    "distribution.entropy.self_s": ("s", "lower"),
    "distribution.support.self_s": ("s", "lower"),
    "distribution.typical.self_s": ("s", "lower"),
    "distribution.evolve.self_s": ("s", "lower"),
    "canonical.sweep.self_s": ("s", "lower"),
    "canonical.sweep.digits": ("count", "lower"),
    "canonical.sweep.ns_per_digit": ("ns", "lower"),
    "stats.mc.self_s": ("s", "lower"),
    "stats.exhaustive.self_s": ("s", "lower"),
    "stats.pair_codes.self_s": ("s", "lower"),
    "stats.row_counts.self_s": ("s", "lower"),
    "stats.enumerate.self_s": ("s", "lower"),
    "stats.trials_requested": ("count", "lower"),
    "stats.trials_used": ("count", "higher"),
    "stats.discarded_all_zero": ("count", "lower"),
    "stats.useful_ratio": ("ratio", "higher"),
    "bounds.tail.self_s": ("s", "lower"),
    "bounds.tail.terms": ("count", "lower"),
    "bounds.region_S.exact.self_s": ("s", "lower"),
    "bounds.region_S.lgamma.self_s": ("s", "lower"),
    "bounds.region_S.tuples": ("count", "lower"),
    "bounds.region_R.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.simulate.self_s": ("s", "lower"),
    "cli.emit.self_s": ("s", "lower"),
    "cli.output_bytes": ("B", "lower"),
    "trace.inprocess_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals of one traced pass (every metric but trace.overhead_s)."""
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    region_s = {"exact": 0.0, "lgamma": 0.0}
    region_r = 0.0
    for span, t in zip(tracer.spans, tracer.self_times()):
        own[span.name] = own.get(span.name, 0.0) + t
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.counts.items():
            if isinstance(value, (int, float)):
                counts[f"{span.name}.{key}"] = counts.get(f"{span.name}.{key}", 0) + value
        if span.name == "bounds.region":
            if span.counts["kind"] == "S":
                region_s[span.counts["method"]] += t
            else:
                region_r += t

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    steps = calls.get("distribution.step", 0)
    residues = counts.get("distribution.step.residues", 0)
    digits = counts.get("canonical.sweep.digits", 0)
    requested = counts.get("stats.mc.requested", 0)
    used = counts.get("stats.mc.used", 0)
    cmd_self = sum(t for name, t in own.items()
                   if name.startswith("cli.cmd_") and name != "cli.cmd_simulate")
    return {
        "distribution.step.calls": steps,
        "distribution.step.self_s": own.get("distribution.step", 0.0),
        "distribution.step.ns_per_residue": ratio(own.get("distribution.step", 0.0), residues, 1e9),
        "distribution.step.bytes_computed": ratio(STEP_BYTES_PER_RESIDUE * residues, steps),
        "distribution.tvd.self_s": own.get("distribution.tvd", 0.0),
        "distribution.entropy.self_s": own.get("distribution.entropy", 0.0),
        "distribution.support.self_s": own.get("distribution.support", 0.0),
        "distribution.typical.self_s": own.get("distribution.typical", 0.0),
        "distribution.evolve.self_s": own.get("distribution.evolve", 0.0),
        "canonical.sweep.self_s": own.get("canonical.sweep", 0.0),
        "canonical.sweep.digits": digits,
        "canonical.sweep.ns_per_digit": ratio(own.get("canonical.sweep", 0.0), digits, 1e9),
        "stats.mc.self_s": own.get("stats.mc", 0.0),
        "stats.exhaustive.self_s": own.get("stats.exhaustive", 0.0),
        "stats.pair_codes.self_s": own.get("stats.pair_codes", 0.0),
        "stats.row_counts.self_s": own.get("stats.row_counts", 0.0),
        "stats.enumerate.self_s": own.get("stats.enumerate", 0.0),
        "stats.trials_requested": requested,
        "stats.trials_used": used,
        "stats.discarded_all_zero": requested - used,
        "stats.useful_ratio": ratio(used, requested),
        "bounds.tail.self_s": own.get("bounds.tail", 0.0),
        "bounds.tail.terms": counts.get("bounds.tail.terms", 0),
        "bounds.region_S.exact.self_s": region_s["exact"],
        "bounds.region_S.lgamma.self_s": region_s["lgamma"],
        "bounds.region_S.tuples": counts.get("bounds.region.tuples", 0),
        "bounds.region_R.self_s": region_r,
        "cli.main.self_s": own.get("cli.main", 0.0) + cmd_self,
        "cli.simulate.self_s": own.get("cli.cmd_simulate", 0.0),
        "cli.emit.self_s": own.get("cli.emit_json", 0.0) + own.get("cli.emit", 0.0),
        "cli.output_bytes": counts.get("cli.emit.bytes", 0),
        "trace.inprocess_s": sum(s.duration for s in tracer.spans if s.name == "cli.main"),
    }
