"""Benchmark of the `cdg` command line: end-to-end timed runs and a traced run.

    python3 perfbench/run.py --workload exact-walk --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 1

Run it from anywhere; it benchmarks the package under `src/` of the checkout
that holds this file.  A workload is a fixed sequence of
`python -m cdgproc.cli ...` invocations (see workloads.py), run one at a time
from this process: a closed loop with one client.  CDG_THREADS is removed
from this process's environment, so the package uses one worker both in the
children and in the in-process traced passes.

--trace 0 measures, with tracing off, `setup_s` (median wall time of a fresh
interpreter importing cdgproc.cli, taken SETUP_REPEATS times) and then
repeats passes over the workload while the next pass fits in --seconds (at
least one; a slow host gets fewer passes, not a longer run).  Each invocation's wall time and its own peak RSS
(os.wait4 on its pid) are recorded and its output is checked (checks.py).
An invocation's time is the median over its passes and `wall_s` is the sum
of those medians.  `peak_rss_mb` is the largest over invocations of each
one's lowest peak RSS over passes (one invocation's peak RSS can differ by
16 MB between otherwise identical runs).

--trace 1 runs in-process passes of `cdgproc.cli.main`, alternating untraced
passes with traced ones that have the package's layer entry points wrapped
(tracing.py).  It reports per-layer metrics (medians over traced passes) and
the tracing overhead: the median in-process time of the traced passes minus
that of the untraced ones.  Spans are written to .perfbench_traces/ when the
run ends.

Human-readable lines (every metric by name and unit, the sample count and
the error rate) come first; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  Exit code 2 means the
benchmark could not run at all (for example, no package source).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACES = ROOT / ".perfbench_traces"

SETUP_REPEATS = 5
#: a run kills whatever it is still waiting for after this many seconds
HARD_LIMIT_S = 170.0

#: end-to-end metrics reported by every --trace 0 run: name -> unit
END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class Terminated(BaseException):
    """SIGTERM arrived; unwinds through the running child's cleanup."""


def _terminate(signum, frame):
    raise Terminated


@dataclass
class Outcome:
    metric: str
    wall_s: float
    rss_mb: float
    problems: list[str]


class Runner:
    """Spawns invocations from one workload run and checks their outputs."""

    def __init__(self, checker, started: float):
        self.checker = checker
        self.started = started
        self.work = WORK / str(os.getpid())
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def spawn(self, args: list[str]) -> tuple[int, float, float, Path, Path]:
        """Run `python args...`: exit code, wall seconds, peak RSS (MB), stdout, stderr."""
        self.work.mkdir(parents=True, exist_ok=True)
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            remaining = max(HARD_LIMIT_S - (t0 - self.started), 1.0)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, out_path, err_path

    def setup_s(self) -> float:
        code, wall, _, _, err = self.spawn(["-c", "import cdgproc.cli"])
        if code != 0:
            raise RuntimeError(f"importing cdgproc.cli failed: {err.read_text()[-500:]}")
        return wall

    def timed_pass(self, invs) -> list[Outcome]:
        outcomes = []
        for inv in invs:
            code, wall, rss, out, err = self.spawn(["-m", "cdgproc.cli", *inv.argv])
            problems = self.checker.problems(inv, code, out.read_text(errors="replace"))
            if code != 0:
                problems.append(err.read_text(errors="replace").strip()[-300:])
            outcomes.append(Outcome(inv.metric, wall, rss, problems))
        return outcomes

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _passes_left(started: float, seconds: float, done: int, last: float) -> bool:
    """Whether another pass, as long as the last one, still fits in the run."""
    elapsed = perf_counter() - started
    return done == 0 or elapsed + last <= min(seconds, HARD_LIMIT_S - 10)


def _report(lines: list[str], name: str, value: float, unit: str, note: str = "") -> dict:
    lines.append(f"{name:<36} {value:>14.6g} {unit:<6} {note}".rstrip())
    return {"value": value, "unit": unit}


def _result(lines: list[str], outcomes: list[Outcome], metrics: dict) -> dict:
    """Report the error rate and every failure, and build the result object."""
    attempted, failed, error_rate = tally(outcomes)
    _report(lines, "error_rate", error_rate, "ratio", f"{failed} of {attempted} invocations failed")
    lines += [f"FAILED {o.metric}: {'; '.join(o.problems)}" for o in outcomes if o.problems]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def measure(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """One benchmark run of a workload; returns the result object (see module doc)."""
    started = perf_counter()
    # one worker everywhere: the children inherit this environment, and the traced
    # passes run cli.main here, whose worker threads would break the Tracer's span stack
    os.environ.pop("CDG_THREADS", None)
    checker = checks.Checker(checks.load_schema(ROOT), checks.load_reference())
    invs = workloads.invocations(workload, seed, toy)
    runner = Runner(checker, started)
    lines = [f"workload {workload} seed {seed}: {workloads.WHY[workload]}"]
    try:
        if trace:
            result = _traced(runner, invs, workload, seed, seconds, started, lines)
        else:
            result = _timed(runner, invs, seconds, started, lines)
    finally:
        runner.close()
    print("\n".join(lines))
    return result


def tally(outcomes: list[Outcome]) -> tuple[int, int, float]:
    """(attempted, failed, error_rate) over invocation outcomes."""
    failed = sum(1 for o in outcomes if o.problems)
    return len(outcomes), failed, failed / len(outcomes)


def _timed(runner, invs, seconds, started, lines) -> dict:
    setup = statistics.median(runner.setup_s() for _ in range(SETUP_REPEATS))
    passes: list[list[Outcome]] = []
    last = 0.0
    while _passes_left(started, seconds, len(passes), last):
        t0 = perf_counter()
        passes.append(runner.timed_pass(invs))
        last = perf_counter() - t0
        lines.append(f"pass {len(passes)}: " + " ".join(
            f"{o.metric}={o.wall_s:.4f}s/{o.rss_mb:.1f}MB" for o in passes[-1]))
    times = [statistics.median(p[i].wall_s for p in passes) for i in range(len(invs))]
    leanest = [min(p[i].rss_mb for p in passes) for i in range(len(invs))]
    note = f"median of {len(passes)} passes"
    metrics = {
        "wall_s": _report(lines, "wall_s", sum(times), END_TO_END["wall_s"],
                          f"sum of each invocation's {note}"),
        "peak_rss_mb": _report(lines, "peak_rss_mb", max(leanest), END_TO_END["peak_rss_mb"],
                               f"largest invocation, each its lowest of {len(passes)} passes"),
        "setup_s": _report(lines, "setup_s", setup, END_TO_END["setup_s"],
                           f"median of {SETUP_REPEATS}"),
    }
    for inv, t in zip(invs, times):
        _report(lines, inv.metric, t, "s", note)
    return _result(lines, [o for p in passes for o in p], metrics)


def _traced(runner, invs, workload, seed, seconds, started, lines) -> dict:
    import cdgproc

    if not Path(cdgproc.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {cdgproc.__file__}, not the package under {SRC}")

    outcomes: list[Outcome] = []
    untraced_s: list[float] = []
    traced_s: list[float] = []
    per_pass: list[dict] = []
    spans: list[dict] = []
    last = 0.0
    while _passes_left(started, seconds, len(per_pass), last):
        t0 = perf_counter()
        untraced_s.append(_inprocess_pass(runner, invs, None, outcomes))
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced_s.append(_inprocess_pass(runner, invs, tracer, outcomes))
        per_pass.append(tracing.layer_metrics(tracer))
        spans += [{"pass": len(per_pass) - 1, **r} for r in tracer.records()]
        last = perf_counter() - t0
    _write_spans(workload, seed, spans)
    values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    values["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    note = f"median of {len(per_pass)} traced passes (overhead: against as many untraced)"
    metrics = {name: _report(lines, name, values[name], unit, note)
               for name, (unit, _) in tracing.LAYER_METRICS.items()}
    return _result(lines, outcomes, metrics)


def _inprocess_pass(runner, invs, tracer, outcomes: list[Outcome]) -> float:
    """Run each invocation through cli.main in this process, traced when `tracer` is
    given, and check its output; returns the seconds spent inside cli.main."""
    inside = 0.0
    for i, inv in enumerate(invs):
        if tracer is not None:
            tracer.invocation = i
        t0 = perf_counter()
        code, out, err = tracing.run_inprocess(inv.argv, tracer)
        inside += perf_counter() - t0
        problems = runner.checker.problems(inv, code, out)
        if code != 0:
            problems.append(err.strip()[-300:])
        outcomes.append(Outcome(inv.metric, 0.0, 0.0, problems))
    return inside


def _write_spans(workload: str, seed: int, spans: list[dict]) -> None:
    TRACES.mkdir(exist_ok=True)
    with open(TRACES / f"{workload}-seed{seed}.jsonl", "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: timed end-to-end metrics; 1: traced per-layer metrics "
                        "(--workload all does both)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    if not (SRC / "cdgproc" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'cdgproc'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        # every workload, timed and then traced, so one command prints every metric
        results = {(name, trace): measure(name, args.seed, args.seconds, trace)
                   for name in workloads.NAMES for trace in (False, True)}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for (name, _), r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(128 + signal.SIGTERM)
