"""Command line interface: evolve, scan, canon, stats, bounds, simulate.

Every subcommand is deterministic given its full flag set (including --seed),
writes data to stdout (or --out) and diagnostics to stderr, and exits 0 only
on success.  CSV floats have 12 significant digits; JSON, from `_json_text`,
has every integer in full and validates against schemas/cli_output.schema.json.
`_emit_table` is the one --format switch of `evolve`, `scan` and `stats`;
`simulate` streams its histogram in either format.  Commands return nothing:
every failure raises, and `main` turns it into exit 1 with one `error:` line.
This module holds argument handling, cost checks and output only: `simulate`
samples through process.sample_endpoints, the library's one chain sampler, and
`scan` asks distribution.first_crossings for the exact walk's first crossings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from . import bounds as bounds_mod
from . import distribution as dist_mod
from .canonical import SequenceClass, canonicalize, classify, decompose_blocks
from .process import (
    IncrementDistribution,
    ProcessParams,
    format_digits,
    is_prime,
    parse_digits,
    sample_endpoints,
    value_of,
)
from .stats import exhaustive_expectations, monte_carlo_frequencies

__all__ = ["build_parser", "main", "run"]

#: tvd thresholds whose first crossing the scan subcommand records
SCAN_THRESHOLDS = (0.75, 0.5, 0.25, 0.05)
_SCAN_COLUMNS = ("p", "log2_p", "cross_075", "cross_050", "cross_025", "cross_005",
                 *(f"pred_{s}" for s in bounds_mod.SELECTORS))

#: evolve keeps every trace row and the whole output text in memory, about 1.5 KB a step
MAX_TRACE_STEPS = 100_000

#: simulate writes its histogram in pieces of this many rows
_HISTOGRAM_PIECE = 1 << 15

# Cost limits, checked before any work.  At the slowest rates measured on a 2-core
# Xeon VM (31, 15 and 18 ns a unit; simulate's slowest is a non-uniform law near
# p = 2^61, where a draw is one step) the largest accepted input runs about 4 minutes.
#: evolve refuses steps x p above this
MAX_EVOLVE_COST = 1 << 33
#: scan refuses the sum of _scan_cost over its moduli above this
MAX_SCAN_COST = 1 << 34
#: simulate refuses (steps + _TRIAL_UNITS) x (trials + _STEP_UNITS) above this
MAX_SIMULATE_COST = 1 << 33
#: fixed costs: a step in residues (scan) or trials (simulate), a trial's output in steps
_STEP_UNITS = 1000
_TRIAL_UNITS = 64

def _fmt(x: float) -> str:
    return "%.12g" % x


def _parse_dist(text: str) -> IncrementDistribution:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--dist needs three comma separated values, got {text!r}")
    vals = []
    for part in parts:
        part = part.strip()
        if "/" in part:
            num, den = part.split("/", 1)
            if float(den) == 0.0:
                raise ValueError(f"--dist value {part!r} divides by zero")
            vals.append(float(num) / float(den))
        else:
            vals.append(float(part))
    return IncrementDistribution(*vals)


def _emit(text: str, out: str | None, append: bool = False) -> None:
    if out:
        with open(out, "a" if append else "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj: dict) -> str:
    """obj as JSON with indent 2, refusing NaN, and with every integer in full.

    Python's int-to-text cap (3.11 on) is lifted while encoding only.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return json.dumps(obj, indent=2, allow_nan=False)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _emit_json(obj: dict, out: str | None) -> None:
    _emit(_json_text(obj) + "\n", out)


def _csv(columns, rows) -> str:
    """A header plus one line per row dict: None is an empty cell, floats use _fmt."""
    def cell(v):
        return "" if v is None else _fmt(v) if isinstance(v, float) else str(v)

    lines = [",".join(columns)] + [",".join(cell(row[c]) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def _emit_table(args, columns, rows, payload: dict) -> None:
    """The rows as CSV under `columns`, or the payload as JSON, as --format asks."""
    if args.format == "csv":
        _emit(_csv(columns, rows), args.out)
    else:
        _emit_json(payload, args.out)


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _check_cost(what: str, cost: int, limit: int, advice: str) -> None:
    if cost > limit:
        raise ValueError(f"estimated {what} cost {cost} exceeds the limit {limit}; {advice}")


# ----------------------------------------------------------------- evolve

def cmd_evolve(args) -> None:
    if args.steps > MAX_TRACE_STEPS:
        raise ValueError(f"step count {args.steps} exceeds the trace limit {MAX_TRACE_STEPS}")
    params = ProcessParams(args.p, _parse_dist(args.dist))
    _check_cost("evolve", args.steps * params.modulus, MAX_EVOLVE_COST, "reduce --steps or --p")
    rows = dist_mod.evolve_with_trace(params, args.steps, args.delta)
    trace = [r._asdict() for r in rows]
    payload = {
        "command": "evolve",
        "p": params.modulus,
        "steps": args.steps,
        "dist": list(params.increments.as_tuple()),
        "delta": args.delta,
        "trace": trace,
    }
    _emit_table(args, dist_mod.TraceRow._fields, trace, payload)


# ------------------------------------------------------------------- scan

def _scan_cap(p: int, steps: int | None) -> int:
    return steps if steps is not None else 4 * math.ceil(math.log2(p)) + 64


def _scan_cost(p: int, steps: int | None) -> int:
    """Residue-steps of one modulus, plus a fixed cost per step and per modulus."""
    return (_scan_cap(p, steps) + 1) * (p + _STEP_UNITS)


def _parse_modulus(entry: str) -> int:
    try:
        return int(entry)
    except ValueError:
        raise ValueError(f"--primes entry {entry!r} is not an integer") from None


def _scan_moduli(args) -> list[int]:
    """The moduli to scan; the cost, then the guard, are checked before any is tested.

    A range is refused when its largest odd candidate exceeds the guard.
    """
    if args.primes is not None:
        moduli = [ProcessParams(_parse_modulus(p)).modulus for p in args.primes.split(",")]
        cost, largest = sum(_scan_cost(p, args.steps) for p in moduli), max(moduli)
    elif args.p_min is None or args.p_max is None:
        raise ValueError("scan needs either --primes or both --p-min and --p-max")
    else:
        moduli = range(max(3, args.p_min) | 1, args.p_max + 1, 2)
        if not moduli:
            return []
        # each odd candidate p is charged (cap(p_max) + 1)(p + _STEP_UNITS); the
        # candidates are an arithmetic series, so their sum is count x mean
        largest = moduli[-1]
        mean = (moduli[0] + largest) // 2 + _STEP_UNITS
        cost = (_scan_cap(args.p_max, args.steps) + 1) * len(moduli) * mean
    _check_cost("scan", cost, MAX_SCAN_COST, "reduce the moduli or --steps")
    dist_mod.check_modulus(largest)
    if args.primes is None:
        return [p for p in moduli if args.allow_composite or is_prime(p)]
    kept = []
    for p in moduli:
        if not is_prime(p):
            _warn(f"NonPrimeInput: {p} is composite")
            if not args.allow_composite:
                _warn(f"skipping {p} (use --allow-composite to keep it)")
                continue
        kept.append(p)
    return kept


def _scan_row(p: int, dist: IncrementDistribution, cap: int | None) -> dict:
    crossings = dist_mod.first_crossings(ProcessParams(p, dist), SCAN_THRESHOLDS, _scan_cap(p, cap))
    preds = [bounds_mod.predict_threshold(p, s) for s in bounds_mod.SELECTORS]
    return dict(zip(_SCAN_COLUMNS, (p, math.log2(p), *crossings, *preds)))


def cmd_scan(args) -> None:
    if args.steps is not None and args.steps < 0:
        raise ValueError(f"step cap {args.steps} is negative")
    dist = _parse_dist(args.dist)
    rows = [_scan_row(p, dist, args.steps) for p in _scan_moduli(args)]
    _emit_table(args, _SCAN_COLUMNS, rows, {"command": "scan", "rows": rows})


# ------------------------------------------------------------------- canon

def cmd_canon(args) -> None:
    digits = parse_digits(args.digits)
    cls = classify(digits)
    text = format_digits(digits)
    payload = {
        "command": "canon",
        "input": text,
        "class": cls.value,
        "value": value_of(digits),
        "canonical": format_digits(canonicalize(digits)),
        "leading_zeros": None,
        "blocks": None,
        "start_positions": None,
        "last_block_partial": None,
        "block_source": None,
    }
    if cls is not SequenceClass.ALL_ZERO:
        source = digits if cls is SequenceClass.FIRST_ONE else -digits
        starts = decompose_blocks(source)
        # every block is a slice of the source's text, cut at the block starts
        source_text = text if cls is SequenceClass.FIRST_ONE else format_digits(source)
        cuts = [*starts, len(source_text)]
        payload.update(
            leading_zeros=starts[0],
            blocks=[source_text[s:e] for s, e in zip(cuts, cuts[1:])],
            start_positions=list(starts),
            last_block_partial=True,  # the string's end always cuts the last block
            block_source="input" if cls is SequenceClass.FIRST_ONE else "negated_input",
        )
    _emit_json(payload, args.out)


# ------------------------------------------------------------------- stats

def cmd_stats(args) -> None:
    if args.mode == "exhaustive":
        cls = SequenceClass(args.cls)
        report = exhaustive_expectations(args.n, cls)
    else:
        report = monte_carlo_frequencies(args.n, args.trials, args.seed)
    d = report.to_dict()
    rows = (dict(zip(("row", "col", "parity"), key.split("|")), **cell)
            for key, cell in d["cells"].items())
    seed = args.seed if args.mode == "mc" else None
    _emit_table(args, ("row", "col", "parity", "count", "frequency", "stderr"), rows,
                {"command": "stats", "seed": seed, **d})


# ------------------------------------------------------------------ bounds

def cmd_bounds(args) -> None:
    payload: dict = {
        "command": "bounds",
        "constants": asdict(bounds_mod.compute_constants()),
        "c2": {"eps": args.eps, "value": bounds_mod.c2_of_eps(args.eps)},
    }
    if args.n is not None:
        n, eps = args.n, args.eps
        # every cheap check runs before anything is counted
        stirling = bounds_mod.stirling_upper_bound(n, eps)
        cost = bounds_mod.count_cost(n, eps)
        _check_cost("counting", cost, bounds_mod.MAX_COUNT_COST, "reduce --n or --eps")
        if n <= bounds_mod.EXACT_COUNT_MAX_N:
            tail = bounds_mod.binomial_tail_count(n, eps)
            tail_block = {"count": str(tail), "log2_count": math.log2(tail)}
        else:
            tail_block = {"count": None, "log2_count": bounds_mod.log2_binomial_tail(n, eps)}
        regions = {
            kind: bounds_mod.multinomial_region_count(bounds_mod.CountRegion(kind, n, eps))
            for kind in "RS"
        }
        payload["counts"] = {
            "n": n,
            "eps": eps,
            "binomial_tail": tail_block,
            **{
                f"region_{kind}": {**asdict(r), "count": None if r.count is None else str(r.count)}
                for kind, r in regions.items()
            },
            "stirling": asdict(stirling),
        }
    _emit_json(payload, args.out)


# ---------------------------------------------------------------- simulate

def _emit_histogram(head: str, row: str, last: str, residues, counts, out: str | None) -> None:
    """head, then every entry but the last as `row` in pieces of _HISTOGRAM_PIECE, then `last`.

    A piece is one % format over its interleaved (residue, count) pairs.
    """
    _emit(head, out)
    end = len(residues) - 1
    for lo in range(0, end, _HISTOGRAM_PIECE):
        hi = min(lo + _HISTOGRAM_PIECE, end)
        pairs = [None] * (2 * (hi - lo))
        pairs[::2], pairs[1::2] = residues[lo:hi].tolist(), counts[lo:hi].tolist()
        _emit(row * (hi - lo) % tuple(pairs), out, append=True)
    _emit(last % (residues[end], counts[end]), out, append=True)


def cmd_simulate(args) -> None:
    params = ProcessParams(args.p, _parse_dist(args.dist))
    p = params.modulus
    cost = (args.steps + _TRIAL_UNITS) * (args.trials + _STEP_UNITS)
    _check_cost("simulate", cost, MAX_SIMULATE_COST, "reduce --trials or --steps")
    residues, counts = sample_endpoints(params, args.steps, args.trials, args.seed)
    # plug-in estimate: visited residues contribute |c/T - 1/p|, the rest 1/p each
    tvd = dist_mod.tvd_uniform(counts, p, total=args.trials)
    bias_note = (
        "plug-in TVD is biased upward by roughly sqrt(p/(2*pi*trials)) "
        "when trials is not much larger than p"
    )
    # the histogram rows are written in pieces straight from the arrays: a dict of
    # every endpoint, or the whole text at once, would set the peak memory
    if args.format == "csv":
        lines = [
            f"# p={p} steps={args.steps} trials={args.trials} seed={args.seed}",
            f"# tvd_estimate={_fmt(float(tvd))}",
            f"# {bias_note}",
            "residue,count\n",
        ]
        _emit_histogram("\n".join(lines), "%d,%d\n", "%d,%d\n", residues, counts, args.out)
    else:
        head = _json_text({
            "command": "simulate",
            "p": p,
            "steps": args.steps,
            "trials": args.trials,
            "seed": args.seed,
            "dist": list(params.increments.as_tuple()),
            "tvd_estimate": float(tvd),
            "bias_note": bias_note,
            "distinct_endpoints": len(residues),
            "histogram": {},
        })
        # head ends with the empty histogram '{}' and the closing '\n}'
        _emit_histogram(f"{head[:-4]}{{\n", '    "%d": %d,\n', '    "%d": %d\n  }\n}\n',
                        residues, counts, args.out)


# ------------------------------------------------------------------ parser

class _Parser(argparse.ArgumentParser):
    """Argument errors exit 1 with one `error:` line, like every other failure."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cdg",
        description="Doubling random walk x -> 2x+b (mod p): exact evolution, "
        "standard forms, pair statistics, bounds, and Monte Carlo simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, fmt_default):
        sp.add_argument("--format", choices=("csv", "json"), default=fmt_default)
        sp.add_argument("--out", default=None, help="write output to this path")

    sp = sub.add_parser("evolve", help="exact per-step trace of tvd/entropy/support")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--dist", default="1/3,1/3,1/3", help="q-1,q0,q1")
    sp.add_argument("--delta", type=float, default=0.01, help="typical-set tail mass")
    add_common(sp, "csv")
    sp.set_defaults(func=cmd_evolve)

    sp = sub.add_parser("scan", help="first tvd crossings vs predicted thresholds")
    sp.add_argument("--primes", default=None, help="comma separated moduli")
    sp.add_argument("--p-min", type=int, default=None)
    sp.add_argument("--p-max", type=int, default=None)
    sp.add_argument("--steps", type=int, default=None, help="cap on evolved steps")
    sp.add_argument("--dist", default="1/3,1/3,1/3")
    sp.add_argument("--allow-composite", action="store_true")
    add_common(sp, "csv")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("canon", help="standard form, class, value and blocks")
    sp.add_argument(
        "digits",
        help="compact digit text, e.g. 00+-0+0+-++ "
        "(prefix with -- when the string starts with '-')",
    )
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_canon)

    sp = sub.add_parser("stats", help="pair-table frequencies")
    sp.add_argument("--mode", choices=("exhaustive", "mc"), default="exhaustive")
    sp.add_argument("--n", type=int, default=12)
    sp.add_argument("--cls", choices=("first_one", "first_minus_one"),
                    default="first_one", help="conditioning class (exhaustive mode)")
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    add_common(sp, "json")
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("bounds", help="rate constants and counting bounds")
    sp.add_argument("--eps", type=float, default=0.005)
    sp.add_argument("--n", type=int, default=None, help="even length for the counts")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("simulate", help="Monte Carlo endpoint histogram")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--dist", default="1/3,1/3,1/3")
    add_common(sp, "json")
    sp.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
