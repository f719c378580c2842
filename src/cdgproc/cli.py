"""Command line interface: evolve, scan, canon, stats, bounds, simulate.

Every subcommand is deterministic given its full flag set (including --seed),
writes data to stdout (or --out) and diagnostics to stderr, and exits 0 only
on success.  CSV floats are printed with 12 significant digits; JSON output
validates against schemas/cli_output.schema.json shipped with the package.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import distribution as dist_mod
from .canonical import SequenceClass, canonicalize, decompose_blocks
from .process import (
    IncrementDistribution,
    ProcessParams,
    format_digits,
    parse_digits,
    value_of,
)
from .stats import exhaustive_expectations, monte_carlo_frequencies

__all__ = ["build_parser", "main", "run"]

#: tvd thresholds whose first crossing the scan subcommand records
SCAN_THRESHOLDS = (0.75, 0.5, 0.25, 0.05)
#: predict_threshold selectors of the scan's pred_* columns
_SCAN_SELECTORS = ("support", "c1_basic", "c1_refined", "c_hat")
_SCAN_COLUMNS = ("p", "log2_p", "cross_075", "cross_050", "cross_025", "cross_005",
                 *(f"pred_{s}" for s in _SCAN_SELECTORS))

#: evolve keeps every trace row and the whole output text in memory, about 1.5 KB a step
MAX_TRACE_STEPS = 100_000

#: moduli above this cannot be simulated with int64 arithmetic
SIMULATE_MAX_MODULUS = 1 << 61

# Cost limits, checked before any work.  At the slowest rates measured on a 2-core
# Xeon VM (31, 15 and 24 ns a unit) the largest accepted input runs about 4 minutes.
#: evolve refuses steps x p above this
MAX_EVOLVE_COST = 1 << 33
#: scan refuses the sum of _scan_cost over its moduli above this
MAX_SCAN_COST = 1 << 34
#: simulate refuses (steps + _TRIAL_UNITS) x (trials + _STEP_UNITS) above this
MAX_SIMULATE_COST = 1 << 33
#: fixed costs: a step in residues (scan) or trials (simulate), a trial's output in steps
_STEP_UNITS = 1000
_TRIAL_UNITS = 64

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(obj: dict, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2, allow_nan=False) + "\n", out)


def _csv(columns, rows) -> str:
    """A header plus one line per row dict: None is an empty cell, floats use _fmt."""
    def cell(v):
        return "" if v is None else _fmt(v) if isinstance(v, float) else str(v)

    lines = [",".join(columns)] + [",".join(cell(row[c]) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _check_cost(what: str, cost: int, limit: int, advice: str) -> None:
    if cost > limit:
        raise ValueError(f"estimated {what} cost {cost} exceeds the limit {limit}; {advice}")


# ----------------------------------------------------------------- evolve

_EVOLVE_COLUMNS = ("step", "tvd", "entropy_bits", "support", "typical99")


def cmd_evolve(args) -> int:
    if args.steps > MAX_TRACE_STEPS:
        raise ValueError(f"step count {args.steps} exceeds the trace limit {MAX_TRACE_STEPS}")
    params = ProcessParams(args.p, _parse_dist(args.dist))
    _check_cost("evolve", args.steps * params.modulus, MAX_EVOLVE_COST, "reduce --steps or --p")
    _, rows = dist_mod.evolve_with_trace(params, args.steps, args.delta, args.max_p_override)
    trace = [
        dict(zip(_EVOLVE_COLUMNS, (r.step, r.tvd, r.entropy_bits, r.support, r.typical)))
        for r in rows
    ]
    if args.format == "csv":
        _emit(_csv(_EVOLVE_COLUMNS, trace), args.out)
    else:
        _emit_json(
            {
                "command": "evolve",
                "p": params.modulus,
                "steps": args.steps,
                "dist": list(params.increments.as_tuple()),
                "delta": args.delta,
                "trace": trace,
            },
            args.out,
        )
    return 0


# ------------------------------------------------------------------- scan

def _scan_cap(p: int, steps: int | None) -> int:
    return steps if steps is not None else 4 * math.ceil(math.log2(p)) + 64


def _scan_cost(p: int, steps: int | None) -> int:
    """Residue-steps of one modulus, plus a fixed cost per step and per modulus."""
    return (_scan_cap(p, steps) + 1) * (p + _STEP_UNITS)


def _scan_moduli(args) -> list[int]:
    """The moduli to scan; the guard and the cost are checked before any is tested."""
    if args.primes:
        moduli = [int(p) for p in args.primes.split(",")]
        for p in moduli:
            if p < 3 or p % 2 == 0:
                raise ValueError(f"scan modulus {p} must be an odd integer >= 3")
            if p > args.max_p_override:
                raise dist_mod.ModulusTooLargeError(
                    f"modulus {p} exceeds guard {args.max_p_override}; "
                    "raise max_modulus to override"
                )
        cost = sum(_scan_cost(p, args.steps) for p in moduli)
    elif args.p_min is None or args.p_max is None:
        raise ValueError("scan needs either --primes or both --p-min and --p-max")
    else:
        moduli = range(max(3, args.p_min) | 1, args.p_max + 1, 2)
        # every odd candidate is charged as p_max, the largest
        count = max(0, (args.p_max - moduli.start) // 2 + 1)
        cost = count and count * _scan_cost(args.p_max, args.steps)
    _check_cost("scan", cost, MAX_SCAN_COST, "reduce the moduli or --steps")
    if not args.primes:
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


def _scan_row(p: int, dist: IncrementDistribution, max_p: int, cap: int | None) -> dict:
    params = ProcessParams(p, dist)
    limit = _scan_cap(p, cap)
    crossings: dict[float, int | None] = dict.fromkeys(SCAN_THRESHOLDS)
    for n, mass in dist_mod.iter_evolve(params, limit, max_p):
        if n == 0:  # the start is never a crossing
            continue
        tvd = dist_mod.tvd_uniform(mass, p)
        for t in SCAN_THRESHOLDS:
            if crossings[t] is None and tvd < t:
                crossings[t] = n
        if None not in crossings.values():
            break
    preds = [bounds_mod.predict_threshold(p, s) for s in _SCAN_SELECTORS]
    return dict(zip(_SCAN_COLUMNS, (p, math.log2(p), *crossings.values(), *preds)))


def cmd_scan(args) -> int:
    if args.steps is not None and args.steps < 0:
        raise ValueError(f"step cap {args.steps} is negative")
    dist = _parse_dist(args.dist)
    rows = [_scan_row(p, dist, args.max_p_override, args.steps) for p in _scan_moduli(args)]
    if args.format == "csv":
        _emit(_csv(_SCAN_COLUMNS, rows), args.out)
    else:
        _emit_json({"command": "scan", "rows": rows}, args.out)
    return 0


# ------------------------------------------------------------------- canon

def cmd_canon(args) -> int:
    digits = parse_digits(args.digits)
    form = canonicalize(digits)
    cls = form.sequence_class
    payload = {
        "command": "canon",
        "input": format_digits(digits),
        "class": cls.value,
        "value": value_of(digits),
        "canonical": format_digits(form.digits),
        "leading_zeros": None,
        "blocks": None,
        "start_positions": None,
        "last_block_partial": None,
        "block_source": None,
    }
    if cls is not SequenceClass.ALL_ZERO:
        source = digits if cls is SequenceClass.FIRST_ONE else -digits
        dec = decompose_blocks(source)
        payload.update(
            leading_zeros=dec.leading_zeros,
            blocks=[format_digits(b) for b in dec.blocks],
            start_positions=list(dec.start_positions),
            last_block_partial=dec.last_is_partial,
            block_source="input" if cls is SequenceClass.FIRST_ONE else "negated_input",
        )
    _emit_json(payload, args.out)
    return 0


# ------------------------------------------------------------------- stats

def cmd_stats(args) -> int:
    if args.mode == "exhaustive":
        cls = SequenceClass(args.cls)
        report = exhaustive_expectations(args.n, cls)
    else:
        report = monte_carlo_frequencies(args.n, args.trials, args.seed)
    d = report.to_dict()
    if args.format == "csv":
        rows = [dict(zip(("row", "col", "parity"), key.split("|")), **cell)
                for key, cell in d["cells"].items()]
        _emit(_csv(("row", "col", "parity", "count", "frequency", "stderr"), rows), args.out)
    else:
        seed = args.seed if args.mode == "mc" else None
        _emit_json({"command": "stats", "seed": seed, **d}, args.out)
    return 0


# ------------------------------------------------------------------ bounds

def cmd_bounds(args) -> int:
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
                f"region_{kind}": {
                    "count": None if r.count is None else str(r.count),
                    "log2_count": r.log2_count,
                    "method": r.method,
                }
                for kind, r in regions.items()
            },
            "stirling": asdict(stirling),
        }
    _emit_json(payload, args.out)
    return 0


# ---------------------------------------------------------------- simulate

def cmd_simulate(args) -> int:
    if args.trials < 1:
        raise ValueError(f"trial count {args.trials} must be at least 1")
    if args.steps < 0:
        raise ValueError(f"step count {args.steps} is negative")
    dist = _parse_dist(args.dist)
    p = ProcessParams(args.p, dist).modulus
    if p > SIMULATE_MAX_MODULUS:
        raise ValueError(f"modulus {p} exceeds the int64 simulation limit")
    cost = (args.steps + _TRIAL_UNITS) * (args.trials + _STEP_UNITS)
    _check_cost("simulate", cost, MAX_SIMULATE_COST, "reduce --trials or --steps")
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    x = np.zeros(args.trials, dtype=np.int64)
    support = np.array([-1, 0, 1], dtype=np.int64)
    probs = list(dist.as_tuple())
    for _ in range(args.steps):
        if dist.is_uniform_thirds:
            b = rng.integers(-1, 2, size=args.trials)
        else:
            b = rng.choice(support, size=args.trials, p=probs)
        x = (2 * x + b) % p
    residues, counts = np.unique(x, return_counts=True)
    # plug-in estimate: visited residues contribute |c/T - 1/p|, the rest 1/p each
    tvd = dist_mod.tvd_uniform(counts / args.trials, p)
    bias_note = (
        "plug-in TVD is biased upward by roughly sqrt(p/(2*pi*trials)) "
        "when trials is not much larger than p"
    )
    if args.format == "csv":
        lines = [
            f"# p={p} steps={args.steps} trials={args.trials} seed={args.seed}",
            f"# tvd_estimate={_fmt(float(tvd))}",
            f"# {bias_note}",
            "residue,count",
        ]
        lines += [f"{int(r)},{int(c)}" for r, c in zip(residues, counts)]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit_json(
            {
                "command": "simulate",
                "p": p,
                "steps": args.steps,
                "trials": args.trials,
                "seed": args.seed,
                "dist": probs,
                "tvd_estimate": float(tvd),
                "bias_note": bias_note,
                "distinct_endpoints": int(residues.size),
                "histogram": {str(int(r)): int(c) for r, c in zip(residues, counts)},
            },
            args.out,
        )
    return 0


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
    sp.add_argument("--max-p-override", type=int, default=dist_mod.DEFAULT_MAX_MODULUS)
    add_common(sp, "csv")
    sp.set_defaults(func=cmd_evolve)

    sp = sub.add_parser("scan", help="first tvd crossings vs predicted thresholds")
    sp.add_argument("--primes", default=None, help="comma separated moduli")
    sp.add_argument("--p-min", type=int, default=None)
    sp.add_argument("--p-max", type=int, default=None)
    sp.add_argument("--steps", type=int, default=None, help="cap on evolved steps")
    sp.add_argument("--dist", default="1/3,1/3,1/3")
    sp.add_argument("--allow-composite", action="store_true")
    sp.add_argument("--max-p-override", type=int, default=dist_mod.DEFAULT_MAX_MODULUS)
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
    sp.set_defaults(func=cmd_bounds, format="json")

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
        return args.func(args)
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
