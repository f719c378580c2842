"""Write perfbench/reference.json: the deterministic outputs the checks compare against.

    python3 perfbench/make_reference.py

It runs every deterministic invocation of the workloads (full and toy sizes)
in-process and stores scan crossings, evolve traces, exhaustive cell counts
and bounds counts, plus the pair-table limits.  The stored file was made from
the commit that introduced the benchmark, whose test suite (brute-force and
big-integer oracles included) passes.  Regenerating it from a later commit
accepts that commit's outputs as correct, so do it only together with an
explanation of why the reference values changed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import parse_strict, reference_key  # noqa: E402
from tracing import run_inprocess  # noqa: E402
from workloads import NAMES, invocations  # noqa: E402


def main() -> int:
    from cdgproc.canonical import COL_LABELS, ROW_LABELS, TABLE_LIMITS

    ref: dict = {
        "table_limits": {
            f"{r}|{c}": float(TABLE_LIMITS[i, j])
            for i, r in enumerate(ROW_LABELS) for j, c in enumerate(COL_LABELS)
        },
        "scan": {}, "evolve": {}, "exhaustive": {}, "bounds": {},
    }
    for toy in (True, False):
        for name in NAMES:
            for inv in invocations(name, seed=0, toy=toy):
                if inv.command == "simulate" or inv.argv[:3] == ("stats", "--mode", "mc"):
                    continue
                code, out, err = run_inprocess(inv.argv)
                if code != 0:
                    raise SystemExit(f"{' '.join(inv.argv)} failed: {err}")
                payload = parse_strict(out)
                key = reference_key(inv)
                if inv.command == "scan":
                    row = payload["rows"][0]
                    ref["scan"][key] = {k: v for k, v in row.items()
                                        if k.startswith(("cross_", "pred_"))}
                elif inv.command == "evolve":
                    ref["evolve"][key] = {
                        col: [r[col] for r in payload["trace"]]
                        for col in ("tvd", "entropy_bits", "typical99")
                    }
                elif inv.command == "stats":
                    ref["exhaustive"][key] = {
                        "trials": payload["trials"],
                        "counts": {k: c["count"] for k, c in payload["cells"].items()},
                    }
                else:
                    ref["bounds"][key] = {k: payload[k] for k in ("constants", "c2", "counts")}
                print(f"{' '.join(inv.argv)}: stored under {inv.command}/{key}", file=sys.stderr)
    with open(HERE / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
