"""Output checks run on every benchmark invocation.

An invocation fails when it exits non-zero, prints anything that is not
strict JSON (a bare NaN or Infinity counts as invalid), prints JSON that does
not validate against the package schema, or fails a value check:

- scan: crossings and predicted thresholds equal the stored reference;
- evolve: tvd non-increasing within 1e-12, support min(2^(k+1) - 1, p) at
  step k, and tvd/entropy/typical-set size within stated tolerances of the
  stored reference trace;
- stats: structural-zero cells are 0, cell counts sum to trials * (n - 1)
  and frequencies to (n - 1)/n; exhaustive counts equal the reference, and
  Monte Carlo frequencies lie within a statistical band of the limit table;
- simulate: counts sum to trials, the histogram agrees with distinct_endpoints
  and tvd_estimate, and tvd_estimate lies within a band of its expected value;
- bounds: big-integer counts equal the reference exactly, log2 counts and
  constants agree within stated tolerances.

Seeded outputs are checked statistically, never byte for byte, so that any
seed passes and the seed-to-stream mapping may change.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema

from workloads import Invocation

HERE = Path(__file__).resolve().parent

#: absolute tolerance for reference tvd and entropy values of evolve
TRACE_TOL = 1e-9
#: tvd may rise by at most this much between consecutive evolve steps
TVD_MONOTONE_TOL = 1e-12
#: relative tolerance for typical-set sizes (plus one residue)
TYPICAL_REL_TOL = 1e-6
#: absolute tolerance for log2 counts (the lgamma path is a float sum)
LOG2_TOL = 1e-6
#: relative tolerance for closed-form constants
CONST_REL_TOL = 1e-12
#: MC cell frequencies may differ from the limit table by BIAS/n + Z standard errors
STATS_BIAS = 0.5
STATS_Z = 6.0
#: simulate tvd_estimate band: expected value +- (SIM_ABS + SIM_Z * sd bound)
SIM_ABS = 0.005
SIM_Z = 8.0


def load_schema(root: Path) -> dict:
    with open(root / "src" / "cdgproc" / "schemas" / "cli_output.schema.json") as fh:
        return json.load(fh)


def load_reference() -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


def reference_key(inv: Invocation) -> str:
    """Key of an invocation's deterministic reference values."""
    if inv.command == "scan":
        return inv.flag("--primes")
    if inv.command == "evolve":
        return f"{inv.flag('--p')}x{inv.flag('--steps')}"
    if inv.command == "stats":
        return inv.flag("--n")
    if inv.command == "bounds":
        return f"{inv.flag('--n')}@{inv.flag('--eps')}"
    raise KeyError(inv.command)


def _reject_constant(name: str):
    raise ValueError(f"non-JSON constant {name}")


def parse_strict(text: str):
    return json.loads(text, parse_constant=_reject_constant)


class Checker:
    """Validates invocation outputs against the schema and the reference."""

    def __init__(self, schema: dict, reference: dict):
        self.validator = jsonschema.Draft202012Validator(schema)
        self.reference = reference

    def problems(self, inv: Invocation, returncode: int, stdout: str) -> list[str]:
        """Every reason the invocation counts as failed; empty when it passed."""
        if returncode != 0:
            return [f"exit code {returncode}"]
        try:
            payload = parse_strict(stdout)
        except ValueError as exc:
            return [f"invalid JSON: {exc}"]
        errors = self._schema_errors(payload)
        if errors:
            return errors
        if payload.get("command") != inv.command:
            return [f"command {payload.get('command')!r}, expected {inv.command!r}"]
        return getattr(self, "_check_" + inv.command)(inv, payload)

    def _schema_errors(self, payload) -> list[str]:
        # jsonschema takes seconds on simulate's large histogram, so its entries are
        # checked here with the schema's rules and the rest of the payload goes to jsonschema
        hist = payload.get("histogram") if isinstance(payload, dict) else None
        if isinstance(hist, dict):
            bad = [k for k, v in hist.items()
                   if not (k.isascii() and k.isdigit())
                   or type(v) is not int or v < 1]
            if bad:
                return [f"schema: histogram entry {bad[0]!r} is not a digit key with count >= 1"]
            payload = {**payload, "histogram": {}}
        return [f"schema: {e.message}" for e in self.validator.iter_errors(payload)][:3]

    # ------------------------------------------------------------ per command

    def _check_scan(self, inv: Invocation, out: dict) -> list[str]:
        ref = self.reference["scan"][reference_key(inv)]
        rows = out["rows"]
        if len(rows) != 1:
            return [f"scan: {len(rows)} rows, expected 1"]
        row = rows[0]
        errs = [f"scan: {k} = {row[k]}, reference {v}" for k, v in ref.items() if row[k] != v]
        if abs(row["log2_p"] - math.log2(row["p"])) > 1e-12:
            errs.append(f"scan: log2_p {row['log2_p']} is not log2({row['p']})")
        return errs

    def _check_evolve(self, inv: Invocation, out: dict) -> list[str]:
        p, steps = out["p"], int(inv.flag("--steps"))
        trace = out["trace"]
        if [r["step"] for r in trace] != list(range(steps + 1)):
            return [f"evolve: trace steps are not 0..{steps}"]
        ref = self.reference["evolve"][reference_key(inv)]
        errs = []
        for k, row in enumerate(trace):
            if k and row["tvd"] > trace[k - 1]["tvd"] + TVD_MONOTONE_TOL:
                errs.append(f"evolve: tvd rises at step {k}")
            if row["support"] != min(2 ** (k + 1) - 1, p):
                errs.append(f"evolve: support {row['support']} at step {k}")
            if abs(row["tvd"] - ref["tvd"][k]) > TRACE_TOL:
                errs.append(f"evolve: tvd {row['tvd']} at step {k}, reference {ref['tvd'][k]}")
            if abs(row["entropy_bits"] - ref["entropy_bits"][k]) > TRACE_TOL:
                errs.append(f"evolve: entropy {row['entropy_bits']} at step {k}")
            want = ref["typical99"][k]
            if abs(row["typical99"] - want) > 1 + TYPICAL_REL_TOL * want:
                errs.append(f"evolve: typical99 {row['typical99']} at step {k}, reference {want}")
        return errs[:5]

    def _check_stats(self, inv: Invocation, out: dict) -> list[str]:
        n = int(inv.flag("--n"))
        if out["n"] != n:
            return [f"stats: n = {out['n']}, expected {n}"]
        used = out["trials"]
        cells = out["cells"]
        errs = []
        if sum(c["count"] for c in cells.values()) != used * (n - 1):
            errs.append("stats: cell counts do not sum to trials * (n - 1)")
        total = sum(c["frequency"] for c in cells.values())
        if abs(total - (n - 1) / n) > 1e-9:
            errs.append(f"stats: frequencies sum to {total}, expected {(n - 1) / n}")
        limits = self.reference["table_limits"]
        for key, limit in limits.items():
            even, odd = cells[key + "|even"], cells[key + "|odd"]
            if limit == 0.0:
                if even["count"] or odd["count"]:
                    errs.append(f"stats: structural-zero cell {key} is not 0")
                continue
            spread = (even["stderr"] or 0.0) + (odd["stderr"] or 0.0)
            freq = even["frequency"] + odd["frequency"]
            if abs(freq - limit) > STATS_BIAS / n + STATS_Z * spread:
                errs.append(f"stats: {key} frequency {freq} is outside the band around {limit}")
        if out["mode"] == "exhaustive":
            ref = self.reference["exhaustive"][reference_key(inv)]
            if used != ref["trials"]:
                errs.append(f"stats: {used} strings, reference {ref['trials']}")
            for key, count in ref["counts"].items():
                if cells[key]["count"] != count:
                    errs.append(f"stats: {key} count {cells[key]['count']}, reference {count}")
        else:
            requested = int(inv.flag("--trials"))
            discarded = requested - used
            expected = requested * 3.0 ** (-n)
            if discarded < 0 or discarded > expected + 6 * math.sqrt(expected) + 1:
                errs.append(f"stats: {used} of {requested} trials used")
            if out["seed"] != int(inv.flag("--seed")):
                errs.append(f"stats: seed {out['seed']} was not echoed")
        return errs[:5]

    def _check_simulate(self, inv: Invocation, out: dict) -> list[str]:
        p, trials = out["p"], out["trials"]
        hist = out["histogram"]
        errs = []
        if trials != int(inv.flag("--trials")) or p != int(inv.flag("--p")):
            errs.append("simulate: p or trials differ from the request")
        if sum(hist.values()) != trials:
            errs.append("simulate: counts do not sum to trials")
        if len(hist) != out["distinct_endpoints"]:
            errs.append("simulate: distinct_endpoints differs from the histogram size")
        if any(int(r) >= p for r in hist):
            errs.append("simulate: residue outside [0, p)")
        plug_in = 0.5 * (sum(abs(c / trials - 1.0 / p) for c in hist.values())
                         + (p - len(hist)) / p)
        if abs(plug_in - out["tvd_estimate"]) > 1e-9:
            errs.append(f"simulate: tvd_estimate {out['tvd_estimate']} != histogram's {plug_in}")
        lo, hi = simulate_tvd_band(p, trials)
        if not lo <= out["tvd_estimate"] <= hi:
            errs.append(f"simulate: tvd_estimate {out['tvd_estimate']} outside [{lo}, {hi}]")
        return errs

    def _check_bounds(self, inv: Invocation, out: dict) -> list[str]:
        ref = self.reference["bounds"][reference_key(inv)]
        errs = []
        for key in ("constants", "c2"):
            for name, want in ref[key].items():
                if not math.isclose(out[key][name], want, rel_tol=CONST_REL_TOL):
                    errs.append(f"bounds: {key}.{name} = {out[key][name]}, reference {want}")
        counts = out.get("counts")
        if counts is None:
            return errs + ["bounds: no counts block"]
        for part in ("binomial_tail", "region_R", "region_S"):
            got, want = counts[part], ref["counts"][part]
            if got["count"] != want["count"]:
                errs.append(f"bounds: {part}.count differs from the reference")
            if abs(got["log2_count"] - want["log2_count"]) > LOG2_TOL:
                errs.append(f"bounds: {part}.log2_count {got['log2_count']}, "
                            f"reference {want['log2_count']}")
            if got.get("method") != want.get("method"):
                errs.append(f"bounds: {part}.method {got.get('method')}")
        st, want = counts["stirling"], ref["counts"]["stirling"]
        if st["prefactor_degree"] != want["prefactor_degree"] or not all(
            math.isclose(st[k], want[k], rel_tol=CONST_REL_TOL) for k in ("exponent", "log2_bound")
        ):
            errs.append("bounds: stirling bound differs from the reference")
        return errs


def simulate_tvd_band(p: int, trials: int) -> tuple[float, float]:
    """Band for the plug-in tvd of a well-mixed walk.

    With lam = trials / p draws per residue, each count is close to
    Poisson(lam), whose mean absolute deviation is 2 e^-lam lam^(k+1) / k!
    with k = floor(lam); the plug-in tvd then has mean e^-lam lam^k / k!.
    Its standard deviation is at most sqrt(p * lam) / (2 * trials).
    """
    lam = trials / p
    k = math.floor(lam)
    mean = math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))
    half = SIM_ABS + SIM_Z * math.sqrt(p * lam) / (2 * trials)
    return mean - half, mean + half
