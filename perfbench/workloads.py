"""The benchmark's workloads: which `cdg` invocations each one runs, and why.

Every invocation asks for `--format json` (bounds always prints JSON), so its
output can be validated against the package schema.  `S` below is the
workload seed given to the benchmark on its command line; it only reaches the
seeded Monte Carlo subcommands.  The toy sizes run the same subcommands in
well under a second each and exist for the benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    """One `python -m cdgproc.cli` call.  `metric` names its wall-time metric."""

    metric: str
    argv: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.argv[0]

    def flag(self, name: str) -> str:
        return self.argv[self.argv.index(name) + 1]


WHY = {
    "exact-walk": "scan and evolve at p=4194301 (32 MiB dense vectors, far above the 4 MiB L2): "
    "the exact step loop; evolve adds the tvd/entropy/support/typical functionals",
    "many-short": "MC stats on n=20 strings (per-trial substream setup), exhaustive n=14 "
    "(enumeration and pair tally) and simulate with 1e6 trials (draws and JSON output)",
    "few-long": "MC stats on 600 strings of n=100000: the canonicalizer's per-column sweep "
    "and the pair codes, in long rows rather than wide ones",
    "counting": "bounds at n=2000 (exact S-region triple loop) and n=20000 (exact binomial "
    "tail then the lgamma S-region meshgrid, the peak-memory case)",
}


def _sizes(toy: bool) -> dict:
    if toy:
        return dict(p_walk=10007, evolve_steps=30, short_n=20, short_trials=2000,
                    exhaustive_n=8, sim_p=1009, sim_steps=40, sim_trials=20000,
                    long_n=2000, long_trials=20, exact_n=200, large_n=2400)
    return dict(p_walk=4194301, evolve_steps=45, short_n=20, short_trials=200000,
                exhaustive_n=14, sim_p=1000003, sim_steps=60, sim_trials=1000000,
                long_n=100000, long_trials=600, exact_n=2000, large_n=20000)


def invocations(workload: str, seed: int, toy: bool = False) -> list[Invocation]:
    """The workload's invocations, in the order one pass runs them."""
    z = _sizes(toy)
    s = str(seed)
    table = {
        "exact-walk": [
            Invocation("scan_s", ("scan", "--primes", str(z["p_walk"]), "--format", "json")),
            Invocation("evolve_s", ("evolve", "--p", str(z["p_walk"]),
                                    "--steps", str(z["evolve_steps"]), "--format", "json")),
        ],
        "many-short": [
            Invocation("stats_mc_s", ("stats", "--mode", "mc", "--n", str(z["short_n"]),
                                      "--trials", str(z["short_trials"]), "--seed", s,
                                      "--format", "json")),
            Invocation("stats_exhaustive_s", ("stats", "--mode", "exhaustive",
                                              "--n", str(z["exhaustive_n"]), "--format", "json")),
            Invocation("simulate_s", ("simulate", "--p", str(z["sim_p"]),
                                      "--steps", str(z["sim_steps"]),
                                      "--trials", str(z["sim_trials"]), "--seed", s,
                                      "--format", "json")),
        ],
        "few-long": [
            Invocation("stats_mc_s", ("stats", "--mode", "mc", "--n", str(z["long_n"]),
                                      "--trials", str(z["long_trials"]), "--seed", s,
                                      "--format", "json")),
        ],
        "counting": [
            Invocation("bounds_exact_s", ("bounds", "--n", str(z["exact_n"]), "--eps", "0.02")),
            Invocation("bounds_large_s", ("bounds", "--n", str(z["large_n"]), "--eps", "0.005")),
        ],
    }
    return table[workload]


NAMES = tuple(WHY)
