"""Time in-process simplex solves of the toy instance over a ladder of
scenario counts.

    python scripts/ladder.py [--sizes 16,32,64,128]

For each scenario count S the bundled price history is reduced to S
scenarios (k-means seed 7, as in the benchmark) and three models are built:
risk-neutral, CVaR (alpha 0.25, lambda 0.2) and per-scenario robust
(epsilon 1).  Each LP is solved once from scratch, and one line per case
gives the LP's columns x rows, the simplex iterations, those of them made
in the dual phase, the wall seconds of the solve alone, the microseconds
per iteration, the number of basis refactorizations and, over those
refactorizations, the largest structural kernel k, the most peel levels
and the most spike columns.

NumPy is the only dependency.  The script is not part of the package; it
imports it from the checkout's src/, and the toy case from tests/helpers.py.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import toy_case  # noqa: E402

from spothedge import simplex  # noqa: E402
from spothedge.formulations import (CVAR, DRO, PER_SCENARIO,  # noqa: E402
                                    RISK_NEUTRAL, FormulationConfig, build)

HEADER = ("S", "kind", "cols x rows", "status", "iters", "dual_its", "solve_s",
          "us_per_it", "refactors", "max_k", "levels", "spikes")


def configs(q):
    return {"rn": FormulationConfig(kind=RISK_NEUTRAL),
            "cvar": FormulationConfig(kind=CVAR, alpha=0.25, lam=0.2),
            "dro": FormulationConfig(kind=DRO, epsilon=1.0, q_matrix=q,
                                     dro_penalty=PER_SCENARIO)}


def timed_solve(lp):
    """(solution, dual-phase iterations, seconds,
    [(k, levels, spikes) per refactorization])."""
    factored = []
    dual_its = 0
    peel, dual_phase = simplex._peel, simplex._dual_phase

    def recording_peel(rows, cols, k):
        row_order, col_order, starts = peel(rows, cols, k)
        factored.append((k, len(starts) - 1, k - starts[-1]))
        return row_order, col_order, starts

    def recording_dual_phase(state, c):
        nonlocal dual_its
        status, iterations = dual_phase(state, c)
        dual_its += iterations
        return status, iterations

    simplex._peel, simplex._dual_phase = recording_peel, recording_dual_phase
    try:
        start = time.perf_counter()
        solution = simplex.solve(lp)
        seconds = time.perf_counter() - start
    finally:
        simplex._peel, simplex._dual_phase = peel, dual_phase
    return solution, dual_its, seconds, factored


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="16,32,64,128",
                        help="comma-separated scenario counts (default 16,32,64,128)")
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]

    print("{:>4} {:<5} {:>12} {:<8} {:>6} {:>8} {:>8} {:>9} {:>9} {:>6} {:>6} {:>6}"
          .format(*HEADER))
    for size in sizes:
        instance, scenarios, q = toy_case(size)
        for kind, config in configs(q).items():
            lp, _vm = build(instance, scenarios, config)
            solution, dual_its, seconds, factored = timed_solve(lp)
            k, levels, spikes = (max(column) for column in zip(*factored))
            shape = f"{lp.num_variables}x{lp.num_rows}"
            per_it = 1e6 * seconds / max(solution.iterations, 1)
            print(f"{size:>4} {kind:<5} {shape:>12} {solution.status:<8} "
                  f"{solution.iterations:>6} {dual_its:>8} {seconds:>8.3f} {per_it:>9.1f} "
                  f"{len(factored):>9} {k:>6} {levels:>6} {spikes:>6}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
