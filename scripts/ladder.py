"""Time in-process simplex solves of the toy instance over a ladder of
scenario counts.

    python scripts/ladder.py [--sizes 16,32,64,128] [--hours H [--seed s]]

For each scenario count S a price history is reduced to S scenarios
(k-means seed 7, as in the benchmark) and three models are built:
risk-neutral, CVaR (alpha 0.25, lambda 0.2) and per-scenario robust
(epsilon 1).  The history is the bundled 200-hour one, or with --hours a
3-node history of H hours that bench/gen.py writes from seed s (default 0),
so that S may go past 200.  Each LP is solved once from scratch, and one
line per case gives the LP's columns x rows, the simplex iterations, those
of them made in the dual phase, the wall seconds of the solve alone, the
microseconds per iteration, the number of basis refactorizations and, over
those refactorizations, the largest structural kernel k, the most peel
levels and the most spike columns, and last the wall seconds of the S's
k-means reduction.

NumPy is the only dependency.  The script is not part of the package; it
imports it from the checkout's src/, the toy case from tests/helpers.py
and the history generator from bench/gen.py.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import gen  # noqa: E402
import helpers  # noqa: E402

from spothedge import simplex  # noqa: E402
from spothedge.formulations import (CVAR, DRO, PER_SCENARIO,  # noqa: E402
                                    RISK_NEUTRAL, FormulationConfig, build)
from spothedge.pipeline import ingest_lmp_csv  # noqa: E402

HEADER = ("S", "kind", "cols x rows", "status", "iters", "dual_its", "solve_s",
          "us_per_it", "refactors", "max_k", "levels", "spikes", "reduce_s")


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
    kernel_inverse_t, dual_phase = simplex._kernel_inverse_t, simplex._dual_phase

    def recording_kernel_inverse_t(rows, cols, vals, starts, k):
        factored.append((k, len(starts) - 1, k - starts[-1]))
        return kernel_inverse_t(rows, cols, vals, starts, k)

    def recording_dual_phase(state, c):
        nonlocal dual_its
        status, iterations = dual_phase(state, c)
        dual_its += iterations
        return status, iterations

    simplex._kernel_inverse_t = recording_kernel_inverse_t
    simplex._dual_phase = recording_dual_phase
    try:
        start = time.perf_counter()
        solution = simplex.solve(lp)
        seconds = time.perf_counter() - start
    finally:
        simplex._kernel_inverse_t, simplex._dual_phase = kernel_inverse_t, dual_phase
    return solution, dual_its, seconds, factored


def timed_case(size, history):
    """helpers.toy_case(size, history) and the seconds of its k-means."""
    seconds = []
    reduce = helpers.kmeans_reduce

    def timed_reduce(*args, **kwargs):
        start = time.perf_counter()
        reduced = reduce(*args, **kwargs)
        seconds.append(time.perf_counter() - start)
        return reduced

    helpers.kmeans_reduce = timed_reduce
    try:
        case = helpers.toy_case(size, history)
    finally:
        helpers.kmeans_reduce = reduce
    return case, seconds[0]


def generated_history(hours: int, seed: int):
    """A 3-node history of the given hours, written by bench/gen.py and read back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "history.csv"
        gen.write_history(path, hours, 3, seed)
        return ingest_lmp_csv(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="16,32,64,128",
                        help="comma-separated scenario counts (default 16,32,64,128)")
    parser.add_argument("--hours", type=int,
                        help="reduce a generated 3-node history of this many hours")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the generated history (default 0)")
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]
    history = None if args.hours is None else generated_history(args.hours, args.seed)

    print("{:>4} {:<5} {:>12} {:<8} {:>6} {:>8} {:>8} {:>9} {:>9} {:>6} {:>6} {:>6} {:>8}"
          .format(*HEADER))
    for size in sizes:
        (instance, scenarios, q), reduce_s = timed_case(size, history)
        for kind, config in configs(q).items():
            lp, _vm = build(instance, scenarios, config)
            solution, dual_its, seconds, factored = timed_solve(lp)
            k, levels, spikes = (max(column) for column in zip(*factored))
            shape = f"{lp.num_variables}x{lp.num_rows}"
            per_it = 1e6 * seconds / max(solution.iterations, 1)
            print(f"{size:>4} {kind:<5} {shape:>12} {solution.status:<8} "
                  f"{solution.iterations:>6} {dual_its:>8} {seconds:>8.3f} {per_it:>9.1f} "
                  f"{len(factored):>9} {k:>6} {levels:>6} {spikes:>6} {reduce_s:>8.3f}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
