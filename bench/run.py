"""Benchmark of the spothedge command line tool.

    python3 bench/run.py --workload solve --seed 0 --seconds 35 --trace 0

Runs from the root of a source checkout.  The CLI is driven in-process
through ``spothedge.cli.main(argv)`` from this single process as a closed
loop: one invocation at a time, stdout captured and discarded, BLAS threads
at their default.  One iteration runs every invocation of the workload once;
iterations repeat until the next one would overrun ``--seconds``.  A workload
has one or more input sets, which the iterations take in turn.

Workloads (the seed picks the inputs; the program sees only files):

    solve          three ``solve`` calls on S=32 scenarios: risk_neutral,
                   cvar (alpha 0.25, lambda 0.2) and dro (epsilon 1)
    sweep          one ``sweep`` at S=16 over six alphas, six epsilons and
                   two gammas
    prepare_large  ``prepare --k auto`` on a 20 000-hour, 8-node history

For solve and sweep, seed 0 reads the committed toy data in ``data/`` and
any other seed a 200-hour, 3-node history generated from it; scenarios come
from ``prepare --k S --seed 7``, run before timing.  prepare_large takes
PREPARE_HISTORIES histories in turn, each generated from the seed and its
number before its first turn: how many rounds k-means needs to converge
varies by a tenth from one history to the next, so a run measures the mean
over several.

Times are in reference seconds: wall seconds divided by how much slower
than usual the host runs at the time.  On a shared host, other tenants
slow every kind of work in this process by up to half, in phases that last
minutes and so cover whole runs, and wall seconds from one run to the next
followed those phases rather than the program.  A fixed calibration (see
``calibrate``) is repeated after every timed invocation for a tenth of its
time, and the slowdown is the mean calibration time over
``CALIBRATION_REFERENCE_S``.  ``run_s`` is the mean wall time of an
iteration, averaged over the input sets, over the run's slowdown;
``setup_s`` is the median import time over the slowdown measured by one
calibration before each import.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics
(``setup_s``, ``run_s``, ``peak_rss_mb``).  With ``--trace 1`` half of the
time runs untraced and half traced (see spans.py), and the last line holds
the per-layer metrics, in wall seconds; the spans and the run's slowdown
go to ``.bench_build/bench/``.  Both modes
check the outputs (see check.py) and count an invocation as failed when it
exits non-zero or its outputs fail a check.  The metric names and units are
read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("solve", "sweep", "prepare_large")
DEFAULT_SEED = 0  # the committed toy data
KMEANS_SEED = 7
SETUP_SAMPLES = 15
PREPARE_HISTORIES = 8
# what one calibration takes on an unloaded 2-vCPU VM (Python 3.11,
# NumPy 2.4, OpenBLAS with 2 threads); a reference second is a wall second there
CALIBRATION_REFERENCE_S = 0.15
CALIBRATION_SHARE = 0.1  # of each timed call's wall time, spent calibrating after it
ALPHA_GRID = "0.05,0.1,0.25,0.5,0.75,1.0"
EPSILON_GRID = "0,0.25,0.5,1,2,4"
GAMMAS = "0.9,0.75"
# ROADMAP Baseline, S=32 in-process solve() seconds of the main LP
BASELINE_S32 = {"risk_neutral": 1.88, "cvar": 2.49, "dro": 5.12}


@dataclass
class Call:
    label: str
    argv: list[str]
    out: Path
    verify: Callable[[dict[str, bytes]], list[str]]  # problems in its outputs


@dataclass
class Workload:
    calls: list[Call]
    inputs: int = 1  # number of input sets
    # points the calls at input set i and says whether the set is new, so that
    # its outputs get checked; None when there is only one set
    select: Callable[[int], bool] | None = None


@dataclass
class Iteration:
    inputs: int  # which input set it ran on
    walls: list[float]
    cals: list[float]  # the calibrations after the calls
    codes: list[int]
    files: list[dict[str, bytes]]
    problems: list[tuple[int, str]] = field(default_factory=list)  # (call, message)

    @property
    def run_s(self) -> float:
        return sum(self.walls)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# workloads

def scenario_inputs(cli, work: Path, seed: int, k: int):
    """Instance, scenarios and q files of a k-scenario toy-sized case."""
    import gen

    if seed == DEFAULT_SEED:
        history = ROOT / "data" / "toy_lmp.csv"
        instance = ROOT / "data" / "toy_instance.json"
    else:
        history, instance, *_ = gen.write_case(work, 200, 3, seed)
    prepared = work / f"prepared_k{k}"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["prepare", "--instance", str(instance), "--raw-csv",
                         str(history), "--k", str(k), "--seed", str(KMEANS_SEED),
                         "--out", str(prepared)])
    if code != 0:
        raise RuntimeError(f"preparing the {k}-scenario inputs exited {code}")
    return instance, prepared / "scenarios.json", prepared / "q.json"


def solve_workload(cli, work: Path, seed: int) -> Workload:
    import check
    from spothedge import formulations

    instance, scenarios, q = scenario_inputs(cli, work, seed, 32)
    ref = check.Reference(instance, scenarios, q)
    runs = (
        (formulations.RISK_NEUTRAL, [], ref.config(formulations.RISK_NEUTRAL)),
        (formulations.CVAR, ["--alpha", "0.25", "--lambda", "0.2"],
         ref.config(formulations.CVAR, alpha=0.25, lam=0.2)),
        (formulations.DRO, ["--epsilon", "1", "--q", str(q)],
         ref.config(formulations.DRO, epsilon=1.0)),
    )
    calls = []
    for kind, extra, config in runs:
        out = work / f"out_{kind}"
        calls.append(Call(
            f"solve.{kind}",
            ["solve", "--instance", str(instance), "--scenarios", str(scenarios),
             "--kind", kind, *extra, "--out", str(out)],
            out,
            lambda files, config=config: check.solve_problems(ref, config, files)))
    return Workload(calls)


def sweep_workload(cli, work: Path, seed: int) -> Workload:
    import check

    instance, scenarios, q = scenario_inputs(cli, work, seed, 16)
    ref = check.Reference(instance, scenarios, q)
    out = work / "out_sweep"
    points = 1 + len(ALPHA_GRID.split(",")) + len(EPSILON_GRID.split(","))
    rows = points * len(GAMMAS.split(","))
    return Workload([Call(
        "sweep",
        ["sweep", "--instance", str(instance), "--scenarios", str(scenarios),
         "--alpha-grid", ALPHA_GRID, "--epsilon-grid", EPSILON_GRID,
         "--gamma", GAMMAS, "--q", str(q), "--out", str(out)],
        out,
        lambda files: check.sweep_problems(ref, files, rows))])


def prepare_large_workload(cli, work: Path, seed: int) -> Workload:
    import check
    import gen

    out = work / "out_prepare"
    call = Call("prepare", [], out, None)

    def select(i: int) -> bool:
        case = work / f"history{i}"
        call.argv = ["prepare", "--instance", str(case / "instance.json"),
                     "--raw-csv", str(case / "history.csv"), "--k", "auto", "--out", str(out)]
        if case.exists():
            return False
        case.mkdir()
        # the prices of one history at a time stay in memory, for its check
        _, _, markets, nodal, system = gen.write_case(case, 20_000, 8, (seed, i))
        call.verify = lambda files: check.prepare_problems(files, nodal, system, markets)
        return True

    return Workload([call], PREPARE_HISTORIES, select)


WORKLOAD_SETUP = {"solve": solve_workload, "sweep": sweep_workload,
                  "prepare_large": prepare_large_workload}


# ----------------------------------------------------------------------
# measurement

def verify(calls: list[Call], iteration: Iteration) -> list[tuple[int, str]]:
    return [(c, message) for c, call in enumerate(calls) if iteration.codes[c] == 0
            for message in call.verify(iteration.files[c])]


def calibrate() -> float:
    """Wall seconds of a fixed mix of interpreter, array and BLAS work.

    The mix stands for what the CLI spends its time on: Python loops,
    broadcast arithmetic with a reduction as in k-means, and gemv as in the
    simplex.  None of it runs code under test, so its time follows only how
    fast the host runs this process at the moment.  The arrays are small,
    so that they do not raise the peak RSS the benchmark reports.
    """
    start = time.perf_counter()
    total = 0
    for i in range(800_000):
        total += i * i % 7
    rng = np.random.default_rng(0)
    x = rng.random((4_000, 9))
    c = rng.random((6, 9))
    for _ in range(75):
        diff = x[:, None, :] - c[None, :, :]
        np.einsum("nkm,nkm->nk", diff, diff)
    # last, as BLAS threads stay busy a while after a call
    a = rng.random((500, 1200))
    v = rng.random(500)
    for _ in range(400):
        v @ a
    return time.perf_counter() - start


def run_iteration(cli, calls: list[Call], inputs: int, tracer=None) -> Iteration:
    for call in calls:
        call.out.mkdir(parents=True, exist_ok=True)
        for path in call.out.iterdir():
            path.unlink()
    walls, cals, codes = [], [], []
    for op, call in enumerate(calls):
        if tracer is not None:
            tracer.op = op
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(call.argv)
        except Exception:  # counted as a failed invocation
            traceback.print_exc()
            code = -1
        walls.append(time.perf_counter() - start)
        codes.append(code)
        spent = 0.0
        while spent < CALIBRATION_SHARE * walls[-1]:
            cals.append(calibrate())
            spent += cals[-1]
    files = [{p.name: p.read_bytes() for p in sorted(c.out.iterdir())} for c in calls]
    return Iteration(inputs, walls, cals, codes, files)


def timed_pass(cli, workload: Workload, budget: float, traced: bool = False):
    """Iterate until the next iteration would overrun ``budget`` seconds,
    and at least until every input set has had its turn.

    A workload with several input sets is verified on the first turn of
    each set, while the calls still point at its inputs; the others once,
    afterwards.  Later turns must repeat the first byte for byte (see
    check_outputs).
    """
    import spans

    iterations, tracers = [], []
    start = time.perf_counter()
    while True:
        inputs = len(iterations) % workload.inputs
        new = workload.select is not None and workload.select(inputs)
        if traced:
            tracer = spans.Tracer(capture_lps=not tracers)
            with spans.installed(tracer):
                iteration = run_iteration(cli, workload.calls, inputs, tracer)
            tracers.append(tracer)
        else:
            iteration = run_iteration(cli, workload.calls, inputs)
        if new:
            iteration.problems = verify(workload.calls, iteration)
        iterations.append(iteration)
        if (len(iterations) >= workload.inputs
                and time.perf_counter() - start + iteration.run_s > budget):
            return iterations, tracers


def slowdown(cals: list[float]) -> float:
    """How many times slower than the reference the host ran ``cals``."""
    return statistics.fmean(cals) / CALIBRATION_REFERENCE_S


def reference_run_s(iterations: list[Iteration]) -> float:
    """Mean iteration time, averaged over the input sets, in reference seconds."""
    runs = {}
    for iteration in iterations:
        runs.setdefault(iteration.inputs, []).append(iteration.run_s)
    wall = statistics.fmean(statistics.fmean(r) for r in runs.values())
    return wall / slowdown([c for it in iterations for c in it.cals])


def measure_setup() -> float:
    """Median reference seconds for a fresh interpreter to import spothedge.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import spothedge.cli"]

    def once() -> float:
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return time.perf_counter() - start

    once()  # bytecode caches are written once per install, not per call
    cals, samples = [], []
    for _ in range(SETUP_SAMPLES):
        cals.append(calibrate())
        samples.append(once())
    return statistics.median(samples) / slowdown(cals)


def environment() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(ctypes.CDLL(lib), symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "nproc": len(os.sched_getaffinity(0))}


# ----------------------------------------------------------------------
# checks

def check_outputs(workload: Workload, iterations: list[Iteration], wl_name: str,
                  seed: int, extra=()) -> tuple[int, list[str]]:
    """Count failed (iteration, call) pairs and say why each failed.

    A call fails when it exits non-zero, when a check finds a problem in
    its outputs, or when they differ byte for byte from the first iteration
    on the same inputs, or from an earlier run of the same seed and code
    version; traced or not makes no difference.  ``extra`` holds further
    (iteration, call, message) problems.
    """
    import check

    calls = workload.calls
    found = [(k, c, message) for k, it in enumerate(iterations) for c, message in it.problems]
    found.extend(extra)
    first = {}
    for k, iteration in enumerate(iterations):
        first.setdefault(iteration.inputs, k)
        for c, call in enumerate(calls):
            if iteration.codes[c] != 0:
                found.append((k, c, f"exited {iteration.codes[c]}"))
            elif iteration.files[c] != iterations[first[iteration.inputs]].files[c]:
                found.append((k, c, "outputs differ from an earlier iteration"))
    if workload.select is None:
        found.extend((0, c, message) for c, message in verify(calls, iterations[0]))

    version = check.tree_digest(ROOT / "src", ROOT / "data", BENCH)
    store = ROOT / ".bench_build" / "bench" / "digests" / f"{version}-{wl_name}-{seed}.json"
    recorded = json.loads(store.read_text()) if store.exists() else {}
    failed_before = {(k, c) for k, c, _ in found}
    for inputs, k in first.items():
        for c, call in enumerate(calls):
            key = f"{call.label}@{inputs}"
            digest = check.digest(iterations[k].files[c])
            if key not in recorded:
                if (k, c) not in failed_before:
                    recorded[key] = digest
            elif recorded[key] != digest:
                found.append((k, c, "outputs differ from an earlier run of this seed"))
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(recorded, sort_keys=True))

    problems = [f"{calls[c].label} (iteration {k}): {message}" for k, c, message in found]
    return len({(k, c) for k, c, _ in found}), problems


# ----------------------------------------------------------------------
# modes

def end_to_end(cli, workload: Workload, args):
    setup_s = measure_setup()
    iterations, _ = timed_pass(cli, workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, problems = check_outputs(workload, iterations, args.workload, args.seed)
    print(json.dumps({"iterations": len(iterations),
                      "inputs_each": [it.inputs for it in iterations],
                      "run_s_each": [it.run_s for it in iterations],
                      "slowdown_each": [slowdown(it.cals) for it in iterations]}))
    metrics = {"setup_s": setup_s, "run_s": reference_run_s(iterations),
               "peak_rss_mb": peak_rss_mb}
    return metrics, len(iterations) * len(workload.calls), failed, problems


def per_layer(cli, workload: Workload, args):
    import check
    import spans

    calls = workload.calls
    plain, _ = timed_pass(cli, workload, args.seconds / 2)
    traced, tracers = timed_pass(cli, workload, args.seconds / 2, traced=True)
    if all(code == 0 for it in traced for code in it.codes):
        spans.check_fired(args.workload, tracers)  # a failed call may skip spans

    iterations = plain + traced
    extra = [(len(plain), op, message)
             for op, message in check.cross_check_lps(tracers[0].lps)]
    failed, problems = check_outputs(workload, iterations, args.workload, args.seed, extra)

    metrics = spans.median_metrics([spans.layer_metrics(t) for t in tracers])
    run_plain = statistics.median(it.run_s for it in plain)
    run_traced = statistics.median(it.run_s for it in traced)
    metrics["trace_overhead"] = run_traced - run_plain
    metrics["trace.unaccounted_s"] = run_traced - metrics["trace.self_sum.s"]
    for kind in BASELINE_S32:
        label = f"solve.{kind}"
        metrics[f"solve_{kind}_s"] = next(
            (statistics.median(it.walls[c] for it in plain)
             for c, call in enumerate(calls) if call.label == label), 0.0)
    attempted = len(iterations) * len(calls)
    metrics["failed_ops"] = failed / attempted

    labels = [call.label for call in calls]
    # LP shape and iteration count next to the time of every simplex call
    print(json.dumps({"simplex": [{**s.attrs, "op": labels[s.op], "s": s.seconds}
                                  for s in tracers[0].spans if s.name == "simplex.solve"]}))
    if args.workload == "solve":
        print(json.dumps({"baseline_s32": {
            "inputs": ("toy data, the Baseline inputs" if args.seed == DEFAULT_SEED
                       else f"seed {args.seed}, not the Baseline inputs"),
            **{kind: {"measured_s": metrics[f"simplex.solve.{kind}.s"], "baseline_s": base,
                      "ratio": metrics[f"simplex.solve.{kind}.s"] / base}
               for kind, base in BASELINE_S32.items()}}}))
    trace_path = ROOT / ".bench_build" / "bench" / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "env": environment(),
        "untraced_run_s": [it.run_s for it in plain],
        # per-layer times are wall seconds; this converts them to reference seconds
        "slowdown": slowdown([c for it in iterations for c in it.cals]),
        "iterations": [spans.span_records(t, labels) for t in tracers],
        "metrics": metrics}, indent=1))
    print(json.dumps({"trace": str(trace_path.relative_to(ROOT))}))
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "spothedge" / "cli.py").is_file():
        print(f"no spothedge sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from spothedge import cli

    print(json.dumps({"env": environment()}))
    work_root = ROOT / ".bench_build" / "bench"
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        workload = WORKLOAD_SETUP[args.workload](cli, work, args.seed)
        mode = per_layer if args.trace else end_to_end
        metrics, attempted, failed, problems = mode(cli, workload, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
