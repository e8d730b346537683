"""The traced benchmark's span table (bench/spans.py) against the package.

bench/run.py --trace 1 wraps package functions by name and fails when one
of them is gone or when a span that must fire records nothing.  These tests
run the same CLI calls on the bundled data at four scenarios, so that a
refactor of the package that would break the traced benchmark fails here.
"""

import contextlib
import importlib.util
import io
import pathlib
import sys

import numpy as np
import pytest
from helpers import toy_case

from spothedge import cli
from spothedge.domain import load_instance, load_scenarios
from spothedge.formulations import CVAR, DRO, FormulationConfig, build
from spothedge.linprog import OPTIMAL

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


@pytest.fixture(scope="module")
def spans():
    """bench/spans.py, imported as bench/run.py does, under the name spans."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["spans"] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def toy4(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy4")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["prepare", "--instance", str(DATA / "toy_instance.json"),
                     "--raw-csv", str(DATA / "toy_lmp.csv"), "--k", "4",
                     "--seed", "7", "--out", str(out)])
    assert code == 0
    return out


def traced(spans, calls, capture_lps=False):
    """Run CLI calls inside one installed tracer; every call must exit 0."""
    tracer = spans.Tracer(capture_lps=capture_lps)
    with spans.installed(tracer), contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in calls]  # the attribute the tracer patches
    assert codes == [0] * len(calls)
    return tracer


def test_solve_and_sweep_fire_every_span_the_benchmark_requires(spans, toy4, tmp_path):
    common = ["--instance", str(DATA / "toy_instance.json"),
              "--scenarios", str(toy4 / "scenarios.json")]
    q = ["--q", str(toy4 / "q.json")]
    solve = traced(spans, [
        ["solve", *common, "--out", str(tmp_path / "rn")],
        ["solve", *common, "--kind", "cvar", "--alpha", "0.25", "--lambda", "0.2",
         "--out", str(tmp_path / "cvar")],
        ["solve", *common, "--kind", "dro", "--epsilon", "1", *q,
         "--out", str(tmp_path / "dro")],
    ])
    spans.check_fired("solve", [solve])
    sweep = traced(spans, [["sweep", *common, "--alpha-grid", "0.1,0.5",
                            "--epsilon-grid", "0.5,2", "--gamma", "0.9", *q,
                            "--out", str(tmp_path / "sweep")]])
    spans.check_fired("sweep", [sweep])
    for tracer in (solve, sweep):
        metrics = spans.layer_metrics(tracer)
        assert metrics["simplex.solve.calls"] > 0
        assert metrics["simplex.failures"] == 0


def test_lp_shape_counts_the_built_program(spans):
    instance, scenarios, _q = toy_case(4)
    lp, _vm = build(instance, scenarios, FormulationConfig())
    assert spans.lp_shape(lp) == {"cols": lp.num_variables, "rows": lp.num_rows,
                                  "nnz": int(np.count_nonzero(lp.dense()[0]))}


def test_traced_sweep_captures_every_grid_point_with_its_own_objective(spans, toy4, tmp_path):
    """The traced benchmark checks every captured (program, solution) pair
    against HiGHS, so each solved grid point must reach the simplex as a
    program of its own that carries its own objective."""
    instance = load_instance(DATA / "toy_instance.json")
    scenarios = load_scenarios(toy4 / "scenarios.json")
    q = cli._load_q(toy4 / "q.json", instance)
    tracer = traced(spans, [["sweep", "--instance", str(DATA / "toy_instance.json"),
                             "--scenarios", str(toy4 / "scenarios.json"),
                             "--alpha-grid", "0.1,0.25,0.5,1", "--lambda", "0.2",
                             "--epsilon-grid", "0,0.5,1,2", "--gamma", "0.9",
                             "--q", str(toy4 / "q.json"), "--out", str(tmp_path)]],
                    capture_lps=True)
    points = [FormulationConfig()]  # the anchor; alpha 1 and epsilon 0 reuse it
    points += [FormulationConfig(kind=CVAR, alpha=alpha, lam=0.2) for alpha in (0.1, 0.25, 0.5)]
    points += [FormulationConfig(kind=DRO, epsilon=epsilon, q_matrix=q)
               for epsilon in (0.5, 1.0, 2.0)]
    captured = [lp for _op, lp, _solution in tracer.lps]
    assert all(solution.status == OPTIMAL for _op, _lp, solution in tracer.lps)
    # the risk-free program comes first, then the points in the order solved
    assert len({id(lp) for lp in captured}) == len(captured) == 1 + len(points)
    for lp, config in zip(captured[1:], points):
        want, _vm = build(instance, scenarios, config)
        assert lp.objective.tobytes() == want.objective.tobytes(), config
