"""Command line behavior: exit codes, output files, determinism, errors.

All invocations go through cli.main(argv) in-process; stderr errors are
parsed as JSON to pin the machine-readable contract.
"""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from conftest import micro_instance, micro_scenarios
from helpers import assert_reaped, random_allocation_case
from hypothesis import given, settings
from hypothesis import strategies as st

from spothedge import formulations, metrics
from spothedge.cli import main
from spothedge.domain import (ElasticityCurve, load_scenarios, save_instance,
                              save_scenarios, validate_scenarios, load_instance)
from spothedge.linprog import INFEASIBLE, LpSolution

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


@pytest.fixture
def micro_files(tmp_path):
    instance = micro_instance()
    scenarios = micro_scenarios()
    ipath = tmp_path / "instance.json"
    spath = tmp_path / "scenarios.json"
    save_instance(instance, ipath)
    save_scenarios(scenarios, spath)
    return ipath, spath


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr_json(err: str) -> dict:
    return json.loads(err.strip())


# ----------------------------------------------------------------------
# solve

def test_solve_risk_neutral_micro(capsys, micro_files, tmp_path):
    ipath, spath = micro_files
    out = tmp_path / "run"
    code, stdout, _ = run(capsys, "solve", "--instance", str(ipath),
                          "--scenarios", str(spath), "--out", str(out))
    assert code == 0
    doc = json.loads(stdout)
    assert doc["kind"] == "risk_neutral"
    assert doc["status"] == "optimal"
    assert doc["objective_value"] == pytest.approx(3500.0)
    assert doc["spot_fraction"] == pytest.approx(1.0)
    assert doc["profits"] == pytest.approx([5000.0, 2000.0])
    # the written report is byte-identical to stdout
    assert (out / "report.json").read_text() == stdout


def test_solve_reports_values_on_or_inside_their_bounds(tmp_path, capsys):
    """Toy data at k = 8, risk neutral: rounding noise next to a bound is
    reported as the bound (BRAVO's commitment once came out as 5.3e-14 and a
    delivery as -8.1e-16), and every decision lies within its bounds."""
    toy = str(DATA / "toy_instance.json")
    out = tmp_path / "out"
    assert run(capsys, "prepare", "--instance", toy, "--raw-csv",
               str(DATA / "toy_lmp.csv"), "--k", "8", "--seed", "7",
               "--out", str(out))[0] == 0
    assert run(capsys, "solve", "--instance", toy, "--scenarios",
               str(out / "scenarios.json"), "--kind", "risk_neutral",
               "--out", str(out))[0] == 0
    report = json.loads((out / "report.json").read_text())
    instance = load_instance(toy)
    scenarios = load_scenarios(out / "scenarios.json")

    assert report["commitments"]["BRAVO"] == [0.0]
    ceiling = np.array([hi for _lo, hi in instance.production_limits])[:, None]
    for market in instance.markets:
        volume = np.array([c.max_volume for c in instance.market_contracts(market)])
        commitments = np.array(report["commitments"][market])
        term = np.array(report["term_dispatch"][market])
        spot = np.array(report["spot_dispatch"][market])
        transport = np.array(report["transport"][market])
        assert ((commitments >= 0.0) & (commitments <= volume)).all()
        assert ((term >= 0.0) & (term <= volume[:, None, None])).all()
        assert ((spot >= 0.0) & (spot <= scenarios.widths[market])).all()
        assert ((transport >= 0.0) & (transport <= ceiling)).all()
    capacity = np.array([step.capacity for step in instance.supply_steps])
    production = np.array(report["production"])
    assert ((production >= 0.0) & (production <= capacity[:, None, None])).all()


def test_solve_cvar_flags(capsys, micro_files):
    ipath, spath = micro_files
    code, stdout, _ = run(capsys, "solve", "--instance", str(ipath),
                          "--scenarios", str(spath), "--kind", "cvar",
                          "--alpha", "0.5", "--lambda", "0.0",
                          "--gamma", "0.5,0.8")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["alpha"] == 0.5
    assert doc["lambda"] == 0.0
    assert doc["objective_value"] == pytest.approx(3000.0)
    assert doc["spot_fraction"] == pytest.approx(0.0)
    assert [m["gamma"] for m in doc["metrics"]] == [0.5, 0.8]
    # all-contract book never moves with the scenario, so no tail give-up
    assert doc["metrics"][0]["rho"] is None


def test_solve_dro_with_q_file(capsys, micro_files, tmp_path):
    ipath, spath = micro_files
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps({"markets": ["hub"], "q": [[1.0]]}))
    code, stdout, _ = run(capsys, "solve", "--instance", str(ipath),
                          "--scenarios", str(spath), "--kind", "dro",
                          "--epsilon", "5.0", "--q", str(qpath))
    assert code == 0
    doc = json.loads(stdout)
    assert doc["epsilon"] == 5.0
    assert doc["objective_value"] == pytest.approx(3000.0)
    assert doc["spot_fraction"] == pytest.approx(0.0)


def test_solve_config_file_flags_win(capsys, micro_files, tmp_path):
    ipath, spath = micro_files
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "instance": str(ipath), "scenarios": str(spath),
        "kind": "cvar", "alpha": 0.5, "lambda": 0.0}))
    code, stdout, _ = run(capsys, "solve", "--config", str(config))
    assert code == 0
    assert json.loads(stdout)["objective_value"] == pytest.approx(3000.0)
    # explicit flag overrides the config's lambda
    code, stdout, _ = run(capsys, "solve", "--config", str(config),
                          "--lambda", "1.0")
    assert code == 0
    assert json.loads(stdout)["objective_value"] == pytest.approx(3500.0)


def test_solve_requires_q_for_dro(capsys, micro_files):
    ipath, spath = micro_files
    code, _, err = run(capsys, "solve", "--instance", str(ipath),
                       "--scenarios", str(spath), "--kind", "dro")
    assert code == 2
    doc = stderr_json(err)
    assert doc["error"] == "usage"
    assert "--q" in doc["message"]


def test_solve_rejects_bad_gamma_and_alpha(capsys, micro_files):
    ipath, spath = micro_files
    code, _, err = run(capsys, "solve", "--instance", str(ipath),
                       "--scenarios", str(spath), "--gamma", "1.0")
    assert code == 2 and stderr_json(err)["error"] == "usage"
    code, _, err = run(capsys, "solve", "--instance", str(ipath),
                       "--scenarios", str(spath), "--kind", "cvar",
                       "--alpha", "1.5")
    assert code == 2 and stderr_json(err)["error"] == "usage"


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("flags, config", [
    (["--gamma", ""], None),
    (["--gamma", ","], None),
    ([], {"gamma": []}),
    ([], {"gamma": ","}),
], ids=["flag_empty", "flag_comma", "config_empty_list", "config_comma"])
def test_an_empty_gamma_list_is_a_usage_error(capsys, micro_files, tmp_path, command,
                                              flags, config):
    """Unchecked, an empty list exited 0: solve printed "metrics": [] and
    sweep solved every point for a metrics.csv of its header alone."""
    ipath, spath = micro_files
    argv = [command, "--instance", str(ipath), "--scenarios", str(spath),
            "--out", str(tmp_path / "out"), *flags]
    if config is not None:
        argv += ["--config", write_config(tmp_path / "config.json", config)]
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert stderr_json(err) == {"error": "usage",
                                "message": "argument --gamma: expects at least one value"}
    assert not (tmp_path / "out" / "metrics.csv").exists()


@pytest.mark.parametrize("command, flags", [
    ("solve", ["--kind", "cvar", "--alpha", "1e-310"]),
    ("solve", ["--kind", "dro", "--epsilon", "inf"]),
    ("sweep", ["--epsilon-grid", "1,inf"]),
    ("sweep", ["--alpha-grid", "5e-324"]),
    ("solve", ["--kind", "cvar", "--alpha", "1e-300", "--lambda", "0"]),
    ("solve", ["--kind", "dro", "--epsilon", "1e308"]),
    ("sweep", ["--alpha-grid", "0.5,9e-7", "--lambda", "0"]),
    ("sweep", ["--epsilon-grid", "1,1e300"]),
], ids=["alpha_subnormal", "epsilon_inf", "epsilon_grid_inf", "alpha_grid_subnormal",
        "alpha_past_bound", "epsilon_past_bound", "alpha_grid_past_bound",
        "epsilon_grid_past_bound"])
def test_parameters_with_an_infinite_objective_are_usage_errors(capsys, monkeypatch, micro_files,
                                                               tmp_path, command, flags):
    """An infinite objective coefficient used to exit 1 with a ValueError
    from the LP builder.  A risk weight past MAX_RISK_WEIGHT used to exit 0:
    on the toy data, --alpha 1e-300 --lambda 0 reported an objective of
    -9.0e287, and --epsilon 1e308 warned of overflows in the simplex.  Each
    is refused before anything is solved, a sweep's anchor included."""
    def no_solve(*args, **kwargs):
        raise AssertionError("a program was solved")
    monkeypatch.setattr(formulations, "solve", no_solve)
    monkeypatch.setattr(metrics, "solve", no_solve)
    ipath, spath = micro_files
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps({"markets": ["hub"], "q": [[1.0]]}))
    code, _, err = run(capsys, command, "--instance", str(ipath), "--scenarios", str(spath),
                       "--q", str(qpath), *flags, "--out", str(tmp_path / "out"))
    assert code == 2 and stderr_json(err)["error"] == "usage"


def test_solve_infeasible_exits_three(capsys, tmp_path):
    # forced production floor 100 with only a 30 MW sink
    instance = micro_instance()
    scenarios = micro_scenarios()
    thin = type(scenarios)(
        probabilities=scenarios.probabilities,
        prices={"hub": scenarios.prices["hub"]},
        widths={"hub": np.full((1, 1, 2), 30.0)})
    bare = type(instance)(
        markets=("hub",), contracts=(), supply_steps=instance.supply_steps,
        transport_cost={}, production_limits=((100.0, 100.0),), periods=1)
    ipath, spath = tmp_path / "i.json", tmp_path / "s.json"
    save_instance(bare, ipath)
    save_scenarios(thin, spath)
    # the validator already refuses this pairing: not enough sales capacity
    code, _, err = run(capsys, "solve", "--instance", str(ipath),
                       "--scenarios", str(spath))
    assert code == 2
    assert stderr_json(err)["error"] == "data"


def test_infeasible_spot_free_model_leaves_its_metrics_undefined(capsys, tmp_path,
                                                                monkeypatch):
    """Draw 0 of random_allocation_case(default_rng(515)) solves to 1207.28,
    but its period floors exceed what contracts alone can absorb, so the
    spot-free reference model is infeasible: solve and sweep still succeed,
    with zeta_riskfree, delta_zeta, delta_chi and rho null in JSON and
    empty in CSV.  An infeasible model still exits 3."""
    instance, scenarios = random_allocation_case(np.random.default_rng(515))
    ipath, spath, qpath = tmp_path / "i.json", tmp_path / "s.json", tmp_path / "q.json"
    save_instance(instance, ipath)
    save_scenarios(scenarios, spath)
    qpath.write_text(json.dumps({"markets": list(instance.markets), "q": [[1.0]]}))
    undefined = ("zeta_riskfree", "delta_zeta", "delta_chi", "rho")

    code, stdout, _ = run(capsys, "solve", "--instance", str(ipath), "--scenarios",
                          str(spath), "--gamma", "0.5,0.9")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["objective_value"] == pytest.approx(1207.2842401114167, rel=1e-12)
    assert len(doc["metrics"]) == 2
    for row in doc["metrics"]:
        assert all(row[key] is None for key in undefined)
        assert isinstance(row["zeta"], float) and isinstance(row["chi"], float)

    out = tmp_path / "sweep"
    code, stdout, _ = run(capsys, "sweep", "--instance", str(ipath), "--scenarios",
                          str(spath), "--alpha-grid", "0.5", "--epsilon-grid", "1",
                          "--q", str(qpath), "--out", str(out))
    assert code == 0 and json.loads(stdout)["failures"] == 0
    with open(out / "metrics.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 3
    for row in rows:
        assert all(row[key] == "" for key in undefined) and row["zeta"] != ""
    with open(out / "tradeoff.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            assert (row["delta_zeta"], row["delta_chi"], row["rho"]) == ("", "", "")

    # an infeasible model itself still exits 3
    monkeypatch.setattr(formulations, "solve",
                        lambda lp: LpSolution(status=INFEASIBLE, iterations=0))
    code, _, err = run(capsys, "solve", "--instance", str(ipath), "--scenarios", str(spath))
    assert code == 3
    assert stderr_json(err)["error"] == "solver" and stderr_json(err)["status"] == "infeasible"


def test_missing_input_file_is_io_error(capsys):
    code, _, err = run(capsys, "solve", "--instance", "nope.json",
                       "--scenarios", "also-nope.json")
    assert code == 2
    doc = stderr_json(err)
    assert doc["error"] == "io"
    assert "nope.json" in doc["message"]


def test_malformed_json_is_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "solve", "--instance", str(bad),
                       "--scenarios", str(bad))
    assert code == 2
    assert stderr_json(err)["error"] == "parse"


@pytest.mark.parametrize("doc, kind", [
    ({"q": "abc"}, "parse"), ({"q": [[1, 2], [3]]}, "parse"), (["q"], "parse"),
    ("q", "parse"), ({"q": [[1.0]], "markets": 1}, "parse"),
    ({"q": [[float("nan")]]}, "data"), ({"q": [[float("inf")]]}, "data"),
    ({"q": [[10 ** 400]]}, "parse")],
    ids=["q_text", "q_ragged", "list", "string", "markets_number", "nan", "inf",
         "integer_past_float"])
def test_a_malformed_q_file_exits_2(capsys, micro_files, tmp_path, doc, kind):
    ipath, spath = micro_files
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps(doc))
    code, _, err = run(capsys, "solve", "--instance", str(ipath), "--scenarios", str(spath),
                       "--kind", "dro", "--q", str(qpath))
    assert code == 2
    assert stderr_json(err)["error"] == kind


@pytest.mark.parametrize("doc, kind, message", [
    ({"markets": ["hub"]}, "parse", "has no 'q' entry"),
    ({"q": [[1.0, 0.0]]}, "data", "expected a 1x1 matrix, got shape [1, 2]"),
    ({"q": [[1.0]], "markets": ["east"]}, "data",
     "covers markets ['east'], instance has ['hub']")],
    ids=["no_q_entry", "wrong_shape", "other_markets"])
def test_a_q_file_that_does_not_fit_the_instance_exits_2(capsys, micro_files, tmp_path, doc,
                                                          kind, message):
    ipath, spath = micro_files
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps(doc))
    code, _, err = run(capsys, "solve", "--instance", str(ipath), "--scenarios", str(spath),
                       "--kind", "dro", "--q", str(qpath))
    assert code == 2
    assert stderr_json(err)["error"] == kind and message in stderr_json(err)["message"]


@pytest.mark.parametrize("flag", ["--config", "--instance", "--scenarios", "--q"])
def test_json_nested_past_the_recursion_limit_is_a_parse_error(capsys, micro_files,
                                                              tmp_path, flag):
    ipath, spath = micro_files
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    argv = {"--config": ["--config", deep],
            "--instance": ["--instance", deep],
            "--scenarios": ["--instance", ipath, "--scenarios", deep],
            "--q": ["--instance", ipath, "--scenarios", spath, "--q", deep]}[flag]
    code, _, err = run(capsys, "solve", "--kind", "dro", *map(str, argv))
    assert code == 2
    assert stderr_json(err)["error"] == "parse"
    assert str(deep) in stderr_json(err)["message"]


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "sweep", "--nonsense")
    assert code == 2
    assert stderr_json(err)["error"] == "usage"


# ----------------------------------------------------------------------
# sweep

def test_sweep_writes_all_outputs(capsys, micro_files, tmp_path):
    ipath, spath = micro_files
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps({"markets": ["hub"], "q": [[1.0]]}))
    out = tmp_path / "sweep"
    code, stdout, _ = run(capsys, "sweep", "--instance", str(ipath),
                          "--scenarios", str(spath),
                          "--alpha-grid", "0.5,1.0", "--lambda", "0.0",
                          "--epsilon-grid", "0,5", "--q", str(qpath),
                          "--gamma", "0.5", "--out", str(out))
    assert code == 0
    summary = json.loads(stdout)
    assert summary["rows"] == 5  # anchor + 2 alphas + 2 epsilons
    assert summary["failures"] == 0
    with open(out / "metrics.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 5
    fractions = [float(r["spot_fraction"]) for r in rows]
    assert fractions == sorted(fractions)
    anchor = [r for r in rows if r["source"] == "risk_neutral"][0]
    twin = [r for r in rows if r["alpha"] == "1"][0]
    assert (twin["zeta"], twin["chi"]) == (anchor["zeta"], anchor["chi"])
    with open(out / "tradeoff.csv", newline="") as handle:
        tradeoff = list(csv.DictReader(handle))
    assert len(tradeoff) == 5
    assert list(tradeoff[0]) == ["spot_fraction", "delta_zeta", "delta_chi",
                                 "rho", "source", "alpha", "epsilon", "gamma"]
    assert json.loads((out / "failures.json").read_text()) == []


# sha256 of the solve and sweep outputs on the bundled data at 16 scenarios
# (prepare --k 16 --seed 7), recorded from the all-artificial cold start that
# the crash basis replaced
SOLVE_DIGESTS = {
    "risk_neutral": (
        [], "9445e4006efe3529913b4a57ba615762841083cb500f37fda889baf6f5a9bd45"),
    "cvar": (
        ["--alpha", "0.25", "--lambda", "0.2"],
        "49a7975876c85427be198f5daebe63ddedc2d268b9bb576cf408e1e049baea54"),
    "dro_per_scenario": (
        ["--epsilon", "1", "--dro-penalty", "per_scenario"],
        "58b16bc6bc36a27eff10d50e33d0d7a39bc8eec21d8d0ca12b1127216ff32f90"),
    "dro_per_period": (
        ["--epsilon", "1", "--dro-penalty", "per_period"],
        "4be61f6a2b8fb6630ad7764639a6edc8dc79fabf3b752034529618d6aa87bee6"),
}
SWEEP_DIGESTS = {
    "metrics.csv": "384f3fa446075980bc31410f2d9c1f3094df3525decbf38fb9b4b28d415871a9",
    "tradeoff.csv": "b58755e362734a0dc236b893a4bdaf22f2f9c5979694a44d636631fefe7db3e4",
    "failures.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
}


@pytest.fixture(scope="module")
def toy16(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy16")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["prepare", "--instance", str(DATA / "toy_instance.json"),
                     "--raw-csv", str(DATA / "toy_lmp.csv"), "--k", "16",
                     "--seed", "7", "--out", str(out)])
    assert code == 0
    return out


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", list(SOLVE_DIGESTS))
def test_solve_report_matches_recorded_digest(capsys, tmp_path, toy16, case):
    extra, digest = SOLVE_DIGESTS[case]
    kind = case.split("_per_")[0]
    q = ["--q", str(toy16 / "q.json")] if kind == "dro" else []
    code, _, _ = run(capsys, "solve", "--instance", str(DATA / "toy_instance.json"),
                     "--scenarios", str(toy16 / "scenarios.json"), "--kind", kind,
                     *extra, *q, "--out", str(tmp_path))
    assert code == 0
    assert sha256(tmp_path / "report.json") == digest


def test_sweep_outputs_match_recorded_digests(capsys, tmp_path, toy16):
    code, _, _ = run(capsys, "sweep", "--instance", str(DATA / "toy_instance.json"),
                     "--scenarios", str(toy16 / "scenarios.json"),
                     "--alpha-grid", "0.05,0.1,0.25,0.5,0.75,1.0",
                     "--epsilon-grid", "0,0.25,0.5,1,2,4", "--gamma", "0.9,0.75",
                     "--q", str(toy16 / "q.json"), "--out", str(tmp_path))
    assert code == 0
    assert {name: sha256(tmp_path / name) for name in SWEEP_DIGESTS} == SWEEP_DIGESTS


@pytest.mark.parametrize("command, flags", [("solve", []), ("sweep", ["--alpha-grid", "0.5"])],
                         ids=["solve", "sweep"])
def test_gamma_zero_takes_every_probability_sum_that_passes_validation(capsys, tmp_path, toy16,
                                                                       command, flags):
    """validate accepts probabilities within PROBABILITY_TOL = 1e-9 of summing
    to 1; at gamma 0 the tail is all of that mass, however short of 1."""
    doc = json.loads((toy16 / "scenarios.json").read_text())
    doc["probabilities"] = [p * (1 - 5e-10) for p in doc["probabilities"]]
    spath = tmp_path / "scenarios.json"
    spath.write_text(json.dumps(doc))
    inputs = ["--instance", str(DATA / "toy_instance.json"), "--scenarios", str(spath)]
    assert run(capsys, "validate", *inputs)[0] == 0
    code, _, err = run(capsys, command, *inputs, *flags, "--gamma", "0",
                       "--out", str(tmp_path / "out"))
    assert (code, err) == (0, "")


def test_sweep_requires_out_and_q_for_epsilons(capsys, micro_files, tmp_path):
    ipath, spath = micro_files
    code, _, err = run(capsys, "sweep", "--instance", str(ipath),
                       "--scenarios", str(spath))
    assert code == 2 and "out" in stderr_json(err)["message"]
    code, _, err = run(capsys, "sweep", "--instance", str(ipath),
                       "--scenarios", str(spath), "--epsilon-grid", "1",
                       "--out", str(tmp_path / "x"))
    assert code == 2
    assert "q matrix" in stderr_json(err)["message"]


# ----------------------------------------------------------------------
# prepare

def test_prepare_produces_consistent_artifacts(capsys, tmp_path):
    out = tmp_path / "prep"
    code, stdout, _ = run(capsys, "prepare",
                          "--instance", str(DATA / "toy_instance.json"),
                          "--raw-csv", str(DATA / "toy_lmp.csv"),
                          "--out", str(out), "--seed", "11")
    assert code == 0
    summary = json.loads(stdout)
    assert summary["observations"] == 200
    assert summary["nodes"] == ["ALPHA", "BRAVO", "CHARLIE"]
    assert summary["k_mode"] == "auto"
    assert any(k == summary["k"] for k, _ in summary["inertia_curve"])
    assert summary == json.loads((out / "prep_summary.json").read_text())

    instance = load_instance(DATA / "toy_instance.json")
    scenarios = load_scenarios(out / "scenarios.json")
    assert validate_scenarios(instance, scenarios) == []
    assert scenarios.num_scenarios == summary["k"]
    np.testing.assert_allclose(np.asarray(summary["probabilities"]).sum(), 1.0)

    qdoc = json.loads((out / "q.json").read_text())
    q = np.asarray(qdoc["q"])
    sigma = np.asarray(qdoc["sigma"])
    assert np.linalg.norm(q @ q.T - sigma - qdoc["jitter"] * np.eye(3)) <= \
        1e-8 * np.linalg.norm(sigma)
    assert qdoc["markets"] == ["ALPHA", "BRAVO", "CHARLIE"]


def test_prepare_fixed_k_and_seed_determinism(capsys, tmp_path):
    args = ["prepare", "--instance", str(DATA / "toy_instance.json"),
            "--raw-csv", str(DATA / "toy_lmp.csv"), "--k", "4", "--seed", "3"]
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert run(capsys, *args, "--out", str(out1))[0] == 0
    assert run(capsys, *args, "--out", str(out2))[0] == 0
    for name in ("scenarios.json", "q.json", "prep_summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = json.loads((out1 / "prep_summary.json").read_text())
    assert summary["k"] == 4 and summary["k_mode"] == "fixed"
    assert summary["inertia_curve"] == [[4, summary["inertia"]]]  # a one-point curve


# sha256 of the prepare outputs on the bundled data, recorded from the
# row-by-row ingest and einsum k-means that the vectorized versions replaced
PREPARE_DIGESTS = {
    ("--k", "auto"): {
        "scenarios.json": "c320f547522528870933bd11fae28ad0a6e0783260a1b9c0163bb75f86949cb3",
        "q.json": "f1124983a4f86c48680975534ca9c8649cd851db0f62c8dcc2f00731264803b9",
        "prep_summary.json": "48ba030ecc32aa07b0767d351a66289de429307832ac118323d187ab894c822c",
    },
    ("--k", "16", "--seed", "7"): {
        "scenarios.json": "120e366ea3f0d5c94f7473b8d0b067b984d2cf90cf3af864c88d6ad891b1cb29",
        "q.json": "f1124983a4f86c48680975534ca9c8649cd851db0f62c8dcc2f00731264803b9",
        "prep_summary.json": "9855194f9dcdd22b2cdc66253fcf128789375d04fe122a7122e5d2b6928e6778",
    },
}


@pytest.mark.parametrize("k_args", list(PREPARE_DIGESTS), ids=["auto", "k16_seed7"])
def test_prepare_outputs_match_recorded_digests(capsys, tmp_path, k_args):
    out = tmp_path / "prep"
    code, _, _ = run(capsys, "prepare", "--instance", str(DATA / "toy_instance.json"),
                     "--raw-csv", str(DATA / "toy_lmp.csv"), *k_args, "--out", str(out))
    assert code == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in PREPARE_DIGESTS[k_args]}
    assert digests == PREPARE_DIGESTS[k_args]


def record_kmeans_runs(monkeypatch, log, exit_on=None):
    """Make every process append "pid k" to log for each k-means run it
    makes through the CLI; a forked worker calls os._exit(exit_on[1]) on
    its exit_on[0]-th run instead."""
    from spothedge import cli

    kmeans, parent, runs = cli.kmeans_reduce, os.getpid(), []

    def recorded(matrix, k, seed):
        runs.append(k)  # each process counts its own, from its fork on
        if exit_on is not None and os.getpid() != parent and len(runs) == exit_on[0]:
            os._exit(exit_on[1])
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {k}\n")
        return kmeans(matrix, k, seed)

    monkeypatch.setattr(cli, "kmeans_reduce", recorded)


def logged_runs(log) -> tuple[set[int], list[int]]:
    """The pids and the k values of the runs record_kmeans_runs logged."""
    pairs = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    return {pid for pid, _ in pairs}, sorted(k for _, k in pairs)


def test_prepare_auto_runs_kmeans_once_per_curve_point(capsys, tmp_path, monkeypatch):
    log = tmp_path / "runs.log"
    record_kmeans_runs(monkeypatch, log)
    code, _, _ = run(capsys, "prepare", "--instance", str(DATA / "toy_instance.json"),
                     "--raw-csv", str(DATA / "toy_lmp.csv"), "--out", str(tmp_path / "p"))
    assert code == 0
    pids, ks = logged_runs(log)
    assert ks == list(range(1, 11))  # the chosen k reuses its curve run
    assert os.getpid() in pids  # the parent runs at least one k itself
    assert_reaped(pids)


def gen_case(directory: pathlib.Path, hours: int, nodes: int, seed):
    """History and instance paths of a bench/gen.py case."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("gen", DATA.parent / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    directory.mkdir()
    csv_path, instance_path, *_ = gen.write_case(directory, hours, nodes, seed)
    return csv_path, instance_path


def prepare_outputs(capsys, tmp_path, name, csv_path, instance_path) -> dict:
    out = tmp_path / name
    code, stdout, _ = run(capsys, "prepare", "--instance", str(instance_path),
                          "--raw-csv", str(csv_path), "--out", str(out))
    assert code == 0
    return {"stdout": stdout.encode(),
            **{path.name: path.read_bytes() for path in sorted(out.iterdir())}}


@pytest.mark.parametrize("case", ["toy", "gen_3000h_8_nodes"])
def test_prepare_auto_outputs_do_not_depend_on_the_cpu_count(capsys, tmp_path, monkeypatch,
                                                             case):
    if case == "toy":
        inputs = DATA / "toy_lmp.csv", DATA / "toy_instance.json"
    else:
        inputs = gen_case(tmp_path / "case", 3000, 8, 5)
    default = prepare_outputs(capsys, tmp_path, "default", *inputs)
    for cpus in (1, 4):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        assert prepare_outputs(capsys, tmp_path, f"cpus{cpus}", *inputs) == default


@pytest.mark.parametrize("code", [0, 1])
def test_prepare_auto_survives_a_worker_that_exits_partway(capsys, tmp_path, monkeypatch,
                                                           code):
    inputs = DATA / "toy_lmp.csv", DATA / "toy_instance.json"
    want = prepare_outputs(capsys, tmp_path, "want", *inputs)
    log = tmp_path / "runs.log"
    # three workers besides the parent, each leaving on its second k
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    record_kmeans_runs(monkeypatch, log, exit_on=(2, code))
    assert prepare_outputs(capsys, tmp_path, "got", *inputs) == want
    pids, ks = logged_runs(log)
    assert set(ks) == set(range(1, 11))
    assert len(pids) > 1  # the workers ran a first k each before they left
    assert_reaped(pids)


def test_prepare_column_map_and_errors(capsys, tmp_path):
    # remapped column names round-trip through --columns
    src = tmp_path / "renamed.csv"
    with open(DATA / "toy_lmp.csv") as handle:
        body = handle.read().split("\n", 1)[1]
    src.write_text("when,where,lmp\n" + body)
    out = tmp_path / "prep"
    code, _, _ = run(capsys, "prepare",
                     "--instance", str(DATA / "toy_instance.json"),
                     "--raw-csv", str(src), "--k", "2", "--out", str(out),
                     "--columns", "timestamp=when,node=where,price=lmp")
    assert code == 0

    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,node,price\nt1,ALPHA,abc\n")
    code, _, err = run(capsys, "prepare",
                       "--instance", str(DATA / "toy_instance.json"),
                       "--raw-csv", str(bad), "--out", str(tmp_path / "x"))
    assert code == 2
    doc = stderr_json(err)
    assert doc["error"] == "parse" and doc["line"] == 2

    code, _, err = run(capsys, "prepare",
                       "--instance", str(DATA / "toy_instance.json"),
                       "--raw-csv", str(DATA / "toy_lmp.csv"),
                       "--k", "nope", "--out", str(tmp_path / "y"))
    assert code == 2 and stderr_json(err)["error"] == "usage"


@pytest.mark.parametrize("flags, config", [
    (["--seed", "-3"], {}),
    ([], {"seed": "abc"}),
    ([], {"seed": 1.5}),
    ([], {"k": 4.5}),
    ([], {"k": True}),
], ids=["seed_negative", "seed_text", "seed_fraction", "k_fraction", "k_bool"])
def test_prepare_rejects_a_seed_or_k_that_is_not_a_whole_number(capsys, tmp_path, flags, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, err = run(capsys, "prepare", "--config", str(path),
                       "--instance", str(DATA / "toy_instance.json"),
                       "--raw-csv", str(DATA / "toy_lmp.csv"), *flags,
                       "--out", str(tmp_path / "p"))
    assert code == 2
    doc = stderr_json(err)
    assert doc["error"] == "usage" and "non-negative integer" in doc["message"]
    assert not (tmp_path / "p").exists()


def test_prepare_reports_bytes_that_are_not_utf8_as_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"timestamp,node,price\nt1,ALPHA,1\nt1,BR\xffAVO,2\nt1,SYSTEM,3\n")
    code, _, err = run(capsys, "prepare",
                       "--instance", str(DATA / "toy_instance.json"),
                       "--raw-csv", str(bad), "--out", str(tmp_path / "x"))
    assert code == 2
    doc = stderr_json(err)
    assert doc["error"] == "parse" and doc["line"] == 3
    assert "UTF-8" in doc["message"]


def test_prepare_reports_a_field_over_the_csv_limit_as_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,node,price\nt1,ALPHA,1\n"
                   f't1,BRAVO,"{"9" * 200_000}"\nt1,SYSTEM,3\n')
    code, _, err = run(capsys, "prepare",
                       "--instance", str(DATA / "toy_instance.json"),
                       "--raw-csv", str(bad), "--out", str(tmp_path / "x"))
    assert code == 2
    doc = stderr_json(err)
    assert doc["error"] == "parse" and doc["line"] == 3
    assert "field limit" in doc["message"]


def test_prepare_rejects_unknown_market_nodes(capsys, tmp_path):
    instance = micro_instance()  # market "hub" does not appear in the CSV
    ipath = tmp_path / "i.json"
    save_instance(instance, ipath)
    code, _, err = run(capsys, "prepare", "--instance", str(ipath),
                       "--raw-csv", str(DATA / "toy_lmp.csv"),
                       "--out", str(tmp_path / "prep"))
    assert code == 2
    doc = stderr_json(err)
    assert doc["error"] == "data" and "hub" in doc["message"]


@pytest.mark.parametrize("case, message", [
    ("one_observation",
     "covariance estimation failed: covariance needs at least two observations"),
    ("hole", "node BRAVO has no price at 2024-01-01T01:00"),
    ("no_elasticity_rule", "instance has no elasticity rule for market 'BRAVO'")])
def test_prepare_on_inputs_that_make_no_scenarios_is_a_data_error(capsys, tmp_path, case,
                                                                  message):
    lines = (DATA / "toy_lmp.csv").read_text().splitlines(keepends=True)
    ipath = DATA / "toy_instance.json"
    if case == "one_observation":
        lines = lines[:5]  # the header and the first hour's four nodes
    elif case == "hole":
        lines = [line for line in lines if not line.startswith("2024-01-01T01:00,BRAVO,")]
    else:
        doc = json.loads(ipath.read_text())
        del doc["elasticity"]["BRAVO"]
        ipath = tmp_path / "instance.json"
        ipath.write_text(json.dumps(doc))
    csv_path = tmp_path / "history.csv"
    csv_path.write_text("".join(lines))
    code, _, err = run(capsys, "prepare", "--instance", str(ipath), "--raw-csv", str(csv_path),
                       "--out", str(tmp_path / "out"))
    assert code == 2
    assert one_json_object(err) == {"error": "data", "message": message}


# ----------------------------------------------------------------------
# config files

def one_json_object(err: str) -> dict:
    """stderr holds exactly one JSON object, on one line."""
    assert err.endswith("\n") and err.count("\n") == 1
    doc = json.loads(err)
    assert isinstance(doc, dict)
    return doc


def run_in(capsys, monkeypatch, cwd, *argv):
    """Run argv from a fresh directory cwd; also return the files it wrote there."""
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    code, stdout, err = run(capsys, *argv)
    files = {path.relative_to(cwd).as_posix(): path.read_bytes()
             for path in sorted(cwd.rglob("*")) if path.is_file()}
    return code, stdout, err, files


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("command, entry, flags", [
    ("sweep", {"lambda": "abc"}, ["--lambda", "abc"]),
    ("sweep", {"lambda": True}, ["--lambda", "true"]),
    ("solve", {"alpha": "x"}, ["--alpha", "x"]),
    ("solve", {"gamma": [0.5, 1.5]}, ["--gamma", "0.5,1.5"]),
    ("solve", {"kind": 3}, ["--kind", "3"]),
    ("solve", {"instance": "\u0000"}, None),
    ("solve", {"instance": "\ud800"}, None),
], ids=["lambda_text", "lambda_bool", "alpha_text", "gamma_out_of_range", "kind_number",
        "name_with_nul", "name_with_lone_surrogate"])
def test_a_bad_config_entry_fails_as_its_flag_does(capsys, micro_files, tmp_path,
                                                  command, entry, flags):
    """Each entry goes through the flag's own parse: a value the flag
    refuses exits 2 with one JSON usage error, the flag's own message, where
    the parent exited 1 with a traceback ({"lambda": "abc"} in a sweep)."""
    ipath, spath = micro_files
    config = write_config(tmp_path / "config.json", entry)
    base = [command, "--instance", str(ipath), "--scenarios", str(spath),
            "--out", str(tmp_path / "out")]
    code, _, err = run(capsys, *base, "--config", config)
    doc = one_json_object(err)
    assert code == 2 and doc["error"] == "usage"
    assert doc["message"].startswith(f"argument --{next(iter(entry))}")
    if flags is not None:  # no command line can carry these two names
        assert run(capsys, *base, *flags) == (2, "", err)


@pytest.mark.parametrize("command, entry, flags, other", [
    ("sweep", {"lambda": [1]}, ["--lambda", "1"], ["--alpha-grid", "0.5", "--out", "o"]),
    ("solve", {"alpha": [0.3]}, ["--alpha", "0.3"], ["--kind", "cvar"]),
    ("solve", {"out": 3}, ["--out", "3"], []),
], ids=["lambda_list", "alpha_list", "out_number"])
def test_a_config_entry_runs_as_its_flag_does(capsys, monkeypatch, micro_files, tmp_path,
                                              command, entry, flags, other):
    """The parent exited 1 with a traceback on these entries; now a
    one-item list reads as its item and a number as its digits, as the
    flags --lambda 1, --alpha 0.3 and --out 3 do."""
    ipath, spath = micro_files
    config = write_config(tmp_path / "config.json", entry)
    base = [command, "--instance", str(ipath), "--scenarios", str(spath), *other]
    from_config = run_in(capsys, monkeypatch, tmp_path / "config", *base, "--config", config)
    from_flags = run_in(capsys, monkeypatch, tmp_path / "flags", *base, *flags)
    assert from_config == from_flags
    code, stdout, err, files = from_config
    assert code == 0 and stdout and err == ""
    if "out" in entry:
        assert list(files) == ["3/report.json"]


def renamed_toy_csv(path):
    with open(DATA / "toy_lmp.csv") as handle:
        body = handle.read().split("\n", 1)[1]
    path.write_text("when,where,lmp\n" + body)
    return str(path)


def test_config_and_flags_give_byte_identical_outputs(capsys, monkeypatch, micro_files,
                                                      tmp_path):
    ipath, spath = micro_files
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps({"markets": ["hub"], "q": [[1.0]]}))
    csv_path = renamed_toy_csv(tmp_path / "renamed.csv")
    cases = {
        "solve": ({"instance": str(ipath), "scenarios": str(spath), "kind": "cvar",
                   "alpha": 0.5, "lambda": 0.2, "epsilon": None, "gamma": [0.5, 0.8],
                   "out": "o"},
                  ["--instance", str(ipath), "--scenarios", str(spath), "--kind", "cvar",
                   "--alpha", "0.5", "--lambda", "0.2", "--gamma", "0.5,0.8", "--out", "o"]),
        "sweep": ({"instance": str(ipath), "scenarios": str(spath), "alpha_grid": [0.5, 1.0],
                   "lambda": 0.0, "epsilon_grid": [0, 5], "q": str(qpath),
                   "dro_penalty": "per_period", "gamma": [0.5], "out": "o"},
                  ["--instance", str(ipath), "--scenarios", str(spath),
                   "--alpha-grid", "0.5,1.0", "--lambda", "0.0", "--epsilon-grid", "0,5",
                   "--q", str(qpath), "--dro-penalty", "per_period", "--gamma", "0.5",
                   "--out", "o"]),
        "prepare": ({"instance": str(DATA / "toy_instance.json"), "raw_csv": csv_path,
                     "columns": {"timestamp": "when", "node": "where", "price": "lmp"},
                     "k": 4, "seed": 3, "out": "o"},
                    ["--instance", str(DATA / "toy_instance.json"), "--raw-csv", csv_path,
                     "--columns", "timestamp=when,node=where,price=lmp", "--k", "4",
                     "--seed", "3", "--out", "o"]),
    }
    for command, (doc, flags) in cases.items():
        config = write_config(tmp_path / f"{command}.json", doc)
        from_config = run_in(capsys, monkeypatch, tmp_path / f"{command}_config",
                             command, "--config", config)
        from_flags = run_in(capsys, monkeypatch, tmp_path / f"{command}_flags",
                            command, *flags)
        assert from_config == from_flags, command
        assert from_config[0] == 0 and from_config[3], command


def test_config_keys_of_another_subcommand_are_ignored_and_unknown_keys_refused(
        capsys, micro_files, tmp_path):
    ipath, spath = micro_files
    config = write_config(tmp_path / "config.json", {
        "instance": str(ipath), "scenarios": str(spath),
        "k": "not a count", "alpha_grid": [0.5], "seed": -1, "raw_csv": None})
    code, stdout, _ = run(capsys, "solve", "--config", config)
    assert code == 0
    assert stdout == run(capsys, "solve", "--instance", str(ipath), "--scenarios", str(spath))[1]

    config = write_config(tmp_path / "config.json", {"instance": str(ipath), "lam": 0.2})
    code, _, err = run(capsys, "solve", "--config", config)
    assert code == 2
    assert one_json_object(err) == {"error": "usage", "message": "config has unknown keys ['lam']"}


def test_a_config_that_is_not_a_json_object_is_a_parse_error(capsys, micro_files, tmp_path):
    ipath, spath = micro_files
    config = write_config(tmp_path / "config.json", [{"instance": str(ipath)}])
    code, _, err = run(capsys, "solve", "--config", config, "--scenarios", str(spath))
    assert code == 2
    assert one_json_object(err) == {"error": "parse",
                                    "message": f"config {config} must be a JSON object"}


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
JSON_VALUES = (JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3)
               | st.dictionaries(st.text(max_size=8), JSON_SCALARS, max_size=3))

# config key -> (subcommand, flags that leave the key the one input in question);
# "out" is left out, as a drawn value would name a directory to create
PROPERTY_RUNS = {
    "instance": ("solve", []),
    "scenarios": ("solve", ["--instance", "{instance}"]),
    "kind": ("solve", ["--q", "{q}"]),
    "alpha": ("solve", ["--kind", "cvar"]),
    "lambda": ("solve", ["--kind", "cvar"]),
    "epsilon": ("solve", ["--kind", "dro", "--q", "{q}"]),
    "q": ("solve", ["--kind", "dro"]),
    "dro_penalty": ("solve", ["--kind", "dro", "--q", "{q}"]),
    "gamma": ("solve", []),
    "alpha_grid": ("sweep", []),
    "epsilon_grid": ("sweep", ["--q", "{q}"]),
    "raw_csv": ("prepare", []),
    "columns": ("prepare", ["--raw-csv", "{csv}"]),
    "k": ("prepare", ["--raw-csv", "{csv}"]),
    "seed": ("prepare", ["--raw-csv", "{csv}"]),
}


@pytest.fixture(scope="module")
def property_files(tmp_path_factory):
    """Micro-instance inputs, with an elasticity rule and a six-hour price
    history for prepare."""
    root = tmp_path_factory.mktemp("property")
    instance = dataclasses.replace(micro_instance(),
                                   elasticity={"hub": ElasticityCurve(1, 100.0, 0.0)})
    files = {name: root / name for name in ("instance.json", "scenarios.json", "q.json",
                                            "history.csv")}
    save_instance(instance, files["instance.json"])
    save_scenarios(micro_scenarios(), files["scenarios.json"])
    files["q.json"].write_text(json.dumps({"markets": ["hub"], "q": [[1.0]]}))
    files["history.csv"].write_text("timestamp,node,price\n" + "".join(
        f"t{t},hub,{price}\nt{t},SYSTEM,35\n"
        for t, price in enumerate((50, 20, 45, 25, 30, 40))))
    return {"instance": str(files["instance.json"]), "scenarios": str(files["scenarios.json"]),
            "q": str(files["q.json"]), "csv": str(files["history.csv"]), "out": str(root / "out")}


@pytest.mark.parametrize("key", list(PROPERTY_RUNS))
@settings(max_examples=12, deadline=None)
@given(value=JSON_VALUES)
def test_any_json_config_value_exits_cleanly(property_files, key, value):
    """Whatever JSON a config entry holds, the run succeeds or fails with
    exit 2 or 3 and one JSON object on stderr, never with a traceback."""
    command, flags = PROPERTY_RUNS[key]
    inputs = {"instance": ["--instance", property_files["instance"]],
              "scenarios": ["--scenarios", property_files["scenarios"]]}
    if command == "prepare":
        inputs.pop("scenarios")
    inputs.pop(key, None)
    config = pathlib.Path(property_files["out"] + ".json")
    config.write_text(json.dumps({key: value}))
    argv = [command, *(arg for pair in inputs.values() for arg in pair),
            *(arg.format(**property_files) for arg in flags),
            "--out", property_files["out"], "--config", str(config)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 2, 3)
    assert (code == 0) == (stderr.getvalue() == "")
    if code:
        one_json_object(stderr.getvalue())


# ----------------------------------------------------------------------
# validate

def test_validate_accepts_good_pair(capsys, micro_files):
    ipath, spath = micro_files
    code, stdout, _ = run(capsys, "validate", "--instance", str(ipath),
                          "--scenarios", str(spath))
    assert code == 0
    assert json.loads(stdout) == {"ok": True, "problems": []}


def test_validate_reports_problems(capsys, micro_files, tmp_path):
    ipath, _ = micro_files
    wrong = tmp_path / "wrong.json"
    save_scenarios(micro_scenarios(), wrong)
    doc = json.loads(wrong.read_text())
    for entry in doc["spot"]:
        entry["market"] = "elsewhere"
    wrong.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", "--instance", str(ipath),
                       "--scenarios", str(wrong))
    assert code == 2
    payload = stderr_json(err)
    assert payload["error"] == "data"
    assert any("do not match" in p for p in payload["problems"])


def test_validate_takes_no_out_flag(capsys, micro_files, tmp_path):
    """validate writes no file, so --out is a usage error there, and a
    config file's "out" entry is another subcommand's flag, ignored."""
    ipath, spath = micro_files
    inputs = ["--instance", str(ipath), "--scenarios", str(spath)]
    code, stdout, err = run(capsys, "validate", *inputs, "--out", str(tmp_path / "d"))
    doc = one_json_object(err)
    assert (code, stdout, doc["error"]) == (2, "", "usage")
    assert "--out" in doc["message"]
    assert not (tmp_path / "d").exists()
    config = write_config(tmp_path / "config.json", {"out": str(tmp_path / "d")})
    assert run(capsys, "validate", *inputs, "--config", config) == \
        run(capsys, "validate", *inputs)
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("command", ["validate", "solve"])
def test_unreadable_scenarios_are_io_and_parse_errors(capsys, micro_files, tmp_path, command):
    ipath, _ = micro_files
    missing, bad = tmp_path / "missing.json", tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, command, "--instance", str(ipath), "--scenarios", str(missing))
    assert code == 2
    assert stderr_json(err) == {
        "error": "io", "message": f"cannot read scenarios {missing}: "
                                  f"[Errno 2] No such file or directory: '{missing}'"}
    code, _, err = run(capsys, command, "--instance", str(ipath), "--scenarios", str(bad))
    assert code == 2
    assert stderr_json(err) == {
        "error": "parse", "message": f"scenarios {bad}: Expecting property name enclosed "
                                     "in double quotes: line 1 column 2 (char 1)"}


def test_a_fractional_scenario_index_is_a_parse_error(capsys, micro_files, tmp_path):
    ipath, spath = micro_files
    doc = json.loads(spath.read_text())
    doc["spot"][1]["scenario"] = 1.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", "--instance", str(ipath), "--scenarios", str(bad))
    assert code == 2
    assert stderr_json(err) == {
        "error": "parse", "message": f"scenarios {bad}: spot entry: 'scenario' must be "
                                     "a non-negative integer, got 1.5"}


def _contract(doc, **fields):
    return {**doc, "contracts": [{**doc["contracts"][0], **fields}]}


def _curve(**fields):
    return {"hub": {"steps": 1, "width": 40.0, "decrement": 1.0, **fields}}


@pytest.mark.parametrize("what, change, message", [
    ("instance", lambda doc: [doc], "instance must be an object, got list"),
    ("instance", lambda doc: {**doc, "markets": "ABC"},
     "instance: 'markets' must be an array, got str"),
    ("instance", lambda doc: {**doc, "contracts": doc["contracts"][0]},
     "instance: 'contracts' must be an array, got dict"),
    ("instance", lambda doc: {**doc, "contracts": [list(doc["contracts"][0].values())]},
     "contract must be an object, got list"),
    ("instance", lambda doc: {**doc, "contracts": [{**doc["contracts"][0],
                                                    "wholesale_price": "36"}]},
     "contract: 'wholesale_price' must be an array, got str"),
    ("instance", lambda doc: {**doc, "supply_steps": doc["supply_steps"][0]},
     "instance: 'supply_steps' must be an array, got dict"),
    ("instance", lambda doc: {**doc, "supply_steps": [[100.0, 0.0]]},
     "supply step must be an object, got list"),
    ("instance", lambda doc: {**doc, "production_limits": doc["production_limits"][0]},
     "instance: 'production_limits' must be an array, got dict"),
    ("instance", lambda doc: {**doc, "production_limits": [[100.0, 100.0]]},
     "production limit must be an object, got list"),
    ("instance", lambda doc: {**doc, "transport_cost": "x"},
     "instance: 'transport_cost' must be an object, got str"),
    ("instance", lambda doc: {**doc, "transport_cost": []},
     "instance: 'transport_cost' must be an object, got list"),
    ("instance", lambda doc: {**doc, "elasticity": []},
     "instance: 'elasticity' must be an object, got list"),
    ("instance", lambda doc: {**doc, "elasticity": {"hub": [3, 40.0, 1.0]}},
     "elasticity must be an object, got list"),
    ("scenarios", lambda doc: {**doc, "probabilities": {"0": 0.5, "1": 0.5}},
     "scenarios: 'probabilities' must be an array, got dict"),
    ("scenarios", lambda doc: {**doc, "spot": doc["spot"][0]},
     "scenarios: 'spot' must be an array, got dict"),
    ("scenarios", lambda doc: {**doc, "spot": [list(e.values()) for e in doc["spot"]]},
     "spot entry must be an object, got list"),
    ("instance", lambda doc: _contract(doc, max_volume="50"),
     "contract: 'max_volume' must be a number, got str"),
    ("instance", lambda doc: _contract(doc, flex_above_min=True),
     "contract: 'flex_above_min' must be a number, got bool"),
    ("instance", lambda doc: _contract(doc, wholesale_price=["36"]),
     "contract: 'wholesale_price' entry must be a number, got str"),
    ("instance", lambda doc: _contract(doc, max_volume=10 ** 309),
     f"contract: 'max_volume' is out of range, got {10 ** 309}"),
    ("instance", lambda doc: _contract(doc, market=1),
     "contract: 'market' must be a string, got int"),
    ("instance", lambda doc: {**doc, "markets": [1]},
     "instance: market name must be a string, got int"),
    ("instance", lambda doc: {**doc, "supply_steps": [{"capacity": True, "unit_cost": 0.0}]},
     "supply step: 'capacity' must be a number, got bool"),
    ("instance", lambda doc: {**doc, "supply_steps": [{"capacity": 100.0, "unit_cost": None}]},
     "supply step: 'unit_cost' must be a number, got NoneType"),
    ("instance", lambda doc: {**doc, "transport_cost": {"hub": "1.5"}},
     "instance: transport_cost 'hub' must be a number, got str"),
    ("instance", lambda doc: {**doc, "production_limits": [{"lower": "100", "upper": 100.0}]},
     "production limit: 'lower' must be a number, got str"),
    ("instance", lambda doc: {**doc, "production_limits": [{"lower": 100.0, "upper": [100]}]},
     "production limit: 'upper' must be a number, got list"),
    ("instance", lambda doc: {**doc, "elasticity": _curve(width="40")},
     "elasticity: 'width' must be a number, got str"),
    ("instance", lambda doc: {**doc, "elasticity": _curve(decrement=False)},
     "elasticity: 'decrement' must be a number, got bool"),
    ("scenarios", lambda doc: {**doc, "probabilities": ["0.5", 0.5]},
     "scenarios: probability must be a number, got str"),
    ("scenarios", lambda doc: {**doc, "spot": [{**doc["spot"][0], "price": "50"}]},
     "spot entry: 'price' must be a number, got str"),
    ("scenarios", lambda doc: {**doc, "spot": [{**doc["spot"][0], "width": True}]},
     "spot entry: 'width' must be a number, got bool"),
    ("scenarios", lambda doc: {**doc, "spot": [{**doc["spot"][0], "market": 0}]},
     "spot entry: 'market' must be a string, got int"),
], ids=["instance_array", "markets_text", "contracts_object", "contract_array",
        "wholesale_price_text", "supply_steps_object", "supply_step_array",
        "production_limits_object", "production_limit_array", "transport_cost_text",
        "transport_cost_array", "elasticity_array", "elasticity_curve_array",
        "probabilities_object", "spot_object", "spot_entry_array",
        "max_volume_text", "flex_above_min_bool", "wholesale_price_entry_text",
        "max_volume_past_float", "contract_market_number", "market_name_number",
        "capacity_bool", "unit_cost_null", "transport_cost_value_text", "lower_text",
        "upper_array", "width_text", "decrement_bool", "probability_text",
        "spot_price_text", "spot_width_bool", "spot_market_number"])
def test_a_field_of_the_wrong_json_type_is_a_parse_error(capsys, micro_files,
                                                         what, change, message):
    """Each field has its JSON type: an array, an object, a string for a
    market name, or a number that is not a boolean.  Anything else exits 2
    with a parse error that names the field.  Unchecked, a transport_cost of
    text or an elasticity array exited 1 (AttributeError), markets "ABC"
    read as three markets, a wholesale_price of "36" as (3.0, 6.0), and
    "max_volume": "50" and "capacity": true passed validate as 50.0 and
    1.0."""
    ipath, spath = micro_files
    path = {"instance": ipath, "scenarios": spath}[what]
    path.write_text(json.dumps(change(json.loads(path.read_text()))))
    code, stdout, err = run(capsys, "validate", "--instance", str(ipath),
                            "--scenarios", str(spath))
    assert (code, stdout) == (2, "")
    assert stderr_json(err)["error"] == "parse"
    assert stderr_json(err)["message"] == f"{what} {path}: {message}"


def test_q_file_market_order_is_aligned(tmp_path):
    # two markets, q given in reversed market order: rows must be permuted
    from spothedge.cli import _load_q
    from spothedge.domain import MarketInstance, SupplyStep
    instance = MarketInstance(
        markets=("east", "west"), contracts=(),
        supply_steps=(SupplyStep(10.0, 0.0),),
        transport_cost={}, production_limits=((0.0, 10.0),), periods=1)
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps({"markets": ["west", "east"],
                                 "q": [[1.0, 0.0], [2.0, 3.0]]}))
    q = _load_q(qpath, instance)
    np.testing.assert_allclose(q, [[2.0, 3.0], [1.0, 0.0]])


def test_importing_the_cli_starts_no_process_machinery():
    """A fresh import of spothedge.cli loads neither multiprocessing nor
    concurrent: either adds milliseconds to every start of the tool."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = ("import json, sys, spothedge.cli; print(json.dumps(sorted("
              "name for name in sys.modules "
              "if name.partition('.')[0] in ('multiprocessing', 'concurrent'))))")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


# prepare, solve and sweep on the bundled data, then the scipy modules loaded
NUMPY_ONLY_SCRIPT = """
import contextlib, io, json, sys
from spothedge.cli import main
data, out = sys.argv[1], sys.argv[2]
instance = ["--instance", data + "/toy_instance.json"]
scenarios = ["--scenarios", out + "/scenarios.json"]
runs = (["prepare", *instance, "--raw-csv", data + "/toy_lmp.csv", "--k", "4",
         "--seed", "7", "--out", out],
        ["solve", *instance, *scenarios, "--kind", "dro", "--epsilon", "1",
         "--q", out + "/q.json"],
        ["sweep", *instance, *scenarios, "--alpha-grid", "0.25,1.0",
         "--epsilon-grid", "0,1", "--q", out + "/q.json", "--out", out])
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(json.dumps(sorted(name for name in sys.modules if name.startswith("scipy"))))
"""


def test_cli_runs_on_numpy_alone(tmp_path):
    """The README promises no external solver: a prepare, solve and sweep
    run loads no scipy module, whether or not scipy is installed."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", NUMPY_ONLY_SCRIPT, str(DATA), str(tmp_path)],
                            capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []
