"""Metric tests: empirical CVaR against the Rockafellar form, rows, sweeps."""

import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import micro_instance, micro_scenarios
from helpers import toy_case
from spothedge import metrics
from spothedge.formulations import (CVAR, DRO, PER_PERIOD, PER_SCENARIO,
                                    RISK_NEUTRAL, FormulationConfig,
                                    build_risk_neutral, extract_report,
                                    solve_allocation)
from spothedge.linprog import NumericalFailure
from spothedge.metrics import (
    CSV_HEADER,
    DegenerateTail,
    MetricRow,
    empirical_cvar,
    metric_row,
    risk_free_profit,
    sweep,
    write_metrics_csv,
)
from spothedge.simplex import solve


def rockafellar_value(profits, probs, gamma):
    """max over eta in {z_s} of eta - E[(eta - z)^+] / (1 - gamma).

    For a discrete distribution the maximizer is the (1-gamma)-quantile,
    which is one of the atoms, so restricting eta to the profit values is
    exact; the optimum equals the lower-tail expectation.
    """
    z = np.asarray(profits, dtype=float)
    pi = np.asarray(probs, dtype=float)
    beta = 1.0 - gamma
    return max(float(eta - pi @ np.maximum(eta - z, 0.0) / beta) for eta in z)


def test_frozen_quarters():
    z = [1.0, 2.0, 3.0, 4.0]
    pi = [0.25] * 4
    assert empirical_cvar(z, pi, 0.5) == pytest.approx(1.5, abs=1e-12)
    assert empirical_cvar(z, pi, 0.9) == pytest.approx(1.0, abs=1e-12)


def test_single_scenario_any_gamma():
    for gamma in (0.0, 0.3, 0.9):
        assert empirical_cvar([17.5], [1.0], gamma) == pytest.approx(17.5, abs=1e-12)


def test_gamma_zero_is_plain_mean():
    z = [5.0, -3.0, 11.0]
    pi = [0.2, 0.3, 0.5]
    assert empirical_cvar(z, pi, 0.0) == pytest.approx(float(np.dot(z, pi)), abs=1e-12)


def test_degenerate_gamma_rejected():
    with pytest.raises(DegenerateTail):
        empirical_cvar([1.0, 2.0], [0.5, 0.5], 1.0)
    with pytest.raises(DegenerateTail):
        empirical_cvar([1.0, 2.0], [0.5, 0.5], -0.1)


def test_matches_rockafellar_on_random_distributions():
    rng = np.random.default_rng(99)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        z = rng.normal(0.0, 50.0, size=n)
        pi = rng.random(n) + 0.05
        pi /= pi.sum()
        gamma = float(rng.uniform(0.0, 0.98))
        want = rockafellar_value(z, pi, gamma)
        got = empirical_cvar(z, pi, gamma)
        assert got == pytest.approx(want, abs=1e-9 * (1 + abs(want)))


@settings(max_examples=200, deadline=None)
@given(
    z=st.lists(st.floats(-1e4, 1e4, allow_nan=False), min_size=1, max_size=9),
    shift=st.floats(-1e4, 1e4, allow_nan=False),
    gamma=st.floats(0.0, 0.95, allow_nan=False),
)
def test_translation_equivariance(z, shift, gamma):
    pi = [1.0 / len(z)] * len(z)
    base = empirical_cvar(z, pi, gamma)
    moved = empirical_cvar([v + shift for v in z], pi, gamma)
    assert moved == pytest.approx(base + shift, abs=1e-6)


@settings(max_examples=200, deadline=None)
@given(
    z=st.lists(st.floats(-1e4, 1e4, allow_nan=False), min_size=1, max_size=9),
    g=st.tuples(st.floats(0.0, 0.95), st.floats(0.0, 0.95)),
)
def test_harder_tail_never_helps_and_never_beats_mean(z, g):
    pi = [1.0 / len(z)] * len(z)
    lo, hi = sorted(g)
    mean = float(np.dot(z, pi))
    assert empirical_cvar(z, pi, hi) <= empirical_cvar(z, pi, lo) + 1e-6
    assert empirical_cvar(z, pi, hi) <= mean + 1e-6


def test_risk_free_profit_frozen_values(canonical):
    instance, scenarios = canonical
    assert risk_free_profit(instance, scenarios) == pytest.approx(3000.0, abs=1e-6)
    costly = micro_instance(production_cost=5.0)
    assert risk_free_profit(costly, scenarios) == pytest.approx(2500.0, abs=1e-6)


def test_risk_free_profit_equals_the_pinned_all_scenario_model():
    """The one-scenario risk-free LP has the optimum of the S-scenario
    risk-neutral LP with every spot sale pinned to 0 (toy data, S = 8)."""
    instance, scenarios, _ = toy_case(8)
    lp, vm = build_risk_neutral(instance, scenarios)
    for col in vm.y_spot.values():
        lp.upper[col] = 0.0
    full = extract_report(instance, scenarios, FormulationConfig(), vm,
                          solve(lp)).objective_value
    got = risk_free_profit(instance, scenarios)
    assert abs(got - full) <= 1e-9 * max(1.0, abs(full))


def test_metric_row_canonical_all_spot(canonical):
    instance, scenarios = canonical
    row = metric_row(instance, scenarios, FormulationConfig(kind=RISK_NEUTRAL), 0.5)
    assert row.source == RISK_NEUTRAL
    assert row.zeta == pytest.approx(3500.0, abs=1e-6)
    assert row.chi == pytest.approx(2000.0, abs=1e-6)
    assert row.zeta_riskfree == pytest.approx(3000.0, abs=1e-6)
    assert row.delta_zeta == pytest.approx(500.0, abs=1e-6)
    assert row.delta_chi == pytest.approx(1000.0, abs=1e-6)
    assert row.rho == pytest.approx(0.5, abs=1e-9)
    assert row.spot_fraction == pytest.approx(1.0, abs=1e-9)


def test_metric_row_undefined_rho_for_all_contract():
    # mean below contract price: optimal allocation has no spot, chi == zeta_riskfree
    instance = micro_instance()
    scenarios = micro_scenarios((40.0, 10.0))
    row = metric_row(instance, scenarios, FormulationConfig(kind=RISK_NEUTRAL), 0.5)
    assert row.rho is None
    assert row.delta_chi == pytest.approx(0.0, abs=1e-6)


def test_sweep_alpha_one_row_equals_anchor(canonical):
    instance, scenarios = canonical
    q = np.array([[1.0]])
    rows = sweep(instance, scenarios, alphas=(0.25, 0.5, 0.75, 1.0), lam=0.0,
                 epsilons=(0.0,), q_matrix=q, gammas=(0.5,))
    assert len(rows) == 6  # anchor + 4 cvar + 1 dro
    anchor = [r for r in rows if r.source == RISK_NEUTRAL][0]
    cvar_one = [r for r in rows if r.source == CVAR and r.alpha == 1.0][0]
    dro_zero = [r for r in rows if r.source == DRO][0]
    for twin in (cvar_one, dro_zero):
        assert twin.zeta == anchor.zeta
        assert twin.chi == anchor.chi
        assert twin.spot_fraction == anchor.spot_fraction
        assert twin.rho == anchor.rho
    fractions = [r.spot_fraction for r in rows]
    assert fractions == sorted(fractions)


def test_sweep_hard_cvar_point_has_zero_spot(canonical):
    instance, scenarios = canonical
    rows = sweep(instance, scenarios, alphas=(0.5,), lam=0.0, gammas=(0.5,))
    hard = [r for r in rows if r.source == CVAR][0]
    assert hard.spot_fraction == pytest.approx(0.0, abs=1e-9)


def test_csv_format(tmp_path, canonical):
    instance, scenarios = canonical
    rows = sweep(instance, scenarios, alphas=(0.5,), lam=0.0, gammas=(0.5, 0.9))
    out = tmp_path / "metrics.csv"
    write_metrics_csv(rows, out)
    text = out.read_text().splitlines()
    assert text[0] == ",".join(CSV_HEADER)
    parsed = list(csv.DictReader(out.open()))
    assert len(parsed) == len(rows)
    cvar_cells = [p for p in parsed if p["source"] == "cvar"][0]
    assert cvar_cells["alpha"] == "0.5"
    assert cvar_cells["epsilon"] == ""
    neutral_cells = [p for p in parsed if p["source"] == "risk_neutral"][0]
    assert neutral_cells["alpha"] == ""
    # undefined rho must round-trip as an empty cell
    undef = [p for p in parsed if p["rho"] == ""]
    defined = [p for p in parsed if p["rho"] != ""]
    assert undef or defined  # header sanity; detailed value checks below
    for p in parsed:
        for key in ("zeta", "chi", "zeta_riskfree"):
            float(p[key])  # 9-significant-digit cells must parse


def test_nine_significant_digits(tmp_path, canonical):
    instance, scenarios = canonical
    rows = [MetricRow(source="risk_neutral", alpha=None, lam=None, epsilon=None,
                      gamma=0.9, spot_fraction=1 / 3, zeta=1234.56789123,
                      chi=-0.000123456789123, zeta_riskfree=0.0, delta_zeta=0.0,
                      delta_chi=0.0, rho=None)]
    out = tmp_path / "digits.csv"
    write_metrics_csv(rows, out)
    record = out.read_text().splitlines()[1].split(",")
    assert record[CSV_HEADER.index("zeta")] == "1234.56789"
    assert record[CSV_HEADER.index("chi")] == "-0.000123456789"
    assert record[CSV_HEADER.index("rho")] == ""


ALPHAS = (0.05, 0.1, 0.25, 0.5, 0.75, 1.0)
EPSILONS = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
GAMMAS = (0.9, 0.75)
LAM = 0.1


def toy_sweep(k: int, failures=None, dro_penalty=PER_SCENARIO):
    instance, scenarios, q = toy_case(k)
    return sweep(instance, scenarios, alphas=ALPHAS, lam=LAM, epsilons=EPSILONS,
                 q_matrix=q, dro_penalty=dro_penalty, gammas=GAMMAS,
                 failures=failures)


def cold_rows(k: int, dro_penalty=PER_SCENARIO) -> dict:
    """metric_row of every toy grid point and gamma, each point solved alone,
    keyed by (source, alpha, epsilon, gamma)."""
    instance, scenarios, q = toy_case(k)
    riskfree = risk_free_profit(instance, scenarios)
    neutral = solve_allocation(instance, scenarios, FormulationConfig())
    points = [(RISK_NEUTRAL, None, None, None)]
    points += [(CVAR, alpha, LAM, None) for alpha in ALPHAS]
    points += [(DRO, None, None, epsilon) for epsilon in EPSILONS]
    rows = {}
    for source, alpha, lam, epsilon in points:
        if source == CVAR and alpha != 1.0:
            config = FormulationConfig(kind=CVAR, alpha=alpha, lam=lam)
        elif source == DRO and epsilon != 0.0:
            config = FormulationConfig(kind=DRO, epsilon=epsilon, q_matrix=q,
                                       dro_penalty=dro_penalty)
        else:
            config = FormulationConfig()  # the grid points that reuse the anchor
        report = neutral if config.kind == RISK_NEUTRAL else solve_allocation(
            instance, scenarios, config)
        for gamma in GAMMAS:
            row = metric_row(instance, scenarios, config, gamma, report=report,
                             riskfree=riskfree)
            rows[source, alpha, epsilon, gamma] = dataclasses.replace(
                row, source=source, alpha=alpha, lam=lam, epsilon=epsilon)
    return rows


def keyed(rows) -> dict:
    return {(r.source, r.alpha, r.epsilon, r.gamma): r for r in rows}


@pytest.mark.parametrize("k, dro_penalty", [
    pytest.param(8, PER_SCENARIO, id="8"),
    pytest.param(16, PER_SCENARIO, id="16"),
    pytest.param(8, PER_PERIOD, id="8-per_period"),
    pytest.param(16, PER_PERIOD, id="16-per_period"),
])
def test_warm_started_sweep_rows_equal_cold_rows(k, dro_penalty):
    assert keyed(toy_sweep(k, dro_penalty=dro_penalty)) == cold_rows(k, dro_penalty)


def test_sweep_orders_rows_on_printed_spot_fraction():
    """Rows whose spot_fraction prints alike are ordered by source, alpha,
    epsilon and gamma, whatever their last bits (toy S = 16 has nine such
    grid points)."""
    rows = toy_sweep(16)
    keys = [(float(f"{r.spot_fraction:.9g}"), r.source, r.alpha or 0.0,
             r.epsilon or 0.0, r.gamma) for r in rows]
    assert keys == sorted(keys)
    assert len({k[0] for k in keys}) < len(keys)  # some printed values tie


def record_sweep_starts(monkeypatch, fail_alpha=None):
    """Patch metrics so that each grid point's start is recorded, keyed by
    (source, alpha or epsilon), and the CVaR point at fail_alpha raises
    NumericalFailure.

    A grid point's program comes from metrics.build, or from metrics.reprice
    after its grid's first point; both are patched to note the config of the
    program they return, and the note keeps the program alive."""
    configs = {}  # LinearProgram -> config
    starts = {}
    real_build, real_reprice, real_solve = metrics.build, metrics.reprice, metrics.solve

    def recording_build(instance, scenarios, config):
        lp, vm = real_build(instance, scenarios, config)
        configs[lp] = config
        return lp, vm

    def recording_reprice(lp, vm, scenarios, config):
        derived = real_reprice(lp, vm, scenarios, config)
        configs[derived] = config
        return derived

    def failing_solve(lp, start=None):
        config = configs.get(lp)
        if config is not None and config.kind == CVAR:
            starts[CVAR, config.alpha] = start
            if config.alpha == fail_alpha:
                raise NumericalFailure("injected")
        elif config is not None and config.kind == DRO:
            starts[DRO, config.epsilon] = start
        return real_solve(lp, start=start)

    monkeypatch.setattr(metrics, "build", recording_build)
    monkeypatch.setattr(metrics, "reprice", recording_reprice)
    monkeypatch.setattr(metrics, "solve", failing_solve)
    return starts


# the grid points that are solved rather than copied from the anchor
SOLVED_POINTS = ({(CVAR, alpha) for alpha in ALPHAS if alpha != 1.0}
                 | {(DRO, epsilon) for epsilon in EPSILONS if epsilon != 0.0})


def test_failed_grid_point_leaves_the_other_rows_cold_equal(monkeypatch):
    starts = record_sweep_starts(monkeypatch, fail_alpha=0.1)
    failures = []
    rows = keyed(toy_sweep(8, failures))
    monkeypatch.undo()

    assert [(f["source"], f["alpha"]) for f in failures] == [(CVAR, 0.1)]
    assert set(starts) == SOLVED_POINTS
    assert starts[CVAR, 0.1] is not None
    assert starts[CVAR, 0.25] is None  # a failed point seeds nothing
    assert starts[CVAR, 0.5] is not None
    want = cold_rows(8)
    for gamma in GAMMAS:
        del want[CVAR, 0.1, None, gamma]
    assert rows == want


def test_first_grid_points_start_from_the_anchor_basis(monkeypatch):
    starts = record_sweep_starts(monkeypatch)
    toy_sweep(8)
    monkeypatch.undo()
    assert set(starts) == SOLVED_POINTS
    assert starts[CVAR, ALPHAS[0]] is not None
    assert starts[DRO, EPSILONS[1]] is not None  # epsilon 0 reuses the anchor
    assert all(start is not None for start in starts.values())
    # both grids start from the anchor's own basis, passed to the simplex as is
    assert starts[CVAR, ALPHAS[0]] is starts[DRO, EPSILONS[1]]


def test_failed_first_grid_point_leaves_the_other_rows_cold_equal(monkeypatch):
    starts = record_sweep_starts(monkeypatch, fail_alpha=ALPHAS[0])
    failures = []
    rows = keyed(toy_sweep(8, failures))
    monkeypatch.undo()

    assert [(f["source"], f["alpha"]) for f in failures] == [(CVAR, ALPHAS[0])]
    assert set(starts) == SOLVED_POINTS
    assert starts[CVAR, ALPHAS[0]] is not None  # from the anchor's basis
    assert starts[CVAR, ALPHAS[1]] is None
    assert starts[DRO, EPSILONS[1]] is not None
    want = cold_rows(8)
    for gamma in GAMMAS:
        del want[CVAR, ALPHAS[0], None, gamma]
    assert rows == want
