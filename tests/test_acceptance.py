"""Acceptance gate: eight cross-cutting criteria, one test per criterion.

Each test prints a single [criterion N] PASS line (visible with -s, or in
captured output on failure) and asserts both the numerical tolerance and the
runtime budget stated in its docstring.  The last criterion re-audits every
allocation solved by criteria 1, 4 and 5, which hand their solves over
through a module-scoped fixture; criterion 8 runs whichever of them has not
run yet, so every test also passes on its own and in any order.
"""

import contextlib
import io
import json
import pathlib
import time

import numpy as np
import pytest
from bruteforce import brute_force_solve
from helpers import random_allocation_case, random_lp

from spothedge.cli import main as cli_main
from spothedge.domain import (Contract, MarketInstance, ScenarioSet,
                              SupplyStep, load_instance, load_scenarios,
                              validate_scenarios)
from spothedge.formulations import (CVAR, DRO, RISK_NEUTRAL,
                                    FormulationConfig, solve_allocation)
from spothedge.linprog import OPTIMAL
from spothedge.metrics import empirical_cvar, sweep
from spothedge.pipeline import factor_covariance
from spothedge.simplex import solve

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"

@pytest.fixture(scope="module")
def recorded() -> dict:
    """criterion number -> every (instance, scenarios, report) it solved."""
    return {}


def _announce(num: int, elapsed: float, limit: float, detail: str) -> None:
    print(f"[criterion {num}] PASS in {elapsed:.2f}s (limit {limit:.0f}s): {detail}")


# ----------------------------------------------------------------------
# 1. degenerate risk parameters reproduce the risk-neutral optimum

def test_criterion_1_degenerate_parameters_match_risk_neutral(recorded):
    """200 random small instances: CVaR at lambda=1 and the robust model at
    epsilon=0 match the risk-neutral optimum within 1e-6*(1+|opt|); 60s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20240811)
    worst = 0.0
    solved = []
    for _ in range(200):
        instance, scenarios = random_allocation_case(rng)
        neutral = solve_allocation(instance, scenarios, FormulationConfig())
        solved.append((instance, scenarios, neutral))

        alpha = float(rng.uniform(0.05, 0.95))
        cvar = solve_allocation(instance, scenarios,
                                FormulationConfig(kind=CVAR, alpha=alpha, lam=1.0))
        solved.append((instance, scenarios, cvar))

        n_m = len(instance.markets)
        q = rng.normal(size=(n_m, n_m))
        dro = solve_allocation(instance, scenarios,
                               FormulationConfig(kind=DRO, epsilon=0.0, q_matrix=q))
        solved.append((instance, scenarios, dro))

        tol = 1e-6 * (1.0 + abs(neutral.objective_value))
        gap_cvar = abs(cvar.objective_value - neutral.objective_value)
        gap_dro = abs(dro.objective_value - neutral.objective_value)
        assert gap_cvar <= tol
        assert gap_dro <= tol
        worst = max(worst, gap_cvar / tol, gap_dro / tol)
    recorded[1] = solved
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _announce(1, elapsed, 60, f"200 instances, worst gap {worst:.2e} of tolerance")


# ----------------------------------------------------------------------
# 2. simplex versus exhaustive enumeration

def test_criterion_2_simplex_agrees_with_brute_force():
    """10,000 random LPs (<=6 vars, <=8 rows, integer data in [-9, 9]):
    statuses agree and optimal objectives match within 1e-8*(1+|obj|); 120s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1729)
    seen = {"optimal": 0, "infeasible": 0}
    for _ in range(10_000):
        lp = random_lp(rng)
        got = solve(lp)
        want = brute_force_solve(lp)
        assert got.status == want.status
        seen[got.status] = seen.get(got.status, 0) + 1
        if got.status == OPTIMAL:
            assert abs(got.objective - want.objective) <= \
                1e-8 * (1.0 + abs(want.objective))
    assert seen["optimal"] > 1000 and seen["infeasible"] > 1000  # both regimes hit
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _announce(2, elapsed, 120, f"10000 programs, statuses {seen}")


# ----------------------------------------------------------------------
# 3. empirical CVaR versus its variational characterization

def _threshold_form_cvar(profits, probabilities, gamma: float) -> float:
    """Independent oracle: best threshold eta drawn from the profit values,
    eta - E[(eta - z)+] / (1 - gamma).  The optimum is attained at one of
    the z_s, so scanning them is exact."""
    z = np.asarray(profits, dtype=float)
    pi = np.asarray(probabilities, dtype=float)
    best = -np.inf
    for eta in z:
        best = max(best, eta - float(pi @ np.maximum(eta - z, 0.0)) / (1.0 - gamma))
    return best


def test_criterion_3_cvar_matches_threshold_form():
    """1,000 random profit distributions: empirical_cvar equals the
    threshold-form value within 1e-9; 5s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        pi = rng.dirichlet(np.ones(n))
        z = rng.uniform(-100.0, 100.0, size=n)
        gamma = float(rng.uniform(0.0, 0.95))
        got = empirical_cvar(z, pi, gamma)
        want = _threshold_form_cvar(z, pi, gamma)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _announce(3, elapsed, 5, f"1000 distributions, worst gap {worst:.2e}")


# ----------------------------------------------------------------------
# 4. risk hardening shrinks spot exposure monotonically

def _extended_micro() -> tuple[MarketInstance, ScenarioSet]:
    """The one-market micro setup grown to 3 contracts and 5 scenarios."""
    instance = MarketInstance(
        markets=("hub",),
        contracts=(
            Contract("hub", (32.0,), 40.0, 0.0),
            Contract("hub", (30.0,), 40.0, 0.0),
            Contract("hub", (28.0,), 40.0, 0.0),
        ),
        supply_steps=(SupplyStep(100.0, 0.0),),
        transport_cost={},
        production_limits=((0.0, 100.0),),
        periods=1,
    )
    scenarios = ScenarioSet(
        probabilities=np.full(5, 0.2),
        prices={"hub": np.array([55.0, 45.0, 35.0, 25.0, 10.0]).reshape(1, 1, 5)},
        widths={"hub": np.full((1, 1, 5), 100.0)},
    )
    return instance, scenarios


def test_criterion_4_risk_hardening_shrinks_spot_share(recorded):
    """Extended micro (3 contracts, 5 scenarios): spot_fraction is
    non-increasing along epsilon in {0, 0.5, 1, 2, 5, 10} and along alpha
    swept downward through {0.95, 0.75, 0.5, 0.25, 0.05} at lambda=0.1, and
    rho is non-increasing in spot_fraction where defined; 10s."""
    t0 = time.monotonic()
    instance, scenarios = _extended_micro()
    q = np.array([[1.0]])
    solved = []

    eps_grid = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0)
    eps_fractions = []
    for eps in eps_grid:
        report = solve_allocation(
            instance, scenarios,
            FormulationConfig(kind=DRO, epsilon=eps, q_matrix=q))
        solved.append((instance, scenarios, report))
        eps_fractions.append(report.spot_fraction)
    for a, b in zip(eps_fractions, eps_fractions[1:]):
        assert b <= a + 1e-9
    assert eps_fractions[0] > 0.99 and eps_fractions[-1] < 0.01  # full range swept

    alpha_grid = (0.95, 0.75, 0.5, 0.25, 0.05)
    alpha_fractions = []
    for alpha in alpha_grid:
        report = solve_allocation(
            instance, scenarios,
            FormulationConfig(kind=CVAR, alpha=alpha, lam=0.1))
        solved.append((instance, scenarios, report))
        alpha_fractions.append(report.spot_fraction)
    for a, b in zip(alpha_fractions, alpha_fractions[1:]):
        assert b <= a + 1e-9
    assert alpha_fractions[0] > 0.99 and alpha_fractions[-1] < 0.01

    rows = sweep(instance, scenarios, alphas=alpha_grid, lam=0.1,
                 epsilons=eps_grid, q_matrix=q, gammas=(0.75,))
    defined = [r for r in rows if r.rho is not None]
    assert len(defined) >= 3
    for a, b in zip(defined, defined[1:]):
        if b.spot_fraction > a.spot_fraction + 1e-12:
            assert b.rho <= a.rho + 1e-9
    recorded[4] = solved
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _announce(4, elapsed, 10,
              f"eps fractions {[round(f, 3) for f in eps_fractions]}, "
              f"alpha fractions {[round(f, 3) for f in alpha_fractions]}")


# ----------------------------------------------------------------------
# 5. the neutral model keeps exactly the contracts beating expected spot

def test_criterion_5_neutral_commits_contracts_above_expected_spot(recorded):
    """Contracts priced {38, 37, 36} against a single-tranche spot with mean
    37.42: the risk-neutral optimum commits exactly the contracts priced
    above the expected spot price, confirmed by enumerating all contract
    subsets; 5s."""
    t0 = time.monotonic()
    prices = (38.0, 37.0, 36.0)
    cap = 30.0
    production = 100.0
    spot = np.array([50.42, 40.42, 35.42, 30.42, 30.42])
    instance = MarketInstance(
        markets=("hub",),
        contracts=tuple(Contract("hub", (w,), cap, 0.0) for w in prices),
        supply_steps=(SupplyStep(production, 0.0),),
        transport_cost={},
        production_limits=((production, production),),
        periods=1,
    )
    scenarios = ScenarioSet(
        probabilities=np.full(5, 0.2),
        prices={"hub": spot.reshape(1, 1, 5)},
        widths={"hub": np.full((1, 1, 5), 150.0)},
    )
    expected_spot = float(np.full(5, 0.2) @ spot)

    # exhaustive oracle over the 2^3 full-commitment subsets
    best_subset, best_value = None, -np.inf
    for mask in range(8):
        members = tuple(i for i in range(3) if mask >> i & 1)
        committed = cap * len(members)
        value = cap * sum(prices[i] for i in members) \
            + (production - committed) * expected_spot
        if value > best_value:
            best_subset, best_value = members, value

    report = solve_allocation(instance, scenarios, FormulationConfig())
    recorded[5] = [(instance, scenarios, report)]
    solver_set = tuple(i for i, g in enumerate(report.commitments["hub"])
                       if g > 1e-6)
    rule_set = tuple(i for i, w in enumerate(prices) if w > expected_spot)
    assert solver_set == best_subset == rule_set == (0,)
    np.testing.assert_allclose(report.commitments["hub"], [cap, 0.0, 0.0],
                               atol=1e-7)
    assert abs(report.objective_value - best_value) <= \
        1e-9 * (1.0 + abs(best_value))
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _announce(5, elapsed, 5,
              f"committed set {solver_set}, objective {report.objective_value:.2f}")


# ----------------------------------------------------------------------
# 6. covariance factor round trip

def test_criterion_6_cholesky_round_trip():
    """100 random PSD matrices up to 10x10: ||QQ^T - Sigma||_F within
    1e-8*||Sigma||_F; the handcrafted 2x2 factor is exact to 1e-12; 1s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 11))
        a = rng.normal(size=(m, m + 2))
        sigma = a @ a.T
        q, _ = factor_covariance(sigma)
        rel = np.linalg.norm(q @ q.T - sigma) / np.linalg.norm(sigma)
        worst = max(worst, rel)
        assert rel <= 1e-8
    q, jitter = factor_covariance([[4.0, 2.0], [2.0, 3.0]])
    assert jitter == 0.0
    assert np.abs(q - [[2.0, 0.0], [1.0, np.sqrt(2.0)]]).max() <= 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _announce(6, elapsed, 1, f"100 matrices, worst relative residual {worst:.2e}")


# ----------------------------------------------------------------------
# 7. deterministic end-to-end preparation

def test_criterion_7_prepare_and_solve_are_byte_deterministic(tmp_path):
    """prepare + solve on the bundled 3-node toy CSV: two same-seed runs
    produce byte-identical outputs and the reduced scenario set validates
    cleanly; 5s."""
    t0 = time.monotonic()
    toy_instance = str(DATA / "toy_instance.json")
    toy_csv = str(DATA / "toy_lmp.csv")
    outs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["prepare", "--instance", toy_instance,
                             "--raw-csv", toy_csv, "--k", "auto",
                             "--seed", "5", "--out", str(out)]) == 0
            assert cli_main(["solve", "--instance", toy_instance,
                             "--scenarios", str(out / "scenarios.json"),
                             "--kind", "cvar", "--alpha", "0.4",
                             "--gamma", "0.8", "--out", str(out)]) == 0
        outs.append(out)
    for name in ("scenarios.json", "q.json", "prep_summary.json", "report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    instance = load_instance(toy_instance)
    reduced = load_scenarios(outs[0] / "scenarios.json")
    assert validate_scenarios(instance, reduced) == []
    chosen_k = json.loads((outs[0] / "prep_summary.json").read_text())["k"]
    assert reduced.num_scenarios == chosen_k
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _announce(7, elapsed, 5, f"k={chosen_k}, 4 artifacts byte-identical")


# ----------------------------------------------------------------------
# 8. profit and balance identities across everything solved above

def _recompute_profits(instance, scenarios, report) -> np.ndarray:
    n_s = scenarios.num_scenarios
    z = np.zeros(n_s)
    for market in instance.markets:
        term = report.term_dispatch[market]  # (C_m, T, S)
        for ci, contract in enumerate(instance.market_contracts(market)):
            wholesale = np.asarray(contract.wholesale_price)  # (T,)
            z += (wholesale[:, None] * term[ci]).sum(axis=0)
        z += (scenarios.prices[market] * report.spot_dispatch[market]).sum(axis=(0, 1))
        z -= instance.transport(market) * report.transport[market].sum(axis=0)
    costs = np.array([s.unit_cost for s in instance.supply_steps])
    z -= (costs[:, None, None] * report.production).sum(axis=(0, 1))
    return z


_RECORDING_CRITERIA = {
    1: test_criterion_1_degenerate_parameters_match_risk_neutral,
    4: test_criterion_4_risk_hardening_shrinks_spot_share,
    5: test_criterion_5_neutral_commits_contracts_above_expected_spot,
}


def test_criterion_8_accounting_identities_hold_for_every_solve(recorded):
    """Every optimal allocation recorded by criteria 1, 4 and 5: recomputed
    scenario profits within 1e-6*max(1, |z_s|) of the reported ones, and the
    production-sales and production-transport balances within 1e-7; 30s for
    the audit."""
    for num, criterion in _RECORDING_CRITERIA.items():
        if num not in recorded:
            criterion(recorded)
    audited = [entry for num in sorted(recorded) for entry in recorded[num]]
    t0 = time.monotonic()
    worst_profit = worst_balance = 0.0
    for instance, scenarios, report in audited:
        z = _recompute_profits(instance, scenarios, report)
        gap = np.abs(z - report.profits)
        bound = 1e-6 * np.maximum(1.0, np.abs(z))
        worst_profit = max(worst_profit, float((gap / bound).max()))
        assert (gap <= bound).all()

        produced = report.production.sum(axis=0)  # (T, S)
        sold = sum(report.term_dispatch[m].sum(axis=0)
                   + report.spot_dispatch[m].sum(axis=0)
                   for m in instance.markets)
        moved = sum(report.transport[m] for m in instance.markets)
        tol = 1e-7 * (1.0 + np.abs(produced))
        gap_sold = np.abs(produced - sold)
        gap_moved = np.abs(produced - moved)
        worst_balance = max(worst_balance, float((gap_sold / tol).max()),
                            float((gap_moved / tol).max()))
        assert (gap_sold <= tol).all()
        assert (gap_moved <= tol).all()
    elapsed = time.monotonic() - t0
    _announce(8, elapsed, 30,
              f"{len(audited)} solves audited, worst profit gap "
              f"{worst_profit:.2e} and balance gap {worst_balance:.2e} "
              "of tolerance")
    assert elapsed < 30.0
