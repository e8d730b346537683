"""Model-builder tests against closed-form vertex evaluation on the micro instance.

The micro instance has one binding decision: the contract volume g in
[0, 100], with spot picking up the remaining 100 - g MW.  Every model
objective is linear in g, so its optimum sits at g = 0 or g = 100; the
oracle below evaluates the clean model formula at both endpoints and keeps
the best.  LP answers must match it to high precision.
"""

import hashlib
import math
import re

import numpy as np
import pytest

from conftest import micro_instance, micro_scenarios
from helpers import dro_penalty_loop, expected_columns, random_allocation_case, toy_case
from spothedge import metrics
from spothedge.domain import Contract, MarketInstance, ScenarioSet, SupplyStep
from spothedge.formulations import (
    CVAR,
    DRO,
    MAX_RISK_WEIGHT,
    PER_PERIOD,
    PER_SCENARIO,
    RISK_NEUTRAL,
    DimensionMismatch,
    FormulationConfig,
    InfeasibleStructure,
    ParameterOutOfRange,
    build,
    build_cvar,
    build_dro,
    build_risk_neutral,
    reprice,
    solve_allocation,
)
from spothedge.simplex import solve


def tail_mean(profits, probs, alpha):
    """Expected profit over the worst alpha-probability tail (closed form)."""
    order = np.argsort(profits)
    remaining = alpha
    acc = 0.0
    for idx in order:
        take = min(probs[idx], remaining)
        acc += take * profits[idx]
        remaining -= take
        if remaining <= 1e-15:
            break
    return acc / alpha


def micro_objective(g, prices, probs, config):
    """Clean model objective of the micro instance at contract volume g."""
    z = np.array([g * 30.0 + (100.0 - g) * p for p in prices])
    expected = float(np.asarray(probs) @ z)
    if config.kind == RISK_NEUTRAL:
        return expected
    if config.kind == CVAR:
        return config.lam * expected + (1 - config.lam) * tail_mean(z, probs, config.alpha)
    spot = 100.0 - g
    penalty = sum(p_s * abs(float(config.q_matrix[0, 0])) * spot
                  for p_s in np.asarray(probs))
    return expected - config.epsilon * penalty


def best_micro(prices, probs, config):
    return max(micro_objective(g, prices, probs, config) for g in (0.0, 100.0))


def test_risk_neutral_prefers_spot_when_mean_beats_contract(canonical):
    instance, scenarios = canonical
    report = solve_allocation(instance, scenarios, FormulationConfig(kind=RISK_NEUTRAL))
    assert report.objective_value == pytest.approx(3500.0, abs=1e-6)
    assert report.profits == pytest.approx([5000.0, 2000.0], abs=1e-6)
    assert report.spot_fraction == pytest.approx(1.0, abs=1e-9)
    assert report.commitments["hub"] == pytest.approx([0.0], abs=1e-7)


def test_risk_neutral_prefers_contract_when_mean_below():
    instance = micro_instance()
    scenarios = micro_scenarios((40.0, 10.0))
    report = solve_allocation(instance, scenarios, FormulationConfig(kind=RISK_NEUTRAL))
    assert report.objective_value == pytest.approx(3000.0, abs=1e-6)
    assert report.commitments["hub"] == pytest.approx([100.0], abs=1e-7)
    assert report.spot_volume == pytest.approx(0.0, abs=1e-7)


def test_cvar_hard_tail_moves_to_contract(canonical):
    instance, scenarios = canonical
    config = FormulationConfig(kind=CVAR, alpha=0.5, lam=0.0)
    report = solve_allocation(instance, scenarios, config)
    # riskless 3000 beats the 2000 lower-half tail of the all-spot allocation
    assert report.objective_value == pytest.approx(3000.0, abs=1e-6)
    assert report.spot_volume == pytest.approx(0.0, abs=1e-7)


def test_cvar_lambda_one_recovers_risk_neutral(canonical):
    instance, scenarios = canonical
    neutral = solve_allocation(instance, scenarios, FormulationConfig(kind=RISK_NEUTRAL))
    weighted = solve_allocation(instance, scenarios,
                                FormulationConfig(kind=CVAR, alpha=0.5, lam=1.0))
    assert weighted.objective_value == pytest.approx(neutral.objective_value,
                                                     abs=1e-6 * (1 + abs(neutral.objective_value)))


def test_dro_penalty_breaks_tie_toward_contract(canonical):
    instance, scenarios = canonical
    config = FormulationConfig(kind=DRO, epsilon=5.0, q_matrix=np.array([[1.0]]))
    report = solve_allocation(instance, scenarios, config)
    # all-spot earns 3500 - 5*100 = 3000, tying the contract; less spot wins
    assert report.objective_value == pytest.approx(3000.0, abs=1e-6)
    assert report.spot_volume == pytest.approx(0.0, abs=1e-6)


def test_dro_zero_radius_recovers_risk_neutral(canonical):
    instance, scenarios = canonical
    neutral = solve_allocation(instance, scenarios, FormulationConfig(kind=RISK_NEUTRAL))
    config = FormulationConfig(kind=DRO, epsilon=0.0, q_matrix=np.array([[1.0]]))
    robust = solve_allocation(instance, scenarios, config)
    assert robust.objective_value == pytest.approx(neutral.objective_value,
                                                   abs=1e-6 * (1 + abs(neutral.objective_value)))


def test_objectives_match_vertex_oracle_on_micro_grid(canonical):
    instance, _ = canonical
    probs = (0.5, 0.5)
    rng = np.random.default_rng(3)
    for _ in range(25):
        prices = tuple(float(p) for p in rng.uniform(5.0, 60.0, size=2))
        scenarios = micro_scenarios(prices)
        for config in (
            FormulationConfig(kind=RISK_NEUTRAL),
            FormulationConfig(kind=CVAR, alpha=float(rng.uniform(0.1, 0.9)),
                              lam=float(rng.uniform(0.0, 1.0))),
            FormulationConfig(kind=DRO, epsilon=float(rng.uniform(0.0, 8.0)),
                              q_matrix=np.array([[float(rng.uniform(0.1, 2.0))]])),
        ):
            report = solve_allocation(instance, scenarios, config)
            want = best_micro(prices, probs, config)
            assert report.objective_value == pytest.approx(want, abs=1e-6 * (1 + abs(want))), \
                (prices, config.kind)


def test_cvar_objective_monotone_in_alpha(canonical):
    instance, scenarios = canonical
    values = []
    for alpha in (0.05, 0.25, 0.5, 0.75, 0.95):
        report = solve_allocation(instance, scenarios,
                                  FormulationConfig(kind=CVAR, alpha=alpha, lam=0.3))
        values.append(report.objective_value)
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-7  # milder tail (larger alpha) never hurts


def test_dro_objective_monotone_in_epsilon(canonical):
    instance, scenarios = canonical
    q = np.array([[0.8]])
    values = []
    for eps in (0.0, 0.5, 1.0, 2.0, 5.0):
        report = solve_allocation(instance, scenarios,
                                  FormulationConfig(kind=DRO, epsilon=eps, q_matrix=q))
        values.append(report.objective_value)
    for first, second in zip(values, values[1:]):
        assert second <= first + 1e-7


def test_dro_zero_q_equals_risk_neutral_for_any_radius(canonical):
    instance, scenarios = canonical
    neutral = solve_allocation(instance, scenarios, FormulationConfig(kind=RISK_NEUTRAL))
    for eps in (0.0, 1.0, 10.0, 100.0):
        config = FormulationConfig(kind=DRO, epsilon=eps, q_matrix=np.zeros((1, 1)))
        robust = solve_allocation(instance, scenarios, config)
        assert robust.objective_value == pytest.approx(neutral.objective_value, abs=1e-6)


def test_single_scenario_cvar_equals_risk_neutral():
    instance = micro_instance()
    scenarios = micro_scenarios((37.0,))
    neutral = solve_allocation(instance, scenarios, FormulationConfig(kind=RISK_NEUTRAL))
    for alpha, lam in ((0.1, 0.0), (0.5, 0.5), (0.9, 0.2)):
        report = solve_allocation(instance, scenarios,
                                  FormulationConfig(kind=CVAR, alpha=alpha, lam=lam))
        assert report.objective_value == pytest.approx(neutral.objective_value, abs=1e-6)


def test_column_and_row_counts_match_documented_formula():
    # 1 market, 1 contract with flex, 2 spot tranches, 1 supply step, 1 period,
    # 2 scenarios: 11 columns, 8 structural rows (production folds into bounds)
    instance = micro_instance(flex=10.0)
    scenarios = ScenarioSet(
        probabilities=np.array([0.5, 0.5]),
        prices={"hub": np.array([[[50.0, 20.0]], [[49.0, 19.0]]])},
        widths={"hub": np.full((2, 1, 2), 60.0)},
    )
    config = FormulationConfig(kind=RISK_NEUTRAL)
    lp, _vm = build(instance, scenarios, config)
    assert lp.num_variables == 11
    assert expected_columns(instance, scenarios, config) == 11
    assert lp.num_rows == 8

    cvar_cfg = FormulationConfig(kind=CVAR, alpha=0.5, lam=0.5)
    lp2, _ = build(instance, scenarios, cvar_cfg)
    assert lp2.num_variables == expected_columns(instance, scenarios, cvar_cfg) == 14

    dro_cfg = FormulationConfig(kind=DRO, epsilon=1.0, q_matrix=np.eye(1))
    lp3, _ = build(instance, scenarios, dro_cfg)
    assert lp3.num_variables == expected_columns(instance, scenarios, dro_cfg) == 13


def test_parameter_range_errors(canonical):
    instance, scenarios = canonical
    with pytest.raises(ParameterOutOfRange):
        FormulationConfig(kind=CVAR, alpha=0.0)
    with pytest.raises(ParameterOutOfRange):
        FormulationConfig(kind=CVAR, alpha=1.0)
    with pytest.raises(ParameterOutOfRange):
        FormulationConfig(kind=CVAR, lam=1.5)
    with pytest.raises(ParameterOutOfRange):
        FormulationConfig(kind=DRO, epsilon=-0.5)
    with pytest.raises(ParameterOutOfRange):
        FormulationConfig(kind="robust")
    with pytest.raises(ValueError, match="cannot reprice or build a cvar program"):
        build_cvar(instance, scenarios, FormulationConfig(kind=DRO, q_matrix=np.eye(1)))
    with pytest.raises(DimensionMismatch):
        build_dro(instance, scenarios, FormulationConfig(kind=DRO, epsilon=1.0,
                                                         q_matrix=np.eye(2)))
    with pytest.raises(DimensionMismatch, match="requires a q matrix"):
        build_dro(instance, scenarios, FormulationConfig(kind=DRO, epsilon=1.0))


def test_builders_check_parameters_through_the_config(canonical):
    """The builders take their parameters from a FormulationConfig, whose
    ranges include the finite 1/alpha and epsilon that keep every objective
    coefficient finite, and the bound on the risk terms' weights: alpha
    finfo.tiny with lambda 0.5 built an LP before that bound."""
    for kwargs in (dict(kind=CVAR, alpha=1e-310), dict(kind=DRO, epsilon=math.inf)):
        with pytest.raises(ParameterOutOfRange):
            FormulationConfig(**kwargs)
    with pytest.raises(ParameterOutOfRange, match="finite 1/alpha"):
        FormulationConfig(kind=CVAR, alpha=5e-324, lam=0.5)
    with pytest.raises(ParameterOutOfRange, match="lambda"):
        FormulationConfig(kind=CVAR, alpha=0.5, lam=-0.1)
    with pytest.raises(ParameterOutOfRange, match="epsilon must be finite"):
        FormulationConfig(kind=DRO, epsilon=math.inf, q_matrix=np.eye(1))
    with pytest.raises(ParameterOutOfRange, match="dro_penalty"):
        FormulationConfig(kind=DRO, epsilon=1.0, q_matrix=np.eye(1), dro_penalty="bogus")
    with pytest.raises(ParameterOutOfRange, match=r"\(1 - lambda\) / alpha"):
        FormulationConfig(kind=CVAR, alpha=np.finfo(float).tiny, lam=0.5)
    instance, scenarios = canonical
    lp, _ = build_cvar(instance, scenarios, FormulationConfig(kind=CVAR, alpha=1e-6, lam=0.0))
    assert np.isfinite(lp.objective).all()


def test_the_risk_weights_may_reach_their_bound_but_not_pass_it():
    """(1 - lambda) / alpha and, given Q, epsilon * max|Q| are at most
    MAX_RISK_WEIGHT; alpha 1e-6 with lambda 0 sits on the bound."""
    assert MAX_RISK_WEIGHT == 1e6
    q = np.array([[0.5, 0.0], [-2.0, 1.0]])
    for kwargs in (dict(kind=CVAR, alpha=1e-6, lam=0.0), dict(kind=CVAR, alpha=1e-300, lam=1.0),
                   dict(kind=DRO, epsilon=5e5, q_matrix=q),
                   dict(kind=DRO, epsilon=1e300, q_matrix=np.zeros((2, 2))),
                   dict(kind=DRO, epsilon=1e300)):
        FormulationConfig(**kwargs)
    for kwargs, match in ((dict(kind=CVAR, alpha=9e-7, lam=0.0), "alpha"),
                          (dict(kind=CVAR, alpha=1e-300, lam=0.5), "alpha"),
                          (dict(kind=DRO, epsilon=6e5, q_matrix=q), "max|Q|")):
        with pytest.raises(ParameterOutOfRange, match=re.escape(match)):
            FormulationConfig(**kwargs)


def test_structurally_infeasible_instance_raises():
    instance = MarketInstance(
        markets=("hub",),
        contracts=(Contract("hub", (30.0,), 100.0, 0.0),),
        supply_steps=(SupplyStep(40.0, 0.0),),  # cannot reach the 100 MW floor
        transport_cost={},
        production_limits=((100.0, 100.0),),
        periods=1,
    )
    with pytest.raises(InfeasibleStructure):
        build_risk_neutral(instance, micro_scenarios())


def test_production_cost_reduces_profits():
    instance = micro_instance(production_cost=5.0)
    scenarios = micro_scenarios((40.0, 10.0))
    report = solve_allocation(instance, scenarios, FormulationConfig(kind=RISK_NEUTRAL))
    assert report.objective_value == pytest.approx(2500.0, abs=1e-6)


def lp_digest(lp) -> str:
    """sha256 over everything that defines a program: the dense matrix and
    right-hand side, the relations, the bounds, the objective and the names."""
    a, b, relations = lp.dense()
    lower, upper = lp.bounds_arrays()
    digest = hashlib.sha256(repr(a.shape).encode())
    for part in (a, b, lower, upper, lp.objective_array()):
        digest.update(part.tobytes())
    for names in (relations, lp.variable_names, [row.name for row in lp.rows]):
        digest.update("\n".join(names).encode() + b"\0")
    return digest.hexdigest()


# sha256 (lp_digest) of the toy LPs at 8 scenarios: column order, row order,
# coefficients, bounds, objective and names are pinned bit for bit
LP_DIGESTS = {
    "risk_neutral": "eeff4aa60cc90f5d897580ad77684adbfbe7c855fd5e91ae93b119fb84db066a",
    "cvar": "daea4c150bef8b88c7d6bd6953c1556636d6fd3fedf56230b1763ca2ddd224bf",
    "dro_per_scenario": "c9beead2e91a3bdd6341fd0442aaa758eb4a838594f59ce56f41e9f0daea1477",
    "dro_per_period": "d81b49157f0b99424fe94d6cf2f8d61c61cc83b969b72bc3b4044064aa21aa94",
    "risk_free": "293075bdce64461b81ce673e8d4d8dc48770909173819a3fadd9388c8fb2cced",
}


def toy_lp(case):
    instance, scenarios, q = toy_case(8)
    if case == "risk_free":  # the one-scenario program risk_free_profit solves
        built = []

        def capture(lp, *args, **kwargs):
            built.append(lp)
            return solve(lp, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "solve", capture)
            metrics.risk_free_profit(instance, scenarios)
        return built[0]
    config = {
        "risk_neutral": FormulationConfig(kind=RISK_NEUTRAL),
        "cvar": FormulationConfig(kind=CVAR, alpha=0.25, lam=0.2),
        "dro_per_scenario": FormulationConfig(kind=DRO, epsilon=1.0, q_matrix=q),
        "dro_per_period": FormulationConfig(kind=DRO, epsilon=1.0, q_matrix=q,
                                            dro_penalty="per_period"),
    }[case]
    return build(instance, scenarios, config)[0]


@pytest.mark.parametrize("case", list(LP_DIGESTS))
def test_toy_lp_matches_recorded_digest(case):
    assert lp_digest(toy_lp(case)) == LP_DIGESTS[case]


def assert_same_program(got, want):
    """got is want bit for bit: objective, bounds, matrix and names."""
    for mine, theirs in ((got.objective, want.objective), (got.lower, want.lower),
                         (got.upper, want.upper)):
        assert mine.tobytes() == theirs.tobytes()
    (a, b, relations), (want_a, want_b, want_relations) = got.dense(), want.dense()
    assert a.tobytes() == want_a.tobytes() and a.shape == want_a.shape
    assert b.tobytes() == want_b.tobytes()
    assert relations == want_relations
    assert lp_digest(got) == lp_digest(want)


GRID_ALPHAS = (0.05, 0.1, 0.25, 0.5, 0.75)
GRID_EPSILONS = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)


@pytest.mark.parametrize("lam", [0.0, 0.2, 1.0])
def test_repriced_cvar_programs_equal_built_ones_bit_for_bit(lam):
    instance, scenarios, _q = toy_case(8)
    base, vm = build(instance, scenarios, FormulationConfig(kind=CVAR, alpha=0.9, lam=0.1))
    chained = base
    for alpha in GRID_ALPHAS:
        config = FormulationConfig(kind=CVAR, alpha=alpha, lam=lam)
        want, _ = build(instance, scenarios, config)
        chained = reprice(chained, vm, scenarios, config)
        for got in (reprice(base, vm, scenarios, config), chained):
            assert_same_program(got, want)


@pytest.mark.parametrize("penalty", [PER_SCENARIO, PER_PERIOD])
def test_repriced_dro_programs_equal_built_ones_bit_for_bit(penalty):
    instance, scenarios, q = toy_case(8)
    base, vm = build(instance, scenarios, FormulationConfig(
        kind=DRO, epsilon=3.0, q_matrix=q, dro_penalty=penalty))
    chained = base
    for epsilon in GRID_EPSILONS:
        config = FormulationConfig(kind=DRO, epsilon=epsilon, q_matrix=q, dro_penalty=penalty)
        want, _ = build(instance, scenarios, config)
        chained = reprice(chained, vm, scenarios, config)
        for got in (reprice(base, vm, scenarios, config), chained):
            assert_same_program(got, want)


def test_reprice_rejects_a_config_of_another_kind():
    instance, scenarios, q = toy_case(4)
    cvar = build(instance, scenarios, FormulationConfig(kind=CVAR, alpha=0.5))
    dro = build(instance, scenarios, FormulationConfig(kind=DRO, epsilon=1.0, q_matrix=q))
    for (lp, vm), config in ((cvar, FormulationConfig(kind=DRO, epsilon=1.0, q_matrix=q)),
                             (dro, FormulationConfig(kind=CVAR, alpha=0.5)),
                             (cvar, FormulationConfig(kind=RISK_NEUTRAL))):
        with pytest.raises(ValueError, match="cannot reprice"):
            reprice(lp, vm, scenarios, config)


def test_repriced_programs_are_isolated():
    """A repriced program shares its parent's matrix form until one of them
    grows; a row added to one reaches neither the other's rows nor its
    cached form, and the next solve of the one that grew obeys the row."""
    instance, scenarios, _q = toy_case(4)
    lp, vm = build(instance, scenarios, FormulationConfig(kind=CVAR, alpha=0.5, lam=0.1))
    before = solve(lp)
    form = lp.matrix_cache["equality_form"]
    digest, rows = lp_digest(lp), list(lp.rows)
    sibling = reprice(lp, vm, scenarios, FormulationConfig(kind=CVAR, alpha=0.1, lam=0.1))
    assert sibling.matrix_cache["equality_form"] is form
    threshold = solve(sibling).values[vm.var_col]

    cap = threshold - 1000.0
    sibling.add_row("cap", {vm.var_col: 1.0}, "<=", cap)
    assert lp.rows == rows and lp_digest(lp) == digest
    assert lp.matrix_cache["equality_form"] is form
    assert "equality_form" not in sibling.matrix_cache
    capped = solve(sibling)
    assert capped.values[vm.var_col] <= cap + 1e-6
    assert sibling.matrix_cache["equality_form"][3].size == lp.num_rows + 1  # b

    lp.add_variable("extra", 0.0, 1.0)
    assert sibling.num_variables == lp.num_variables - 1
    assert sibling.matrix_cache["equality_form"][3].size == lp.num_rows + 1
    assert "equality_form" not in lp.matrix_cache
    again = solve(lp)
    assert again.objective == before.objective
    assert (again.values[:-1] == before.values).all()


@pytest.mark.parametrize("transport_cost, haul, carrier", [
    ({}, 0.0, "east"),
    ({"east": 1.5, "west": 1.5}, 1.5, "east"),
    ({"east": 2.0, "west": 0.5}, 0.5, "west"),
])
def test_transport_is_booked_at_the_cheapest_market(transport_cost, haul, carrier):
    instance = MarketInstance(  # 100 MW of fixed production, no contracts
        markets=("east", "west"), contracts=(), supply_steps=(SupplyStep(100.0, 2.0),),
        transport_cost=transport_cost, production_limits=((100.0, 100.0),), periods=1)
    scenarios = ScenarioSet(
        probabilities=np.array([0.5, 0.5]),
        prices={"east": np.array([[[40.0, 20.0]]]), "west": np.array([[[25.0, 30.0]]])},
        widths={"east": np.full((1, 1, 2), 100.0), "west": np.full((1, 1, 2), 100.0)})
    report = solve_allocation(instance, scenarios, FormulationConfig(kind=RISK_NEUTRAL))
    produced = report.production.sum(axis=0)
    np.testing.assert_array_equal(produced, [[100.0, 100.0]])
    for market in instance.markets:
        want = produced if market == carrier else np.zeros_like(produced)
        np.testing.assert_array_equal(report.transport[market], want)
    # each scenario sells 100 MW at its better price, less production and haul
    np.testing.assert_allclose(report.profits, [4000.0 - 100.0 * (2.0 + haul),
                                                3000.0 - 100.0 * (2.0 + haul)], rtol=1e-12)


def test_contract_without_flex_delivers_its_commitment_exactly():
    checked = 0
    for seed in range(12):
        instance, scenarios = random_allocation_case(np.random.default_rng(seed))
        report = solve_allocation(instance, scenarios, FormulationConfig(kind=RISK_NEUTRAL))
        for market in instance.markets:
            for c, contract in enumerate(instance.market_contracts(market)):
                if contract.flex_above_min == 0.0:
                    delivered = report.term_dispatch[market][c]
                    assert (delivered == report.commitments[market][c]).all()
                    checked += 1
    assert checked >= 5


# objective_value of random_allocation_case(np.random.default_rng(seed)) for
# risk_neutral, cvar alpha .25 lambda .2 and dro epsilon 1 with q = I,
# recorded from the layout that still had transport columns and a delivery
# column per fixed contract: dropping them must leave every optimum in place
RANDOM_CASE_OBJECTIVES = {
    0: (3745.8432380129207, 3577.301976836392, 3610.955205301939),
    1: (6176.763119514444, 5100.695840983806, 6069.914705297379),
    2: (3527.166932114912, 3527.1669321149116, 3456.2078199303505),
    3: (1368.5920313485194, 1368.5920313485194, 1333.2679427189169),
    4: (2738.1205802515133, 2616.843266636693, 2673.126028050745),
    5: (3302.5045155839002, 3302.5045155838993, 3206.2428822593756),
    6: (1114.3762972411912, 606.8919395199468, 1082.2254807607635),
    7: (2832.66825268511, 2542.1523048558197, 2760.6508879608677),
    8: (1843.1816291480263, 1843.1816291480266, 1821.1185084525796),
    9: (5132.553135455392, 3689.3031563965624, 5056.511906670269),
    10: (4826.259831342947, 4189.10080799491, 4727.729309030253),
    11: (1551.5748733381392, 1401.399743340386, 1531.718608839564),
}


@pytest.mark.parametrize("seed", list(RANDOM_CASE_OBJECTIVES))
def test_random_case_objectives_match_recorded(seed):
    instance, scenarios = random_allocation_case(np.random.default_rng(seed))
    configs = (FormulationConfig(kind=RISK_NEUTRAL),
               FormulationConfig(kind=CVAR, alpha=0.25, lam=0.2),
               FormulationConfig(kind=DRO, epsilon=1.0, q_matrix=np.eye(len(instance.markets))))
    for config, want in zip(configs, RANDOM_CASE_OBJECTIVES[seed]):
        report = solve_allocation(instance, scenarios, config)
        assert report.objective_value == pytest.approx(want, rel=1e-12), config.kind


@pytest.mark.parametrize("penalty", [PER_SCENARIO, PER_PERIOD])
@pytest.mark.parametrize("k", [8, 16, 32])
def test_dro_objective_equals_the_penalty_loop_bit_for_bit(k, penalty):
    instance, scenarios, q = toy_case(k)
    config = FormulationConfig(kind=DRO, epsilon=1.0, q_matrix=q, dro_penalty=penalty)
    report = solve_allocation(instance, scenarios, config)
    assert report.objective_value == (report.expected_profit
                                      - config.epsilon * dro_penalty_loop(report, q))
