"""Differential tests of the simplex against HiGHS.

They cover the allocation LPs at sizes the brute-force oracle cannot reach:
the toy data reduced to 4, 8, 16 and 32 scenarios for every model, warm-started
chains over an alpha and an epsilon grid, from scratch or from the
risk-neutral anchor's basis, the risk-free LP, and random allocation cases.
scipy is a test-only dependency; without it the module is skipped.
"""

import math

import numpy as np
import pytest
from helpers import random_allocation_case, random_lp, toy_case

from spothedge import metrics, simplex
from spothedge.formulations import (CVAR, DRO, PER_PERIOD, PER_SCENARIO,
                                    RISK_NEUTRAL, FormulationConfig, build)
from spothedge.linprog import INFEASIBLE, OPTIMAL, LpSolution
from spothedge.simplex import extend_basis, solve

optimize = pytest.importorskip("scipy.optimize")

RTOL = 1e-9


def highs_result(lp):
    a, b, relations = lp.dense()
    rel = np.array(relations)
    upper_rows, lower_rows, equal_rows = rel == "<=", rel == ">=", rel == "=="
    a_ub = np.vstack([a[upper_rows], -a[lower_rows]])
    b_ub = np.concatenate([b[upper_rows], -b[lower_rows]])
    bounds = [(None if math.isinf(lo) else lo, None if math.isinf(hi) else hi)
              for lo, hi in zip(lp.lower, lp.upper)]
    return optimize.linprog(
        -lp.objective_array(),
        A_ub=a_ub if a_ub.size else None, b_ub=b_ub if a_ub.size else None,
        A_eq=a[equal_rows] if equal_rows.any() else None,
        b_eq=b[equal_rows] if equal_rows.any() else None,
        bounds=bounds, method="highs")


def highs_objective(lp) -> float:
    res = highs_result(lp)
    assert res.status == 0, res.message
    return -float(res.fun)


def assert_agrees_with_highs(lp) -> None:
    got = solve(lp)
    assert got.status == OPTIMAL
    want = highs_objective(lp)
    assert abs(got.objective - want) <= RTOL * max(1.0, abs(want))


def toy_config(kind: str, q) -> FormulationConfig:
    if kind == CVAR:
        return FormulationConfig(kind=CVAR, alpha=0.25, lam=0.2)
    if kind in (PER_SCENARIO, PER_PERIOD):
        return FormulationConfig(kind=DRO, epsilon=1.0, q_matrix=q, dro_penalty=kind)
    return FormulationConfig(kind=kind)


@pytest.mark.parametrize("kind", [RISK_NEUTRAL, CVAR, PER_SCENARIO, PER_PERIOD])
@pytest.mark.parametrize("k", [4, 8, 16, 32])
def test_toy_models_match_highs(k, kind):
    instance, scenarios, q = toy_case(k)
    lp, _vm = build(instance, scenarios, toy_config(kind, q))
    assert_agrees_with_highs(lp)


@pytest.mark.parametrize("kind", [CVAR, PER_SCENARIO, PER_PERIOD])
@pytest.mark.parametrize("k", [4, 8, 16])
def test_warm_started_grid_chains_match_highs(k, kind):
    """Each grid point starts from the previous point's basis, as in a sweep."""
    instance, scenarios, q = toy_case(k)
    if kind == CVAR:
        chain = [FormulationConfig(kind=CVAR, alpha=a, lam=0.1)
                 for a in (0.05, 0.1, 0.25, 0.5, 0.75)]
    else:
        chain = [FormulationConfig(kind=DRO, epsilon=e, q_matrix=q, dro_penalty=kind)
                 for e in (0.25, 0.5, 1.0, 2.0, 4.0)]
    start = None
    iterations = []
    for config in chain:
        lp, _vm = build(instance, scenarios, config)
        got = solve(lp, start=start)
        assert got.status == OPTIMAL
        want = highs_objective(lp)
        assert abs(got.objective - want) <= RTOL * max(1.0, abs(want))
        iterations.append(got.iterations)
        start = got.basis
    # phase 1 runs only at the cold first point
    assert max(iterations[1:]) < iterations[0]


def assert_first_point_from_anchor(anchor, lp) -> LpSolution:
    """Solve lp from the anchor's extended basis; it must match HiGHS and
    take fewer iterations than its own cold solve."""
    got = solve(lp, start=extend_basis(anchor.basis, lp))
    assert got.status == OPTIMAL
    want = highs_objective(lp)
    assert abs(got.objective - want) <= RTOL * max(1.0, abs(want))
    assert got.iterations < solve(lp).iterations
    return got


@pytest.mark.parametrize("kind", [CVAR, PER_SCENARIO, PER_PERIOD])
@pytest.mark.parametrize("k", [4, 8, 16])
def test_chains_from_the_anchor_basis_match_highs(k, kind):
    """The first grid point starts from the risk-neutral anchor's basis,
    extended over the model's extra columns and rows, as in a sweep."""
    instance, scenarios, q = toy_case(k)
    anchor = solve(build(instance, scenarios, FormulationConfig())[0])
    if kind == CVAR:
        first, *rest = [FormulationConfig(kind=CVAR, alpha=a, lam=0.1)
                        for a in (0.05, 0.1, 0.25, 0.5, 0.75)]
    else:
        first, *rest = [FormulationConfig(kind=DRO, epsilon=e, q_matrix=q,
                                          dro_penalty=kind)
                        for e in (0.25, 0.5, 1.0, 2.0, 4.0)]
    start = assert_first_point_from_anchor(
        anchor, build(instance, scenarios, first)[0]).basis
    for config in rest:
        lp, _vm = build(instance, scenarios, config)
        got = solve(lp, start=start)
        assert got.status == OPTIMAL
        want = highs_objective(lp)
        assert abs(got.objective - want) <= RTOL * max(1.0, abs(want))
        start = got.basis


def test_random_allocation_cases_from_the_anchor_match_highs():
    rng = np.random.default_rng(616)
    for _ in range(40):
        instance, scenarios = random_allocation_case(rng)
        n_m = len(instance.markets)
        lp, _vm = build(instance, scenarios, FormulationConfig())
        anchor = solve(lp)
        if anchor.status == INFEASIBLE:
            # the generator does not see that the contract windows tie the
            # periods together, so a draw can be infeasible; no basis to extend
            assert highs_result(lp).status == 2
            continue
        configs = (
            FormulationConfig(kind=CVAR, alpha=float(rng.uniform(0.05, 0.95)),
                              lam=float(rng.uniform(0.0, 1.0))),
            FormulationConfig(kind=DRO, epsilon=float(rng.uniform(0.0, 5.0)),
                              q_matrix=rng.normal(size=(n_m, n_m)),
                              dro_penalty=(PER_SCENARIO, PER_PERIOD)[int(rng.integers(2))]),
        )
        for config in configs:
            assert_first_point_from_anchor(anchor, build(instance, scenarios, config)[0])


@pytest.mark.parametrize("k", [4, 8, 16])
def test_risk_free_lp_matches_highs(k, monkeypatch):
    instance, scenarios, _q = toy_case(k)
    solved = []

    def recording_solve(lp):
        solved.append(lp)
        return solve(lp)

    monkeypatch.setattr(metrics, "solve", recording_solve)
    metrics.risk_free_profit(instance, scenarios)
    assert len(solved) == 1
    assert_agrees_with_highs(solved[0])


def test_random_allocation_cases_match_highs():
    rng = np.random.default_rng(515)
    for _ in range(40):
        instance, scenarios = random_allocation_case(rng)
        n_m = len(instance.markets)
        configs = (
            FormulationConfig(),
            FormulationConfig(kind=CVAR, alpha=float(rng.uniform(0.05, 0.95)),
                              lam=float(rng.uniform(0.0, 1.0))),
            FormulationConfig(kind=DRO, epsilon=float(rng.uniform(0.0, 5.0)),
                              q_matrix=rng.normal(size=(n_m, n_m)),
                              dro_penalty=(PER_SCENARIO, PER_PERIOD)[int(rng.integers(2))]),
        )
        for config in configs:
            lp, _vm = build(instance, scenarios, config)
            assert_agrees_with_highs(lp)


def nth_random_lp(draw: int):
    rng = np.random.default_rng(99)
    for _ in range(draw):
        random_lp(rng)
    return random_lp(rng)


# the draws of random_lp(default_rng(99)) among the first 1500 whose phase 1
# ends with an artificial still basic (at zero)
@pytest.mark.parametrize("draw", [175, 206, 743, 819, 977, 1083, 1412])
def test_rows_phase_1_leaves_to_artificials_go_back_to_their_slacks(draw, monkeypatch):
    lp = nth_random_lp(draw)
    handed = []
    retire = simplex._retire_artificials

    def counting(state):
        handed.append(int((state.basis >= state.n_real).sum()))
        retire(state)

    monkeypatch.setattr(simplex, "_retire_artificials", counting)
    got = solve(lp)
    assert handed[0] >= 1
    assert got.status == OPTIMAL
    want = highs_objective(lp)
    assert abs(got.objective - want) <= RTOL * max(1.0, abs(want))
    n, m = lp.num_variables, lp.num_rows
    assert got.basis.status.shape == (n + m,)
    assert got.basis.basic.max() < n + m
    assert solve(lp, start=got.basis).iterations == 0
