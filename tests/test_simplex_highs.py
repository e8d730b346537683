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
from helpers import nth_random_lp, random_allocation_case, random_lp, toy_case

from spothedge import metrics, simplex
from spothedge.formulations import (CVAR, DRO, PER_PERIOD, PER_SCENARIO,
                                    RISK_NEUTRAL, FormulationConfig, build)
from spothedge.linprog import INFEASIBLE, OPTIMAL, LinearProgram, LpSolution
from spothedge.simplex import solve

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
    # the dual phase runs only at the cold first point
    assert max(iterations[1:]) < iterations[0]


def first_point_from_anchor(anchor, lp) -> tuple[LpSolution, int]:
    """Solve lp from the anchor's basis, the basis of its leading block,
    which must match HiGHS; returns the solution and the iterations of lp's
    own cold solve."""
    got = solve(lp, start=anchor.basis)
    assert got.status == OPTIMAL
    want = highs_objective(lp)
    assert abs(got.objective - want) <= RTOL * max(1.0, abs(want))
    return got, solve(lp).iterations


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
    got, cold_iterations = first_point_from_anchor(
        anchor, build(instance, scenarios, first)[0])
    assert got.iterations < cold_iterations
    start = got.basis
    for config in rest:
        lp, _vm = build(instance, scenarios, config)
        got = solve(lp, start=start)
        assert got.status == OPTIMAL
        want = highs_objective(lp)
        assert abs(got.objective - want) <= RTOL * max(1.0, abs(want))
        start = got.basis


def test_random_allocation_cases_from_the_anchor_match_highs():
    """The anchor's basis takes fewer iterations than a cold solve, except
    where the cold solve takes a single dual iteration, which no start
    beats (rng-616 draw 27 cvar); over all draws it saves most of them."""
    rng = np.random.default_rng(616)
    warm_total = cold_total = 0
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
            got, cold_iterations = first_point_from_anchor(
                anchor, build(instance, scenarios, config)[0])
            assert got.iterations < cold_iterations or cold_iterations <= 1
            warm_total += got.iterations
            cold_total += cold_iterations
    assert 4 * warm_total < cold_total


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


# the draws of random_lp(default_rng(99)) among the first 1500 on which the
# two-phase primal simplex with artificials ended phase 1 at a degenerate
# vertex, an artificial still basic at zero
@pytest.mark.parametrize("draw", [175, 206, 743, 819, 977, 1083, 1412])
def test_degenerate_random_programs_match_highs_and_restart_in_place(draw):
    lp = nth_random_lp(draw)
    got = solve(lp)
    assert got.status == OPTIMAL
    want = highs_objective(lp)
    assert abs(got.objective - want) <= RTOL * max(1.0, abs(want))
    n, m = lp.num_variables, lp.num_rows
    assert got.basis.status.shape == (n + m,)
    assert got.basis.basic.max() < n + m
    assert solve(lp, start=got.basis).iterations == 0


def dual_starts(monkeypatch):
    """Record (costs, shifted costs, status) at every dual phase's start."""
    seen = []
    dual_start = simplex._dual_start

    def recording(state, c):
        shifted, d = dual_start(state, c)
        seen.append((c.copy(), shifted.copy(), state.status.copy()))
        return shifted, d

    monkeypatch.setattr(simplex, "_dual_start", recording)
    return seen


def test_cost_shifting_repairs_a_dual_infeasible_crash_basis(monkeypatch):
    """At 4 scenarios the cvar crash basis leaves a tail column ell[s],
    bounded below only, with a reduced cost that wants it to grow; its
    cost is shifted for the dual phase, and the primal phase and the
    reported objective use the true costs."""
    instance, scenarios, q = toy_case(4)
    lp, vm = build(instance, scenarios, toy_config(CVAR, q))
    starts = dual_starts(monkeypatch)
    got = solve(lp)
    (costs, shifted, status), = starts
    moved = np.nonzero(shifted != costs)[0]
    assert moved.size
    assert np.isinf(simplex._equality_form(lp).upper[moved]).all()
    assert set(moved) & set(vm.ell.ravel())
    assert (status[moved] == simplex._AT_LOWER).all()
    assert got.status == OPTIMAL
    assert got.objective == float(lp.objective_array() @ got.values)
    want = highs_objective(lp)
    assert abs(got.objective - want) <= RTOL * max(1.0, abs(want))


def test_free_nonbasic_column_enters_through_the_dual_phase(monkeypatch):
    """z1 takes row 0 in the crash, and z2, whose only row that is, stays
    nonbasic and free with reduced cost -1, which is shifted to 0.  The
    crash leaves z1 = 1 below its floor 2; z2 repairs that row at ratio 0
    and enters.  The optimum, 2 at z1 = 3, x = 0, z2 = -2, is unique."""
    lp = LinearProgram()
    z1 = lp.add_variable("z1", -math.inf, math.inf, 0.0)
    z2 = lp.add_variable("z2", -math.inf, math.inf, -1.0)
    x = lp.add_variable("x", 0.0, 4.0, -1.0)
    lp.add_row("tie", {z1: 1.0, z2: 1.0, x: -1.0}, "==", 1.0)
    lp.add_row("floor", {z1: 1.0}, ">=", 2.0)
    lp.add_row("cap", {z1: 1.0}, "<=", 3.0)
    starts = dual_starts(monkeypatch)
    got = solve(lp)
    (costs, shifted, status), = starts
    assert status[z2] == simplex._FREE
    assert costs[z2] == -1.0 and shifted[z2] == 0.0
    assert got.status == OPTIMAL
    assert z2 in got.basis.basic
    assert got.objective == pytest.approx(2.0, abs=1e-12)
    assert got.values == pytest.approx([3.0, -2.0, 0.0], abs=1e-12)
    want = highs_objective(lp)
    assert abs(got.objective - want) <= RTOL * max(1.0, abs(want))
