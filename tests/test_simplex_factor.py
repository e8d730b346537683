"""The simplex's linear algebra against dense NumPy references: FTRAN and
BTRAN through the array eta file, K^-T from the triangular kernel
refactorization, singular kernels, and sense-vector pricing against the
mask rule it replaced (helpers.mask_rule_entering)."""

import types

import numpy as np
import pytest
from helpers import mask_rule_entering, toy_case

from spothedge import simplex
from spothedge.formulations import (CVAR, DRO, PER_PERIOD, PER_SCENARIO,
                                    RISK_NEUTRAL, FormulationConfig, build)
from spothedge.linprog import OPTIMAL, LinearProgram, NumericalFailure

RTOL = 1e-10


def toy_lp(k, kind):
    instance, scenarios, q = toy_case(k)
    config = {RISK_NEUTRAL: FormulationConfig(),
              CVAR: FormulationConfig(kind=CVAR, alpha=0.25, lam=0.2),
              PER_SCENARIO: FormulationConfig(kind=DRO, epsilon=1.0, q_matrix=q,
                                              dro_penalty=PER_SCENARIO),
              PER_PERIOD: FormulationConfig(kind=DRO, epsilon=1.0, q_matrix=q,
                                            dro_penalty=PER_PERIOD)}[kind]
    return build(instance, scenarios, config)[0]


def installed(lp, basis):
    """The equality form of lp with basis installed and factored."""
    state = simplex._equality_form(lp)
    state.basis[:] = basis.basic
    state.status[:] = basis.status
    state.refactor()
    return state


def dense_columns(state, cols):
    pos, rows, vals = state.entries(np.asarray(cols))
    block = np.zeros((state.m, len(cols)))
    block[rows, pos] = vals
    return block


def assert_close(got, want):
    assert np.linalg.norm(got - want) <= RTOL * np.linalg.norm(want)


def test_ftran_and_btran_solve_with_the_basis_after_pivots_and_a_refactorization():
    """R + R - 1 pivots at S=64, R = REFACTOR_EVERY: the first R end in a
    refactorization, the next R - 1 fill the eta file, and one row of the
    second run is pivoted twice."""
    lp = toy_lp(64, CVAR)
    state = installed(lp, simplex.solve(lp).basis)
    every = simplex.REFACTOR_EVERY
    n = lp.num_variables
    rng = np.random.default_rng(64)
    refactorizations = 0
    refactor = state.refactor

    def counting():
        nonlocal refactorizations
        refactorizations += 1
        refactor()

    state.refactor = counting
    repeated = None
    for step in range(2 * every - 1):
        while True:
            j = int(rng.choice(np.nonzero(state.status[:n] != simplex._BASIC)[0]))
            w = state.ftran(j)
            row = int(np.argmax(np.abs(w)))
            if abs(w[row]) < 1e-6:
                continue
            if step == every + every // 2:  # pivot the second run's first row again
                row = repeated
                if abs(w[row]) < 1e-3 * np.abs(w).max():
                    continue
            break
        if step == every:
            repeated = row
        state.status[state.basis[row]] = simplex._AT_LOWER
        state.basis[row] = j
        state.status[j] = simplex._BASIC
        state.pivot(row, w)
    assert refactorizations == 1 and state.etas == every - 1
    assert list(state.eta_rows[:state.etas]).count(repeated) >= 2

    basis = dense_columns(state, state.basis)
    for j in rng.choice(state.ncols, size=8, replace=False):
        assert_close(state.ftran(int(j)), np.linalg.solve(basis, dense_columns(state, [j])[:, 0]))
    for _ in range(4):
        u = rng.normal(size=state.m)
        assert_close(state.btran(u.copy()), np.linalg.solve(basis.T, u))


@pytest.mark.parametrize("kind", [RISK_NEUTRAL, CVAR, PER_SCENARIO, PER_PERIOD])
@pytest.mark.parametrize("k", [8, 16, 32])
def test_kernel_inverse_matches_numpy_at_every_refactorization(monkeypatch, k, kind):
    """K^-T against np.linalg.inv(K).T at each basis a toy solve factors,
    its final basis included; from 16 scenarios on, the robust models'
    bases set spike columns aside."""
    peel = simplex._peel
    refactor = simplex._State.refactor
    spikes = []

    def recording_peel(rows, cols, size):
        row_order, col_order, starts = peel(rows, cols, size)
        spikes.append(size - starts[-1])
        return row_order, col_order, starts

    def checked_refactor(state):
        refactor(state)
        cols = state.basis[state.struct_pos]
        kernel = dense_columns(state, cols)[state.kernel_rows]
        if cols.size:
            assert_close(state.kinv_t, np.linalg.inv(kernel).T)

    monkeypatch.setattr(simplex, "_peel", recording_peel)
    monkeypatch.setattr(simplex._State, "refactor", checked_refactor)
    lp = toy_lp(k, kind)
    installed(lp, simplex.solve(lp).basis)
    if k >= 16 and kind in (PER_SCENARIO, PER_PERIOD):
        assert max(spikes) > 0


def singular_lp():
    """x1 and x2 share their coefficients in rows 0 and 1; x3 appears in
    row 2 alone."""
    lp = LinearProgram()
    x1 = lp.add_variable("x1", 0.0, 1.0, 1.0)
    x2 = lp.add_variable("x2", 0.0, 1.0, 1.0)
    x3 = lp.add_variable("x3", 0.0, 1.0, 1.0)
    lp.add_row("r0", {x1: 1.0, x2: 1.0}, "<=", 1.0)
    lp.add_row("r1", {x1: 2.0, x2: 2.0}, "<=", 2.0)
    lp.add_row("r2", {x1: 1.0, x3: 1.0}, "<=", 1.0)
    return lp


@pytest.mark.parametrize("basic", [
    [0, 1, 3 + 2],  # x1, x2 over rows 0 and 1: two equal kernel columns
    [0, 2, 3 + 2],  # x3 over rows 0 and 1 with row 2's slack: an empty kernel column
])
def test_singular_kernel_raises(basic):
    state = simplex._equality_form(singular_lp())
    state.basis[:] = basic
    state.status[basic] = simplex._BASIC
    with pytest.raises(NumericalFailure):
        state.refactor()


def test_sense_pricing_picks_the_mask_rules_column():
    """Random columns at their lower or upper bound, free, basic or fixed,
    with reduced costs drawn around +-OPTIMALITY_TOL and with exact ties."""
    rng = np.random.default_rng(9)
    tol = simplex.OPTIMALITY_TOL
    pool = np.array([0.0, 0.5 * tol, tol, 2 * tol, 1.0, 2.0, 3.0])
    picked = {True: set(), False: set()}
    for _ in range(3000):
        ncols = int(rng.integers(1, 12))
        status = rng.choice([simplex._AT_LOWER, simplex._AT_UPPER, simplex._FREE,
                             simplex._BASIC], size=ncols).astype(np.int8)
        lower = rng.choice([0.0, -2.0], size=ncols)
        upper = np.where(rng.random(ncols) < 0.3, lower, lower + 4.0)  # fixed or boxed
        half = rng.random(ncols) < 0.2  # half-bounded on the side away from rest
        upper[half & (status == simplex._AT_LOWER)] = np.inf
        lower[half & (status == simplex._AT_UPPER)] = -np.inf
        free = status == simplex._FREE
        lower[free], upper[free] = -np.inf, np.inf
        d = rng.choice(pool, size=ncols) * rng.choice([-1.0, 1.0], size=ncols)
        state = types.SimpleNamespace(status=status, lower=lower, upper=upper)
        sense, free_cols = simplex._sense(state)
        for bland in (False, True):
            want = mask_rule_entering(d, status, lower, upper, bland)
            assert simplex._entering(d, sense, free_cols, bland) == want
            if want is not None:
                picked[bland].add(int(status[want]))
    for bland in (False, True):  # every kind of eligible column was picked
        assert picked[bland] == {simplex._AT_LOWER, simplex._AT_UPPER, simplex._FREE}


def test_program_without_columns_or_rows_is_optimal():
    solution = simplex.solve(LinearProgram())
    assert solution.status == OPTIMAL and solution.objective == 0.0
    assert solution.values.size == 0
