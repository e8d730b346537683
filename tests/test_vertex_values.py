"""The simplex's exit values (simplex._vertex_values): agreement with the
dense QR least-squares re-solve they replaced (helpers.vertex_values_qr),
the spike path, the check of the tight rows the peel leaves out, and the
same bytes from every basis of one vertex."""

import numpy as np
import pytest
from helpers import nth_random_lp, random_allocation_case, toy_case, vertex_values_qr

from spothedge import simplex
from spothedge.formulations import (CVAR, DRO, PER_PERIOD, PER_SCENARIO, FormulationConfig,
                                    build)
from spothedge.linprog import OPTIMAL, LinearProgram

RTOL = 1e-12

TOY_CONFIGS = {
    "rn": lambda q: FormulationConfig(),
    "cvar": lambda q: FormulationConfig(kind=CVAR, alpha=0.25, lam=0.2),
    "cvar_tied": lambda q: FormulationConfig(kind=CVAR, alpha=0.1, lam=0.0),
    "dro_per_scenario": lambda q: FormulationConfig(kind=DRO, epsilon=1.0, q_matrix=q,
                                                    dro_penalty=PER_SCENARIO),
    "dro_per_period": lambda q: FormulationConfig(kind=DRO, epsilon=1.0, q_matrix=q,
                                                  dro_penalty=PER_PERIOD),
}


def exits_against_the_oracle(monkeypatch):
    """Record (values, QR oracle values, spike columns) at every exit."""
    seen = []
    vertex_values, least_squares = simplex._vertex_values, simplex._PeeledBlock.least_squares

    def counting(block):
        seen[-1][2] = block.k - block.peeled
        return least_squares(block)

    def recording(state, n):
        seen.append([None, vertex_values_qr(state, n), 0])
        seen[-1][0] = vertex_values(state, n)
        return seen[-1][0]

    monkeypatch.setattr(simplex._PeeledBlock, "least_squares", counting)
    monkeypatch.setattr(simplex, "_vertex_values", recording)
    return seen


def assert_agrees_with_the_oracle(lp, exits):
    (values, oracle, _), = exits
    assert np.all(np.abs(values - oracle) <= RTOL * np.maximum(1.0, np.abs(oracle)))
    c = lp.objective_array()
    assert abs(c @ values - c @ oracle) <= RTOL * max(1.0, abs(c @ oracle))


@pytest.mark.parametrize("kind", list(TOY_CONFIGS))
@pytest.mark.parametrize("k", [4, 16, 32, 64, 128])
def test_exit_values_agree_with_the_qr_oracle_on_the_toy_ladder(monkeypatch, k, kind):
    """The tied cvar optimum (alpha 0.1, lambda 0) leaves tight rows with no
    singleton at every size, so its exit takes the spike path."""
    instance, scenarios, q = toy_case(k)
    lp = build(instance, scenarios, TOY_CONFIGS[kind](q))[0]
    exits = exits_against_the_oracle(monkeypatch)
    assert simplex.solve(lp).status == OPTIMAL
    assert_agrees_with_the_oracle(lp, exits)
    if kind == "cvar_tied":
        assert exits[0][2] > 0


@pytest.mark.parametrize("seed", range(12))
def test_exit_values_agree_with_the_qr_oracle_on_random_allocations(monkeypatch, seed):
    instance, scenarios = random_allocation_case(np.random.default_rng(seed))
    q = np.eye(len(instance.markets))
    for config in (FormulationConfig(), FormulationConfig(kind=CVAR, alpha=0.25, lam=0.2),
                   FormulationConfig(kind=DRO, epsilon=1.0, q_matrix=q)):
        lp = build(instance, scenarios, config)[0]
        exits = exits_against_the_oracle(monkeypatch)
        if simplex.solve(lp).status == OPTIMAL:
            assert_agrees_with_the_oracle(lp, exits)


def two_tight_rows(rhs, value):
    """x in [0, 10] basic at value under the rows x <= rhs[0] and
    x <= rhs[1], both slacks on their bound at 0."""
    lp = LinearProgram()
    x = lp.add_variable("x", 0.0, 10.0, 1.0)
    for i, b in enumerate(rhs):
        lp.add_row(f"r{i}", {x: 1.0}, "<=", b)
    state = simplex._equality_form(lp)
    state.status[:] = [simplex._BASIC, simplex._AT_LOWER, simplex._BASIC]
    state.x[:] = [value, 0.0, 0.0]
    return state


@pytest.mark.parametrize("rhs, want", [
    ((1.0 + 5e-11, 1.0), 1.0 + 5e-11),  # the lowest row fixes x
    ((1.0, 1.0 + 5e-11), 1.0),
    ((1.0, 1.0 + 1e-4), 0.99995),  # the row left out misses: the basis's own value
])
def test_the_rows_the_peel_leaves_out_are_checked(rhs, want):
    assert simplex._vertex_values(two_tight_rows(rhs, 0.99995), 1).tolist() == [want]


def tight_rows_state(a, b, values):
    """Columns in [0, 10], all basic at values, under the rows a x <= b,
    every slack on its bound at 0."""
    lp = LinearProgram()
    xs = [lp.add_variable(f"x{j}", 0.0, 10.0, 1.0) for j in range(a.shape[1])]
    for i, (row, rhs) in enumerate(zip(a, b)):
        lp.add_row(f"r{i}", {x: v for x, v in zip(xs, row) if v}, "<=", rhs)
    state = simplex._equality_form(lp)
    state.status[:] = [simplex._BASIC] * len(xs) + [simplex._AT_LOWER] * len(a)
    state.x[:len(xs)] = values
    state.x[len(xs):] = 0.0
    return state


def test_dependent_spike_columns_keep_the_basis_values():
    """x0 and x1 share their coefficients in both tight rows: no row is a
    singleton, and the spike's Schur complement is zero."""
    state = tight_rows_state(np.array([[1.0, 1.0], [2.0, 2.0]]), [2.0, 4.0], [0.5, 1.5])
    assert simplex._vertex_values(state, 2).tolist() == [0.5, 1.5]


def crossed(d):
    """Rows c0 + c2, c0 + c3, c1 + c2 and d c1 + c3, which have no
    singleton: c0 and c1 become spikes, rows 0 and 1 fix c2 and c3, and
    rows 2 and 3 leave S = [[-1, 1], [-1, d]], whose condition number is
    about 4 / (d - 1).  Returns the nonzeros (rows, cols, vals)."""
    return (np.array([0, 1, 2, 3, 0, 2, 1, 3]), np.array([0, 0, 1, 1, 2, 2, 3, 3]),
            np.array([1.0, 1.0, 1.0, d, 1.0, 1.0, 1.0, 1.0]))


@pytest.mark.parametrize("d, solvable", [(2.0, True), (1.0 + 1e-6, False)])
def test_an_ill_conditioned_schur_complement_is_not_solved(d, solvable):
    rows, cols, vals = crossed(d)
    block = simplex._PeeledBlock(rows, cols, vals, 4, 4).least_squares()
    assert block.peeled == 2 and block.solvable == solvable
    if solvable:
        want = np.array([1.0, 2.0, 3.0, 4.0])  # by column
        rhs = np.bincount(rows, weights=vals * want[cols])[block.row_order]
        assert np.allclose(block.solve(rhs), want[block.col_order], rtol=1e-14, atol=0.0)


def test_the_refinement_step_recovers_what_the_normal_equations_lose():
    """At d = 1.003, cond(S) is about 1.3e3, and one solve through S's
    normal equations is off by about 2e-10; the refined values are not."""
    rows, cols, vals = crossed(1.003)
    a = np.zeros((4, 4))
    a[rows, cols] = vals
    want = np.array([1.25, 2.5, 3.75, 5.0])
    values = simplex._vertex_values(tight_rows_state(a, a @ want, want + 0.01), 4)
    assert np.allclose(values, want, rtol=1e-11, atol=0.0)


def exits_by_vertex(monkeypatch):
    """Record (on-bound pattern, values, the basis's own values) at every
    exit; the pattern marks each column whose snapped value is on a bound."""
    seen = []
    vertex_values = simplex._vertex_values

    def recording(state, n):
        x = state.x.copy()
        simplex._snap(x, state.lower, state.upper)
        pattern = ((x == state.lower) | (x == state.upper)).tobytes()
        seen.append((pattern, vertex_values(state, n), state.x[:n].copy()))
        return seen[-1][1]

    monkeypatch.setattr(simplex, "_vertex_values", recording)
    return seen


def slack_only_start(monkeypatch):
    """Make every cold solve start from the slacks, with no free column basic."""
    def install_slacks(state, rest):
        m = state.m
        assert simplex._install(state, state.ncols - m + np.arange(m), rest)

    monkeypatch.setattr(simplex, "_cold_start", install_slacks)


def mismatches(solves, field):
    """Pairs of one point's solves that end at one vertex with other bytes."""
    return [(point, a, b) for point, ends in enumerate(solves)
            for a in range(len(ends)) for b in range(a)
            if ends[a][0] == ends[b][0] and ends[a][field].tobytes() != ends[b][field].tobytes()]


def test_every_basis_of_one_vertex_gives_the_same_bytes_on_a_toy_sweep(monkeypatch):
    """Each point of an S=16 sweep is solved cold, warm from each
    neighbouring point's final basis (the anchor's for a grid's first point)
    and from the slacks alone.  Solves that end at one vertex must report
    the same bytes; the basis's own values must not, or the check could not
    tell the canonical values from them."""
    instance, scenarios, q = toy_case(16)
    grids = [[FormulationConfig(kind=CVAR, alpha=a) for a in (0.05, 0.1, 0.25, 0.5, 0.75)],
             [FormulationConfig(kind=DRO, epsilon=e, q_matrix=q) for e in (0.25, 0.5, 1, 2, 4)]]
    anchor = simplex.solve(build(instance, scenarios, FormulationConfig())[0]).basis
    exits = exits_by_vertex(monkeypatch)
    solves = []
    for grid in grids:
        lps = [build(instance, scenarios, config)[0] for config in grid]
        cold = []
        for lp in lps:
            cold.append(simplex.solve(lp).basis)
            solves.append(exits[-1:])
        for i, lp in enumerate(lps):
            for start in [anchor if i == 0 else cold[i - 1]] + cold[i + 1:i + 2]:
                simplex.solve(lp, start=start)
                solves[-len(lps) + i].append(exits[-1])
    with monkeypatch.context() as patch:
        slack_only_start(patch)
        for point, lp in enumerate(build(instance, scenarios, config)[0]
                                   for grid in grids for config in grid):
            simplex.solve(lp)
            solves[point].append(exits[-1])
    pairs = sum(ends[a][0] == ends[b][0] for ends in solves
                for a in range(len(ends)) for b in range(a))
    assert pairs >= 10
    assert mismatches(solves, 1) == []
    assert mismatches(solves, 2)  # the basis's own values differ between bases


@pytest.mark.parametrize("draw", [175, 206, 743, 819, 977, 1083, 1412])
def test_degenerate_random_programs_give_the_same_bytes_from_a_slack_start(monkeypatch, draw):
    lp = nth_random_lp(draw)
    exits = exits_by_vertex(monkeypatch)
    simplex.solve(lp)
    slack_only_start(monkeypatch)
    simplex.solve(lp)
    assert exits[0][0] == exits[1][0]
    assert mismatches([exits], 1) == []
