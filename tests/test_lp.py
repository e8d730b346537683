"""Solver and enumeration-oracle tests for the LP layer."""

import math

import numpy as np
import pytest

from bruteforce import DimensionTooLarge, brute_force_solve
from helpers import lp_to_text, random_lp, toy_case
from spothedge import simplex
from spothedge.formulations import (CVAR, DRO, PER_PERIOD, PER_SCENARIO, RISK_NEUTRAL,
                                    FormulationConfig, build)
from spothedge.linprog import (INFEASIBLE, OPTIMAL, UNBOUNDED, Basis,
                               LinearProgram, NumericalFailure)
from spothedge.simplex import solve


def small_knapsack():
    # max 3x + 2y  s.t. x + y <= 4, 0 <= x <= 2, 0 <= y <= 3
    lp = LinearProgram()
    x = lp.add_variable("x", 0.0, 2.0, 3.0)
    y = lp.add_variable("y", 0.0, 3.0, 2.0)
    lp.add_row("cap", {x: 1.0, y: 1.0}, "<=", 4.0)
    return lp


def test_knapsack_optimal_vertex():
    sol = solve(small_knapsack())
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(10.0, abs=1e-9)
    assert sol.values == pytest.approx([2.0, 2.0], abs=1e-9)


def test_knapsack_oracle_agrees():
    ref = brute_force_solve(small_knapsack())
    assert ref.status == OPTIMAL
    assert ref.objective == pytest.approx(10.0, abs=1e-12)
    assert ref.values == pytest.approx([2.0, 2.0], abs=1e-12)


def test_unbounded_ray():
    lp = LinearProgram()
    x = lp.add_variable("x", 0.0, math.inf, 1.0)
    lp.add_row("floor", {x: 1.0}, ">=", 1.0)
    assert solve(lp).status == UNBOUNDED


def test_infeasible_bounds_vs_row():
    lp = LinearProgram()
    x = lp.add_variable("x", 0.0, 5.0, 1.0)
    lp.add_row("neg", {x: 1.0}, "<=", -1.0)
    assert solve(lp).status == INFEASIBLE
    assert brute_force_solve(lp).status == INFEASIBLE


def test_equality_row_and_free_variable():
    # max z with z free, z = 2a - b, a <= 3, b >= 1: optimum z = 5 at a=3, b=1
    lp = LinearProgram()
    z = lp.add_variable("z", -math.inf, math.inf, 1.0)
    a = lp.add_variable("a", 0.0, 3.0)
    b = lp.add_variable("b", 1.0, 10.0)
    lp.add_row("def", {z: 1.0, a: -2.0, b: 1.0}, "==", 0.0)
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(5.0, abs=1e-9)
    assert sol.values[1] == pytest.approx(3.0, abs=1e-9)
    assert sol.values[2] == pytest.approx(1.0, abs=1e-9)


def test_negative_lower_bounds():
    # max x + y over x in [-5, -1], y in [-2, 2], x + y >= -4
    lp = LinearProgram()
    x = lp.add_variable("x", -5.0, -1.0, 1.0)
    y = lp.add_variable("y", -2.0, 2.0, 1.0)
    lp.add_row("r", {x: 1.0, y: 1.0}, ">=", -4.0)
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_oracle_rejects_oversize_and_unbounded_input():
    lp = LinearProgram()
    for j in range(9):
        lp.add_variable(f"x{j}", 0.0, 1.0, 1.0)
    with pytest.raises(DimensionTooLarge):
        brute_force_solve(lp)
    lp2 = LinearProgram()
    lp2.add_variable("x", 0.0, math.inf, 1.0)
    with pytest.raises(ValueError):
        brute_force_solve(lp2)


def test_simplex_matches_oracle_on_random_programs():
    rng = np.random.default_rng(20260816)
    optimal_seen = infeasible_seen = 0
    for _ in range(400):
        lp = random_lp(rng)
        ref = brute_force_solve(lp)
        got = solve(lp)
        assert got.status == ref.status, lp_to_text(lp)
        if ref.status == OPTIMAL:
            optimal_seen += 1
            tol = 1e-8 * (1.0 + abs(ref.objective))
            assert abs(got.objective - ref.objective) <= tol, lp_to_text(lp)
        else:
            infeasible_seen += 1
    # the generator must exercise both terminal statuses
    assert optimal_seen > 50
    assert infeasible_seen > 50


def test_objective_scaling_invariance():
    rng = np.random.default_rng(7)
    for _ in range(60):
        lp = random_lp(rng)
        base = solve(lp)
        kappa = float(rng.uniform(0.1, 8.0))
        scaled = LinearProgram()
        for name, lo, hi, c in zip(lp.variable_names, lp.lower, lp.upper, lp.objective):
            scaled.add_variable(name, lo, hi, kappa * c)
        for row in lp.rows:
            scaled.add_row(row.name, row.coeffs, row.relation, row.rhs)
        other = solve(scaled)
        assert other.status == base.status
        if base.status == OPTIMAL:
            assert other.objective == pytest.approx(kappa * base.objective,
                                                    abs=1e-7 * (1 + abs(base.objective)))


def test_redundant_row_invariance():
    rng = np.random.default_rng(11)
    for _ in range(60):
        lp = random_lp(rng)
        base = solve(lp)
        if base.status != OPTIMAL:
            continue
        # duplicate the first row: feasible set unchanged
        first = lp.rows[0]
        lp.add_row("dup", first.coeffs, first.relation, first.rhs)
        again = solve(lp)
        assert again.status == OPTIMAL
        assert again.objective == pytest.approx(base.objective,
                                                abs=1e-7 * (1 + abs(base.objective)))
        # every basis lists only structural and slack columns, even with a
        # redundant row
        for sol in (base, again):
            columns = lp.num_variables + len(sol.basis.basic)
            assert sol.basis.status.shape == (columns,)
            assert sol.basis.basic.max() < columns


def test_lp_text_render():
    text = lp_to_text(small_knapsack())
    assert "cap: 1 x + 1 y <= 4" in text
    assert "maximize: 3 x + 2 y" in text
    assert "bound: 0 <= x <= 2" in text


def test_start_from_own_basis_needs_no_pivot():
    lp = small_knapsack()
    cold = solve(lp)
    warm = solve(lp, start=cold.basis)
    assert warm.iterations == 0
    assert warm.objective == cold.objective
    assert np.array_equal(warm.values, cold.values)


def no_cold_start(state, rest):
    raise AssertionError("the start fell back to the cold start")


def highs_objective(lp) -> float:
    """The HiGHS optimum of lp; the calling test is skipped without scipy."""
    return pytest.importorskip("test_simplex_highs").highs_objective(lp)


def dual_phases(monkeypatch):
    """Record the iterations of every dual phase the simplex runs."""
    seen = []
    dual_phase = simplex._dual_phase

    def recording(state, c):
        status, iterations = dual_phase(state, c)
        seen.append(iterations)
        return status, iterations

    monkeypatch.setattr(simplex, "_dual_phase", recording)
    return seen


def test_start_made_infeasible_by_a_tighter_bound_falls_back(monkeypatch):
    # the knapsack optimum (2, 2) has y basic; y <= 1 puts that basis at
    # y = 2, so the solve falls back on the dual phase from that basis
    start = solve(small_knapsack()).basis
    tight = small_knapsack()
    tight.upper[1] = 1.0
    cold = solve(tight)
    monkeypatch.setattr(simplex, "_cold_start", no_cold_start)
    phases = dual_phases(monkeypatch)
    warm = solve(tight, start=start)
    assert phases == [1]
    assert warm.status == OPTIMAL
    assert warm.objective == pytest.approx(8.0, abs=1e-9)
    assert warm.objective == cold.objective
    assert np.array_equal(warm.values, cold.values)


def installed_starts(monkeypatch):
    """Record whether each start given to the simplex could be installed."""
    seen = []
    warm_start = simplex._warm_start

    def recording(state, start, rest):
        seen.append(warm_start(state, start, rest))
        return seen[-1]

    monkeypatch.setattr(simplex, "_warm_start", recording)
    return seen


def assert_same_solve(warm, cold):
    assert (warm.status, warm.objective, warm.iterations) == (cold.status, cold.objective,
                                                              cold.iterations)
    assert warm.values.tobytes() == cold.values.tobytes()
    assert np.array_equal(warm.basis.basic, cold.basis.basic)
    assert np.array_equal(warm.basis.status, cold.basis.status)


def test_a_start_resting_on_an_infinite_bound_is_solved_cold(monkeypatch):
    lp = small_knapsack()
    cold = solve(lp)
    status = cold.basis.status.copy()
    slack = lp.num_variables  # the cap row's slack rests at 0 and has no upper bound
    assert status[slack] == simplex._AT_LOWER
    status[slack] = simplex._AT_UPPER
    seen = installed_starts(monkeypatch)
    warm = solve(lp, start=Basis(basic=cold.basis.basic, status=status))
    assert seen == [False]
    assert_same_solve(warm, cold)


def test_a_singular_start_is_solved_cold(monkeypatch):
    # x and y have parallel columns, so no basis holds both
    lp = LinearProgram()
    x = lp.add_variable("x", 0.0, 3.0, 1.0)
    y = lp.add_variable("y", 0.0, 3.0, 2.0)
    lp.add_row("cap", {x: 1.0, y: 1.0}, "<=", 4.0)
    lp.add_row("twice", {x: 2.0, y: 2.0}, "<=", 10.0)
    cold = solve(lp)
    status = np.array([simplex._BASIC, simplex._BASIC, simplex._AT_LOWER, simplex._AT_LOWER],
                      dtype=np.int8)
    seen = installed_starts(monkeypatch)
    warm = solve(lp, start=Basis(basic=np.array([x, y]), status=status))
    assert seen == [False]
    assert cold.objective == pytest.approx(7.0, abs=1e-9)
    assert_same_solve(warm, cold)


def test_block_of_rows_equals_rows_added_one_by_one():
    columns = np.array([[0, 1], [1, 1], [0, 0]])
    coeffs = np.array([[1.0, 0.0], [2.0, 3.0], [-0.0, 4.0]])
    relations, rhs = ["<=", ">=", "=="], [1.0, 2.0, 3.0]
    block, single = small_knapsack(), small_knapsack()
    assert block.add_rows(["a", "b", "c"], columns, coeffs, relations, rhs).tolist() == [1, 2, 3]
    for name, cols, values, relation, b in zip("abc", columns, coeffs, relations, rhs):
        single.add_row(name, list(zip(cols, values)), relation, b)
    assert block.rows == single.rows
    assert block.rows[2].coeffs == {1: 5.0}  # zeros dropped, a repeated column summed


def test_with_objective_keeps_the_matrix_and_bounds_and_checks_the_objective():
    lp = small_knapsack()
    other = lp.with_objective([1.0, 5.0])
    assert other.rows is lp.rows and other.variable_names is lp.variable_names
    assert solve(other).objective == pytest.approx(16.0, abs=1e-9)  # x = 1, y = 3
    other.upper[1] = 1.0  # the bounds are the derived program's own
    assert lp.upper[1] == 3.0
    assert solve(lp).objective == pytest.approx(10.0, abs=1e-9)
    with pytest.raises(ValueError, match="shape"):
        lp.with_objective([1.0])
    with pytest.raises(ValueError, match="^variable y: bad bounds or objective$"):
        lp.with_objective([1.0, math.inf])


def test_block_validation_names_the_first_problem_of_the_first_bad_row():
    columns = np.array([[0, 1], [1, 7], [5, 0]])
    coeffs = np.array([[1.0, 1.0], [np.nan, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match=r"^row b: non-finite coefficient on column 1$"):
        small_knapsack().add_rows("abc", columns, coeffs, "<=", 0.0)
    with pytest.raises(ValueError, match=r"^row b: unknown relation '<'$"):
        small_knapsack().add_rows("abc", columns, coeffs, ["<=", "<", "=="], 0.0)
    with pytest.raises(ValueError, match=r"^row b: column 7 out of range$"):
        small_knapsack().add_rows("abc", columns, np.ones((3, 2)), "<=", 0.0)
    with pytest.raises(ValueError, match=r"^row a: non-finite right-hand side$"):
        small_knapsack().add_rows("abc", columns, coeffs, "<=", [np.inf, 0.0, 0.0])
    with pytest.raises(ValueError, match=r"^variable v1: lower bound 2.0 exceeds upper 1.0$"):
        LinearProgram().add_variables(["v0", "v1", "v2"], [0.0, 2.0, 3.0], 1.0)


def extended_knapsack(columns=(), rows=()):
    """small_knapsack with columns (name, lower, upper, objective) and rows
    (coeffs, relation, rhs) appended; the knapsack is its leading block."""
    lp = small_knapsack()
    for column in columns:
        lp.add_variable(*column)
    for i, (coeffs, relation, rhs) in enumerate(rows):
        lp.add_row(f"extra{i}", coeffs, relation, rhs)
    return lp


def test_start_from_a_leading_block_is_extended():
    # the knapsack's basis starts the knapsack with a row appended: the
    # row's slack enters the basis, and the solve ends where a cold one does
    start = solve(small_knapsack()).basis
    wider = small_knapsack()
    wider.add_row("floor", {0: 1.0}, ">=", 1.0)
    warm, cold = solve(wider, start=start), solve(wider)
    assert warm.status == OPTIMAL
    assert warm.objective == cold.objective
    assert np.array_equal(warm.values, cold.values)
    assert warm.iterations == 0  # the knapsack optimum x = 2 meets x >= 1
    assert list(warm.basis.basic) == [*start.basic, 3]  # the floor's slack


def test_extending_a_start_onto_a_smaller_program_is_rejected():
    for columns, rows in [
        ([("v", 0.0, math.inf, -1.0)], [({0: 1.0, 2: 1.0}, ">=", 3.0)]),  # both
        ([("v", 0.0, math.inf, -1.0)], []),  # one more column
        ([], [({0: 1.0}, ">=", 1.0)]),  # one more row
    ]:
        start = solve(extended_knapsack(columns, rows)).basis
        with pytest.raises(ValueError, match="the program has only 1 and 2$"):
            solve(small_knapsack(), start=start)


def test_start_listing_a_basic_column_twice_is_rejected():
    # the knapsack with a row appended has two basic columns; a start
    # that lists one of them twice is refused on its own program and as
    # the leading block of a larger one
    lp = extended_knapsack(rows=[({1: 1.0}, ">=", 1.0)])
    basis = solve(lp).basis
    twice = Basis(basic=np.repeat(basis.basic[:1], 2), status=basis.status)
    larger = extended_knapsack([("v", 0.0, math.inf, -1.0)],
                               [({1: 1.0}, ">=", 1.0), ({0: 1.0, 2: 1.0}, ">=", 3.0)])
    for program in (lp, larger):
        with pytest.raises(ValueError, match="does not list its basic columns once each"):
            solve(program, start=twice)


def test_leading_start_maps_each_kind_of_column():
    # bases of the knapsack (x, y | slack cap), extended by column v and row extra0
    lp = extended_knapsack([("v", 0.0, math.inf, -1.0)], [({0: 1.0, 2: 1.0}, ">=", 3.0)])
    at_lower, at_upper, basic = simplex._AT_LOWER, simplex._AT_UPPER, simplex._BASIC
    slack_basic = Basis(basic=np.array([2]),
                        status=np.array([at_upper, at_lower, basic], dtype=np.int8))
    extended = simplex._leading_start(slack_basic, lp)
    # x, y, v | slacks cap, extra0
    assert list(extended.basic) == [3, 4]
    assert list(extended.status) == [at_upper, at_lower, at_lower, basic, basic]
    same = simplex._leading_start(extended, lp)
    for field in ("basic", "status"):
        assert np.array_equal(getattr(same, field), getattr(extended, field))
    y_basic = Basis(basic=np.array([1]),
                    status=np.array([at_upper, basic, at_lower], dtype=np.int8))
    assert list(simplex._leading_start(y_basic, lp).basic) == [1, 4]


@pytest.mark.parametrize("columns, rows, optimum", [
    # x + v >= 3 holds at x = 2 only with v = 1: v, whose only row that is,
    # takes the place of the row's slack (1, above its bound 0)
    ([("v", 0.0, math.inf, -1.0)], [({0: 1.0, 2: 1.0}, ">=", 3.0)], 9.0),
    # var takes extra0 and so moves extra1's slack back inside its bounds;
    # ell1 must not enter on the slack's value before that move
    ([("var", -math.inf, math.inf, 0.5), ("ell0", 0.0, math.inf, -1.0),
      ("ell1", 0.0, math.inf, -1.0)],
     [({3: 1.0, 2: -1.0}, ">=", 3.0), ({4: 1.0, 2: -1.0}, ">=", 1.0)], 8.5),
    # u would have to go below 0 and p above 1, so v and w enter instead
    ([("u", 0.0, math.inf, -1.0), ("v", 0.0, math.inf, -1.0),
      ("p", 0.0, 1.0, -1.0), ("w", 0.0, math.inf, -2.0)],
     [({2: -1.0, 3: 1.0}, ">=", 2.0), ({4: 1.0, 5: 1.0}, ">=", 2.0)], 5.0),
    # a takes extra0, so b, which would move a as well, may not take extra1
    ([("a", 0.0, math.inf, -1.0), ("b", 0.0, math.inf, -3.0), ("c", 0.0, math.inf, -1.0)],
     [({2: 1.0, 3: 1.0}, ">=", 2.0), ({3: 1.0, 4: 1.0}, ">=", 3.0)], 5.0),
])
def test_crash_repairs_appended_rows_without_phase_1(monkeypatch, columns, rows, optimum):
    lp = extended_knapsack(columns, rows)
    cold = solve(lp)
    start = solve(small_knapsack()).basis
    monkeypatch.setattr(simplex, "_cold_start", no_cold_start)
    phases = dual_phases(monkeypatch)
    warm = solve(lp, start=start)
    assert phases == []  # the repaired start is feasible
    assert warm.status == OPTIMAL
    assert warm.objective == pytest.approx(optimum, abs=1e-9)
    assert warm.objective == cold.objective
    assert np.array_equal(warm.values, cold.values)
    assert warm.iterations < cold.iterations


def test_extended_start_that_cannot_be_repaired_falls_back(monkeypatch):
    # y >= 2.5 is violated at the knapsack optimum y = 2, and y is basic
    # already, so no nonbasic column can take the new row's slack; the
    # nonsingular, infeasible start falls back on the dual phase, not on
    # a cold start
    lp = extended_knapsack(rows=[({1: 1.0}, ">=", 2.5)])
    start = solve(small_knapsack()).basis
    cold = solve(lp)
    monkeypatch.setattr(simplex, "_cold_start", no_cold_start)
    phases = dual_phases(monkeypatch)
    warm = solve(lp, start=start)
    assert phases == [1]
    assert warm.status == OPTIMAL
    assert warm.objective == pytest.approx(9.5, abs=1e-9)
    assert warm.objective == cold.objective
    assert np.array_equal(warm.values, cold.values)
    assert warm.objective == pytest.approx(highs_objective(lp), abs=1e-9)


def test_bound_flipping_ratio_test_flips_the_boxed_columns_it_passes(monkeypatch):
    # max -x1 - 2 x2 - 4 x3 with x1, x2 in [0, 1], x3 in [0, 5] and
    # x1 + x2 + x3 >= 2.5.  From the crash basis (slack basic at 2.5, above
    # its bound 0) the ratios are 1, 2, 4; passing x1 and x2 flips them to
    # their upper bounds and leaves 0.5 to repair, so x3 enters at 0.5 and
    # one dual iteration reaches the optimum -5
    lp = LinearProgram()
    x1 = lp.add_variable("x1", 0.0, 1.0, -1.0)
    x2 = lp.add_variable("x2", 0.0, 1.0, -2.0)
    x3 = lp.add_variable("x3", 0.0, 5.0, -4.0)
    lp.add_row("cover", {x1: 1.0, x2: 1.0, x3: 1.0}, ">=", 2.5)
    flipped = []
    b_solve = simplex._State.b_solve

    def recording(state, rows, vals):
        flipped.append((rows.tolist(), vals.tolist()))
        return b_solve(state, rows, vals)

    monkeypatch.setattr(simplex._State, "b_solve", recording)
    phases = dual_phases(monkeypatch)
    sol = solve(lp)
    # one b_solve for the flips (x1 and x2 each moved by +1 in row 0),
    # the others are FTRANs of entering columns
    assert ([0], [2.0]) in flipped
    assert phases == [1] and sol.iterations == 1
    assert sol.status == OPTIMAL
    assert sol.values.tolist() == [1.0, 1.0, 0.5]
    assert sol.objective == -5.0
    assert brute_force_solve(lp).objective == pytest.approx(-5.0, abs=1e-12)
    assert sol.objective == pytest.approx(highs_objective(lp), abs=1e-9)


def boxed(lp, bound):
    """lp with every infinite bound replaced by -bound or bound."""
    box = LinearProgram()
    for name, lo, hi, c in zip(lp.variable_names, lp.lower, lp.upper, lp.objective):
        box.add_variable(name, max(lo, -bound), min(hi, bound), c)
    for row in lp.rows:
        box.add_row(row.name, row.coeffs, row.relation, row.rhs)
    return box


def refactored_bases(monkeypatch):
    """Record the basis of every refactorization and whether it was singular;
    the first ones of a cold solve are its crash basis."""
    seen = []
    refactor = simplex._State.refactor

    def recording(state):
        basis = state.basis.copy()
        try:
            refactor(state)
        except NumericalFailure:
            seen.append((basis, True))
            raise
        seen.append((basis, False))

    monkeypatch.setattr(simplex._State, "refactor", recording)
    return seen


def test_crash_falls_back_to_slacks_on_a_singular_free_block(monkeypatch):
    # z1 takes row 0 and z2 row 1, whose block [[1, 1], [2, 2]] is singular;
    # max 3 z1 + z2 - x is 4 at z1 = x = 3, z2 = -2
    lp = LinearProgram()
    z1 = lp.add_variable("z1", -math.inf, math.inf, 3.0)
    z2 = lp.add_variable("z2", -math.inf, math.inf, 1.0)
    x = lp.add_variable("x", 0.0, 3.0, -1.0)
    lp.add_row("sum", {z1: 1.0, z2: 1.0}, "==", 1.0)
    lp.add_row("twice", {z1: 2.0, z2: 2.0}, "==", 2.0)
    lp.add_row("cap", {z1: 1.0, x: -1.0}, "<=", 0.0)
    lp.add_row("floor", {z2: 1.0}, ">=", -5.0)
    seen = refactored_bases(monkeypatch)
    sol = solve(lp)
    assert [singular for _basis, singular in seen[:2]] == [True, False]
    assert list(seen[0][0][:2]) == [z1, z2]
    assert (seen[1][0] >= lp.num_variables).all()  # slacks only
    ref = brute_force_solve(boxed(lp, 100.0))
    assert sol.status == ref.status == OPTIMAL
    assert sol.objective == pytest.approx(ref.objective, abs=1e-9)
    assert ref.objective == pytest.approx(4.0, abs=1e-9)
    assert sol.values == pytest.approx([3.0, -2.0, 3.0], abs=1e-9)


def test_crash_leaves_a_free_column_without_an_open_row_at_zero(monkeypatch):
    # z1 takes row 0 and z2 row 1; z3 appears only in row 0 and stays at 0
    lp = LinearProgram()
    z1 = lp.add_variable("z1", -math.inf, math.inf)
    z2 = lp.add_variable("z2", -math.inf, math.inf)
    z3 = lp.add_variable("z3", -math.inf, math.inf, 1.0)
    x = lp.add_variable("x", 0.0, 3.0)
    lp.add_row("total", {z1: 1.0, z2: 1.0, z3: 1.0}, "==", 6.0)
    lp.add_row("cap", {z2: 1.0, x: -1.0}, "<=", 0.0)
    lp.add_row("z1_cap", {z1: 1.0}, "<=", 1.0)
    lp.add_row("floor", {z1: 1.0, z2: 1.0}, ">=", -2.0)
    seen = refactored_bases(monkeypatch)
    sol = solve(lp)
    crash, singular = seen[0]
    assert not singular
    assert list(crash[:2]) == [z1, z2] and z3 not in crash
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(8.0, abs=1e-9)
    assert sol.objective == pytest.approx(brute_force_solve(boxed(lp, 100.0)).objective,
                                          abs=1e-9)


def test_infeasible_and_unbounded_with_free_columns():
    lp = LinearProgram()
    z = lp.add_variable("z", -math.inf, math.inf, 1.0)
    x = lp.add_variable("x", 0.0, 1.0)
    lp.add_row("link", {z: 1.0, x: -1.0}, "==", 0.0)
    lp.add_row("floor", {z: 1.0}, ">=", 2.0)
    assert solve(lp).status == INFEASIBLE

    lp = LinearProgram()
    z1 = lp.add_variable("z1", -math.inf, math.inf, 1.0)
    z2 = lp.add_variable("z2", -math.inf, math.inf, -1.0)
    x = lp.add_variable("x", 0.0, 1.0)
    lp.add_row("link", {z1: 1.0, z2: 1.0, x: -1.0}, "==", 0.0)
    lp.add_row("gap", {z1: 1.0, z2: -1.0}, ">=", 0.0)
    assert solve(lp).status == UNBOUNDED


def test_simplex_matches_oracle_with_free_columns():
    """Random programs gain one or two free columns, each tied to the bounded
    ones by its own equality row and also present in some other rows; the
    oracle solves them with the free bounds boxed far outside that tie."""
    rng = np.random.default_rng(20261018)
    statuses = set()
    for _ in range(150):
        lp = random_lp(rng)
        n, m = lp.num_variables, lp.num_rows
        for k in range(int(rng.integers(1, 3))):
            z = lp.add_variable(f"z{k}", -math.inf, math.inf, float(rng.integers(-9, 10)))
            for row in lp.rows[:m]:  # |z| <= 6 * 81 + 9 from its tie alone
                if rng.random() < 0.5:
                    row.coeffs[z] = float(rng.integers(1, 10) * rng.choice([-1, 1]))
            tie = {j: float(c) for j, c in enumerate(rng.integers(-9, 10, size=n))}
            tie[z] = -1.0
            lp.add_row(f"tie{k}", tie, "==", float(rng.integers(-9, 10)))
        ref = brute_force_solve(boxed(lp, 1e3))
        got = solve(lp)
        assert got.status == ref.status, lp_to_text(lp)
        statuses.add(ref.status)
        if ref.status == OPTIMAL:
            tol = 1e-8 * (1.0 + abs(ref.objective))
            assert abs(got.objective - ref.objective) <= tol, lp_to_text(lp)
    assert statuses == {OPTIMAL, INFEASIBLE}


def test_every_infeasible_random_program_is_certified_by_its_ray(monkeypatch):
    """The first 1500 draws of random_lp(default_rng(99)) hold 949
    infeasible programs; each INFEASIBLE comes with a checked Farkas ray."""
    checks = []
    proves = simplex._proves_infeasible

    def recording(state, rho):
        checks.append(proves(state, rho))
        return checks[-1]

    monkeypatch.setattr(simplex, "_proves_infeasible", recording)
    rng = np.random.default_rng(99)
    statuses = [solve(random_lp(rng)).status for _ in range(1500)]
    assert statuses.count(INFEASIBLE) == 949
    assert statuses.count(OPTIMAL) == 551
    assert checks == [True] * 949


def two_row_infeasible_lp():
    # x, y in [0, 1] cannot meet x + y >= 3; x - y <= 5 holds everywhere.
    # The dual phase ends with rho = (1, 0): over the bounds x + y + s0
    # ranges over (-inf, 2], which misses rho b = 3
    lp = LinearProgram()
    x = lp.add_variable("x", 0.0, 1.0)
    y = lp.add_variable("y", 0.0, 1.0)
    lp.add_row("cover", {x: 1.0, y: 1.0}, ">=", 3.0)
    lp.add_row("gap", {x: 1.0, y: -1.0}, "<=", 5.0)
    return lp


@pytest.mark.parametrize("perturb", [
    lambda rho: 0.0 * rho,  # no ray at all
    # adding row 1 gives its slack, in [0, inf), a positive coefficient:
    # the interval reaches +inf
    lambda rho: rho + np.array([0.0, 1.0]),
    # subtracting it gives (0, 2, 1, -1) . (x, y, s0, s1) in (-inf, 2],
    # which holds rho b = 3 - 5 = -2
    lambda rho: rho - np.array([0.0, 1.0]),
], ids=["zero", "plus_row_1", "minus_row_1"])
def test_a_perturbed_ray_fails_the_infeasibility_check(monkeypatch, perturb):
    lp = two_row_infeasible_lp()
    rays = []
    proves = simplex._proves_infeasible

    def recording(state, rho):
        rays.append(rho.copy())
        return proves(state, rho)

    monkeypatch.setattr(simplex, "_proves_infeasible", recording)
    assert solve(lp).status == INFEASIBLE
    assert rays[0] == pytest.approx([1.0, 0.0], abs=1e-12)

    # the row the ray fails to prove stays violated by 1, far beyond the
    # tolerance under which a row no column can repair is accepted
    monkeypatch.setattr(simplex, "_proves_infeasible",
                        lambda state, rho: proves(state, perturb(rho)))
    with pytest.raises(NumericalFailure):
        solve(lp)


@pytest.mark.parametrize("relation", ["==", ">="])
@pytest.mark.parametrize("cost", [1.0, -1.0])
def test_a_row_violated_within_tolerance_is_accepted(relation, cost):
    """x in [0, 1] with x == 1 + 1.5e-7 (or >=).  With cost 1 x starts at
    its upper bound and the row's slack stays 1.5e-7 off its bound; with
    cost -1 x enters at 1 + 1.5e-7.  Either way no column can then repair
    the row, and its ray, rho = 1, misses by 1.5e-7, within
    FEASIBILITY_TOL * (1 + |b|), so it proves nothing.  The violation is
    within FEASIBILITY_TOL * (1 + |b|_1), which the two-phase simplex with
    artificials also accepted: it returned OPTIMAL at x = 1."""
    def one_row(rhs):
        lp = LinearProgram()
        x = lp.add_variable("x", 0.0, 1.0, cost)
        lp.add_row("r", {x: 1.0}, relation, rhs)
        return lp

    got = solve(one_row(1.0 + 1.5e-7))
    assert got.status == OPTIMAL
    assert got.objective == pytest.approx(cost, abs=2e-7)
    assert got.values == pytest.approx([1.0], abs=2e-7)
    # twice the distance is a certified infeasibility
    assert solve(one_row(1.0 + 3e-7)).status == INFEASIBLE


@pytest.mark.parametrize("kind, before", [
    (RISK_NEUTRAL, 403), (CVAR, 351), (PER_SCENARIO, 515)])
def test_cold_toy_solves_take_at_most_half_the_primal_iterations(kind, before):
    """Cold solves of the toy LPs at 16 scenarios, against the iterations
    the two-phase primal simplex with artificials took on them."""
    instance, scenarios, q = toy_case(16)
    config = {RISK_NEUTRAL: FormulationConfig(),
              CVAR: FormulationConfig(kind=CVAR, alpha=0.25, lam=0.2),
              PER_SCENARIO: FormulationConfig(kind=DRO, epsilon=1.0, q_matrix=q,
                                              dro_penalty=PER_SCENARIO)}[kind]
    sol = solve(build(instance, scenarios, config)[0])
    assert sol.status == OPTIMAL
    assert sol.iterations <= before // 2


def csc_of_the_transpose(lp):
    """indptr, indices and data of [A | I] from np.nonzero on A^T, the walk
    _matrix_form used before it sorted the row-major nonzeros by column."""
    a, _, _ = lp.dense()
    (m, n), (cols, rows) = a.shape, np.nonzero(a.T)
    return (np.concatenate([np.searchsorted(cols, np.arange(n)), cols.size + np.arange(m + 1)]),
            np.concatenate([rows, np.arange(m)]),
            np.concatenate([a[rows, cols], np.ones(m)]))


def test_matrix_form_builds_the_csc_of_the_transposed_walk():
    instance, scenarios, q = toy_case(8)
    configs = (FormulationConfig(), FormulationConfig(kind=CVAR, alpha=0.25, lam=0.2),
               FormulationConfig(kind=DRO, epsilon=1.0, q_matrix=q, dro_penalty=PER_SCENARIO),
               FormulationConfig(kind=DRO, epsilon=1.0, q_matrix=q, dro_penalty=PER_PERIOD))
    rng = np.random.default_rng(3)
    lps = [small_knapsack(), *(random_lp(rng) for _ in range(20)),
           *(build(instance, scenarios, config)[0] for config in configs)]
    for lp in lps:
        got = simplex._matrix_form(lp)[:3]
        for a, b in zip(got, csc_of_the_transpose(lp)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

