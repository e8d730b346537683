"""Solver and enumeration-oracle tests for the LP layer."""

import math

import numpy as np
import pytest

from bruteforce import DimensionTooLarge, brute_force_solve
from helpers import lp_to_text, random_lp
from spothedge.linprog import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram
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


def test_start_made_infeasible_by_a_tighter_bound_falls_back():
    # the knapsack optimum (2, 2) has y basic; y <= 1 puts that basis at y = 2
    start = solve(small_knapsack()).basis
    tight = small_knapsack()
    tight.upper[1] = 1.0
    warm = solve(tight, start=start)
    cold = solve(tight)
    assert warm.status == OPTIMAL
    assert warm.objective == pytest.approx(8.0, abs=1e-9)
    assert warm.iterations == cold.iterations  # the two-phase path from scratch
    assert np.array_equal(warm.values, cold.values)


def test_start_from_another_shape_is_rejected():
    start = solve(small_knapsack()).basis
    wider = small_knapsack()
    wider.add_row("floor", {0: 1.0}, ">=", 1.0)
    with pytest.raises(ValueError):
        solve(wider, start=start)
