"""Exact reference solver for tiny LPs by enumerating basic solutions.

Every vertex of a bounded polyhedron ``{l <= x <= u, Ax {<=,==,>=} b}`` can be
written as: a set R of rows holding with equality, an equally sized set B of
variables solved from those rows, and every other variable pinned at one of
its finite bounds, with ``A[R, B]`` nonsingular.  With all bounds finite the
feasible region is bounded, so enumerating every such active-set combination,
keeping the feasible ones and maximizing the objective over them is exact.
Exponential, but fine at the advertised limits; the tests use it to
cross-check the simplex.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product

import numpy as np

from spothedge.linprog import INFEASIBLE, OPTIMAL, LinearProgram, LpSolution

MAX_VARIABLES = 8
MAX_ROWS = 12

_DET_TOL = 1e-12
BATCH = 32  # programs of one shape enumerated together; bounds a batch's memory


class DimensionTooLarge(ValueError):
    """Program exceeds the enumeration limits (8 variables, 12 rows)."""


@cache
def _subsets(m: int, r: int) -> np.ndarray:
    """Every r-subset of range(m), one per row, (C(m, r), r); read-only, as
    every program of the same shape shares it."""
    subsets = np.array(list(combinations(range(m), r)), dtype=int)
    subsets.flags.writeable = False
    return subsets


@cache
def _corners(n: int) -> np.ndarray:
    """Every upper (True) or lower choice for n variables, (2^n, n); read-only."""
    bits = np.array(list(product((0, 1), repeat=n)), dtype=bool)
    bits.flags.writeable = False
    return bits


def _candidate_blocks(a, b, lower, upper, r):
    """All basic-solution candidates with exactly r active rows of each
    program stacked in a (G, m, n), b (G, m), lower and upper (G, n): a
    list of G arrays (count, n), each as the program alone would give it."""
    g, m, n = a.shape
    if r == 0:
        return list(np.where(_corners(n), upper[:, None, :], lower[:, None, :]))

    rows_c = _subsets(m, r)  # (CR, r)
    vars_c = _subsets(n, r)  # (CB, r)
    mats = a[:, rows_c[:, None, :, None], vars_c[None, :, None, :]]  # (G, CR, CB, r, r)

    # Hadamard-scaled determinant filter: drop singular active sets.
    dets = np.linalg.det(mats)
    hadamard = np.sqrt((mats ** 2).sum(axis=-1)).prod(axis=-1)
    keep_g, keep_r, keep_b = np.nonzero(np.abs(dets) > _DET_TOL * np.maximum(hadamard, 1.0))

    mats = mats[keep_g, keep_r, keep_b]  # (K, r, r), program by program
    rows_k = rows_c[keep_r]  # (K, r)
    vars_k = vars_c[keep_b]  # (K, r)

    in_basis = np.zeros((vars_k.shape[0], n), dtype=bool)
    np.put_along_axis(in_basis, vars_k, True, axis=1)
    nonbasic = np.nonzero(~in_basis)[1].reshape(vars_k.shape[0], n - r)  # (K, n-r)

    # Every lower/upper assignment of the nonbasic variables, solved at once.
    bits = _corners(n - r)  # (P, n-r)
    program = keep_g[:, None]
    x_nb = np.where(bits[None, :, :], upper[program, nonbasic][:, None, :],
                    lower[program, nonbasic][:, None, :])  # (K, P, n-r)
    a_nb = a[keep_g[:, None, None], rows_k[:, :, None], nonbasic[:, None, :]]  # (K, r, n-r)
    rhs = b[program, rows_k][:, None, :] - np.einsum("krn,kpn->kpr", a_nb, x_nb)
    x_basic = np.linalg.solve(mats[:, None, :, :], rhs[..., None])[..., 0]  # (K, P, r)

    points = np.empty((vars_k.shape[0], bits.shape[0], n))
    np.put_along_axis(points, np.broadcast_to(vars_k[:, None, :], x_basic.shape),
                      x_basic, axis=2)
    np.put_along_axis(points, np.broadcast_to(nonbasic[:, None, :], x_nb.shape),
                      x_nb, axis=2)
    ends = np.cumsum(np.bincount(keep_g, minlength=g))[:-1] * bits.shape[0]
    return np.split(points.reshape(-1, n), ends)


def brute_force_solve(lp: LinearProgram, feas_tol: float = 1e-7) -> LpSolution:
    """Solve a tiny, fully bounded LP exactly by enumeration.

    Raises DimensionTooLarge beyond 8 variables or 12 rows and ValueError if
    any bound is infinite.  With finite bounds the program is never
    unbounded, so the status is OPTIMAL or INFEASIBLE.
    """
    return brute_force_solve_all([lp], feas_tol)[0]


def brute_force_solve_all(lps, feas_tol: float = 1e-7) -> list[LpSolution]:
    """brute_force_solve of every program, each solution the same as alone.

    The programs of one shape (rows, variables) are enumerated together,
    BATCH at a time, so that one NumPy call per active-row count serves a
    whole batch.
    """
    programs = [_dense(lp) for lp in lps]
    shapes: dict[tuple[int, int], list[int]] = {}
    for i, (a, *_) in enumerate(programs):
        shapes.setdefault(a.shape, []).append(i)
    solutions = [None] * len(programs)
    for (m, n), members in shapes.items():
        for lo in range(0, len(members), BATCH):
            batch = members[lo:lo + BATCH]
            a, b, lower, upper = (np.stack([programs[i][f] for i in batch]) for f in range(4))
            blocks = [_candidate_blocks(a, b, lower, upper, r) for r in range(min(m, n) + 1)]
            for i, points in zip(batch, zip(*blocks)):
                solutions[i] = _best(*programs[i], np.concatenate(points, axis=0), feas_tol)
    return solutions


def _dense(lp: LinearProgram):
    """(a, b, lower, upper, relations, c) of a program within the limits."""
    n, m = lp.num_variables, lp.num_rows
    if n > MAX_VARIABLES or m > MAX_ROWS:
        raise DimensionTooLarge(f"{n} variables, {m} rows exceeds enumeration limits")
    lower, upper = lp.bounds_arrays()
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise ValueError("brute force enumeration requires finite bounds on every variable")
    a, b, relations = lp.dense()
    return a, b, lower, upper, relations, lp.objective_array()


def _best(a, b, lower, upper, relations, c, points, feas_tol) -> LpSolution:
    """The best feasible candidate, the first of equals; INFEASIBLE for none."""
    bound_tol = feas_tol * (1.0 + np.maximum(np.abs(lower), np.abs(upper)))
    ok = ((points >= lower - bound_tol) & (points <= upper + bound_tol)).all(axis=1)
    if len(b):
        residual = points @ a.T - b  # (count, m)
        row_tol = feas_tol * (1.0 + np.abs(b))
        for i, rel in enumerate(relations):
            if rel == "<=":
                ok &= residual[:, i] <= row_tol[i]
            elif rel == ">=":
                ok &= residual[:, i] >= -row_tol[i]
            else:
                ok &= np.abs(residual[:, i]) <= row_tol[i]
    if not ok.any():
        return LpSolution(status=INFEASIBLE)

    feasible = points[ok]
    best = int(np.argmax(feasible @ c))
    x = feasible[best]
    return LpSolution(status=OPTIMAL, objective=float(c @ x), values=x.copy())
