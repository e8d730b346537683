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

from itertools import combinations, product

import numpy as np

from spothedge.linprog import INFEASIBLE, OPTIMAL, LinearProgram, LpSolution

MAX_VARIABLES = 8
MAX_ROWS = 12

_DET_TOL = 1e-12


class DimensionTooLarge(ValueError):
    """Program exceeds the enumeration limits (8 variables, 12 rows)."""


def _candidate_block(a, b, lower, upper, r, m, n):
    """All basic-solution candidates with exactly r active rows, (count, n)."""
    if r == 0:
        bits = np.array(list(product((0, 1), repeat=n)), dtype=bool)  # (2^n, n)
        return np.where(bits, upper[None, :], lower[None, :])

    rows_c = np.array(list(combinations(range(m), r)), dtype=int)  # (CR, r)
    vars_c = np.array(list(combinations(range(n), r)), dtype=int)  # (CB, r)
    mats = a[rows_c[:, None, :, None], vars_c[None, :, None, :]]  # (CR, CB, r, r)

    # Hadamard-scaled determinant filter: drop singular active sets.
    dets = np.linalg.det(mats)
    hadamard = np.sqrt((mats ** 2).sum(axis=-1)).prod(axis=-1)
    keep_r, keep_b = np.nonzero(np.abs(dets) > _DET_TOL * np.maximum(hadamard, 1.0))
    if keep_r.size == 0:
        return np.empty((0, n))

    mats = mats[keep_r, keep_b]  # (K, r, r)
    rows_k = rows_c[keep_r]  # (K, r)
    vars_k = vars_c[keep_b]  # (K, r)

    in_basis = np.zeros((vars_k.shape[0], n), dtype=bool)
    np.put_along_axis(in_basis, vars_k, True, axis=1)
    nonbasic = np.nonzero(~in_basis)[1].reshape(vars_k.shape[0], n - r)  # (K, n-r)

    # Every lower/upper assignment of the nonbasic variables, solved at once.
    bits = np.array(list(product((0, 1), repeat=n - r)), dtype=bool)  # (P, n-r)
    x_nb = np.where(bits[None, :, :], upper[nonbasic][:, None, :],
                    lower[nonbasic][:, None, :])  # (K, P, n-r)
    a_nb = a[rows_k[:, :, None], nonbasic[:, None, :]]  # (K, r, n-r)
    rhs = b[rows_k][:, None, :] - np.einsum("krn,kpn->kpr", a_nb, x_nb)
    x_basic = np.linalg.solve(mats[:, None, :, :], rhs[..., None])[..., 0]  # (K, P, r)

    points = np.empty((vars_k.shape[0], bits.shape[0], n))
    np.put_along_axis(points, np.broadcast_to(vars_k[:, None, :], x_basic.shape),
                      x_basic, axis=2)
    np.put_along_axis(points, np.broadcast_to(nonbasic[:, None, :], x_nb.shape),
                      x_nb, axis=2)
    return points.reshape(-1, n)


def brute_force_solve(lp: LinearProgram, feas_tol: float = 1e-7) -> LpSolution:
    """Solve a tiny, fully bounded LP exactly by enumeration.

    Raises DimensionTooLarge beyond 8 variables or 12 rows and ValueError if
    any bound is infinite.  With finite bounds the program is never
    unbounded, so the status is OPTIMAL or INFEASIBLE.
    """
    n, m = lp.num_variables, lp.num_rows
    if n > MAX_VARIABLES or m > MAX_ROWS:
        raise DimensionTooLarge(f"{n} variables, {m} rows exceeds enumeration limits")
    lower, upper = lp.bounds_arrays()
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise ValueError("brute force enumeration requires finite bounds on every variable")
    a, b, relations = lp.dense()
    c = lp.objective_array()

    blocks = [_candidate_block(a, b, lower, upper, r, m, n)
              for r in range(min(m, n) + 1)]
    points = np.concatenate(blocks, axis=0)

    bound_tol = feas_tol * (1.0 + np.maximum(np.abs(lower), np.abs(upper)))
    ok = ((points >= lower - bound_tol) & (points <= upper + bound_tol)).all(axis=1)
    if m:
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
