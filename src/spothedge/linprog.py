"""Container for bounded-variable maximization LPs.

A program is a list of named variables with box bounds ``l_j <= x_j <= u_j``
(either side may be infinite) and named rows ``sum_j a_ij x_j {<=,==,>=} b_i``.
The objective is always maximized.  Builders keep their own column maps; this
module only stores the matrix and validates it.

A program derived with ``with_objective`` shares its parent's names, rows
and matrix cache, and has bounds and an objective of its own.  Nothing
shared is changed in place: ``add_variables`` and ``add_rows`` give the
program they are called on new lists and an empty cache, so a derived
program and its parent grow apart without either seeing the other's
additions.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

RELATIONS = ("<=", "==", ">=")


class NumericalFailure(RuntimeError):
    """Simplex could not make progress within its numerical tolerances."""


@dataclass
class _Row:
    name: str
    coeffs: dict[int, float]  # column index -> coefficient, zero entries dropped
    relation: str
    rhs: float


@dataclass(frozen=True)
class Basis:
    """Final simplex basis over the structural columns, then one slack per
    row.  Passed back to the simplex as the start of an LP with the same
    matrix, right-hand side and bounds, or of an LP that appends columns and
    rows to that one and keeps it as its leading block; the extra rows start
    with their slacks, and a crash repairs those that are violated."""

    basic: np.ndarray  # basic column of each row
    status: np.ndarray  # rest status of each column, in the simplex's codes


@dataclass
class LpSolution:
    status: str  # OPTIMAL | INFEASIBLE | UNBOUNDED
    objective: float | None = None
    values: np.ndarray | None = None  # one entry per structural variable
    iterations: int = 0
    basis: Basis | None = None  # final basis of an optimal simplex solve


class LinearProgram:
    """Maximization LP under construction.

    Columns arrive in blocks through ``add_variables`` and rows in blocks
    through ``add_rows``; both return the indices they assigned so builders
    can record coordinates.  ``add_variable`` and ``add_row`` are their
    one-element forms.  Bounds and objective are float arrays.

    ``matrix_cache`` holds what a solver derives from the matrix, the
    right-hand sides and the relations alone; it is dropped whenever a
    column or row is added, and the rows are read-only.
    """

    def __init__(self):
        self.variable_names: list[str] = []
        self.lower = np.empty(0)
        self.upper = np.empty(0)
        self.objective = np.empty(0)
        self.rows: list[_Row] = []
        self.matrix_cache: dict = {}

    # ------------------------------------------------------------------
    # construction

    def add_variables(self, names, lower=0.0, upper=math.inf,
                      objective=0.0) -> np.ndarray:
        """Append one column per name; lower, upper and objective are
        scalars or arrays broadcast over the names."""
        names = list(names)
        lower, upper, objective = (np.full(len(names), v) for v in (lower, upper, objective))
        bad = np.isnan(lower) | np.isnan(upper) | ~np.isfinite(objective)
        if bad.any():
            raise ValueError(f"variable {names[np.argmax(bad)]}: bad bounds or objective")
        crossed = lower > upper
        if crossed.any():
            j = int(np.argmax(crossed))
            raise ValueError(f"variable {names[j]}: lower bound {lower[j]} "
                             f"exceeds upper {upper[j]}")
        first = len(self.variable_names)
        self.variable_names = self.variable_names + names
        self.lower = np.concatenate([self.lower, lower])
        self.upper = np.concatenate([self.upper, upper])
        self.objective = np.concatenate([self.objective, objective])
        self.matrix_cache = {}
        return np.arange(first, first + len(names))

    def add_variable(self, name: str, lower: float = 0.0,
                     upper: float = math.inf, objective: float = 0.0) -> int:
        return int(self.add_variables([name], lower, upper, objective)[0])

    def add_rows(self, names, columns, coeffs, relations, rhs) -> np.ndarray:
        """Append one row per name.  columns is (rows, width); coeffs,
        relations (one string or one per row) and rhs broadcast against it.
        Zero coefficients are dropped and repeated columns summed."""
        names = list(names)
        columns = np.asarray(columns)
        coeffs = np.full(columns.shape, coeffs, dtype=float)
        if isinstance(relations, str):
            relations = [relations] * len(names)
        rhs = np.full(len(names), rhs, dtype=float)
        bad_relation = np.array([r not in RELATIONS for r in relations], dtype=bool)
        bad_rhs = ~np.isfinite(rhs)
        out_of_range = (columns < 0) | (columns >= len(self.variable_names))
        bad_entry = out_of_range | ~np.isfinite(coeffs)
        bad = bad_relation | bad_rhs | bad_entry.any(axis=1)
        if bad.any():  # the first problem of the first bad row, as a row-by-row check finds it
            i = int(np.argmax(bad))
            j = int(np.argmax(bad_entry[i])) if columns.shape[1] else 0
            problem = (f"unknown relation {relations[i]!r}" if bad_relation[i]
                       else "non-finite right-hand side" if bad_rhs[i]
                       else f"column {columns[i, j]} out of range" if out_of_range[i, j]
                       else f"non-finite coefficient on column {columns[i, j]}")
            raise ValueError(f"row {names[i]}: {problem}")
        first = len(self.rows)
        keep = coeffs != 0.0
        cols, values = columns[keep].tolist(), coeffs[keep].tolist()
        added = []
        start = 0
        for name, relation, b, end in zip(names, relations, rhs.tolist(),
                                          np.cumsum(keep.sum(axis=1)).tolist()):
            packed = dict(zip(cols[start:end], values[start:end]))
            if len(packed) < end - start:  # a repeated column: sum its entries in order
                packed = {}
                for col, coef in zip(cols[start:end], values[start:end]):
                    packed[col] = packed.get(col, 0.0) + coef
            added.append(_Row(name, packed, relation, b))
            start = end
        self.rows = self.rows + added
        self.matrix_cache = {}
        return np.arange(first, len(self.rows))

    def add_row(self, name: str, coeffs, relation: str, rhs: float) -> int:
        items = list(coeffs.items() if isinstance(coeffs, dict) else coeffs)
        columns = np.array([col for col, _ in items], dtype=np.int64)
        values = np.array([coef for _, coef in items], dtype=float)
        return int(self.add_rows([name], columns[None, :], values[None, :],
                                 [relation], rhs)[0])

    def with_objective(self, objective) -> LinearProgram:
        """A program over this one's variables, rows and bounds that
        maximizes another objective, one coefficient per variable.  It
        shares the names, the rows and the matrix cache, and copies the
        bounds."""
        objective = np.array(objective, dtype=float)
        if objective.shape != self.objective.shape:
            raise ValueError(f"objective has shape {objective.shape}; the program "
                             f"has {self.num_variables} variables")
        bad = ~np.isfinite(objective)
        if bad.any():
            raise ValueError(f"variable {self.variable_names[np.argmax(bad)]}: "
                             "bad bounds or objective")
        other = copy.copy(self)
        other.lower, other.upper = self.bounds_arrays()
        other.objective = objective
        return other

    # ------------------------------------------------------------------
    # inspection

    @property
    def num_variables(self) -> int:
        return len(self.variable_names)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def dense(self):
        """Return (A, b, relations) with A dense of shape (rows, variables)."""
        m, n = self.num_rows, self.num_variables
        a = np.zeros((m, n))
        b = np.empty(m)
        relations = []
        for i, row in enumerate(self.rows):
            for col, coef in row.coeffs.items():
                a[i, col] = coef
            b[i] = row.rhs
            relations.append(row.relation)
        return a, b, relations

    def bounds_arrays(self):
        return self.lower.copy(), self.upper.copy()

    def objective_array(self):
        return self.objective.copy()
