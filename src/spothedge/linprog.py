"""Container for bounded-variable maximization LPs.

A program is a list of named variables with box bounds ``l_j <= x_j <= u_j``
(either side may be infinite) and named rows ``sum_j a_ij x_j {<=,==,>=} b_i``.
The objective is always maximized.  Builders keep their own column maps; this
module only stores the matrix, validates it, and renders a plain-text dump
for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    """Final simplex basis over the equality-form columns: the structural
    columns, then one slack and one artificial per row.  Passed back to the
    simplex as the start of an LP with the same matrix, right-hand side and
    bounds, or, through simplex.extend_basis, of an LP that appends columns
    and rows to that one and keeps it as its leading block; the extra rows
    start with their slacks, and a crash repairs those that are violated."""

    basic: np.ndarray  # basic column of each row
    status: np.ndarray  # rest status of each column, in the simplex's codes
    signs: np.ndarray  # +-1 coefficient of each row's artificial column


@dataclass
class LpSolution:
    status: str  # OPTIMAL | INFEASIBLE | UNBOUNDED
    objective: float | None = None
    values: np.ndarray | None = None  # one entry per structural variable
    iterations: int = 0
    basis: Basis | None = None  # final basis of an optimal simplex solve


class LinearProgram:
    """Maximization LP under construction.

    ``add_variable`` and ``add_row`` return the index they were assigned so
    builders can record coordinates.
    """

    def __init__(self):
        self.variable_names: list[str] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.objective: list[float] = []
        self.rows: list[_Row] = []

    # ------------------------------------------------------------------
    # construction

    def add_variable(self, name: str, lower: float = 0.0,
                     upper: float = math.inf, objective: float = 0.0) -> int:
        if math.isnan(lower) or math.isnan(upper) or not math.isfinite(objective):
            raise ValueError(f"variable {name}: bad bounds or objective")
        if lower > upper:
            raise ValueError(f"variable {name}: lower bound {lower} exceeds upper {upper}")
        self.variable_names.append(name)
        self.lower.append(float(lower))
        self.upper.append(float(upper))
        self.objective.append(float(objective))
        return len(self.variable_names) - 1

    def add_row(self, name: str, coeffs, relation: str, rhs: float) -> int:
        if relation not in RELATIONS:
            raise ValueError(f"row {name}: unknown relation {relation!r}")
        if not math.isfinite(rhs):
            raise ValueError(f"row {name}: non-finite right-hand side")
        n = len(self.variable_names)
        packed: dict[int, float] = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for col, coef in items:
            if not 0 <= col < n:
                raise ValueError(f"row {name}: column {col} out of range")
            if not math.isfinite(coef):
                raise ValueError(f"row {name}: non-finite coefficient on column {col}")
            if coef != 0.0:
                packed[col] = packed.get(col, 0.0) + float(coef)
        self.rows.append(_Row(name, packed, relation, float(rhs)))
        return len(self.rows) - 1

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
        return np.asarray(self.lower, dtype=float), np.asarray(self.upper, dtype=float)

    def objective_array(self):
        return np.asarray(self.objective, dtype=float)
