"""Revised simplex for bounded-variable maximization LPs.

The equality form gives every row a slack, the row's unit column (``<=``
rows get a slack in [0, inf), ``>=`` rows in (-inf, 0], ``==`` rows a slack
fixed at 0).  Nonbasic variables sit at a finite bound (free variables sit
at zero and may move either way).  A dual simplex phase reaches a primal
feasible basis, and the primal simplex then runs to optimality from it.

Every basis is put in place by one routine, _install: it marks the basic
columns, puts every other column on the bound of its status (at zero when
it is free) and refactorizes, which computes the basic values.  A cold
solve installs a crash basis: each free structural column is basic in one
of its rows and every other row has its slack, which may lie outside its
bounds; should that basis be singular, the slacks alone.  The dual phase
first computes the reduced costs d = c - A^T y once, moves each nonbasic
boxed column to the bound its d prefers (upper when d > 0) and installs
the same basis again with those statuses.  A nonbasic column that is
still dual infeasible, one whose d points past an infinite bound or a
free one with d != 0, has its cost shifted to c_j - d_j for this phase
only, so that the basis is dual feasible.  Each dual iteration
takes the row with the largest bound violation, computes its row
alpha = e_r B^-1 A with one BTRAN and one A^T product, and picks the
entering column by a bound-flipping ratio test: the candidates are sorted
by |d_j| / |alpha_j|, and each boxed candidate whose breakpoint the dual
step passes, while the violation it leaves stays positive, flips to its
other bound (Fourer 1994; Koberstein 2005).  The flips update the basic
values with one solve for their summed columns; the reduced costs follow
the step d -= theta alpha and are recomputed at every refactorization.
When no column can reduce a row's violation, the row of B^-1 is a Farkas
ray, and INFEASIBLE is returned once the ray is checked: the interval its
row combination takes over the bounds must miss its right-hand side by
more than FEASIBILITY_TOL * (1 + |rho| |b|).  A ray that misses by less
leaves a row whose violation lies within that tolerance; the row is set
aside, and the phase ends as primal feasible when the violations of the
rows set aside sum to at most FEASIBILITY_TOL * (1 + |b|_1).  Once the
basis is primal feasible the primal simplex runs with the true costs; it
normally has nothing left to do, and its first pricing is the optimality
check.

Primal pricing is Dantzig's largest reduced cost, switching to Bland's
rule after 3*(rows+columns) consecutive non-improving iterations so that
degenerate programs terminate.  Each column carries a sense: +1 when it
rests at its lower bound and can move, -1 at its upper bound, 0 when it is
basic, fixed or free.  The state keeps the senses, which only _rest,
giving columns a status with the value and sense that go with it, and
_exchange, making a column basic, change; it also keeps the list of free
nonbasic columns, which _install sets and _exchange shortens.  A column's
primal score is d_j times its sense (|d_j| for a free nonbasic column)
and the entering column is the first argmax of the scores, or under
Bland's rule the first score above OPTIMALITY_TOL; the dual ratio test
takes its candidates by the same senses.

The equality-form matrix is stored column-sparse (CSC arrays): the
structural columns, then one unit column per slack.  It is computed once
per program structure and kept, with the right-hand side and the slack
bounds, in the program's matrix_cache, which the programs derived from it
with another objective share; the structural bounds and the objective are
read at every solve.  Reduced costs
d = c - A^T y come from one bincount over the nonzeros.  The basis inverse
is kept in product form: B0^-1 from the last refactorization, followed by
an eta file with one entry per pivot since then, held as arrays (see
_State), so that FTRAN (B^-1 a) and BTRAN (c_B B^-1) each take a fixed
number of matrix-vector products however many etas there are.  Every
REFACTOR_EVERY pivots the basis is refactorized from scratch, which empties
the eta file and recomputes the basic values.  A refactorization
eliminates the basic slack unit columns directly.  The remaining
structural block, the kernel, is nearly triangular: _peel orders it into
levels by rounds of row singletons and sets a few spike columns aside
where no singleton is left, and _PeeledBlock, which orders the exit's
block too, gives its inverse from one matrix product per level plus the
bordered inverse around a p x p Schur complement for the p spikes, the
only dense inversion (Hellerman and Rarick 1971; Suhl and Suhl 1990).

At exit, basic values within 1e-9 * max(1, |bound|) of a finite bound are
snapped onto it, so that rounding noise never reaches the reported values.
The structural values left strictly inside their bounds are then solved
again from the tight rows, those whose slack sits on a bound, so that every
basis of one degenerate vertex reports the same bits.  The same _peel
orders that block, from its nonzeros alone: levels of row singletons, the
lowest row taking a column that several could fix, and spike columns where
no singleton is left.  Each level is solved with one bincount, and the
spikes in the least squares sense through the normal equations of their
small Schur complement, the only dense step; one refinement pass solves
again for the residual.  The tight rows that the peel left out are checked
last: when one misses, or the Schur complement is ill-conditioned, the
basis's own values are kept.

An optimal solve returns its final basis (LpSolution.basis): the basic
column of each row and the rest status of every structural and slack
column.  Passed back as ``start``, it lets a program with the same matrix,
right-hand side and bounds, and another objective, start from it: the
start is installed and, when every basic value lies within FEASIBILITY_TOL
of its bounds, the primal simplex runs from there; otherwise the dual
phase starts from that basis.

A program that appends columns and rows to another one, leaving the
other's matrix, right-hand side and bounds as its leading block, takes the
other's basis as its start too: each appended row starts with its slack
and each appended column rests at its bound.  A start with more rows or
columns than the program raises ValueError.  The appended rows' slacks may
then lie outside their bounds, so a warm start first runs a crash over every
row whose basic slack is violated: in row order, the first nonbasic
structural column (in column order) with a nonzero in the row, all of whose
nonzeros lie in rows that still have a basic slack, and whose new value
stays inside its own bounds, replaces the slack, which goes to its bound.
Such a column moves only the slacks of its own rows, so the repair is exact,
and the repaired basis is installed in its turn.  A start that is singular
falls back to the crash basis of a cold solve.
"""

from __future__ import annotations

import numpy as np

from .linprog import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    Basis,
    LinearProgram,
    LpSolution,
    NumericalFailure,
)

FEASIBILITY_TOL = 1e-7
OPTIMALITY_TOL = 1e-9
PIVOT_TOL = 1e-11
SNAP_TOL = 1e-9
REFACTOR_EVERY = 100

# nonbasic rest states; basic columns are tracked through the basis array
_AT_LOWER = 0
_AT_UPPER = 1
_FREE = 2
_BASIC = 3


class _State:
    """Equality-form matrix [A | I], bounds, point and factored basis,
    shared by the dual and the primal phase.

    B0^-1 is held in block form.  Basic slacks are unit columns; with U the
    rows they cover and R the other rows, the structural basics S meet the
    rest of the basis only through the kernel K = A[R, S] and the coupling
    A[U, S], so that

        B0^-1 a = (K^-1 a_R,  a_U - A[U, S] K^-1 a_R)   on (S, U).

    kernel_rows (R) and struct_pos (S) are kept in the order _peel gives K:
    level by level, each peeled row with its column, then the spike columns
    with the rows left unpeeled.  kinv_t holds K^-T in that order
    (_PeeledBlock.inverse_t); only the spikes' Schur complement is inverted
    densely.

    sense and free are the columns' senses and the free nonbasic columns
    (see the module docstring).  rest_x and rest_sense hold, by status code
    and column, the value and sense a column takes with that status; _rest
    reads them.

    The eta file holds the e pivots since the last refactorization in
    preallocated arrays.  Pivot j entered a column with w_j = B_j^-1 a at
    row r_j: eta_t[j] = w_j - e_{r_j}, eta_rows[j] = r_j.  With M the e x e
    lower-triangular matrix M[k, k] = w_k[r_k], M[k, j] = eta_t[j, r_k] for
    j < k, the pivots' multipliers solve a triangular system, so that

        FTRAN  w = B0^-1 a,  t = M^-1 w[rows],     B^-1 a = w - t @ eta_t
        BTRAN  s = (eta_t @ u) M^-1,                u B^-1 = (u - e_rows s) B0^-1

    minv holds M^-1, grown by one bordered row per pivot; its upper
    triangle stays zero.  A row may be pivoted more than once.
    """

    def __init__(self, indptr, indices, data, b, lower, upper):
        self.indptr = indptr  # CSC: column j holds nonzeros indptr[j]:indptr[j+1]
        self.indices = indices  # row of each nonzero
        self.data = data
        self.col_of = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
        self.b = b
        self.lower = lower
        self.upper = upper
        self.m = b.size
        self.ncols = indptr.size - 1
        self.x = np.zeros(self.ncols)
        self.status = np.full(self.ncols, _AT_LOWER, dtype=np.int8)
        self.sense = np.zeros(self.ncols)
        self.free = np.empty(0, dtype=int)
        # a column's value and sense by status code (row) and column, for _rest
        movable = upper - lower > 0.0
        zero = np.zeros(self.ncols)
        self.rest_x = np.stack([lower, upper, zero, zero])
        self.rest_sense = np.stack([np.where(movable, 1.0, 0.0),
                                    np.where(movable, -1.0, 0.0), zero, zero])
        self.basis = np.zeros(self.m, dtype=int)
        self.etas = 0  # pivots in the eta file
        self.eta_t = np.empty((REFACTOR_EVERY, self.m))
        self.eta_rows = np.empty(REFACTOR_EVERY, dtype=int)
        self.minv = np.zeros((REFACTOR_EVERY, REFACTOR_EVERY))
        # the block form of B0^-1 (kinv_t is K^-T) is set by refactor()

    def matvec(self, x):
        """A @ x over every column."""
        return np.bincount(self.indices, weights=self.data * x[self.col_of],
                           minlength=self.m)

    def rmatvec(self, y):
        """A^T y over every column."""
        return np.bincount(self.col_of, weights=self.data * y[self.indices],
                           minlength=self.ncols)

    def entries(self, cols):
        """Nonzeros of the given columns as (position in cols, row, value)."""
        starts = self.indptr[cols]
        counts = self.indptr[cols + 1] - starts
        nz = np.repeat(starts - np.cumsum(counts) + counts, counts) \
            + np.arange(counts.sum())
        return np.repeat(np.arange(cols.size), counts), self.indices[nz], self.data[nz]

    def b0_solve(self, rows, vals):
        """B0^-1 a for the vector a with entries vals at rows (no repeats)."""
        kernel = self.kernel_index[rows]
        in_kernel = kernel >= 0
        w_s = vals[in_kernel] @ self.kinv_t[kernel[in_kernel]]
        a_u = np.zeros(self.unit_pos.size)
        a_u[self.unit_index[rows[~in_kernel]]] = vals[~in_kernel]
        cu, cs, cv = self.coupling
        w = np.empty(self.m)
        w[self.struct_pos] = w_s
        w[self.unit_pos] = a_u - np.bincount(cu, weights=cv * w_s[cs], minlength=a_u.size)
        return w

    def ftran(self, j):
        """B^-1 a_j."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.b_solve(self.indices[lo:hi], self.data[lo:hi])

    def b_solve(self, rows, vals):
        """B^-1 a for the vector a with entries vals at rows (no repeats)."""
        w = self.b0_solve(rows, vals)
        e = self.etas
        if e:
            t = self.minv[:e, :e] @ w[self.eta_rows[:e]]
            w -= t @ self.eta_t[:e]
        return w

    def btran(self, u):
        """u B^-1 for a row vector u over basis positions."""
        e = self.etas
        if e:
            s = (self.eta_t[:e] @ u) @ self.minv[:e, :e]
            u = u - np.bincount(self.eta_rows[:e], weights=s, minlength=self.m)
        y_u = u[self.unit_pos]
        cu, cs, cv = self.coupling
        v = u[self.struct_pos] - np.bincount(cs, weights=cv * y_u[cu],
                                             minlength=self.struct_pos.size)
        y = np.empty(self.m)
        y[self.kernel_rows] = self.kinv_t @ v
        y[self.unit_rows] = y_u
        return y

    def refactor(self):
        """Factor the basis from scratch, empty the eta file and recompute
        the basic values."""
        m, n = self.m, self.ncols - self.m
        unit = self.basis >= n
        self.unit_pos = np.nonzero(unit)[0]
        struct_pos = np.nonzero(~unit)[0]
        self.unit_rows = self.basis[self.unit_pos] - n
        self.unit_index = np.full(m, -1)
        self.unit_index[self.unit_rows] = np.arange(self.unit_rows.size)
        kernel_rows = np.nonzero(self.unit_index < 0)[0]
        k = struct_pos.size
        if kernel_rows.size != k:
            raise NumericalFailure("singular basis at refactorization")
        kernel_index = np.full(m, -1)
        kernel_index[kernel_rows] = np.arange(k)

        local, rows, vals = self.entries(self.basis[struct_pos])
        in_kernel = kernel_index[rows] >= 0
        kernel = _PeeledBlock(kernel_index[rows[in_kernel]], local[in_kernel],
                              vals[in_kernel], k, k)
        self.kernel_rows = kernel_rows[kernel.row_order]
        self.struct_pos = struct_pos[kernel.col_order]
        self.kernel_index = kernel_index
        kernel_index[self.kernel_rows] = np.arange(k)
        self.kinv_t = kernel.inverse_t()
        coupled = ~in_kernel
        self.coupling = (self.unit_index[rows[coupled]], kernel.col_label[local[coupled]],
                         vals[coupled])
        self.etas = 0

        nonbasic = self.x.copy()
        nonbasic[self.basis] = 0.0
        self.x[self.basis] = self.b0_solve(np.arange(m), self.b - self.matvec(nonbasic))

    def pivot(self, row, w):
        """Record the basis change at row whose entering column has B^-1 a = w."""
        e = self.etas
        eta = self.eta_t[e]
        eta[:] = w
        eta[row] -= 1.0
        self.eta_rows[e] = row
        # border M^-1 with the row of the new pivot p = w[row]:
        # [M 0; c p]^-1 = [M^-1 0; -c M^-1 / p  1/p], with c = eta_t[:e, row]
        np.matmul(self.eta_t[:e, row], self.minv[:e, :e], out=self.minv[e, :e])
        self.minv[e, :e] /= -w[row]
        self.minv[e, e] = 1.0 / w[row]
        self.etas = e + 1
        if self.etas == REFACTOR_EVERY:
            self.refactor()


def _peel(rows, cols, n_rows, n_cols):
    """Order the rows and columns of an n_rows x n_cols block (n_rows >=
    n_cols) given by its nonzeros (rows, cols) so that it is block lower
    triangular up to a border.

    Each round takes every live row with a single live nonzero, together
    with that nonzero's column; when several such rows share a column, the
    lowest row takes it and the others are left out.  The rows of one round
    form a level, and the block restricted to a level's rows and columns is
    diagonal.  A round that finds no such row sets spike columns aside
    instead (_spike_columns) and peeling goes on.  The order depends on the
    nonzeros' positions alone, not on the order they are listed in.  Peeled
    rows and columns come first, level by level in column order, each row
    with its column in the same place; the p spike columns come last, and
    the rows left unpeeled (p of them when the block is square) follow the
    peeled ones in index order.  Returns (row order, column order, level
    starts), the last start being n_cols - p.
    """
    row_live = np.ones(n_rows, dtype=bool)
    col_live = np.ones(n_cols, dtype=bool)
    live = np.ones(rows.size, dtype=bool)
    row_levels, col_levels, spikes, starts = [], [], [], [0]
    left = n_cols
    while left:
        live_rows, live_cols = rows[live], cols[live]
        single = np.bincount(live_rows, minlength=n_rows)[live_rows] == 1
        if single.any():
            # by column, then row: the first entry of each column has its lowest row
            level_cols, level_rows = np.divmod(
                np.unique(live_cols[single] * n_rows + live_rows[single]), n_rows)
            first = np.ones(level_cols.size, dtype=bool)
            first[1:] = level_cols[1:] != level_cols[:-1]
            level_cols, level_rows = level_cols[first], level_rows[first]
            row_levels.append(level_rows)
            col_levels.append(level_cols)
            starts.append(starts[-1] + level_cols.size)
            row_live[level_rows] = False
            taken = level_cols
        else:
            taken = _spike_columns(live_rows, live_cols, col_live, n_rows)
            spikes.append(taken)
        col_live[taken] = False
        left -= taken.size
        live = row_live[rows] & col_live[cols]
    row_order = np.concatenate(row_levels + [np.nonzero(row_live)[0]])
    col_order = np.concatenate(col_levels + spikes + [np.empty(0, dtype=int)])
    return row_order, col_order, starts


def _spike_columns(rows, cols, col_live, n_rows):
    """Live columns to set aside as spikes, given the live nonzeros.

    The densest column (the lowest index on ties) comes first, then, in
    that order, every column none of whose rows an earlier one took.
    The same set results from rounds that each take every undecided
    column ranked first in all of its rows, and drop every column that
    shares a row with one taken.
    """
    k = col_live.size
    count = np.bincount(cols, minlength=k)
    live = np.nonzero(col_live)[0]
    rank = np.empty(k, dtype=int)
    rank[live[np.lexsort((live, -count[live]))]] = np.arange(live.size)
    undecided = col_live.copy()
    chosen = np.zeros(k, dtype=bool)
    while undecided.any():
        keep = undecided[cols]
        r, c = rows[keep], cols[keep]
        best = np.full(n_rows, k)  # per row, the best rank among its undecided columns
        np.minimum.at(best, r, rank[c])
        take = undecided.copy()
        take[c[best[r] < rank[c]]] = False
        chosen |= take
        undecided &= ~take
        row_taken = np.zeros(n_rows, dtype=bool)
        row_taken[r[take[c]]] = True
        undecided[c[row_taken[r]]] = False
    return np.nonzero(chosen)[0]


def _entering(state, d, bland):
    """The entering column for reduced costs d, or None when none improves.

    A column's score is d times its sense, |d| for a free one; Dantzig's
    rule takes the largest score, Bland's rule the first score above
    OPTIMALITY_TOL, the lowest index on ties.
    """
    if not d.size:
        return None
    score = d * state.sense
    score[state.free] = np.abs(d[state.free])
    j = int(np.argmax(score > OPTIMALITY_TOL)) if bland else int(np.argmax(score))
    return j if score[j] > OPTIMALITY_TOL else None


def _ratio_test(state, j, direction, w, bland):
    """Largest step t >= 0 for entering column j; returns (t, blocking_row, hit).

    Called with divide and invalid floating-point warnings off: an infinite
    bound gives an infinite step, as for an unblocked row.
    """
    k = state.basis
    step = direction * w
    x_k = state.x[k]
    t = (x_k - np.where(step > 0.0, state.lower[k], state.upper[k])) / step
    t[np.abs(step) <= PIVOT_TOL] = np.inf
    np.maximum(t, 0.0, out=t)  # degenerate drift within tolerance never steps backwards

    span = state.upper[j] - state.lower[j]  # inf for free or half-bounded columns
    t_basic = t.min() if state.m else np.inf
    if span <= t_basic:  # always when no row blocks
        return span, -1, 0
    ties = np.nonzero(t <= t_basic + 1e-12 * (1.0 + t_basic))[0]
    if bland:
        row = int(ties[np.argmin(k[ties])])
    else:
        row = int(ties[np.argmax(np.abs(step[ties]))])
    return t_basic, row, _AT_LOWER if step[row] > 0 else _AT_UPPER


def _iteration_limit(state):
    """The iteration cap of one phase."""
    return 10_000 + 50 * (state.m + state.ncols)


def _exchange(state, row, j, w, hit):
    """Pivot column j, with B^-1 a_j = w, into the basis at row; the
    column basic there leaves onto its lower bound (hit == _AT_LOWER) or
    its upper bound."""
    _rest(state, state.basis[row], hit)
    if state.status[j] == _FREE:
        state.free = state.free[state.free != j]
    state.basis[row] = j
    state.status[j] = _BASIC
    state.sense[j] = 0.0
    state.pivot(row, w)


def _run_phase(state, c):
    """Iterate the primal simplex to optimality for objective c from a
    primal feasible basis, at most 10000 + 50*(rows + columns) times.
    Returns (status, iterations)."""
    iteration_limit = _iteration_limit(state)
    bland = False
    stall = 0
    stall_switch = 3 * (state.m + state.ncols)
    z = float(c @ state.x)
    for it in range(iteration_limit):
        d = _reduced_costs(state, c)
        j = _entering(state, d, bland)
        if j is None:
            return OPTIMAL, it
        direction = 1.0 if d[j] > 0 else -1.0
        w = state.ftran(j)
        t, row, hit = _ratio_test(state, j, direction, w, bland)
        if not np.isfinite(t):
            return UNBOUNDED, it

        state.x[j] += direction * t
        if state.m:
            state.x[state.basis] -= direction * t * w
        if row < 0:  # bound flip, no basis change
            _rest(state, j, _AT_UPPER if direction > 0 else _AT_LOWER)
        else:
            _exchange(state, row, j, w, hit)

        z_new = float(c @ state.x)
        if z_new <= z + 1e-12 * (1.0 + abs(z)):
            stall += 1
            if stall >= stall_switch:
                bland = True
        else:
            stall = 0
        z = z_new
    raise NumericalFailure(f"iteration limit {iteration_limit} exceeded")


def _reduced_costs(state, c):
    """d = c - A^T y with y = c_B B^-1."""
    return c - state.rmatvec(state.btran(c[state.basis]))


def _dual_start(state, c):
    """Put the basis on a dual feasible footing for costs c; returns the
    shifted costs and their reduced costs.

    Each nonbasic boxed column moves to the bound its reduced cost prefers
    (upper when d > 0, lower when d < 0), and the same basis is installed
    again with those statuses.  A nonbasic column that is still dual
    infeasible, one with an infinite bound whose d points past it or a
    free one with d != 0, gets the cost c_j - d_j, so that its reduced cost
    is zero.
    """
    d = _reduced_costs(state, c)
    boxed = np.isfinite(state.lower) & np.isfinite(state.upper) \
        & (state.upper > state.lower)
    to_upper = boxed & (d > 0.0) & (state.status == _AT_LOWER)
    to_lower = boxed & (d < 0.0) & (state.status == _AT_UPPER)
    if to_upper.any() or to_lower.any():
        # the basis itself is unchanged, so it factors as before
        _install(state, state.basis, np.where(to_upper, _AT_UPPER,
                                              np.where(to_lower, _AT_LOWER, state.status)))
    shifted = d * state.sense > 0.0
    shifted[state.free] = d[state.free] != 0.0
    c = c.copy()
    c[shifted] -= d[shifted]
    d[shifted] = 0.0
    return c, d


def _dual_phase(state, c):
    """Iterate the dual simplex until the basis is primal feasible, at
    most 10000 + 50*(rows + columns) times.  Returns (status, pivots):
    OPTIMAL when every basic value lies within FEASIBILITY_TOL of its
    bounds, INFEASIBLE when a row's violation cannot be reduced by any
    column and its row of B^-1 passes _proves_infeasible.  A row that no
    column can repair and whose ray proves nothing is set aside; the
    phase still ends OPTIMAL when the violations of such rows sum to at
    most FEASIBILITY_TOL * (1 + |b|_1), and raises NumericalFailure
    otherwise.

    The costs are c shifted by _dual_start, so that the basis starts dual
    feasible; the shift is not returned.  The leaving row is the one with
    the largest bound violation (the first on ties).  The entering column
    comes from a bound-flipping ratio test on the row alpha = e_r B^-1 A:
    the candidates, sorted by |d_j| / |alpha_j|, are passed while the
    violation left after flipping each one to its other bound stays
    positive; the first candidate that cannot be passed enters.
    """
    iteration_limit = _iteration_limit(state)
    c, d = _dual_start(state, c)
    lower, upper = state.lower, state.upper
    spans = upper - lower  # inf unless boxed
    basis = state.basis  # updated in place by each exchange
    # the basic values and bounds by basis position; state.x[basis] is
    # written back at every exit and read again after a refactorization
    x_b, lower_b, upper_b = state.x[basis], lower[basis], upper[basis]
    unit = np.zeros(state.m)
    stuck = np.zeros(state.m, dtype=bool)
    for it in range(iteration_limit):
        below = lower_b - x_b
        violation = np.maximum(below, x_b - upper_b)
        r = int(np.argmax(np.where(stuck, 0.0, violation)))
        if stuck[r] or violation[r] <= FEASIBILITY_TOL:
            state.x[basis] = x_b
            left = np.maximum(violation[stuck], 0.0).sum()
            if left > FEASIBILITY_TOL * (1.0 + np.abs(state.b).sum()):
                raise NumericalFailure("rows that no column can repair stay violated, "
                                       "but their rows of B^-1 prove no infeasibility")
            return OPTIMAL, it - int(stuck.sum())
        up = below[r] > 0.0  # x_p must rise to its lower bound

        unit[r] = 1.0
        rho = state.btran(unit)
        unit[r] = 0.0
        alpha = state.rmatvec(rho)
        # a column moving off its bound in its own direction (up at the
        # lower bound, down at the upper, either way when free) changes
        # x_p by -alpha_j per unit, so it helps when -alpha_j has x_p's sign
        gain = -alpha if up else alpha
        score = state.sense * gain
        free = state.free
        if free.size:
            score[free] = np.abs(gain[free])
        candidates = np.nonzero(score > PIVOT_TOL)[0]
        if not candidates.size:
            if _proves_infeasible(state, rho, alpha):
                state.x[basis] = x_b
                return INFEASIBLE, it - int(stuck.sum())
            stuck[r] = True  # violated within the ray's tolerance
            continue
        ratios = np.abs(d[candidates]) / np.abs(alpha[candidates])
        candidates = candidates[np.argsort(ratios, kind="stable")]
        span = spans[candidates]
        passed = np.cumsum(np.abs(alpha[candidates]) * span)
        k = min(int(np.searchsorted(passed, violation[r])), candidates.size - 1)
        q = candidates[k]

        flips = candidates[:k]
        if flips.size:
            to_upper = state.status[flips] == _AT_LOWER
            delta = np.where(to_upper, span[:k], -span[:k])
            _rest(state, flips, np.where(to_upper, _AT_UPPER, _AT_LOWER))
            local, rows, vals = state.entries(flips)
            moved = np.bincount(rows, weights=vals * delta[local], minlength=state.m)
            rows = np.nonzero(moved)[0]
            x_b -= state.b_solve(rows, moved[rows])

        w = state.ftran(q)
        p = basis[r]
        t = (x_b[r] - (lower_b[r] if up else upper_b[r])) / w[r]
        x_b -= t * w
        x_b[r] = state.x[q] + t
        lower_b[r], upper_b[r] = lower[q], upper[q]
        theta = d[q] / alpha[q]
        d -= theta * alpha
        d[q] = 0.0
        d[p] = -theta
        _exchange(state, r, q, w, _AT_LOWER if up else _AT_UPPER)
        if state.etas == 0:  # refactorized
            x_b = state.x[basis]
            d = _reduced_costs(state, c)
    raise NumericalFailure(f"iteration limit {iteration_limit} exceeded")


def _proves_infeasible(state, rho, alpha):
    """Whether rho, with alpha = rho A, proves the equality form infeasible:
    over the bounds, rho A x ranges over an interval that misses rho b by
    more than FEASIBILITY_TOL * (1 + |rho| |b|).  Entries of alpha within
    PIVOT_TOL of zero count as zero, as in the ratio test."""
    positive, negative = alpha > PIVOT_TOL, alpha < -PIVOT_TOL
    low = np.where(positive, alpha * state.lower, np.where(negative, alpha * state.upper, 0.0))
    high = np.where(positive, alpha * state.upper, np.where(negative, alpha * state.lower, 0.0))
    target = rho @ state.b
    gap = max(low.sum() - target, target - high.sum())
    return bool(gap > FEASIBILITY_TOL * (1.0 + np.abs(rho) @ np.abs(state.b)))


def _snap(values, lower, upper):
    """Move values within SNAP_TOL * max(1, |bound|) of a finite bound onto it."""
    for bound in (lower, upper):
        near = np.isfinite(bound) & (
            np.abs(values - bound) <= SNAP_TOL * np.maximum(1.0, np.abs(bound)))
        values[near] = bound[near]


def _rest(state, cols, status):
    """Give the columns cols the status status, with the value and sense
    that go with it (_State's rest tables): the value is the bound the
    status names, or zero for a free or basic column."""
    state.status[cols] = status
    state.x[cols] = state.rest_x[status, cols]
    state.sense[cols] = state.rest_sense[status, cols]


def _install(state, basic, status):
    """Make basic the basis; returns False when it is singular.

    The columns of basic are marked basic and every other column takes its
    entry of status, with its value on that bound, or at zero when it is
    free.  The basis is then refactorized, which computes the basic values.
    """
    state.basis[:] = basic
    status = status.copy()
    status[state.basis] = _BASIC
    _rest(state, np.arange(state.ncols), status)
    state.free = np.nonzero(status == _FREE)[0]
    try:
        state.refactor()
    except NumericalFailure:
        return False
    return True


def _cold_start(state, rest):
    """Install the crash basis: free columns and slacks.

    Each free structural column becomes basic in the first of its rows
    that no earlier free column has taken, and every other row starts with
    its slack, which may lie outside its bounds; every nonbasic column
    rests at its bound.  A singular free-column block falls back to the
    slacks alone.
    """
    m = state.m
    n = state.ncols - m
    basic = n + np.arange(m)
    for j in np.nonzero(rest[:n] == _FREE)[0]:
        rows = state.indices[state.indptr[j]:state.indptr[j + 1]]
        open_rows = rows[basic[rows] >= n]
        if open_rows.size:
            basic[open_rows.min()] = j
    if not _install(state, basic, rest):
        _install(state, n + np.arange(m), rest)  # the identity: never singular


def _warm_start(state, start, rest):
    """Install start as the basis; returns whether it could be installed.

    Basic slacks outside their bounds are then repaired by _crash_slacks,
    and the repaired basis is installed in its turn.  Returns False,
    leaving the state for _cold_start, when either basis is singular, when
    a nonbasic column rests on an infinite bound, or when it is free while
    it has a finite one.  The installed basis may still be primal
    infeasible.
    """
    status = start.status
    at_upper = (status == _AT_UPPER) & np.isfinite(state.upper)
    if not ((status == rest) | at_upper | (status == _BASIC)).all():
        return False
    if not _install(state, start.basic, status):
        return False
    if _crash_slacks(state, rest):
        return _install(state, state.basis, state.status)
    return True


def _primal_feasible(state):
    """Whether every basic value lies within FEASIBILITY_TOL of its bounds."""
    x_b = state.x[state.basis]
    return bool(((x_b >= state.lower[state.basis] - FEASIBILITY_TOL)
                 & (x_b <= state.upper[state.basis] + FEASIBILITY_TOL)).all())


def _crash_slacks(state, rest):
    """Replace basic slacks outside their bounds by structural columns.

    Rows are taken in order.  A row whose slack is basic and outside its
    bounds by more than FEASIBILITY_TOL hands its basis position to the
    first nonbasic structural column that has a nonzero in the row, whose
    nonzeros all lie in rows that still have a basic slack, and whose value
    after the move stays within its bounds; the slack goes to its bound.
    B^-1 a_j of such a column is a_j on those slacks, so it moves only them
    and no earlier choice.  Returns whether any column entered; the caller
    then installs the new basis.
    """
    m = state.m
    n = state.ncols - m
    slack_x = state.x[n:n + m]  # a view: updated as columns enter
    slack_lo, slack_hi = state.lower[n:n + m], state.upper[n:n + m]
    basic_slack = state.status[n:n + m] == _BASIC
    bad = np.nonzero(basic_slack & ((slack_x < slack_lo - FEASIBILITY_TOL)
                                    | (slack_x > slack_hi + FEASIBILITY_TOL)))[0]
    if bad.size == 0:
        return False

    # the structural matrix by rows, each row's columns in column order
    nnz = state.indptr[n]
    order = np.argsort(state.indices[:nnz], kind="stable")
    row_ptr = np.searchsorted(state.indices[:nnz][order], np.arange(m + 1))
    row_cols, row_vals = state.col_of[order], state.data[order]
    # per column, how many of its rows have no basic slack
    closed = np.bincount(state.col_of[:nnz], weights=~basic_slack[state.indices[:nnz]],
                         minlength=n)
    position = np.empty(state.ncols, dtype=int)
    position[state.basis] = np.arange(m)

    entered = False
    for i in bad:
        s = slack_x[i]
        if s > slack_hi[i] + FEASIBILITY_TOL:
            target = slack_hi[i]
        elif s < slack_lo[i] - FEASIBILITY_TOL:
            target = slack_lo[i]
        else:
            continue  # an earlier column brought it back
        cols = row_cols[row_ptr[i]:row_ptr[i + 1]]
        moved = state.x[cols] + (s - target) / row_vals[row_ptr[i]:row_ptr[i + 1]]
        fits = ((state.status[cols] != _BASIC) & (closed[cols] == 0)
                & (moved >= state.lower[cols] - FEASIBILITY_TOL)
                & (moved <= state.upper[cols] + FEASIBILITY_TOL))
        if not fits.any():
            continue
        k = int(np.argmax(fits))
        j = cols[k]
        lo, hi = state.indptr[j], state.indptr[j + 1]
        slack_x[state.indices[lo:hi]] -= state.data[lo:hi] * (moved[k] - state.x[j])
        state.x[j] = moved[k]
        state.basis[position[n + i]] = j
        state.status[j] = _BASIC
        _rest(state, n + i, rest[n + i])  # the slack's rest bound is target
        closed[row_cols[row_ptr[i]:row_ptr[i + 1]]] += 1
        entered = True
    return entered


def _rest_status(lower, upper):
    """A column rests at its finite lower bound, else its finite upper bound,
    else at zero as a free column."""
    return np.where(np.isfinite(lower), _AT_LOWER,
                    np.where(np.isfinite(upper), _AT_UPPER, _FREE)).astype(np.int8)


def _vertex_values(state, n):
    """Structural values of the final vertex, independent of which of its
    bases the simplex ended in.

    Values within SNAP_TOL of a finite bound are put on it (_snap).  The
    remaining basic structural values, the interior ones, are solved again
    from the tight rows, those whose slack sits on a bound, and the values
    of every other column.  That block is ordered by _peel from its
    nonzeros alone: levels of row singletons, the lowest row first where
    several could fix one column, and spike columns set aside where no
    singleton is left.  _PeeledBlock solves it, and one refinement step
    solves again for the residual.  The tight rows the peel left out are
    then checked: when one misses by more than SNAP_TOL * (1 + |b_i| +
    sum_j |a_ij x_j|), or the spikes' Schur complement is ill-conditioned,
    the basis's own values are kept.  Two bases of one degenerate vertex
    therefore give the same bits, where their own factorizations differ in
    the last place.
    """
    x = state.x.copy()
    _snap(x, state.lower, state.upper)
    on_bound = (x == state.lower) | (x == state.upper)
    interior = np.nonzero((state.status[:n] == _BASIC) & ~on_bound[:n])[0]
    col, row, val = state.entries(interior)
    tight = on_bound[n + row]  # entries in rows whose slack sits on a bound
    rows, local = np.unique(row[tight], return_inverse=True)
    k = interior.size
    if k == 0 or rows.size < k:
        return x[:n]
    block = _PeeledBlock(local, col[tight], val[tight], rows.size, k).least_squares()
    if not block.solvable:
        return x[:n]  # ill-conditioned spikes: keep the basis's own values
    fixed = x.copy()
    fixed[interior] = 0.0
    rows = rows[block.row_order]
    rhs = (state.b - state.matvec(fixed))[rows]
    x_i = block.solve(rhs)
    x_i += block.solve(rhs - block.product(x_i))
    fixed[interior[block.col_order]] = x_i
    left_out = slice(block.peeled, None)
    miss = np.abs(rhs - block.product(x_i))[left_out]
    scale = np.abs(state.b) + np.bincount(state.indices, minlength=state.m,
                                          weights=np.abs(state.data * fixed[state.col_of]))
    if (miss > SNAP_TOL * (1.0 + scale[rows[left_out]])).any():
        return x[:n]
    return fixed[:n]


class _PeeledBlock:
    """An r x k block, r >= k, given by its nonzeros and put in the order
    _peel gives it: the kernel K of a refactorization (r == k) and the
    tight-row block of the exit values.

    In peel order the block is [[T, B], [C, D]]: T, the q x q peeled part,
    is lower triangular by levels with the diagonal block P_l of the
    level's pivots at level l, B and D hold the p = k - q spike columns,
    and C and D the r - q rows left unpeeled.  The block keeps T's pivots,
    the entries of its q columns below the diagonal, C's included, sorted
    by column with the end of each level among them, and [B; D] dense
    (spikes).  row_order and col_order list the block's rows and columns in
    peel order, col_label gives each column's place in it, and vectors over
    rows and columns are in peel order.  inverse_t gives K^-T;
    least_squares prepares solve, which settles the rows C and D in the
    least squares sense.
    """

    def __init__(self, rows, cols, vals, r, k):
        self.row_order, self.col_order, self.starts = _peel(rows, cols, r, k)
        row_label = np.empty(r, dtype=int)
        row_label[self.row_order] = np.arange(r)
        self.col_label = np.empty(k, dtype=int)
        self.col_label[self.col_order] = np.arange(k)
        rows, cols = row_label[rows], self.col_label[cols]
        self.entries = (rows, cols, vals)
        self.r, self.k = r, k
        q = self.peeled = self.starts[-1]
        self.pivots = np.empty(q)
        diagonal = (rows == cols) & (cols < q)  # each peeled row meets its column
        self.pivots[rows[diagonal]] = vals[diagonal]
        below = np.nonzero((cols < q) & ~diagonal)[0]
        below = below[np.argsort(cols[below], kind="stable")]
        self.below = rows[below], cols[below], vals[below]
        self.level_ends = np.searchsorted(cols[below], self.starts)
        spike = cols >= q
        self.spikes = np.zeros((r, k - q))
        self.spikes[rows[spike], cols[spike] - q] = vals[spike]

    def inverse_t(self):
        """K^-T of a square block.

        The rows of Z = T^-T at level l follow from those of the later
        levels by one GEMM, last level first:

            Z_l = P_l^-1 (I_l - T_{>l,l}^T Z_{>l}).

        The p spike columns are closed by the bordered inverse around the
        Schur complement S = D - C T^-1 B, whose p x p inverse is the only
        dense inversion.  Besides the result, one temporary of up to k x k
        exists at a time.  Raises NumericalFailure when S is singular.
        """
        k, q, pivots = self.k, self.peeled, self.pivots
        kinv_t = np.zeros((k, k))
        rows, cols, vals = self.below
        starts, ends = self.starts, self.level_ends
        for a, b, lo, hi in zip(starts[-2::-1], starts[:0:-1], ends[-2::-1], ends[:0:-1]):
            level = np.arange(a, b)
            kinv_t[level, level] = 1.0 / pivots[a:b]
            if b < q:
                in_t = rows[lo:hi] < q  # C's entries lie past row q
                block = np.zeros((b - a, q - b))
                block[cols[lo:hi][in_t] - a, rows[lo:hi][in_t] - b] = vals[lo:hi][in_t]
                out = kinv_t[a:b, b:q]
                np.matmul(block, kinv_t[b:q, b:q], out=out)
                out *= (-1.0 / pivots[a:b])[:, None]
        if q < k:
            z = kinv_t[:q, :q]
            in_c = rows >= q
            c_t = np.zeros((q, k - q))
            c_t[cols[in_c], rows[in_c] - q] = vals[in_c]
            b_t = self.spikes[:q].T.copy()
            schur_t = self.spikes[q:].T.copy()
            g = kinv_t[:q, q:]  # T^-T C^T, then -T^-T C^T S^-T
            h = kinv_t[q:, :q]  # B^T T^-T, then -S^-T B^T T^-T
            np.matmul(z, c_t, out=g)
            np.matmul(b_t, z, out=h)
            schur_t -= h @ c_t
            try:
                kinv_t[q:, q:] = np.linalg.inv(schur_t)
            except np.linalg.LinAlgError:
                raise NumericalFailure("singular basis at refactorization") from None
            g[...] = -(g @ kinv_t[q:, q:])
            z -= g @ h
            h[...] = -(kinv_t[q:, q:] @ h)
        return kinv_t

    def least_squares(self):
        """Prepare solve for a block of full column rank; returns the block.

        A solve substitutes level by level, each level with one bincount,
        so that x_T = a + Z x_S with T a = rhs_T and T Z = -B; the unpeeled
        rows then leave S x_S = rhs_U - C a with the Schur complement
        S = D + C Z, which its pseudo-inverse S^+ settles in the least
        squares sense, the only dense step (the bordered form of
        inverse_t).  Z and S^+ are computed here, Z with the levels on p
        right-hand sides at a time and S^+ from the p x p normal equations,
        by the same LU solve that inverse_t's inversion uses.  Their error
        grows with cond(S)^2, so solvable is False unless cond(S), estimated
        as |S|_F |S^+|_F, stays below eps^-1/4, where one refinement step
        brings a solve back to full accuracy.
        """
        self.z = None
        self.solvable = True
        if self.peeled < self.k:
            rhs = 0.0 - self.spikes  # -[B; D], +0.0 off its nonzeros
            self.z = self._substitute(rhs)
            schur = -rhs[self.peeled:]
            try:  # S^+ = (S^T S)^-1 S^T
                self.schur_pinv = np.linalg.solve(schur.T @ schur, schur.T)
            except np.linalg.LinAlgError:
                self.solvable = False
            else:
                cond = np.linalg.norm(schur) * np.linalg.norm(self.schur_pinv)
                self.solvable = cond < np.finfo(float).eps ** -0.25
        return self

    def _substitute(self, rhs):
        """Forward substitution through the peeled levels on the columns of
        rhs (r x w): returns the values of the q peeled columns and leaves
        in rhs's unpeeled rows what they still have to meet."""
        w = rhs.shape[1]
        x = np.empty((self.peeled, w))
        rows, cols, vals = self.below
        ends = self.level_ends
        for a, b, lo, hi in zip(self.starts[:-1], self.starts[1:], ends[:-1], ends[1:]):
            x[a:b] = rhs[a:b] / self.pivots[a:b, None]
            if hi > lo:  # the entries below a level lie in rows past it
                flat = ((rows[lo:hi, None] - b) * w + np.arange(w)).ravel()
                moved = (vals[lo:hi, None] * x[cols[lo:hi]]).ravel()
                rhs[b:] -= np.bincount(flat, weights=moved,
                                       minlength=(self.r - b) * w).reshape(-1, w)
        return x

    def solve(self, rhs):
        """x with block x = rhs on the peeled rows and, in the least
        squares sense, on the rest: the solution when there is one."""
        rhs = rhs[:, None].copy()
        x_t = self._substitute(rhs)[:, 0]
        if self.z is None:
            return x_t
        x_s = self.schur_pinv @ rhs[self.peeled:, 0]
        return np.concatenate([x_t + self.z @ x_s, x_s])

    def product(self, x):
        """block @ x."""
        rows, cols, vals = self.entries
        return np.bincount(rows, weights=vals * x[cols], minlength=self.r)


def _leading_start(start, lp):
    """start, a basis of lp or of a program that is lp's leading block,
    mapped into lp's equality form.

    The program behind start has lp's first columns and first rows, with
    the same coefficients, right-hand sides and bounds.  Its structural
    columns keep their indices, its slacks shift past lp's extra columns,
    each extra row starts with its slack basic, and each extra column rests
    at its bound.  A start of lp's own shape maps onto itself.  Raises
    ValueError when start has more rows or columns than lp, or does not
    list each of its basic columns exactly once.
    """
    m0 = start.basic.size
    n0 = start.status.size - m0
    m, n = lp.num_rows, lp.num_variables
    if not (0 <= n0 <= n and m0 <= m):
        raise ValueError(f"start basis has {m0} rows and {max(n0, 0)} structural "
                         f"columns; the program has only {m} and {n}")
    status = np.concatenate([start.status[:n0], _rest_status(lp.lower[n0:], lp.upper[n0:]),
                             start.status[n0:], np.full(m - m0, _BASIC)]).astype(np.int8)
    basic = np.concatenate([np.where(start.basic < n0, start.basic, start.basic + n - n0),
                            n + np.arange(m0, m)])
    if not np.array_equal(np.sort(basic), np.nonzero(status == _BASIC)[0]):
        raise ValueError("start basis does not list its basic columns once each")
    return Basis(basic=basic, status=status)


def _matrix_form(lp):
    """(indptr, indices, data, b, slack lower, slack upper) of lp's equality
    form: the CSC of [A | I], the right-hand side and the slack bounds, all
    read-only.

    Columns are lp's structural ones, then one slack per row, the row's
    unit column."""
    n = lp.num_variables
    a_struct, b, relations = lp.dense()
    m = lp.num_rows
    # CSC of [A | I]: the nonzeros in row-major order, stably sorted by column
    flat = np.flatnonzero(a_struct != 0)
    flat = flat[np.argsort(flat % n, kind="stable")]
    rows, cols = np.divmod(flat, n)
    indices = np.concatenate([rows, np.arange(m)])
    data = np.concatenate([a_struct.ravel()[flat], np.ones(m)])
    indptr = np.concatenate([np.searchsorted(cols, np.arange(n)),
                             cols.size + np.arange(m + 1)])

    slack_lo = {"<=": 0.0, "==": 0.0, ">=": -np.inf}
    slack_hi = {"<=": np.inf, "==": 0.0, ">=": 0.0}
    form = (indptr, indices, data, b, np.array([slack_lo[r] for r in relations]),
            np.array([slack_hi[r] for r in relations]))
    for arr in form:
        arr.setflags(write=False)
    return form


def _equality_form(lp):
    """The _State of lp's equality form, every column at its lower bound.

    The matrix part is computed once per program structure and kept in
    lp.matrix_cache, which programs derived with another objective share;
    the structural bounds are read from lp at every call."""
    form = lp.matrix_cache.get("equality_form")
    if form is None:
        form = lp.matrix_cache["equality_form"] = _matrix_form(lp)
    indptr, indices, data, b, slack_lo, slack_hi = form
    lower = np.concatenate([np.asarray(lp.lower), slack_lo])
    upper = np.concatenate([np.asarray(lp.upper), slack_hi])
    return _State(indptr, indices, data, b, lower, upper)


def solve(lp: LinearProgram, start: Basis | None = None) -> LpSolution:
    """Solve a LinearProgram, maximizing its objective.

    Parameters
    ----------
    lp : LinearProgram
        Program with box bounds (either side may be infinite) and
        <=, ==, >= rows.
    start : Basis, optional
        Final basis of an earlier solve of lp or of a leading block of lp: a
        program whose matrix, right-hand side and bounds are lp's first rows
        and columns; only the objective may differ.  lp's extra rows start
        with their slacks basic and its extra columns at their bounds.  When
        the start is nonsingular and primal feasible here, after the slack
        crash, the primal simplex runs from it at once; when it is
        nonsingular but infeasible, the dual phase starts from it.

    Returns
    -------
    LpSolution
        status OPTIMAL with values/objective and the final basis, or
        INFEASIBLE/UNBOUNDED.

    Raises
    ------
    NumericalFailure
        When the basis goes singular, a phase exceeds 10000 +
        50*(rows + columns) iterations, or rows that no column can repair
        stay violated beyond tolerance without a ray that proves the
        program infeasible.
    ValueError
        When start has more rows or columns than lp, or does not list each
        of its basic columns exactly once.
    """
    n = lp.num_variables
    m = lp.num_rows
    if start is not None:
        start = _leading_start(start, lp)
    state = _equality_form(lp)
    c = np.zeros(n + m)
    c[:n] = lp.objective_array()

    # the ratio tests divide by zero steps and subtract infinite bounds;
    # they handle both, so the warnings are off for every iteration
    with np.errstate(divide="ignore", invalid="ignore"):
        rest = _rest_status(state.lower, state.upper)
        warm = start is not None and _warm_start(state, start, rest)
        if not warm:
            _cold_start(state, rest)
        iterations = 0
        if m and not (warm and _primal_feasible(state)):
            status, iterations = _dual_phase(state, c)
            if status == INFEASIBLE:
                return LpSolution(status=INFEASIBLE, iterations=iterations)
        status, its = _run_phase(state, c)
        iterations += its
        if status == UNBOUNDED:
            return LpSolution(status=UNBOUNDED, iterations=iterations)

    values = _vertex_values(state, n)
    objective = float(lp.objective_array() @ values)
    basis = Basis(basic=state.basis.copy(), status=state.status.copy())
    return LpSolution(status=OPTIMAL, objective=objective, values=values,
                      iterations=iterations, basis=basis)
