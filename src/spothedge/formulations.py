"""Deterministic-equivalent LPs for the three supply-allocation models.

All three models share the same physical core over scenarios s with
probabilities pi_s.  Its columns come in contiguous blocks, in this order,
each indexed in VariableMap by an integer array shaped like the decision
(market m, contract c, spot tranche k, supply step i, period t, scenario s):

    xmin[m,c]        x_min[m] (C_m,)        committed contract volume
                                            (first stage, scenario-free)
    xterm[m,c,t,s]   x_term[m] (C_m, T, S)  delivered volume of a contract
                                            with flex; one without flex
                                            delivers its commitment, so its
                                            x_term entries all name xmin[m,c]
    y[m,k,t,s]       y_spot[m] (K_m, T, S)  spot sales in tranche k at its
                                            scenario price
    uprod[i,t,s]     u_prod (I, T, S)       production on cost-curve step i
    z[s]             z (S,)                 scenario profit (free)

cvar then appends var and ell (S,), dro appends w (S, G, M), where G is 1
for the per-scenario penalty and T for the per-period one.  The shared rows:

    profit[s]     z[s] equals contract + spot revenue minus production and
                  transport cost, summed over periods
    winlo/winhi   xmin <= xterm <= xmin + flex, for contracts with flex
    balance[t,s]  production equals contract plus spot sales
    prod rows     lower <= total production <= upper (folded into variable
                  bounds when the cost curve has a single step)

Transport appears nowhere but in the cost, so every MW goes through the
cheapest market: each unit of production carries that market's transport
rate, and extract_report books all production there (the lowest market
index on ties).

Objectives:

    risk_neutral   sum_s pi_s z_s
    cvar           lam * E[z] + (1-lam) * (v - (1/alpha) sum_s pi_s ell_s)
                   with ell_s >= v - z_s, ell_s >= 0: the bracket is the
                   Rockafellar-Uryasev epigraph of the expected profit over
                   the worst alpha-probability tail, so alpha -> 1 recovers
                   the risk-neutral objective and small alpha hardens the
                   tail
    dro            E[z] - epsilon * sum_s pi_s sum_g ||Q^T ytilde_sg||_1, the
                   type-infinity Wasserstein penalty (dual norm of the
                   max-norm is the 1-norm); ytilde_sg sums each market's
                   spot sales over the periods of group g: one group of all
                   periods per scenario, or one group per period when
                   configured

alpha and lam (cvar) and epsilon (dro) appear only in the objective, so
reprice derives the program of another parameter value from a built one
without building it again.

Every objective also carries a -1e-7 * total spot volume perturbation so
that among profit-equal allocations the one selling least spot is chosen
deterministically; reported objectives are recomputed from the clean model
formula, never read off the perturbed LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (MarketInstance, ScenarioSet, read_only, validate_instance,
                     validate_scenarios)
from .linprog import OPTIMAL, LinearProgram, LpSolution
from .simplex import solve

RISK_NEUTRAL = "risk_neutral"
CVAR = "cvar"
DRO = "dro"
KINDS = (RISK_NEUTRAL, CVAR, DRO)

PER_SCENARIO = "per_scenario"
PER_PERIOD = "per_period"

TIE_BREAK_WEIGHT = 1e-7
PROFIT_TOL = 1e-6
BALANCE_TOL = 1e-7


class InfeasibleStructure(ValueError):
    """The instance cannot be feasible for any scenario set (capacity < floor)."""


class ParameterOutOfRange(ValueError):
    """A formulation parameter violates its documented range."""


class DimensionMismatch(ValueError):
    """Instance, scenarios and config do not fit together."""


class ConsistencyError(RuntimeError):
    """Solver output failed an independent recomputation check."""


class SolveFailed(RuntimeError):
    """The LP terminated without an optimal solution."""

    def __init__(self, status: str):
        super().__init__(f"allocation LP terminated with status {status!r}")
        self.status = status


@dataclass(frozen=True)
class FormulationConfig:
    """Which model to build and with what parameters.

    alpha is the CVaR tail mass: the objective averages the worst
    alpha-probability share of profit outcomes, so alpha near 1 is mild and
    alpha near 0 is hard.  lam in [0, 1] weights expected profit against
    that tail average.  epsilon >= 0 is the Wasserstein radius; q_matrix is
    the (markets x markets) deviation-covariance factor its penalty uses.
    """

    kind: str = RISK_NEUTRAL
    alpha: float = 0.95
    lam: float = 0.1
    epsilon: float = 0.0
    q_matrix: np.ndarray | None = None
    dro_penalty: str = PER_SCENARIO

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterOutOfRange(f"kind must be one of {KINDS}, got {self.kind!r}")
        # a finite 1/alpha and epsilon keep every objective coefficient finite
        if not 0.0 < self.alpha < 1.0 or 1.0 / self.alpha == math.inf:
            raise ParameterOutOfRange(f"alpha must lie strictly inside (0, 1) with a "
                                      f"finite 1/alpha, got {self.alpha}")
        if not 0.0 <= self.lam <= 1.0:
            raise ParameterOutOfRange(f"lambda must lie in [0, 1], got {self.lam}")
        if not 0.0 <= self.epsilon < math.inf:
            raise ParameterOutOfRange(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if self.dro_penalty not in (PER_SCENARIO, PER_PERIOD):
            raise ParameterOutOfRange(f"dro_penalty must be {PER_SCENARIO!r} or "
                                      f"{PER_PERIOD!r}, got {self.dro_penalty!r}")
        if self.q_matrix is not None:
            object.__setattr__(self, "q_matrix", read_only(self.q_matrix))


@dataclass
class VariableMap:
    """Column indices of one built LP, shaped like the decisions they hold.

    With C_m contracts and K_m spot tranches in market m, I supply steps,
    T periods and S scenarios, the columns follow in this order: x_min,
    the delivered volumes of the contracts with flex, y_spot (each market
    after market), u_prod, z, then var and ell for cvar or w for dro.
    x_term is therefore not one contiguous block: the (T, S) slice of a
    contract without flex repeats its x_min column.
    """

    x_min: dict  # m -> (C_m,) committed volumes
    x_term: dict  # m -> (C_m, T, S) delivered contract volumes
    y_spot: dict  # m -> (K_m, T, S) spot sales
    u_prod: np.ndarray  # (I, T, S)
    z: np.ndarray  # (S,)
    var_col: int | None = None  # CVaR threshold
    ell: np.ndarray | None = None  # (S,) CVaR tail shortfalls
    w: np.ndarray | None = None  # (S, G, M) penalty terms, G = 1 or T groups


def _check_inputs(instance: MarketInstance, scenarios: ScenarioSet) -> None:
    capacity = sum(s.capacity for s in instance.supply_steps)
    for t, (lo, _hi) in enumerate(instance.production_limits):
        if capacity < lo:
            raise InfeasibleStructure(
                f"total supply capacity {capacity} is below the period-{t} "
                f"lower production limit {lo}")
    problems = validate_instance(instance) + validate_scenarios(instance, scenarios)
    if problems:
        raise DimensionMismatch("; ".join(problems))


def _per_market(cols: np.ndarray, counts: list[int], tail: tuple) -> dict:
    """Split one block of columns into per-market arrays of shape (count,) + tail."""
    parts = np.split(cols, np.cumsum(counts)[:-1] * math.prod(tail))
    return {m: part.reshape((n,) + tail) for m, (part, n) in enumerate(zip(parts, counts))}


def _row_block(parts) -> tuple[np.ndarray, np.ndarray]:
    """Join (columns, coefficients) parts side by side; each part's columns
    have one line per row, and its coefficients broadcast against them."""
    return (np.hstack([cols for cols, _ in parts]),
            np.hstack([np.full(cols.shape, coef, dtype=float) for cols, coef in parts]))


def _add_sided_rows(lp: LinearProgram, tags: list[str], sides, columns, coeffs) -> None:
    """One row per tag and (label, relation, rhs) side, sides innermost; the
    rows of one tag share its columns."""
    lp.add_rows([f"{label}[{tag}]" for tag in tags for label, _, _ in sides],
                np.repeat(columns, len(sides), axis=0), coeffs,
                [rel for _ in tags for _, rel, _ in sides],
                [rhs for _ in tags for _, _, rhs in sides])


def _build_core(instance: MarketInstance, scenarios: ScenarioSet, z_objective):
    """Shared variables and rows; z objective coefficients supplied per model."""
    _check_inputs(instance, scenarios)
    lp = LinearProgram()
    markets = instance.markets
    n_m, n_t, n_s = len(markets), instance.periods, scenarios.num_scenarios
    steps = instance.supply_steps
    n_i = len(steps)
    single_step = n_i == 1
    contracts = [instance.market_contracts(market) for market in markets]
    n_c = [len(cs) for cs in contracts]
    n_k = [scenarios.steps(market) for market in markets]
    volume = np.array([c.max_volume for cs in contracts for c in cs], dtype=float)
    flexible = np.array([c.flex_above_min > 0.0 for cs in contracts for c in cs], dtype=bool)
    lo_t, hi_t = np.array(instance.production_limits, dtype=float).T
    ts_tags = [f"{t},{s}" for t in range(n_t) for s in range(n_s)]
    haul = min(instance.transport(market) for market in markets)

    x_min = lp.add_variables([f"xmin[{m},{c}]" for m in range(n_m) for c in range(n_c[m])],
                             0.0, volume)
    x_flex = lp.add_variables([f"xterm[{m},{c},{tag}]" for m in range(n_m)
                               for c, contract in enumerate(contracts[m])
                               if contract.flex_above_min > 0.0 for tag in ts_tags],
                              0.0, np.repeat(volume[flexible], n_t * n_s))
    x_term = np.repeat(x_min, n_t * n_s).reshape(-1, n_t * n_s)  # a fixed contract delivers xmin
    x_term[flexible] = x_flex.reshape(-1, n_t * n_s)
    y_spot = lp.add_variables(
        [f"y[{m},{k},{tag}]" for m in range(n_m) for k in range(n_k[m])
         for tag in ts_tags],
        0.0, np.concatenate([scenarios.widths[market].ravel() for market in markets]),
        -TIE_BREAK_WEIGHT)
    if single_step:  # the production-limit row has one coefficient: fold it away
        prod_lo, prod_hi = lo_t, np.minimum(steps[0].capacity, hi_t)  # (T,)
    else:
        prod_lo, prod_hi = 0.0, np.array([[s.capacity] for s in steps])  # (I, 1)
    u_prod = lp.add_variables([f"uprod[{i},{tag}]" for i in range(n_i) for tag in ts_tags],
                              *(np.repeat(np.full((n_i, n_t), v), n_s)
                                for v in (prod_lo, prod_hi)))
    z = lp.add_variables([f"z[{s}]" for s in range(n_s)], -math.inf, math.inf,
                         z_objective)
    vm = VariableMap(x_min=_per_market(x_min, n_c, ()),
                     x_term=_per_market(x_term.ravel(), n_c, (n_t, n_s)),
                     y_spot=_per_market(y_spot, n_k, (n_t, n_s)),
                     u_prod=u_prod.reshape(n_i, n_t, n_s), z=z)

    def by_scenario(a):  # (..., S) -> (S, ...)
        return a.reshape(-1, n_s).T

    def by_period(a):  # (..., T, S) -> (T*S, ...)
        return a.reshape(-1, n_t * n_s).T

    parts = [(z[:, None], 1.0)]
    for m, market in enumerate(markets):
        wholesale = np.array([c.wholesale_price for c in contracts[m]], dtype=float)
        parts += [(by_scenario(vm.x_term[m]), -wholesale.ravel()),
                  (by_scenario(vm.y_spot[m]), -by_scenario(scenarios.prices[market]))]
    parts.append((by_scenario(vm.u_prod),
                  np.repeat([s.unit_cost + haul for s in steps], n_t)))
    lp.add_rows([f"profit[{s}]" for s in range(n_s)], *_row_block(parts), "==", 0.0)

    for m in range(n_m):
        for c, contract in enumerate(contracts[m]):
            if contract.flex_above_min > 0.0:
                term = vm.x_term[m][c].ravel()
                _add_sided_rows(lp, [f"{m},{c},{tag}" for tag in ts_tags],
                                [("winlo", ">=", 0.0), ("winhi", "<=", contract.flex_above_min)],
                                np.column_stack([term, np.full_like(term, vm.x_min[m][c])]),
                                [1.0, -1.0])

    sold = [(by_period(cols[m]), -1.0) for m in range(n_m)
            for cols in (vm.x_term, vm.y_spot)]
    lp.add_rows([f"balance[{tag}]" for tag in ts_tags],
                *_row_block([(by_period(vm.u_prod), 1.0)] + sold), "==", 0.0)

    if not single_step:
        prod = by_period(vm.u_prod).reshape(n_t, n_s, n_i)
        for t, (lo, hi) in enumerate(instance.production_limits):
            if lo == hi:
                sides = [("prod", "==", lo)]
            else:
                sides = [("prodhi", "<=", hi)] + ([("prodlo", ">=", lo)] if lo > 0.0 else [])
            _add_sided_rows(lp, [f"{t},{s}" for s in range(n_s)], sides, prod[t], 1.0)
    return lp, vm


def build_risk_neutral(instance: MarketInstance, scenarios: ScenarioSet):
    """Expected-profit maximization; returns (LinearProgram, VariableMap)."""
    pi = scenarios.probabilities
    return _build_core(instance, scenarios, pi)


def _cvar_objective(pi, alpha: float, lam: float):
    """Objective coefficients of z, var and ell in the CVaR model."""
    return lam * pi, 1.0 - lam, -(1.0 - lam) * pi / alpha


def build_cvar(instance: MarketInstance, scenarios: ScenarioSet, alpha: float,
               lam: float):
    """Tail-weighted model: lam * E[z] + (1-lam) * CVaR_alpha(z)."""
    FormulationConfig(kind=CVAR, alpha=alpha, lam=lam)  # checks the ranges
    z_objective, var_objective, ell_objective = _cvar_objective(
        scenarios.probabilities, alpha, lam)
    lp, vm = _build_core(instance, scenarios, z_objective)
    n_s = scenarios.num_scenarios
    vm.var_col = lp.add_variable("var", -math.inf, math.inf, objective=var_objective)
    vm.ell = lp.add_variables([f"ell[{s}]" for s in range(n_s)], 0.0, math.inf,
                              ell_objective)
    lp.add_rows([f"tail[{s}]" for s in range(n_s)],
                np.column_stack([vm.ell, np.full(n_s, vm.var_col), vm.z]),
                [1.0, -1.0, 1.0], ">=", 0.0)
    return lp, vm


def _penalty_groups(n_t: int, dro_penalty: str):
    """The period slices whose spot sales one Wasserstein term aggregates,
    with their name labels: all periods at once, or one period each."""
    if dro_penalty == PER_SCENARIO:
        return [(slice(0, n_t), "")]
    return [(slice(t, t + 1), f"{t},") for t in range(n_t)]


def _dro_objective(pi, epsilon: float, terms: int):
    """Objective coefficients of the w block in the robust model, whose
    columns come in runs of terms per scenario."""
    return np.repeat(-epsilon * pi, terms)


def build_dro(instance: MarketInstance, scenarios: ScenarioSet, epsilon: float,
              q_matrix, dro_penalty: str = PER_SCENARIO):
    """Wasserstein-penalized model: E[z] - epsilon * E[||Q^T ytilde||_1].

    Each scenario s, period group g and market j gets a column w[s,g,j] >=
    |(Q^T ytilde_sg)_j| through a norm_pos and a norm_neg row.
    """
    FormulationConfig(kind=DRO, epsilon=epsilon, dro_penalty=dro_penalty)  # checks the ranges
    n_m = len(instance.markets)
    q = np.asarray(q_matrix, dtype=float)
    if q.shape != (n_m, n_m):
        raise DimensionMismatch(f"q matrix must be {(n_m, n_m)}, got {q.shape}")
    if not np.isfinite(q).all():
        raise DimensionMismatch("q matrix contains non-finite entries")
    pi = scenarios.probabilities
    lp, vm = _build_core(instance, scenarios, pi)
    n_s = scenarios.num_scenarios
    groups = _penalty_groups(instance.periods, dro_penalty)
    tags = [f"{s},{label}{j}" for s in range(n_s) for _, label in groups for j in range(n_m)]
    vm.w = lp.add_variables([f"w[{tag}]" for tag in tags], 0.0, math.inf,
                            _dro_objective(pi, epsilon, len(groups) * n_m)
                            ).reshape(n_s, len(groups), n_m)

    # row (s, g, j, side): w[s,g,j] -/+ sum_e q[owner_e, j] * y_e >= 0 over
    # the spot columns e of group g in scenario s, market after market
    blocks = [[vm.y_spot[m][:, g, :].reshape(-1, n_s) for m in range(n_m)] for g, _ in groups]
    spot = np.stack([np.concatenate(block).T for block in blocks], axis=1)  # (S, G, E)
    owner = np.repeat(np.arange(n_m), [block.shape[0] for block in blocks[0]])
    q_spot = q[owner].T  # (M, E): row j holds q[owner_e, j]
    coeffs = np.concatenate([np.ones((n_m, 2, 1)), np.stack([-q_spot, q_spot], axis=1)],
                            axis=-1)  # (M, 2, 1 + E)
    columns = np.concatenate(
        [vm.w[..., None], np.broadcast_to(spot[:, :, None, :], vm.w.shape + spot.shape[-1:])],
        axis=-1)  # (S, G, M, 1 + E)
    width = columns.shape[-1]
    _add_sided_rows(lp, tags, [("norm_pos", ">=", 0.0), ("norm_neg", ">=", 0.0)],
                    columns.reshape(-1, width),
                    np.broadcast_to(coeffs, vm.w.shape[:2] + coeffs.shape).reshape(-1, width))
    return lp, vm


def build(instance: MarketInstance, scenarios: ScenarioSet,
          config: FormulationConfig):
    if config.kind == RISK_NEUTRAL:
        return build_risk_neutral(instance, scenarios)
    if config.kind == CVAR:
        return build_cvar(instance, scenarios, config.alpha, config.lam)
    if config.q_matrix is None:
        raise DimensionMismatch("dro requires a q matrix")
    return build_dro(instance, scenarios, config.epsilon, config.q_matrix,
                     config.dro_penalty)


def reprice(lp: LinearProgram, vm: VariableMap, scenarios: ScenarioSet,
            config: FormulationConfig) -> LinearProgram:
    """The program build(instance, scenarios, config) returns, derived from
    one that build returned for the same instance and scenarios and a
    config that differs from config in alpha and lam (cvar) or epsilon
    (dro) alone.  Those parameters appear only in the objective, so the
    result shares lp's rows and matrix cache read-only and copies its
    bounds (LinearProgram.with_objective); vm maps its columns too.

    Raises
    ------
    ValueError
        When config is of another kind than lp.
    """
    pi = scenarios.probabilities
    objective = lp.objective_array()
    if config.kind == CVAR and vm.ell is not None:
        objective[vm.z], objective[vm.var_col], objective[vm.ell] = _cvar_objective(
            pi, config.alpha, config.lam)
    elif config.kind == DRO and vm.w is not None:
        objective[vm.w.ravel()] = _dro_objective(pi, config.epsilon, vm.w[0].size)
    else:
        raise ValueError(f"a {config.kind} config cannot reprice this program")
    return lp.with_objective(objective)


@dataclass(frozen=True)
class AllocationReport:
    """Optimal allocation with independently recomputed profit and objective."""

    config: FormulationConfig
    status: str
    objective_value: float  # recomputed per model formula, no tie-break term
    commitments: dict  # market -> (C_m,) committed contract volumes
    term_dispatch: dict  # market -> (C_m, T, S) delivered contract volumes
    spot_dispatch: dict  # market -> (K_m, T, S) spot sales
    production: np.ndarray  # (I, T, S)
    transport: dict  # market -> (T, S)
    profits: np.ndarray  # (S,) recomputed scenario profits
    probabilities: np.ndarray  # (S,) echoed from the scenario set
    expected_profit: float
    var_threshold: float | None  # CVaR threshold at the optimum, if any
    spot_volume: float  # E[total MW sold on spot]
    production_volume: float  # E[total MW produced]

    @property
    def spot_fraction(self) -> float:
        if self.production_volume <= 0.0:
            return 0.0
        return self.spot_volume / self.production_volume


def extract_report(instance: MarketInstance, scenarios: ScenarioSet,
                   config: FormulationConfig, vm: VariableMap,
                   solution: LpSolution) -> AllocationReport:
    """Read decisions off an optimal solution, recheck them, recompute objective.

    Raises ConsistencyError when recomputed scenario profits stray beyond
    1e-6 * max(1, |z_s|) of the solver's z, or when a balance row is violated
    beyond 1e-7 * scale.
    """
    if solution.status != OPTIMAL:
        raise SolveFailed(solution.status)
    x = solution.values
    markets = instance.markets
    n_t, n_s = instance.periods, scenarios.num_scenarios
    # the report's arrays are copies out of x, read-only from the start
    commitments = {market: read_only(x[vm.x_min[m]]) for m, market in enumerate(markets)}
    term = {market: read_only(x[vm.x_term[m]]) for m, market in enumerate(markets)}
    spot = {market: read_only(x[vm.y_spot[m]]) for m, market in enumerate(markets)}
    production = read_only(x[vm.u_prod])
    produced_ts = read_only(production.sum(axis=0))  # (T, S)
    cheapest = min(markets, key=instance.transport)  # the lowest index on ties
    trans = {market: produced_ts if market == cheapest else read_only(np.zeros((n_t, n_s)))
             for market in markets}

    profits = np.zeros(n_s)
    for m, market in enumerate(markets):
        prices = scenarios.prices[market]
        wholesale = np.array([c.wholesale_price for c in instance.market_contracts(market)])
        if wholesale.size:
            profits += np.einsum("ct,cts->s", wholesale, term[market])
        profits += np.einsum("kts,kts->s", prices, spot[market])
    costs = np.array([s.unit_cost for s in instance.supply_steps]) + instance.transport(cheapest)
    profits -= np.einsum("i,its->s", costs, production)

    solver_z = x[vm.z]
    bad = np.abs(profits - solver_z) > PROFIT_TOL * np.maximum(1.0, np.abs(profits))
    if bad.any():
        s = int(np.nonzero(bad)[0][0])
        raise ConsistencyError(
            f"scenario {s}: solver profit {solver_z[s]!r} disagrees with "
            f"recomputed {profits[s]!r}")

    sold_ts = sum(term[mk].sum(axis=0) + spot[mk].sum(axis=0) for mk in markets)
    scale = 1.0 + np.abs(produced_ts)
    if (np.abs(produced_ts - sold_ts) > BALANCE_TOL * scale).any():
        raise ConsistencyError("supply-demand balance violated beyond tolerance")

    pi = scenarios.probabilities
    expected = float(pi @ profits)
    var_threshold = None
    if config.kind == RISK_NEUTRAL:
        objective = expected
    elif config.kind == CVAR:
        var_threshold = float(x[vm.var_col])
        shortfall = np.maximum(var_threshold - profits, 0.0)
        tail = var_threshold - float(pi @ shortfall) / config.alpha
        objective = config.lam * expected + (1.0 - config.lam) * tail
    else:
        groups = [g for g, _ in _penalty_groups(n_t, config.dro_penalty)]
        # ytilde[s, g, m]: market m's spot sales in scenario s and period
        # group g, each summed tranche-major from a contiguous copy
        ytilde = np.stack([np.stack([
            np.ascontiguousarray(spot[mk][:, g, :].transpose(2, 0, 1)).reshape(n_s, -1).sum(1)
            for mk in markets], axis=-1) for g in groups], axis=1)
        norms = np.abs(config.q_matrix.T @ ytilde[..., None])[..., 0].sum(-1)  # (S, G)
        # cumsum adds pi_s * norm_sg one at a time in (s, g) order
        penalty = float(np.cumsum(pi[:, None] * norms)[-1])
        objective = expected - config.epsilon * penalty

    spot_volume = float(sum(pi @ spot[mk].sum(axis=(0, 1)) for mk in markets))
    production_volume = float(pi @ produced_ts.sum(axis=0))

    report = AllocationReport(
        config=config, status=solution.status, objective_value=float(objective),
        commitments=commitments, term_dispatch=term, spot_dispatch=spot,
        production=production, transport=trans, profits=read_only(profits),
        probabilities=np.array(pi), expected_profit=expected,
        var_threshold=var_threshold, spot_volume=spot_volume,
        production_volume=production_volume)
    return report


def solve_allocation(instance: MarketInstance, scenarios: ScenarioSet,
                     config: FormulationConfig) -> AllocationReport:
    """Build, solve and extract in one call."""
    lp, vm = build(instance, scenarios, config)
    solution = solve(lp)
    return extract_report(instance, scenarios, config, vm, solution)
