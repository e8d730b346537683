"""Reward-to-risk metrics over solved allocations and parameter sweeps.

For a solved allocation with scenario profits z and probabilities pi:

    zeta            expected profit, sum_s pi_s z_s
    chi_gamma       empirical CVaR: expected profit over the worst
                    (1-gamma)-probability tail, the boundary scenario
                    entering fractionally
    zeta_riskfree   optimum of the risk-neutral model with spot sales
                    forced to zero (contract-only, scenario-free)
    delta_zeta      zeta - zeta_riskfree, the premium earned by spot exposure
    delta_chi       |chi_gamma - zeta_riskfree|, the tail give-up
    rho_gamma       delta_zeta / delta_chi, reward per unit of tail risk;
                    undefined (None) when delta_chi is negligible

When the production floors cannot be met without spot sales, the spot-free
model is infeasible and zeta_riskfree, delta_zeta, delta_chi and rho_gamma
are all undefined (None).

A sweep solves the CVaR model over an alpha grid and the robust model over
an epsilon grid, anchors both curves with the risk-neutral solution, and
tabulates one row per (model point, gamma).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .domain import MarketInstance, ScenarioSet
from .formulations import (
    CVAR,
    DRO,
    PER_SCENARIO,
    RISK_NEUTRAL,
    AllocationReport,
    FormulationConfig,
    ParameterOutOfRange,
    SolveFailed,
    build,
    build_risk_neutral,
    extract_report,
    reprice,
    solve_allocation,
)
from .linprog import INFEASIBLE, NumericalFailure
from .simplex import solve

RHO_FLOOR = 1e-9
_SOLVE = object()  # metric_row's default riskfree: solve the spot-free model

CSV_HEADER = ("source", "alpha", "lambda", "epsilon", "gamma", "spot_fraction",
              "zeta", "chi", "zeta_riskfree", "delta_zeta", "delta_chi", "rho")


class DegenerateTail(ValueError):
    """gamma leaves no probability mass in the tail."""


def empirical_cvar(profits, probabilities, gamma: float) -> float:
    """Expected profit over the worst (1-gamma)-probability tail.

    Profits are sorted ascending and probability mass 1-gamma is accumulated
    from the bottom; the scenario straddling the boundary contributes only
    the missing fraction.  gamma must lie in [0, 1): gamma = 0 degenerates
    to the plain expectation.
    """
    if not 0.0 <= gamma < 1.0:
        raise DegenerateTail(f"gamma must lie in [0, 1), got {gamma}")
    z = np.asarray(profits, dtype=float)
    pi = np.asarray(probabilities, dtype=float)
    if z.shape != pi.shape or z.ndim != 1 or z.size == 0:
        raise ValueError("profits and probabilities must be equal-length vectors")
    beta = 1.0 - gamma
    order = np.argsort(z, kind="stable")
    remaining = beta
    acc = 0.0
    for idx in order:
        take = min(float(pi[idx]), remaining)
        acc += take * float(z[idx])
        remaining -= take
        if remaining <= 1e-15:
            break
    if remaining > 1e-12:
        raise DegenerateTail("probabilities sum to less than the tail mass")
    return acc / beta


def risk_free_profit(instance: MarketInstance, scenarios: ScenarioSet) -> float | None:
    """Optimum of the risk-neutral model with spot sales forced to zero, or
    None when that model is infeasible.

    No revenue term is stochastic once y = 0, so every scenario block of the
    LP is identical and the model is solved on scenario 0 alone, with
    probability 1.  It is infeasible when some period's production floor
    exceeds what contracts alone can absorb.
    """
    first = ScenarioSet(
        probabilities=np.ones(1),
        prices={m: arr[:, :, :1] for m, arr in scenarios.prices.items()},
        widths={m: arr[:, :, :1] for m, arr in scenarios.widths.items()})
    lp, vm = build_risk_neutral(instance, first)
    for col in vm.y_spot.values():
        lp.upper[col] = 0.0
    solution = solve(lp)
    if solution.status == INFEASIBLE:
        return None
    report = extract_report(instance, first, FormulationConfig(kind=RISK_NEUTRAL),
                            vm, solution)
    return report.objective_value


@dataclass(frozen=True)
class MetricRow:
    source: str  # risk_neutral | cvar | dro
    alpha: float | None
    lam: float | None
    epsilon: float | None
    gamma: float
    spot_fraction: float
    zeta: float
    chi: float
    zeta_riskfree: float | None  # None when the spot-free model is infeasible
    delta_zeta: float | None
    delta_chi: float | None
    rho: float | None  # None also when delta_chi is below the floor


def _row_from_report(report: AllocationReport, gamma: float, riskfree: float | None,
                     source: str, alpha=None, lam=None, epsilon=None) -> MetricRow:
    zeta = report.expected_profit
    chi = empirical_cvar(report.profits, report.probabilities, gamma)
    delta_zeta = delta_chi = rho = None
    if riskfree is not None:
        delta_zeta = zeta - riskfree
        delta_chi = abs(chi - riskfree)
        if delta_chi >= RHO_FLOOR * max(1.0, abs(riskfree)):
            rho = delta_zeta / delta_chi
    return MetricRow(source=source, alpha=alpha, lam=lam, epsilon=epsilon,
                     gamma=gamma, spot_fraction=report.spot_fraction, zeta=zeta,
                     chi=chi, zeta_riskfree=riskfree, delta_zeta=delta_zeta,
                     delta_chi=delta_chi, rho=rho)


def metric_row(instance: MarketInstance, scenarios: ScenarioSet,
               config: FormulationConfig, gamma: float,
               report: AllocationReport | None = None,
               riskfree: float | None | object = _SOLVE) -> MetricRow:
    """Metrics of one solved model at one gamma; solves on demand.

    riskfree is risk_free_profit's result, None included; left out, it is
    solved for here."""
    if report is None:
        report = solve_allocation(instance, scenarios, config)
    if riskfree is _SOLVE:
        riskfree = risk_free_profit(instance, scenarios)
    alpha = config.alpha if config.kind == CVAR else None
    lam = config.lam if config.kind == CVAR else None
    epsilon = config.epsilon if config.kind == DRO else None
    return _row_from_report(report, gamma, riskfree, config.kind,
                            alpha=alpha, lam=lam, epsilon=epsilon)


def sweep(instance: MarketInstance, scenarios: ScenarioSet, *,
          alphas=(), lam: float = 0.1, epsilons=(), q_matrix=None,
          dro_penalty: str = PER_SCENARIO, gammas=(0.9,),
          failures: list | None = None) -> list[MetricRow]:
    """Solve the grid and tabulate rows, sorted by ascending spot_fraction as
    written to the CSV (9 significant digits), then by source, alpha, epsilon
    and gamma.

    The risk-neutral anchor is always included.  Grid points alpha = 1.0 and
    epsilon = 0.0 coincide with the risk-neutral model by definition and
    reuse its solution, so their rows match the anchor exactly.

    When a list is passed as ``failures``, a grid point whose solve fails is
    skipped and a record appended instead of raising; an anchor failure
    always raises, since no row can be computed without it.

    The points of one grid differ only in the objective: alpha and lambda
    (CVaR) or epsilon (robust) appear nowhere else.  So one program is
    built per grid, at its first solved point, and each later point
    re-prices it (formulations.reprice) into a program of its own over the
    same rows, whose equality-form matrix the simplex computes once.  Each
    point's simplex starts from the previous point's final basis, which is
    primal feasible there, and skips the dual phase.  The CVaR and robust
    LPs append columns and rows to the risk-neutral one, which is their
    leading block, so the first point of each grid starts from the anchor's
    final basis.  The anchor and the point after a failure start cold.  The
    rows equal those of cold solves.
    """
    if epsilons and q_matrix is None:
        raise ParameterOutOfRange("an epsilon grid requires a q matrix")
    # every point's config is made, and so checked, before any solve; the
    # points that reuse the anchor have none
    points = (
        [((CVAR, float(alpha), float(lam), None),
          None if alpha == 1.0 else FormulationConfig(kind=CVAR, alpha=alpha, lam=lam),
          {"source": CVAR, "alpha": float(alpha), "lambda": float(lam)})
         for alpha in alphas]
        + [((DRO, None, None, float(epsilon)),
            None if epsilon == 0.0 else FormulationConfig(
                kind=DRO, epsilon=float(epsilon), q_matrix=q_matrix, dro_penalty=dro_penalty),
            {"source": DRO, "epsilon": float(epsilon)})
           for epsilon in epsilons])

    riskfree = risk_free_profit(instance, scenarios)
    anchor = FormulationConfig(kind=RISK_NEUTRAL)
    lp, vm = build(instance, scenarios, anchor)
    solution = solve(lp)
    neutral = extract_report(instance, scenarios, anchor, vm, solution)
    anchor_basis = solution.basis
    del lp, vm, solution  # only the basis is kept through the grids
    solved = [(RISK_NEUTRAL, None, None, None, neutral)]
    kind = RISK_NEUTRAL  # of the program last built
    for key, config, record in points:
        if config is None:
            solved.append((*key, neutral))
            continue
        if config.kind != kind:  # the first point of a grid
            kind, start = config.kind, anchor_basis
            lp, vm = build(instance, scenarios, config)
        else:
            lp = reprice(lp, vm, scenarios, config)
        try:
            solution = solve(lp, start=start)
            solved.append((*key, extract_report(instance, scenarios, config, vm, solution)))
            start = solution.basis
        except (SolveFailed, NumericalFailure) as exc:
            if failures is None:
                raise
            status = getattr(exc, "status", "numerical")
            failures.append(dict(record, status=status, message=str(exc)))
            start = None

    rows = []
    for source, alpha, lam_out, epsilon, report in solved:
        for gamma in gammas:
            rows.append(_row_from_report(report, float(gamma), riskfree, source,
                                         alpha=alpha, lam=lam_out, epsilon=epsilon))
    rows.sort(key=lambda r: (float(_cell(r.spot_fraction)), r.source,
                             r.alpha or 0.0, r.epsilon or 0.0, r.gamma))
    return rows


def _cell(value) -> str:
    if value is None:
        return ""
    return f"{value:.9g}"


def write_metrics_csv(rows, path) -> None:
    """Write rows with the fixed header; 9 significant digits, empty cell for
    an undefined value."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([
                row.source, _cell(row.alpha), _cell(row.lam), _cell(row.epsilon),
                _cell(row.gamma), _cell(row.spot_fraction), _cell(row.zeta),
                _cell(row.chi), _cell(row.zeta_riskfree), _cell(row.delta_zeta),
                _cell(row.delta_chi), _cell(row.rho),
            ])


TRADEOFF_HEADER = ("spot_fraction", "delta_zeta", "delta_chi", "rho",
                   "source", "alpha", "epsilon", "gamma")


def write_tradeoff_csv(rows, path) -> None:
    """Reward-to-risk projection of the sweep, one point per row, ordered by
    ascending spot exposure for direct plotting."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRADEOFF_HEADER)
        for row in rows:
            writer.writerow([
                _cell(row.spot_fraction), _cell(row.delta_zeta),
                _cell(row.delta_chi), _cell(row.rho), row.source,
                _cell(row.alpha), _cell(row.epsilon), _cell(row.gamma),
            ])
