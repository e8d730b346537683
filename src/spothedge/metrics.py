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
from dataclasses import dataclass, replace

import numpy as np

from .domain import PROBABILITY_TOL, MarketInstance, ScenarioSet
from .formulations import (
    CVAR,
    DRO,
    NEUTRAL,
    PER_SCENARIO,
    AllocationReport,
    FormulationConfig,
    ParameterOutOfRange,
    SolveFailed,
    build,
    build_risk_neutral,
    extract_report,
    reprice,
)
from .linprog import INFEASIBLE, NumericalFailure
from .simplex import solve

RHO_FLOOR = 1e-9

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
    if remaining > PROBABILITY_TOL:  # the shortfall validate_scenarios allows
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
    return extract_report(instance, first, NEUTRAL, vm, solution).objective_value


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


def metric_row(report: AllocationReport, gamma: float,
               riskfree: float | None) -> MetricRow:
    """Metrics of one solved model at one gamma, labelled with its config;
    riskfree is risk_free_profit's result, None included."""
    config = report.config
    zeta = report.expected_profit
    chi = empirical_cvar(report.profits, report.probabilities, gamma)
    delta_zeta = delta_chi = rho = None
    if riskfree is not None:
        delta_zeta = zeta - riskfree
        delta_chi = abs(chi - riskfree)
        if delta_chi >= RHO_FLOOR * max(1.0, abs(riskfree)):
            rho = delta_zeta / delta_chi
    return MetricRow(source=config.kind,
                     alpha=config.alpha if config.kind == CVAR else None,
                     lam=config.lam if config.kind == CVAR else None,
                     epsilon=config.epsilon if config.kind == DRO else None,
                     gamma=gamma, spot_fraction=report.spot_fraction, zeta=zeta,
                     chi=chi, zeta_riskfree=riskfree, delta_zeta=delta_zeta,
                     delta_chi=delta_chi, rho=rho)


def sweep(instance: MarketInstance, scenarios: ScenarioSet, *,
          alphas=(), lam: float = 0.1, epsilons=(), q_matrix=None,
          dro_penalty: str = PER_SCENARIO, gammas=(0.9,),
          failures: list | None = None) -> list[MetricRow]:
    """Solve the grid and tabulate rows, sorted by ascending spot_fraction as
    written to the CSV (9 significant digits), then by source, alpha, epsilon
    and gamma.

    The risk-neutral anchor is always included.  Grid points alpha = 1.0 and
    epsilon = 0.0 coincide with the risk-neutral model by definition: their
    rows are the anchor's, relabelled.

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
    # points that are the anchor's model have none, only their row labels
    points = (
        [(None if alpha == 1.0 else FormulationConfig(kind=CVAR, alpha=float(alpha),
                                                      lam=float(lam)),
          {"source": CVAR, "alpha": float(alpha), "lam": float(lam)})
         for alpha in alphas]
        + [(None if epsilon == 0.0 else FormulationConfig(
                kind=DRO, epsilon=float(epsilon), q_matrix=q_matrix, dro_penalty=dro_penalty),
            {"source": DRO, "epsilon": float(epsilon)})
           for epsilon in epsilons])

    riskfree = risk_free_profit(instance, scenarios)

    def rows_of(report):
        return [metric_row(report, float(gamma), riskfree) for gamma in gammas]

    lp, vm = build(instance, scenarios, NEUTRAL)
    solution = solve(lp)
    anchor_rows = rows_of(extract_report(instance, scenarios, NEUTRAL, vm, solution))
    anchor_basis = solution.basis
    del lp, vm, solution  # only the basis is kept through the grids
    rows = list(anchor_rows)
    kind = NEUTRAL.kind  # of the program last built
    for config, labels in points:
        if config is None:
            rows += [replace(row, **labels) for row in anchor_rows]
            continue
        if config.kind != kind:  # the first point of a grid
            kind, start = config.kind, anchor_basis
            lp, vm = build(instance, scenarios, config)
        else:
            lp = reprice(lp, vm, scenarios, config)
        try:
            solution = solve(lp, start=start)
            report = extract_report(instance, scenarios, config, vm, solution)
            start = solution.basis
        except (SolveFailed, NumericalFailure) as exc:
            if failures is None:
                raise
            record = {"lambda" if key == "lam" else key: value
                      for key, value in labels.items()}
            failures.append(dict(record, status=getattr(exc, "status", "numerical"),
                                 message=str(exc)))
            start = None
            continue
        rows += rows_of(report)
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
