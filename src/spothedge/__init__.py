"""Supply allocation across term contracts and elastic spot staircases.

Core pieces:

* domain        immutable instance/scenario types, validators, JSON I/O
* linprog       bounded-variable LP container and solution types
* simplex       dual-then-primal revised simplex over bounded variables
* formulations  risk-neutral, CVaR and robust allocation models
* metrics       reward-to-risk metrics and parameter sweeps
* pipeline      raw price CSV -> reduced scenarios and deviation factor
* cli           spothedge solve | sweep | prepare | validate
"""

from .domain import (Contract, ElasticityCurve, MarketInstance, ScenarioSet,
                     SupplyStep, load_instance, load_scenarios, save_instance,
                     save_scenarios, validate_instance, validate_scenarios)
from .formulations import (AllocationReport, ConsistencyError,
                           DimensionMismatch, FormulationConfig,
                           InfeasibleStructure, ParameterOutOfRange,
                           SolveFailed, build_cvar, build_dro,
                           build_risk_neutral, extract_report,
                           solve_allocation)
from .linprog import (INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram,
                      LpSolution, NumericalFailure)
from .metrics import (DegenerateTail, MetricRow, empirical_cvar, metric_row,
                      risk_free_profit, sweep, write_metrics_csv,
                      write_tradeoff_csv)
from .pipeline import (MissingObservation, NotPositiveDefinite,
                       ParseError, PriceHistory,
                       QEstimate, ReducedScenarios, estimate_q,
                       factor_covariance, ingest_lmp_csv, kmeans_reduce,
                       knee_point, scenarios_from_representatives)
from .simplex import solve

__version__ = "0.1.0"

__all__ = [
    "AllocationReport", "ConsistencyError", "Contract", "DegenerateTail",
    "DimensionMismatch", "ElasticityCurve", "FormulationConfig", "INFEASIBLE",
    "InfeasibleStructure", "LinearProgram", "LpSolution", "MarketInstance",
    "MetricRow", "MissingObservation", "NotPositiveDefinite",
    "NumericalFailure", "OPTIMAL", "ParameterOutOfRange", "ParseError",
    "PriceHistory", "QEstimate", "ReducedScenarios", "ScenarioSet",
    "SolveFailed", "SupplyStep", "UNBOUNDED", "build_cvar", "build_dro",
    "build_risk_neutral", "empirical_cvar", "estimate_q", "extract_report",
    "factor_covariance", "ingest_lmp_csv", "kmeans_reduce", "knee_point",
    "load_instance", "load_scenarios", "metric_row", "risk_free_profit",
    "save_instance", "save_scenarios", "scenarios_from_representatives",
    "solve", "solve_allocation", "sweep", "validate_instance",
    "validate_scenarios", "write_metrics_csv", "write_tradeoff_csv",
]
