"""Command line front end.

Subcommands:

    solve      solve one allocation model and emit report.json
    sweep      solve an alpha/epsilon grid and emit metrics.csv,
               tradeoff.csv and failures.json
    prepare    turn a raw price CSV into scenarios.json, q.json and
               prep_summary.json
    validate   check an instance (and optionally a scenario set)

Every subcommand accepts --config pointing at a JSON file whose keys mirror
the long flag names (underscores for hyphens, "lambda" for --lambda);
explicit flags win over config values.  Outputs are deterministic byte for
byte for a fixed seed and input files.

Exit codes: 0 success, 2 bad input, 3 solver failure.  Any failure prints a
single JSON object to stderr, e.g. {"error": "io", "message": "..."}.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import formulations, metrics
from .domain import (MarketInstance, ScenarioSet, instance_from_dict,
                     load_scenarios, save_scenarios, validate_instance,
                     validate_scenarios)
from .linprog import NumericalFailure
from .pipeline import (MissingObservation, NotPositiveDefinite, ParseError,
                       estimate_q, ingest_lmp_csv, kmeans_reduce, knee_point,
                       scenarios_from_representatives)

MAX_AUTO_K = 10

# config-file key -> argparse dest (identity unless the dest cannot match)
CONFIG_KEYS = {
    "instance": "instance", "scenarios": "scenarios", "raw_csv": "raw_csv",
    "columns": "columns", "k": "k", "kind": "kind", "alpha": "alpha",
    "lambda": "lam", "epsilon": "epsilon", "q": "q",
    "dro_penalty": "dro_penalty", "gamma": "gamma",
    "alpha_grid": "alpha_grid", "epsilon_grid": "epsilon_grid",
    "out": "out", "seed": "seed",
}


class CliError(Exception):
    """Carries the machine-readable error payload and exit code."""

    def __init__(self, kind: str, message: str, exit_code: int = 2, **extra):
        super().__init__(message)
        self.kind = kind
        self.exit_code = exit_code
        self.extra = extra

    def payload(self) -> dict:
        doc = {"error": self.kind, "message": str(self)}
        doc.update(self.extra)
        return doc


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would print usage and exit itself
        raise CliError("usage", message)


def _dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(doc) -> None:
    sys.stdout.write(_dump(doc))


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError("io", f"cannot write {path}: {exc}") from exc


def _load_json(path, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise CliError("io", f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError("parse", f"{what} {path} is not valid JSON: {exc}") from exc


def _load_instance(path) -> MarketInstance:
    if path is None:
        raise CliError("usage", "--instance is required")
    doc = _load_json(path, "instance")
    try:
        instance = instance_from_dict(doc)
    except (ValueError, TypeError) as exc:
        raise CliError("parse", f"instance {path}: {exc}") from exc
    problems = validate_instance(instance)
    if problems:
        raise CliError("data", f"instance {path} is invalid", problems=problems)
    return instance


def _read_scenarios(path) -> ScenarioSet:
    try:
        return load_scenarios(path)
    except OSError as exc:
        raise CliError("io", f"cannot read scenarios {path}: {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise CliError("parse", f"scenarios {path}: {exc}") from exc


def _load_scenario_set(path, instance: MarketInstance) -> ScenarioSet:
    if path is None:
        raise CliError("usage", "--scenarios is required")
    scenarios = _read_scenarios(path)
    problems = validate_scenarios(instance, scenarios)
    if problems:
        raise CliError("data", f"scenarios {path} do not fit the instance",
                       problems=problems)
    return scenarios


def _load_q(path, instance: MarketInstance) -> np.ndarray:
    doc = _load_json(path, "q file")
    if "q" not in doc:
        raise CliError("parse", f"q file {path} has no 'q' entry")
    q = np.asarray(doc["q"], dtype=float)
    n_m = len(instance.markets)
    if q.shape != (n_m, n_m):
        raise CliError("data", f"q file {path}: expected a {n_m}x{n_m} matrix, "
                               f"got shape {list(q.shape)}")
    order = doc.get("markets")
    if order is not None:
        if sorted(order) != sorted(instance.markets):
            raise CliError("data", f"q file {path} covers markets {order}, "
                                   f"instance has {list(instance.markets)}")
        # row m of q belongs to market order[m]; align rows with the instance
        perm = [order.index(m) for m in instance.markets]
        q = q[perm, :]
    return q


def _parse_float_list(text, flag: str) -> tuple[float, ...]:
    if isinstance(text, (list, tuple)):
        values = list(text)
    else:
        values = [v for v in str(text).split(",") if v.strip() != ""]
    try:
        return tuple(float(v) for v in values)
    except (TypeError, ValueError):
        raise CliError("usage", f"{flag} expects comma-separated numbers, "
                                f"got {text!r}") from None


def _parse_columns(value) -> dict:
    if value is None:
        return {}
    if isinstance(value, dict):
        return {str(k): str(v) for k, v in value.items()}
    mapping = {}
    for part in str(value).split(","):
        if not part.strip():
            continue
        key, eq, name = part.partition("=")
        if not eq or not key.strip() or not name.strip():
            raise CliError("usage", f"--columns expects key=value pairs, got {part!r}")
        mapping[key.strip()] = name.strip()
    unknown = set(mapping) - {"timestamp", "node", "price", "system"}
    if unknown:
        raise CliError("usage", f"--columns has unknown keys {sorted(unknown)}")
    return mapping


def _gammas(args) -> tuple[float, ...]:
    raw = args.gamma if args.gamma is not None else "0.9"
    gammas = _parse_float_list(raw, "--gamma")
    for g in gammas:
        if not 0.0 <= g < 1.0:
            raise CliError("usage", f"--gamma values must lie in [0, 1), got {g}")
    return gammas


def _out_dir(args, required: bool = True) -> Path | None:
    if args.out is None:
        if required:
            raise CliError("usage", "--out is required")
        return None
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError("io", f"cannot create output directory {out}: {exc}") from exc
    return out


def _apply_config(args) -> None:
    if args.config is None:
        return
    doc = _load_json(args.config, "config")
    if not isinstance(doc, dict):
        raise CliError("parse", f"config {args.config} must be a JSON object")
    unknown = set(doc) - set(CONFIG_KEYS)
    if unknown:
        raise CliError("usage", f"config has unknown keys {sorted(unknown)}")
    for key, value in doc.items():
        dest = CONFIG_KEYS[key]
        if hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, value)


# ----------------------------------------------------------------------
# report serialization

def _report_dict(report: formulations.AllocationReport) -> dict:
    config = report.config
    doc = {
        "kind": config.kind,
        "status": report.status,
        "objective_value": float(report.objective_value),
        "expected_profit": float(report.expected_profit),
        "spot_volume": float(report.spot_volume),
        "production_volume": float(report.production_volume),
        "spot_fraction": float(report.spot_fraction),
        "probabilities": report.probabilities.tolist(),
        "profits": report.profits.tolist(),
        "commitments": {m: v.tolist() for m, v in sorted(report.commitments.items())},
        "term_dispatch": {m: v.tolist() for m, v in sorted(report.term_dispatch.items())},
        "spot_dispatch": {m: v.tolist() for m, v in sorted(report.spot_dispatch.items())},
        "production": report.production.tolist(),
        "transport": {m: v.tolist() for m, v in sorted(report.transport.items())},
    }
    if config.kind == formulations.CVAR:
        doc["alpha"] = float(config.alpha)
        doc["lambda"] = float(config.lam)
        doc["var_threshold"] = (None if report.var_threshold is None
                                else float(report.var_threshold))
    if config.kind == formulations.DRO:
        doc["epsilon"] = float(config.epsilon)
        doc["dro_penalty"] = config.dro_penalty
    return doc


def _metric_dict(row: metrics.MetricRow) -> dict:
    return {
        "gamma": row.gamma,
        "zeta": row.zeta,
        "chi": row.chi,
        "zeta_riskfree": row.zeta_riskfree,
        "delta_zeta": row.delta_zeta,
        "delta_chi": row.delta_chi,
        "rho": row.rho,
    }


# ----------------------------------------------------------------------
# subcommands

def _cmd_solve(args) -> int:
    instance = _load_instance(args.instance)
    scenarios = _load_scenario_set(args.scenarios, instance)
    gammas = _gammas(args)
    kind = args.kind or formulations.RISK_NEUTRAL
    q = None
    if kind == formulations.DRO:
        if args.q is None:
            raise CliError("usage", "--kind dro requires --q")
        q = _load_q(args.q, instance)
    try:
        config = formulations.FormulationConfig(
            kind=kind,
            alpha=float(args.alpha) if args.alpha is not None else 0.95,
            lam=float(args.lam) if args.lam is not None else 0.1,
            epsilon=float(args.epsilon) if args.epsilon is not None else 0.0,
            q_matrix=q,
            dro_penalty=args.dro_penalty or formulations.PER_SCENARIO,
        )
    except (formulations.ParameterOutOfRange, ValueError) as exc:
        raise CliError("usage", str(exc)) from exc
    out = _out_dir(args, required=False)
    try:
        report = formulations.solve_allocation(instance, scenarios, config)
        riskfree = metrics.risk_free_profit(instance, scenarios)
    except (formulations.SolveFailed, NumericalFailure) as exc:
        raise CliError("solver", str(exc), exit_code=3,
                       status=getattr(exc, "status", "numerical")) from exc
    doc = _report_dict(report)
    doc["metrics"] = [_metric_dict(metrics.metric_row(
        instance, scenarios, config, g, report=report, riskfree=riskfree))
        for g in gammas]
    text = _dump(doc)
    sys.stdout.write(text)
    if out is not None:
        _write(out / "report.json", text)
    return 0


def _cmd_sweep(args) -> int:
    instance = _load_instance(args.instance)
    scenarios = _load_scenario_set(args.scenarios, instance)
    gammas = _gammas(args)
    alphas = _parse_float_list(args.alpha_grid, "--alpha-grid") if args.alpha_grid else ()
    epsilons = (_parse_float_list(args.epsilon_grid, "--epsilon-grid")
                if args.epsilon_grid else ())
    lam = float(args.lam) if args.lam is not None else 0.1
    q = _load_q(args.q, instance) if args.q is not None else None
    out = _out_dir(args)
    failures: list[dict] = []
    try:
        rows = metrics.sweep(
            instance, scenarios, alphas=alphas, lam=lam, epsilons=epsilons,
            q_matrix=q, dro_penalty=args.dro_penalty or formulations.PER_SCENARIO,
            gammas=gammas, failures=failures)
    except formulations.ParameterOutOfRange as exc:
        raise CliError("usage", str(exc)) from exc
    except (formulations.SolveFailed, NumericalFailure) as exc:
        raise CliError("solver", str(exc), exit_code=3,
                       status=getattr(exc, "status", "numerical")) from exc
    try:
        metrics.write_metrics_csv(rows, out / "metrics.csv")
        metrics.write_tradeoff_csv(rows, out / "tradeoff.csv")
    except OSError as exc:
        raise CliError("io", f"cannot write into {out}: {exc}") from exc
    _write(out / "failures.json", _dump(failures))
    _emit({"rows": len(rows), "failures": len(failures), "out": str(out)})
    return 0


def _whole_number(value, flag: str, alternative: str = "") -> int:
    """A non-negative integer given as a JSON integer (a bool is not one) or
    as its decimal digits on the command line."""
    if isinstance(value, str) and value.isascii() and value.isdigit():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
        return value
    raise CliError("usage", f"{flag} expects a non-negative integer{alternative}, got {value!r}")


def _cmd_prepare(args) -> int:
    instance = _load_instance(args.instance)
    if args.raw_csv is None:
        raise CliError("usage", "--raw-csv is required")
    seed = _whole_number(args.seed, "--seed") if args.seed is not None else 0
    raw_k = args.k if args.k is not None else "auto"
    fixed_k = None if raw_k == "auto" else _whole_number(raw_k, "--k", " or 'auto'")
    columns = _parse_columns(args.columns)
    out = _out_dir(args)
    try:
        history = ingest_lmp_csv(args.raw_csv, column_map=columns or None)
    except OSError as exc:
        raise CliError("io", f"cannot read {args.raw_csv}: {exc}") from exc
    except ParseError as exc:
        raise CliError("parse", str(exc), line=exc.line) from exc
    except MissingObservation as exc:
        raise CliError("data", str(exc)) from exc

    missing = [m for m in instance.markets if m not in history.nodes]
    if missing:
        raise CliError("data", f"price history has no node for markets {missing}; "
                               f"available nodes: {list(history.nodes)}")
    cols = [history.nodes.index(m) for m in instance.markets]
    matrix = history.nodal[:, cols]
    n_obs = matrix.shape[0]

    if fixed_k is None:
        ks = list(range(1, min(MAX_AUTO_K, n_obs) + 1))
        runs = [kmeans_reduce(matrix, k, seed=seed) for k in ks]
        chosen_k = knee_point(ks, [run.inertia for run in runs])
        reduced = runs[ks.index(chosen_k)]  # k-means is deterministic: no second run
        curve = [[k, run.inertia] for k, run in zip(ks, runs)]
        k_mode = "auto"
    else:
        chosen_k = fixed_k
        if not 1 <= chosen_k <= n_obs:
            raise CliError("data", f"--k must lie in 1..{n_obs}, got {chosen_k}")
        reduced = kmeans_reduce(matrix, chosen_k, seed=seed)
        curve = [[chosen_k, reduced.inertia]]
        k_mode = "fixed"

    try:
        estimate = estimate_q(matrix, history.system)
    except (NotPositiveDefinite, ValueError) as exc:
        raise CliError("data", f"covariance estimation failed: {exc}") from exc
    try:
        scenario_set = scenarios_from_representatives(
            instance, reduced.representatives, reduced.probabilities)
    except ValueError as exc:
        raise CliError("data", str(exc)) from exc
    problems = validate_scenarios(instance, scenario_set)
    if problems:
        raise CliError("data", "prepared scenarios do not fit the instance",
                       problems=problems)

    try:
        save_scenarios(scenario_set, out / "scenarios.json")
    except OSError as exc:
        raise CliError("io", f"cannot write into {out}: {exc}") from exc
    _write(out / "q.json", _dump({
        "markets": list(instance.markets),
        "q": estimate.q.tolist(),
        "sigma": estimate.sigma.tolist(),
        "q_bar": estimate.q_bar.tolist(),
        "jitter": estimate.jitter,
    }))
    summary = {
        "observations": n_obs,
        "nodes": list(history.nodes),
        "markets": list(instance.markets),
        "k": int(chosen_k),
        "k_mode": k_mode,
        "seed": seed,
        "inertia_curve": curve,
        "inertia": reduced.inertia,
        "jitter": estimate.jitter,
        "representative_indices": reduced.representative_indices.tolist(),
        "representative_timestamps": [history.timestamps[i]
                                      for i in reduced.representative_indices],
        "probabilities": reduced.probabilities.tolist(),
    }
    _write(out / "prep_summary.json", _dump(summary))
    _emit(summary)
    return 0


def _cmd_validate(args) -> int:
    instance = _load_instance(args.instance)  # raises on structural problems
    problems = []
    if args.scenarios is not None:
        problems = validate_scenarios(instance, _read_scenarios(args.scenarios))
    if problems:
        raise CliError("data", "validation failed", problems=problems)
    _emit({"ok": True, "problems": []})
    return 0


# ----------------------------------------------------------------------
# argument wiring

def _add_common(sub) -> None:
    sub.add_argument("--config", help="JSON file with defaults for the flags below")
    sub.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spothedge",
                     description="supply allocation over elastic spot staircases")
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="solve one allocation model")
    _add_common(solve)
    solve.add_argument("--instance", help="instance JSON")
    solve.add_argument("--scenarios", help="scenario set JSON")
    solve.add_argument("--kind", choices=formulations.KINDS)
    solve.add_argument("--alpha", type=float, help="CVaR tail mass in (0, 1)")
    solve.add_argument("--lambda", dest="lam", type=float,
                       help="CVaR mean weight in [0, 1]")
    solve.add_argument("--epsilon", type=float, help="robustness radius >= 0")
    solve.add_argument("--q", help="q.json with the deviation factor")
    solve.add_argument("--dro-penalty",
                       choices=(formulations.PER_SCENARIO, formulations.PER_PERIOD))
    solve.add_argument("--gamma", help="comma-separated metric tail levels in [0, 1)")
    solve.set_defaults(func=_cmd_solve)

    swp = commands.add_parser("sweep", help="trace the reward-to-risk frontier")
    _add_common(swp)
    swp.add_argument("--instance", help="instance JSON")
    swp.add_argument("--scenarios", help="scenario set JSON")
    swp.add_argument("--alpha-grid", help="comma-separated CVaR alphas in (0, 1]")
    swp.add_argument("--lambda", dest="lam", type=float,
                     help="CVaR mean weight in [0, 1]")
    swp.add_argument("--epsilon-grid", help="comma-separated radii >= 0")
    swp.add_argument("--q", help="q.json with the deviation factor")
    swp.add_argument("--dro-penalty",
                     choices=(formulations.PER_SCENARIO, formulations.PER_PERIOD))
    swp.add_argument("--gamma", help="comma-separated metric tail levels in [0, 1)")
    swp.set_defaults(func=_cmd_sweep)

    prep = commands.add_parser("prepare", help="reduce a price CSV into scenarios")
    _add_common(prep)
    prep.add_argument("--instance", help="instance JSON (markets + elasticity)")
    prep.add_argument("--raw-csv", help="long-format price history CSV")
    prep.add_argument("--columns",
                      help="rename CSV columns: timestamp=...,node=...,price=...,system=...")
    prep.add_argument("--k", help="cluster count, or 'auto' for knee selection")
    prep.add_argument("--seed", help="clustering seed, a non-negative integer (default 0)")
    prep.set_defaults(func=_cmd_prepare)

    val = commands.add_parser("validate", help="check instance and scenario files")
    _add_common(val)
    val.add_argument("--instance", help="instance JSON")
    val.add_argument("--scenarios", help="scenario set JSON")
    val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(args)
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(json.dumps(exc.payload(), sort_keys=True) + "\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
