"""Command line front end.

Subcommands:

    solve      solve one allocation model and emit report.json
    sweep      solve an alpha/epsilon grid and emit metrics.csv,
               tradeoff.csv and failures.json
    prepare    turn a raw price CSV into scenarios.json, q.json and
               prep_summary.json
    validate   check an instance (and optionally a scenario set)

Every subcommand accepts --config pointing at a JSON object of flag values.
Each entry is parsed as the flag --key=value it names (underscores for
hyphens), ahead of the command line, so explicit flags win: a list is
joined with commas, an object becomes key=value pairs, null is skipped and
another subcommand's flag is ignored.  The model's defaults live in
FormulationConfig and metrics.sweep, the CLI's own in argparse.  Outputs
are deterministic byte for byte for a fixed seed and input files.
prepare runs one k-means scan (pipeline.kmeans_scan) and takes the knee of
its inertia curve: --k auto scans k = 1..10 in forked workers, one per CPU,
and the outputs do not depend on how many; a fixed --k N is a one-point
curve, run in the process itself, whose knee is N.

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
from .pipeline import (DEFAULT_COLUMNS, MissingObservation, NotPositiveDefinite,
                       ParseError, estimate_q, ingest_lmp_csv, kmeans_reduce,
                       kmeans_scan, knee_point, scenarios_from_representatives)

MAX_AUTO_K = 10


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
    except ValueError as exc:  # not JSON, or not UTF-8
        raise CliError("parse", f"{what} {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CliError("parse", f"{what} {path} nests too deeply: {exc}") from exc


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
    except (ValueError, TypeError, RecursionError) as exc:
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
    if not isinstance(doc, dict):
        raise CliError("parse", f"q file {path} must be a JSON object")
    if "q" not in doc:
        raise CliError("parse", f"q file {path} has no 'q' entry")
    try:
        q = np.asarray(doc["q"], dtype=float)
    except (ValueError, TypeError, OverflowError) as exc:  # text, ragged rows, 10**400
        raise CliError("parse", f"q file {path}: 'q' is not a matrix of numbers: "
                                f"{exc}") from exc
    n_m = len(instance.markets)
    if q.shape != (n_m, n_m):
        raise CliError("data", f"q file {path}: expected a {n_m}x{n_m} matrix, "
                               f"got shape {list(q.shape)}")
    if not np.isfinite(q).all():
        raise CliError("data", f"q file {path}: the matrix holds non-finite entries")
    order = doc.get("markets")
    if order is not None:
        if not (isinstance(order, list) and all(isinstance(m, str) for m in order)):
            raise CliError("parse", f"q file {path}: 'markets' must be a list of names")
        if sorted(order) != sorted(instance.markets):
            raise CliError("data", f"q file {path} covers markets {order}, "
                                   f"instance has {list(instance.markets)}")
        # row m of q belongs to market order[m]; align rows with the instance
        perm = [order.index(m) for m in instance.markets]
        q = q[perm, :]
    return q


def _file_name(text: str) -> str:
    """A name open() takes without a ValueError: no NUL byte, and nothing
    the file system encoding cannot hold (a config entry can carry both)."""
    try:
        if "\0" not in text:
            text.encode(sys.getfilesystemencoding(), sys.getfilesystemencodeerrors())
            return text
    except UnicodeEncodeError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not a file name")


def _numbers(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects comma-separated numbers, got {text!r}") from None


def _gammas(text: str) -> tuple[float, ...]:
    gammas = _numbers(text)
    if not gammas:
        raise argparse.ArgumentTypeError("expects at least one value")
    for g in gammas:
        if not 0.0 <= g < 1.0:
            raise argparse.ArgumentTypeError(f"values must lie in [0, 1), got {g}")
    return gammas


def _whole_number(text: str) -> int:
    if text.isascii() and text.isdigit():
        return int(text)
    raise argparse.ArgumentTypeError(f"expects a non-negative integer, got {text!r}")


def _cluster_count(text: str) -> int | None:
    """None for 'auto' (knee selection), else a fixed count."""
    return None if text == "auto" else _whole_number(text)


def _columns(text: str) -> dict:
    mapping = {}
    for part in text.split(","):
        if not part.strip():
            continue
        key, eq, name = part.partition("=")
        if not eq or not key.strip() or not name.strip():
            raise argparse.ArgumentTypeError(f"expects key=value pairs, got {part!r}")
        mapping[key.strip()] = name.strip()
    unknown = set(mapping) - set(DEFAULT_COLUMNS)
    if unknown:
        raise argparse.ArgumentTypeError(f"has unknown keys {sorted(unknown)}")
    return mapping


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


def _config_text(value) -> str:
    """A config entry's value as it would follow --key= on the command line."""
    def scalar(item):
        return item if isinstance(item, str) else json.dumps(item)
    if isinstance(value, list):
        return ",".join(map(scalar, value))
    if isinstance(value, dict):
        return ",".join(f"{key}={scalar(item)}" for key, item in value.items())
    return scalar(value)


def _with_config(parser, args, argv: list[str]) -> list[str]:
    """argv with the config file's entries put in as --key=value tokens
    right after the subcommand, so that the flags after them win."""
    doc = _load_json(args.config, "config")
    if not isinstance(doc, dict):
        raise CliError("parse", f"config {args.config} must be a JSON object")
    (commands,) = parser._subparsers._group_actions  # argparse keeps no public index
    flags = {name: set(sub._option_string_actions) for name, sub in commands.choices.items()}
    tokens, unknown = [], []
    for key, value in doc.items():
        flag = "--" + key.replace("_", "-")
        if flag in flags[args.command]:
            if value is not None:
                tokens.append(f"{flag}={_config_text(value)}")
        elif not any(flag in known for known in flags.values()):
            unknown.append(key)
    if unknown:
        raise CliError("usage", f"config has unknown keys {sorted(unknown)}")
    at = argv.index(args.command) + 1
    return [*argv[:at], *tokens, *argv[at:]]


def _given(args, *names) -> dict:
    """The named model parameters that were given; the model states the
    defaults of the others."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


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
    q = None
    if args.kind == formulations.DRO:
        if args.q is None:
            raise CliError("usage", "--kind dro requires --q")
        q = _load_q(args.q, instance)
    config = formulations.FormulationConfig(
        q_matrix=q, **_given(args, "kind", "alpha", "lam", "epsilon", "dro_penalty"))
    out = _out_dir(args, required=False)
    report = formulations.solve_allocation(instance, scenarios, config)
    riskfree = metrics.risk_free_profit(instance, scenarios)
    doc = _report_dict(report)
    doc["metrics"] = [_metric_dict(metrics.metric_row(report, g, riskfree))
                      for g in args.gamma]
    text = _dump(doc)
    sys.stdout.write(text)
    if out is not None:
        _write(out / "report.json", text)
    return 0


def _cmd_sweep(args) -> int:
    instance = _load_instance(args.instance)
    scenarios = _load_scenario_set(args.scenarios, instance)
    q = _load_q(args.q, instance) if args.q is not None else None
    out = _out_dir(args)
    failures: list[dict] = []
    rows = metrics.sweep(
        instance, scenarios, alphas=args.alpha_grid, epsilons=args.epsilon_grid,
        q_matrix=q, gammas=args.gamma, failures=failures,
        **_given(args, "lam", "dro_penalty"))
    try:
        metrics.write_metrics_csv(rows, out / "metrics.csv")
        metrics.write_tradeoff_csv(rows, out / "tradeoff.csv")
    except OSError as exc:
        raise CliError("io", f"cannot write into {out}: {exc}") from exc
    _write(out / "failures.json", _dump(failures))
    _emit({"rows": len(rows), "failures": len(failures), "out": str(out)})
    return 0


def _cmd_prepare(args) -> int:
    instance = _load_instance(args.instance)
    if args.raw_csv is None:
        raise CliError("usage", "--raw-csv is required")
    out = _out_dir(args)
    try:
        history = ingest_lmp_csv(args.raw_csv, column_map=args.columns or None)
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

    if args.k is None:
        ks = list(range(1, min(MAX_AUTO_K, n_obs) + 1))
    elif 1 <= args.k <= n_obs:
        ks = [args.k]  # a one-point curve: one run, no fork, and its knee
    else:
        raise CliError("data", f"--k must lie in 1..{n_obs}, got {args.k}")
    # through this module's name, so that a caller can wrap every run
    runs = kmeans_scan(matrix, ks, args.seed, kmeans_reduce)
    chosen_k = knee_point(ks, [runs[k].inertia for k in ks])
    reduced = runs[chosen_k]  # k-means is deterministic: no second run
    curve = [[k, runs[k].inertia] for k in ks]

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
        "k_mode": "auto" if args.k is None else "fixed",
        "seed": args.seed,
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

def _add_common(sub, func) -> None:
    sub.add_argument("--config", help="JSON file of flag values, read as --key=value; "
                                      "flags given here win")
    sub.add_argument("--out", type=_file_name, help="output directory")
    sub.add_argument("--instance", type=_file_name, help="instance JSON")
    sub.set_defaults(func=func)


def _add_model_flags(sub) -> None:
    """The flags that solve and sweep share."""
    sub.add_argument("--scenarios", type=_file_name, help="scenario set JSON")
    sub.add_argument("--lambda", dest="lam", type=float, help="CVaR mean weight in [0, 1]")
    sub.add_argument("--q", type=_file_name, help="q.json with the deviation factor")
    sub.add_argument("--dro-penalty",
                     choices=(formulations.PER_SCENARIO, formulations.PER_PERIOD))
    sub.add_argument("--gamma", type=_gammas, default="0.9",
                     help="comma-separated metric tail levels in [0, 1) (default 0.9)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spothedge",
                     description="supply allocation over elastic spot staircases")
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="solve one allocation model")
    _add_common(solve, _cmd_solve)
    _add_model_flags(solve)
    solve.add_argument("--kind", choices=formulations.KINDS)
    solve.add_argument("--alpha", type=float, help="CVaR tail mass in (0, 1)")
    solve.add_argument("--epsilon", type=float, help="finite robustness radius >= 0")

    swp = commands.add_parser("sweep", help="trace the reward-to-risk frontier")
    _add_common(swp, _cmd_sweep)
    _add_model_flags(swp)
    swp.add_argument("--alpha-grid", type=_numbers, default=(),
                     help="comma-separated CVaR alphas in (0, 1]")
    swp.add_argument("--epsilon-grid", type=_numbers, default=(),
                     help="comma-separated finite radii >= 0")

    prep = commands.add_parser("prepare", help="reduce a price CSV into scenarios")
    _add_common(prep, _cmd_prepare)
    prep.add_argument("--raw-csv", type=_file_name, help="long-format price history CSV")
    prep.add_argument("--columns", type=_columns,
                      help="rename CSV columns: timestamp=...,node=...,price=...,system=...")
    prep.add_argument("--k", type=_cluster_count, default="auto",
                      help="cluster count, a non-negative integer, or 'auto' for knee "
                           "selection (default)")
    prep.add_argument("--seed", type=_whole_number, default=0,
                      help="clustering seed, a non-negative integer (default 0)")

    val = commands.add_parser("validate", help="check instance and scenario files")
    _add_common(val, _cmd_validate)
    val.add_argument("--scenarios", type=_file_name, help="scenario set JSON")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            args = parser.parse_args(_with_config(parser, args, argv))
        return args.func(args)
    except formulations.ParameterOutOfRange as exc:  # raised by solve and sweep
        error = CliError("usage", str(exc))
    except (formulations.SolveFailed, NumericalFailure) as exc:
        error = CliError("solver", str(exc), exit_code=3,
                         status=getattr(exc, "status", "numerical"))
    except CliError as exc:
        error = exc
    sys.stderr.write(json.dumps(error.payload(), sort_keys=True) + "\n")
    return error.exit_code


if __name__ == "__main__":
    sys.exit(main())
