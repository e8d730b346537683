"""Correctness checks on the program's outputs, run outside the timed region.

LP objectives are checked against scipy's HiGHS, which is used only here:
it is not a dependency of spothedge.  Prepared scenarios are checked against
the price history the benchmark generated itself.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from spothedge import formulations
from spothedge.domain import load_instance, load_scenarios, scenarios_from_dict
from spothedge.linprog import OPTIMAL, LpSolution

RTOL = 1e-9
CSV_RTOL = 1e-8  # metrics.csv prints 9 significant digits


def agree(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def highs_solve(lp) -> LpSolution | None:
    """Solve a LinearProgram with HiGHS; None unless HiGHS reports optimal."""
    from scipy.optimize import linprog

    a, b, relations = lp.dense()
    rel = np.array(relations)
    upper_rows = rel == "<="
    lower_rows = rel == ">="
    a_ub = np.vstack([a[upper_rows], -a[lower_rows]])
    b_ub = np.concatenate([b[upper_rows], -b[lower_rows]])
    equal = rel == "=="
    lower, upper = lp.bounds_arrays()
    bounds = [(None if math.isinf(lo) else lo, None if math.isinf(hi) else hi)
              for lo, hi in zip(lower, upper)]
    res = linprog(-lp.objective_array(),
                  A_ub=a_ub if a_ub.size else None, b_ub=b_ub if a_ub.size else None,
                  A_eq=a[equal] if equal.any() else None,
                  b_eq=b[equal] if equal.any() else None,
                  bounds=bounds, method="highs")
    if res.status != 0:
        return None
    return LpSolution(status=OPTIMAL, objective=-float(res.fun), values=np.asarray(res.x))


def cross_check_lps(captured) -> list[tuple[int, str]]:
    """(op, problem) for every captured simplex solve HiGHS disagrees with."""
    problems = []
    for op, lp, solution in captured:
        ref = highs_solve(lp)
        if solution.status != OPTIMAL or ref is None:
            problems.append((op, f"simplex status {solution.status}, HiGHS "
                                 f"{'optimal' if ref else 'not optimal'}"))
        elif not agree(solution.objective, ref.objective):
            problems.append((op, f"simplex objective {solution.objective!r} vs "
                                 f"HiGHS {ref.objective!r}"))
    return problems


class Reference:
    """HiGHS optima of the models a workload solves, built from its inputs."""

    def __init__(self, instance_path: Path, scenarios_path: Path, q_path: Path):
        self.instance = load_instance(instance_path)
        self.scenarios = load_scenarios(scenarios_path)
        self.q = np.asarray(json.loads(q_path.read_text())["q"], dtype=float)
        self._riskfree = None

    def config(self, kind: str, alpha=0.95, lam=0.1, epsilon=0.0):
        return formulations.FormulationConfig(
            kind=kind, alpha=alpha, lam=lam, epsilon=epsilon,
            q_matrix=self.q if kind == formulations.DRO else None)

    def objective(self, config, riskfree: bool = False) -> float:
        """HiGHS optimum of the LP the program builds for ``config``."""
        lp, vm = formulations.build(self.instance, self.scenarios, config)
        if riskfree:
            for col in vm.y_spot.values():
                lp.upper[col] = 0.0
        solution = highs_solve(lp)
        if solution is None:
            raise RuntimeError(f"HiGHS found no optimum for {config.kind}")
        return solution.objective

    @property
    def riskfree(self) -> float:
        if self._riskfree is None:
            self._riskfree = self.objective(self.config(formulations.RISK_NEUTRAL),
                                            riskfree=True)
        return self._riskfree


def solve_problems(ref: Reference, config, files: dict[str, bytes]) -> list[str]:
    """The report's objective, less the LP's tie-break on spot volume, must
    equal the HiGHS optimum; so must its risk-free profit, where spot is 0."""
    doc = json.loads(files["report.json"])
    problems = []
    if doc["status"] != OPTIMAL:
        problems.append(f"status {doc['status']}")
    spot = sum(float(np.sum(v)) for v in doc["spot_dispatch"].values())
    lp_value = doc["objective_value"] - formulations.TIE_BREAK_WEIGHT * spot
    want = ref.objective(config)
    if not agree(lp_value, want):
        problems.append(f"LP objective {lp_value!r}, HiGHS {want!r}")
    for row in doc["metrics"]:
        if not agree(row["zeta_riskfree"], ref.riskfree):
            problems.append(f"zeta_riskfree {row['zeta_riskfree']!r}, "
                            f"HiGHS {ref.riskfree!r}")
    return problems


def sweep_problems(ref: Reference, files: dict[str, bytes], expected_rows: int) -> list[str]:
    problems = []
    failures = json.loads(files["failures.json"])
    if failures:
        problems.append(f"{len(failures)} failed grid points")
    rows = list(csv.DictReader(io.StringIO(files["metrics.csv"].decode("utf-8"))))
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} metric rows, expected {expected_rows}")
    for row in rows:
        if not agree(float(row["zeta_riskfree"]), ref.riskfree, CSV_RTOL):
            problems.append(f"zeta_riskfree {row['zeta_riskfree']}, HiGHS {ref.riskfree!r}")
            break
    return problems


def prepare_problems(files: dict[str, bytes], nodal: np.ndarray, system: np.ndarray,
                     markets: list[str]) -> list[str]:
    """Check prepare's outputs against the history the benchmark wrote."""
    problems = []
    scenarios = scenarios_from_dict(json.loads(files["scenarios.json"]))
    summary = json.loads(files["prep_summary.json"])
    q_doc = json.loads(files["q.json"])
    probs = scenarios.probabilities
    if abs(float(probs.sum()) - 1.0) > 1e-12:
        problems.append(f"probabilities sum to {float(probs.sum())!r}")
    reps = np.asarray(summary["representative_indices"], dtype=int)
    if reps.shape != probs.shape or (reps < 0).any() or (reps >= nodal.shape[0]).any():
        problems.append("representative indices do not index the history")
    else:
        top = np.stack([scenarios.prices[m][0, 0, :] for m in markets], axis=1)
        if not np.array_equal(top, nodal[reps]):
            problems.append("representatives are not rows of the input history")
    sigma = np.cov(nodal - system[:, None], rowvar=False, ddof=1)
    q = np.asarray(q_doc["q"], dtype=float)
    gap = np.abs(q @ q.T - sigma).max() - q_doc["jitter"]
    if gap > 1e-9 * np.abs(sigma).max():
        problems.append(f"q q^T misses the deviation covariance by {gap!r}")
    return problems


def digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + hashlib.sha256(files[name]).digest())
    return h.hexdigest()


def tree_digest(*roots: Path) -> str:
    """Hash of every regular file under ``roots``, caches excluded."""
    h = hashlib.sha256()
    for root in roots:
        for path in sorted(p for p in root.rglob("*")
                           if p.is_file() and "__pycache__" not in p.parts):
            h.update(str(path.relative_to(root.parent)).encode() + b"\0")
            h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()[:16]
