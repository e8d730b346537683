"""Shared generators for randomized cross-checks."""

from __future__ import annotations

import importlib.util
import os
import pathlib

import numpy as np
import pytest

from spothedge.domain import (Contract, MarketInstance, ScenarioSet,
                              SupplyStep, load_instance, validate_instance,
                              validate_scenarios)
from spothedge.formulations import (CVAR, DRO, PER_SCENARIO, FormulationConfig,
                                    _penalty_groups)
from spothedge.linprog import LinearProgram
from spothedge.pipeline import (PriceHistory, ReducedScenarios, TooFewDistinctRows,
                                estimate_q, ingest_lmp_csv, kmeans_reduce,
                                scenarios_from_representatives)
from spothedge.simplex import _AT_LOWER, _AT_UPPER, _BASIC, _FREE, OPTIMALITY_TOL, _snap

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def assert_reaped(pids) -> None:
    """No process of pids but this one is left, not even as a zombie."""
    for pid in set(pids) - {os.getpid()}:
        with pytest.raises(ProcessLookupError):  # a zombie still takes signal 0
            os.kill(pid, 0)


def bench_gen():
    """bench/gen.py, the generator of the benchmark's price histories."""
    spec = importlib.util.spec_from_file_location("gen", DATA.parent / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


RELATION_POOL = ("<=", "<=", ">=", ">=", "==")


def random_lp(rng: np.random.Generator) -> LinearProgram:
    """Random fully bounded LP with integer data in [-9, 9], <=6 vars, <=8 rows."""
    n = int(rng.integers(1, 7))
    m = int(rng.integers(1, 9))
    lp = LinearProgram()
    ends = rng.integers(-9, 10, size=(2, n))
    lower = np.minimum(ends[0], ends[1])
    upper = np.maximum(ends[0], ends[1])
    cost = rng.integers(-9, 10, size=n)
    for j in range(n):
        lp.add_variable(f"x{j}", float(lower[j]), float(upper[j]), float(cost[j]))
    body = rng.integers(-9, 10, size=(m, n))
    rhs = rng.integers(-9, 10, size=m)
    for i in range(m):
        rel = RELATION_POOL[rng.integers(0, len(RELATION_POOL))]
        lp.add_row(f"r{i}", {j: float(body[i, j]) for j in range(n)}, rel, float(rhs[i]))
    return lp


def nth_random_lp(draw: int) -> LinearProgram:
    """Draw number draw (from 0) of random_lp(np.random.default_rng(99))."""
    rng = np.random.default_rng(99)
    for _ in range(draw):
        random_lp(rng)
    return random_lp(rng)


def random_allocation_case(rng: np.random.Generator) -> tuple[MarketInstance, ScenarioSet]:
    """Random allocation instance: <=2 markets, <=3 contracts, <=3 supply
    steps, <=2 periods, <=4 scenarios, 1-2 spot tranches.

    It passes validation and no period's production floor exceeds what that
    period alone could sell, but it is not always feasible: the contract
    windows tie the periods together, so a high floor in one period can
    force more contract volume than another period's ceiling admits
    (draw 26 of ``np.random.default_rng(616)`` is such a case)."""
    markets = tuple(f"m{j}" for j in range(int(rng.integers(1, 3))))
    periods = int(rng.integers(1, 3))
    n_s = int(rng.integers(1, 5))

    contracts = []
    for _ in range(int(rng.integers(0, 4))):
        market = markets[int(rng.integers(len(markets)))]
        contracts.append(Contract(
            market=market,
            wholesale_price=tuple(float(rng.uniform(10, 60)) for _ in range(periods)),
            max_volume=float(rng.integers(5, 41)),
            flex_above_min=float(rng.choice([0.0, 0.0, 5.0, 10.0])),
        ))
    supply_steps = tuple(
        SupplyStep(capacity=float(rng.integers(10, 61)),
                   unit_cost=float(rng.uniform(0, 20)))
        for _ in range(int(rng.integers(1, 4))))
    total_capacity = sum(s.capacity for s in supply_steps)

    prices = {}
    widths = {}
    for market in markets:
        n_k = int(rng.integers(1, 3))
        top = rng.uniform(20, 70, size=(periods, n_s))
        decrement = float(rng.uniform(1, 5))
        prices[market] = top[None, :, :] - decrement * np.arange(n_k)[:, None, None]
        widths[market] = rng.uniform(10, 50, size=(n_k, periods, n_s))

    contract_total = sum(c.max_volume for c in contracts)
    limits = []
    for t in range(periods):
        # worst-case sellable volume in period t across scenarios
        sink = contract_total + min(
            sum(widths[m][:, t, s].sum() for m in markets) for s in range(n_s))
        ceiling = 0.8 * min(total_capacity, sink)
        lo = 0.0 if rng.random() < 0.5 else float(rng.uniform(0, ceiling))
        hi = float(rng.uniform(lo, total_capacity))
        limits.append((lo, hi))

    instance = MarketInstance(
        markets=markets,
        contracts=tuple(contracts),
        supply_steps=supply_steps,
        transport_cost={m: float(rng.uniform(0, 3)) for m in markets},
        production_limits=tuple(limits),
        periods=periods,
    )
    scenarios = ScenarioSet(
        probabilities=rng.dirichlet(np.ones(n_s)),
        prices=prices,
        widths=widths,
    )
    assert validate_instance(instance) == []
    assert validate_scenarios(instance, scenarios) == []
    return instance, scenarios


def expected_columns(instance: MarketInstance, scenarios: ScenarioSet,
                     config: FormulationConfig) -> int:
    """The documented column count: with C contracts of which F have flex,
    K spot tranches over all markets, I supply steps, T periods, S scenarios
    and M markets the shared core has C + F*T*S + K*T*S + I*T*S + S columns;
    cvar adds 1 + S, dro adds S*M per-scenario or S*T*M per-period penalty
    columns."""
    n_c = len(instance.contracts)
    n_f = sum(c.flex_above_min > 0.0 for c in instance.contracts)
    n_t = instance.periods
    n_s = scenarios.num_scenarios
    n_m = len(instance.markets)
    n_k = sum(scenarios.steps(m) for m in instance.markets)
    n_i = len(instance.supply_steps)
    total = n_c + (n_f + n_k + n_i) * n_t * n_s + n_s
    if config.kind == CVAR:
        total += 1 + n_s
    elif config.kind == DRO:
        total += n_s * n_m if config.dro_penalty == PER_SCENARIO else n_s * n_t * n_m
    return total


def toy_case(k: int, history: PriceHistory | None = None
             ) -> tuple[MarketInstance, ScenarioSet, np.ndarray]:
    """The bundled toy instance with k scenarios reduced from a price history
    (k-means seed 7), and the history's deviation factor q.

    The history defaults to the bundled one; another must hold the
    instance's three markets, as a 3-node history from bench/gen.py does."""
    instance = load_instance(DATA / "toy_instance.json")
    if history is None:
        history = ingest_lmp_csv(DATA / "toy_lmp.csv")
    matrix = history.nodal[:, [history.nodes.index(m) for m in instance.markets]]
    reduced = kmeans_reduce(matrix, k, seed=7)
    scenarios = scenarios_from_representatives(
        instance, reduced.representatives, reduced.probabilities)
    return instance, scenarios, estimate_q(matrix, history.system).q


def dro_penalty_loop(report, q) -> float:
    """The Wasserstein penalty of a DRO report, one scenario and period group
    at a time: sum_s pi_s sum_g |q^T ytilde_sg|_1, with ytilde_sg each
    market's spot sales of scenario s in group g."""
    spot = report.spot_dispatch
    markets = list(spot)
    n_t = next(iter(spot.values())).shape[1]
    penalty = 0.0
    for s, pi in enumerate(report.probabilities):
        for group, _ in _penalty_groups(n_t, report.config.dro_penalty):
            ytilde = np.array([spot[market][:, group, s].sum() for market in markets])
            penalty += float(pi) * float(np.abs(q.T @ ytilde).sum())
    return penalty


def kmeans_reduce_einsum(matrix, k: int, seed: int = 0) -> ReducedScenarios:
    """Reference k-means: the (n, k, M) einsum distances of every round.

    The same algorithm as ``spothedge.pipeline.kmeans_reduce`` (farthest-point
    seeding, lowest index on ties, re-seeding of emptied clusters on a row
    equal to no live centroid, TooFewDistinctRows when none is left, boolean-mask
    means, representative closest to its centroid), written the direct way.
    The package version must match it field for field, bit for bit.
    """
    x = np.asarray(matrix, dtype=float)
    n = x.shape[0]

    def sq_dist(points):
        diff = x[:, None, :] - points[None, :, :]
        return np.einsum("nkm,nkm->nk", diff, diff)

    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n))]
    dist = ((x - x[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(k - 1):
        chosen.append(int(np.argmax(dist)))
        dist = np.minimum(dist, ((x - x[chosen[-1]]) ** 2).sum(axis=1))
    centroids = x[chosen].copy()

    labels = np.full(n, -1, dtype=int)
    for _ in range(300):
        d = sq_dist(centroids)
        new_labels = np.argmin(d, axis=1)
        counts = np.bincount(new_labels, minlength=k)
        for j in range(k):
            if counts[j] == 0:
                current = d[np.arange(n), new_labels]
                clusters = [x[new_labels == c] for c in range(k) if counts[c]]
                live = np.array([rows[0] if (rows == rows[0]).all() else rows.mean(axis=0)
                                 for rows in clusters])
                on_live = (x[:, None, :] == live[None, :, :]).all(axis=2).any(axis=1)
                free = (counts[new_labels] >= 2) & ~on_live
                if not free.any():
                    raise TooFewDistinctRows(
                        f"cannot make {k} clusters: every row that could re-seed an "
                        "emptied cluster equals a live centroid "
                        f"({len(np.unique(x, axis=0))} distinct rows)")
                far = int(np.argmax(np.where(free, current, -1.0)))
                counts[new_labels[far]] -= 1
                counts[j] = 1
                new_labels[far] = j
                centroids[j] = x[far]
            else:
                centroids[j] = x[new_labels == j].mean(axis=0)
        if (new_labels == labels).all():
            break
        labels = new_labels

    d = sq_dist(centroids)
    inertia = float(d[np.arange(n), labels].sum())
    reps = np.empty(k, dtype=int)
    counts = np.empty(k, dtype=int)
    for j in range(k):
        members = np.nonzero(labels == j)[0]
        counts[j] = members.size
        reps[j] = int(members[np.argmin(d[members, j])])
    return ReducedScenarios(representatives=x[reps], representative_indices=reps,
                            probabilities=counts / n, labels=labels,
                            centroids=centroids, inertia=inertia)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def lp_to_text(lp: LinearProgram) -> str:
    """Render the program one row per line, ``name: coeffs relation rhs``.

    Coefficients print with 12 significant digits; the objective and the
    variable bounds follow the rows.  Meant for eyeballing and diffing small
    programs, not for round-tripping.
    """
    lines = []
    for row in lp.rows:
        terms = " + ".join(
            f"{_fmt(coef)} {lp.variable_names[col]}"
            for col, coef in sorted(row.coeffs.items())
        ) or "0"
        lines.append(f"{row.name}: {terms} {row.relation} {_fmt(row.rhs)}")
    terms = " + ".join(
        f"{_fmt(coef)} {name}"
        for name, coef in zip(lp.variable_names, lp.objective)
        if coef != 0.0
    ) or "0"
    lines.append(f"maximize: {terms}")
    for name, lo, hi in zip(lp.variable_names, lp.lower, lp.upper):
        lines.append(f"bound: {_fmt(lo)} <= {name} <= {_fmt(hi)}")
    return "\n".join(lines) + "\n"


def mask_rule_entering(d, status, lower, upper, bland: bool):
    """Reference pricing: the entering column by eligibility masks, or None.

    A column is eligible when it rests at its lower bound, can move and
    d > OPTIMALITY_TOL; rests at its upper bound, can move and
    d < -OPTIMALITY_TOL; or is free and |d| > OPTIMALITY_TOL.  Dantzig's
    rule takes the eligible column of largest |d|, Bland's rule the first
    eligible one, the lowest index on ties.  The simplex's sense-vector
    pricing must pick the same column.
    """
    movable = upper - lower > 0.0
    up = (status == _AT_LOWER) & movable & (d > OPTIMALITY_TOL)
    down = (status == _AT_UPPER) & movable & (d < -OPTIMALITY_TOL)
    free = (status == _FREE) & (np.abs(d) > OPTIMALITY_TOL)
    eligible = np.nonzero(up | down | free)[0]
    if eligible.size == 0:
        return None
    return int(eligible[0]) if bland else int(eligible[np.argmax(np.abs(d[eligible]))])


def vertex_values_qr(state, n: int) -> np.ndarray:
    """Reference exit values: the dense QR least-squares re-solve that
    simplex._vertex_values replaced.

    Values within SNAP_TOL of a finite bound are put on it.  The remaining
    basic structural values are solved again from the rows whose slack sits
    on a bound and the values of every other column: a QR least squares
    solve in column and row order, plus one refinement step on the residual.
    Numerically dependent columns keep the basis's own values.
    """
    x = state.x.copy()
    _snap(x, state.lower, state.upper)
    on_bound = (x == state.lower) | (x == state.upper)
    interior = np.nonzero((state.status[:n] == _BASIC) & ~on_bound[:n])[0]
    col, row, val = state.entries(interior)
    tight = on_bound[n + row]  # entries in rows whose slack sits on a bound
    rows, local = np.unique(row[tight], return_inverse=True)
    if interior.size == 0 or rows.size < interior.size:
        return x[:n]
    block = np.zeros((rows.size, interior.size))
    block[local, col[tight]] = val[tight]
    fixed = x.copy()
    fixed[interior] = 0.0
    rhs = (state.b - state.matvec(fixed))[rows]
    q, r = np.linalg.qr(block)
    try:
        x_i = np.linalg.solve(r, q.T @ rhs)
        x[interior] = x_i + np.linalg.solve(r, q.T @ (rhs - block @ x_i))
    except np.linalg.LinAlgError:
        pass
    return x[:n]
