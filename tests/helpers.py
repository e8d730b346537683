"""Shared generators for randomized cross-checks."""

from __future__ import annotations

import pathlib

import numpy as np

from spothedge.domain import (Contract, MarketInstance, ScenarioSet,
                              SupplyStep, load_instance, validate_instance,
                              validate_scenarios)
from spothedge.linprog import LinearProgram
from spothedge.pipeline import (estimate_q, ingest_lmp_csv, kmeans_reduce,
                                scenarios_from_representatives)

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"

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


def random_allocation_case(rng: np.random.Generator) -> tuple[MarketInstance, ScenarioSet]:
    """Random feasible allocation instance: <=2 markets, <=3 contracts,
    <=3 supply steps, <=2 periods, <=4 scenarios, 1-2 spot tranches."""
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


def toy_case(k: int) -> tuple[MarketInstance, ScenarioSet, np.ndarray]:
    """The bundled toy instance with k scenarios reduced from the bundled
    price history (k-means seed 7), and the history's deviation factor q."""
    instance = load_instance(DATA / "toy_instance.json")
    history = ingest_lmp_csv(DATA / "toy_lmp.csv")
    matrix = history.nodal[:, [history.nodes.index(m) for m in instance.markets]]
    reduced = kmeans_reduce(matrix, k, seed=7)
    scenarios = scenarios_from_representatives(
        instance, reduced.representatives, reduced.probabilities)
    return instance, scenarios, estimate_q(matrix, history.system).q
