"""Synthetic price histories and matching instances for the benchmark.

The history follows the recipe of ``scripts/make_toy_csv.py``: an hourly
long-format CSV whose SYSTEM price is a daily sine swell around $35 with
Gaussian noise, and whose market nodes add a fixed basis offset and their
own noise, rounded to cents.  Here the number of hours, the number of nodes
and the seed are parameters.  The instance generalizes
``data/toy_instance.json`` to any number of markets.
"""

from __future__ import annotations

import json
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

# the three toy nodes and their basis against the system price
TOY_NODES = {"ALPHA": 1.5, "BRAVO": -0.8, "CHARLIE": 0.3}
# toy elasticity rules, cycled over the markets of a larger instance
TOY_ELASTICITY = (
    {"steps": 3, "width": 40.0, "decrement": 1.0},
    {"steps": 3, "width": 40.0, "decrement": 1.5},
    {"steps": 2, "width": 60.0, "decrement": 2.0},
)
TOY_TRANSPORT = (0.5, 0.2, 0.8)
CHUNK_HOURS = 1000


def node_bases(nodes: int) -> dict[str, float]:
    """Node names and basis offsets: the toy nodes for three, else N01..."""
    if nodes == len(TOY_NODES):
        return dict(TOY_NODES)
    offsets = np.linspace(-1.5, 1.5, nodes)
    return {f"N{i + 1:02d}": float(v) for i, v in enumerate(offsets)}


def write_history(path: Path, hours: int, nodes: int, seed):
    """Write a long (timestamp, node, price) CSV.

    Returns the node names and the prices as written, parsed back from their
    text: nodal (hours, nodes) and system (hours,).
    """
    bases = node_bases(nodes)
    rng = np.random.default_rng(seed)
    hour = np.arange(hours)
    system = 35.0 + 8.0 * np.sin(2 * np.pi * hour / 24) + rng.normal(0, 2.0, hours)
    system = np.maximum(system, 5.0)
    basis = np.array(list(bases.values()))
    # one draw per (hour, node) in the toy's order: hour-major, node-minor
    prices = system[:, None] + basis[None, :] + rng.normal(0, 1.2, (hours, nodes))
    prices = np.maximum(prices, 1.0)
    names = list(bases)
    start = datetime(2024, 1, 1)
    nodal = np.empty((hours, nodes))
    system_written = np.empty(hours)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("timestamp,node,price\r\n")
        for first in range(0, hours, CHUNK_HOURS):  # bounded memory for long histories
            lines = []
            for i in range(first, min(first + CHUNK_HOURS, hours)):
                stamp = (start + timedelta(hours=i)).isoformat(timespec="minutes")
                cells = [f"{system[i]:.2f}"] + [f"{v:.2f}" for v in prices[i]]
                system_written[i] = float(cells[0])
                nodal[i] = [float(v) for v in cells[1:]]
                lines.append(f"{stamp},SYSTEM,{cells[0]}\r\n")
                lines.extend(f"{stamp},{name},{cell}\r\n"
                             for name, cell in zip(names, cells[1:]))
            handle.write("".join(lines))
    return names, nodal, system_written


def instance_doc(markets: list[str]) -> dict:
    """The toy instance's contracts, supply and limits over ``markets``."""
    return {
        "markets": list(markets),
        "contracts": [
            {"market": markets[0], "wholesale_price": [36.0, 36.0],
             "max_volume": 50.0, "flex_above_min": 10.0},
            {"market": markets[1], "wholesale_price": [33.0, 33.5],
             "max_volume": 40.0, "flex_above_min": 0.0},
        ],
        "supply_steps": [
            {"capacity": 200.0, "unit_cost": 10.0},
            {"capacity": 100.0, "unit_cost": 14.0},
        ],
        "transport_cost": {m: TOY_TRANSPORT[i % 3] for i, m in enumerate(markets)},
        "production_limits": [
            {"lower": 20.0, "upper": 300.0},
            {"lower": 20.0, "upper": 300.0},
        ],
        "periods": 2,
        "elasticity": {m: dict(TOY_ELASTICITY[i % 3]) for i, m in enumerate(markets)},
    }


def write_case(directory: Path, hours: int, nodes: int, seed):
    """Write ``history.csv`` and ``instance.json`` into ``directory``.

    Returns both paths, the market names and the prices as written.
    """
    csv_path = directory / "history.csv"
    instance_path = directory / "instance.json"
    names, nodal, system = write_history(csv_path, hours, nodes, seed)
    with open(instance_path, "w", encoding="utf-8") as handle:
        json.dump(instance_doc(names), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return csv_path, instance_path, names, nodal, system
