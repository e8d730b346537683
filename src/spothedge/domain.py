"""Domain types for supply-allocation instances and scenario sets.

A MarketInstance holds the deterministic data: markets, term contracts with
per-period wholesale prices, the stepwise production cost curve, per-market
transport costs and per-period production limits.  A ScenarioSet holds the
stochastic side: scenario probabilities and, per market, the elastic spot
staircase as dense (step, period, scenario) arrays of top-down prices and
tranche widths.  Everything is immutable after construction; validators
return lists of human-readable problems instead of raising so callers can
report them all at once.

JSON layouts (field names are part of the tool's file contract):

instance.json::

    {"markets": ["east", ...],
     "contracts": [{"market": "east", "wholesale_price": [38.0, ...],
                    "max_volume": 20.0, "flex_above_min": 0.0}, ...],
     "supply_steps": [{"capacity": 500.0, "unit_cost": 12.0}, ...],
     "transport_cost": {"east": 1.5, ...},
     "production_limits": [{"lower": 500.0, "upper": 500.0}, ...],
     "periods": 12,
     "elasticity": {"east": {"steps": 20, "width": 25.0, "decrement": 0.2}}}

``elasticity`` is optional; it is the structural rule used when expanding
reduced price vectors into full scenario files.

scenarios.json::

    {"probabilities": [0.5, 0.5],
     "spot": [{"market": "east", "step": 0, "period": 0, "scenario": 0,
               "price": 50.0, "width": 100.0}, ...]}

Step, period and scenario indices are dense and 0-based; every
(market, step, period, scenario) combination must appear exactly once.
Indices, ``periods`` and elasticity ``steps`` must be JSON integers >= 0,
each other number shown must be a JSON number (not a boolean), each market
name a string, and each array or object shown must be one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

PROBABILITY_TOL = 1e-9
STAIRCASE_TOL = 1e-9


def read_only(values, dtype=float) -> np.ndarray:
    """values as a read-only array of dtype.  An array that has that dtype
    already is not copied: it is itself made read-only."""
    arr = np.asarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SupplyStep:
    capacity: float  # MW available on this step of the cost curve
    unit_cost: float  # $/MWh


@dataclass(frozen=True)
class Contract:
    market: str
    wholesale_price: tuple[float, ...]  # $/MWh, one entry per period
    max_volume: float  # MW cap on the committed volume
    flex_above_min: float  # MW the buyer may draw above the committed minimum


@dataclass(frozen=True)
class ElasticityCurve:
    """Structural rule for a market's spot staircase (used by scenario expansion)."""
    steps: int
    width: float  # MW per tranche
    decrement: float  # $/MWh price drop from one tranche to the next


@dataclass(frozen=True)
class MarketInstance:
    markets: tuple[str, ...]
    contracts: tuple[Contract, ...]
    supply_steps: tuple[SupplyStep, ...]
    transport_cost: dict[str, float]  # missing markets read as 0
    production_limits: tuple[tuple[float, float], ...]  # (lower, upper) per period
    periods: int
    elasticity: dict[str, ElasticityCurve] = field(default_factory=dict)

    def market_contracts(self, market: str) -> list[Contract]:
        return [c for c in self.contracts if c.market == market]

    def transport(self, market: str) -> float:
        return float(self.transport_cost.get(market, 0.0))


@dataclass(frozen=True)
class ScenarioSet:
    probabilities: np.ndarray  # (S,)
    prices: dict[str, np.ndarray]  # market -> (K_m, T, S), strictly descending in k
    widths: dict[str, np.ndarray]  # market -> (K_m, T, S), strictly positive

    def __post_init__(self):
        object.__setattr__(self, "probabilities", read_only(self.probabilities))
        for table in (self.prices, self.widths):
            for market, arr in table.items():
                table[market] = read_only(arr)

    @property
    def num_scenarios(self) -> int:
        return int(self.probabilities.shape[0])

    @property
    def num_periods(self) -> int:
        for arr in self.prices.values():
            return int(arr.shape[1])
        return 0

    def steps(self, market: str) -> int:
        return int(self.prices[market].shape[0])


# ----------------------------------------------------------------------
# validation

def validate_instance(instance: MarketInstance) -> list[str]:
    """Structural checks on the deterministic data; returns all problems found."""
    problems = []
    if not instance.markets:
        problems.append("no markets defined")
    if len(set(instance.markets)) != len(instance.markets):
        problems.append("duplicate market names")
    if instance.periods < 1:
        problems.append(f"periods must be >= 1, got {instance.periods}")
    if len(instance.production_limits) != instance.periods:
        problems.append(
            f"production_limits has {len(instance.production_limits)} entries "
            f"for {instance.periods} periods")
    for t, (lo, hi) in enumerate(instance.production_limits):
        if not (0.0 <= lo <= hi) or not math.isfinite(hi):
            problems.append(f"production limits in period {t} violate 0 <= lower <= upper")
    if not instance.supply_steps:
        problems.append("no supply steps defined")
    total_capacity = 0.0
    for i, step in enumerate(instance.supply_steps):
        if step.capacity < 0 or not math.isfinite(step.capacity):
            problems.append(f"supply step {i} has negative capacity")
        if step.unit_cost < 0 or not math.isfinite(step.unit_cost):
            problems.append(f"supply step {i} has negative unit cost")
        total_capacity += max(step.capacity, 0.0)
    for t, (lo, _hi) in enumerate(instance.production_limits):
        if total_capacity < lo:
            problems.append(
                f"total supply capacity {total_capacity} cannot reach the "
                f"period-{t} lower production limit {lo}")
    for idx, contract in enumerate(instance.contracts):
        tag = f"contract {idx} ({contract.market})"
        if contract.market not in instance.markets:
            problems.append(f"{tag}: unknown market")
        if len(contract.wholesale_price) != instance.periods:
            problems.append(f"{tag}: wholesale_price needs one entry per period")
        if contract.max_volume < 0:
            problems.append(f"{tag}: negative max_volume")
        if contract.flex_above_min < 0:
            problems.append(f"{tag}: negative flex_above_min")
        if not all(math.isfinite(w) for w in contract.wholesale_price):
            problems.append(f"{tag}: non-finite wholesale price")
    for market, value in instance.transport_cost.items():
        if market not in instance.markets:
            problems.append(f"transport_cost names unknown market {market!r}")
        if value < 0 or not math.isfinite(value):
            problems.append(f"transport cost for {market!r} must be >= 0")
    for market, curve in instance.elasticity.items():
        if market not in instance.markets:
            problems.append(f"elasticity names unknown market {market!r}")
        if curve.steps < 1:
            problems.append(f"elasticity for {market!r}: steps must be >= 1")
        if curve.width <= 0:
            problems.append(f"elasticity for {market!r}: width must be > 0")
        if curve.steps > 1 and curve.decrement <= 0:
            problems.append(
                f"elasticity for {market!r}: decrement must be > 0 to keep "
                "the staircase strictly descending")
    return problems


def validate_scenarios(instance: MarketInstance, scenarios: ScenarioSet) -> list[str]:
    """Cross-checks between an instance and a scenario set."""
    problems = []
    probs = scenarios.probabilities
    if probs.ndim != 1 or probs.shape[0] == 0:
        problems.append("probabilities must be a non-empty vector")
        return problems
    if (probs < -PROBABILITY_TOL).any():
        problems.append("negative scenario probability")
    if abs(float(probs.sum()) - 1.0) > PROBABILITY_TOL:
        problems.append(f"probabilities sum to {float(probs.sum())!r}, not 1")
    if set(scenarios.prices) != set(instance.markets):
        problems.append("scenario markets do not match the instance markets")
        return problems
    n_s = scenarios.num_scenarios
    shapes_ok = True
    for market in instance.markets:
        prices = scenarios.prices[market]
        widths = scenarios.widths[market]
        if prices.shape != widths.shape:
            problems.append(f"{market}: price and width arrays differ in shape")
            shapes_ok = False
            continue
        if prices.ndim != 3 or prices.shape[1] != instance.periods or prices.shape[2] != n_s:
            problems.append(
                f"{market}: expected shape (steps, {instance.periods}, {n_s}), "
                f"got {prices.shape}")
            shapes_ok = False
            continue
        if not np.isfinite(prices).all():
            problems.append(f"{market}: non-finite spot price")
        if (widths <= 0).any() or not np.isfinite(widths).all():
            problems.append(f"{market}: spot tranche widths must be strictly positive")
        if prices.shape[0] > 1:
            drops = prices[:-1] - prices[1:]
            if (drops <= STAIRCASE_TOL).any():
                k, t, s = [int(v[0]) for v in np.nonzero(drops <= STAIRCASE_TOL)]
                problems.append(
                    f"{market}: staircase not strictly descending at "
                    f"step {k}->{k + 1}, period {t}, scenario {s}")
    if shapes_ok and len(instance.production_limits) == instance.periods:
        # every scenario must offer enough sales capacity to absorb forced production
        contract_total = sum(c.max_volume for c in instance.contracts)
        spot_by_ts = sum(scenarios.widths[m].sum(axis=0) for m in instance.markets)
        for t, (lo, _hi) in enumerate(instance.production_limits):
            short = np.nonzero(contract_total + spot_by_ts[t] < lo)[0]
            if short.size:
                problems.append(
                    f"period {t}, scenario {int(short[0])}: lower production limit "
                    f"{lo} exceeds total sales capacity (contracts + spot tranches)")
    return problems


# ----------------------------------------------------------------------
# JSON I/O

_JSON_TYPES = {list: "an array", dict: "an object", str: "a string"}


def _typed(value, kind, what, key=None):
    """value, which must be a JSON array (kind list), object (dict), string
    (str) or number (float; a bool is not one), a number as a float.  An
    error names what, or field key of what."""
    if kind is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                return float(value)
            except OverflowError:  # an integer past the float range
                problem = f"is out of range, got {value}"
        else:
            problem = f"must be a number, got {type(value).__name__}"
    elif isinstance(value, kind):
        return value
    else:
        problem = f"must be {_JSON_TYPES[kind]}, got {type(value).__name__}"
    raise ValueError(f"{what} {problem}" if key is None else f"{what}: {key!r} {problem}")


def _require(mapping, key, where, kind=None):
    """mapping[key]: mapping must be a JSON object holding key, and the
    value, given kind, of that JSON type (see _typed)."""
    if key not in _typed(mapping, dict, where):
        raise ValueError(f"{where}: missing required field {key!r}")
    value = mapping[key]
    if kind is None or type(value) is kind:  # no call for the common case
        return value
    return _typed(value, kind, where, key)


def _whole_number(mapping, key, where) -> int:
    """A required non-negative JSON integer (a bool is not one): int() would
    truncate a fraction, and a negative index counts from the end."""
    value = _require(mapping, key, where)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{where}: {key!r} must be a non-negative integer, got {value!r}")
    return value


def instance_from_dict(doc: dict) -> MarketInstance:
    """The instance a parsed instance.json describes.  Raises ValueError,
    naming the field, when a field is missing or of the wrong JSON type."""
    markets = tuple(_typed(m, str, "instance: market name")
                    for m in _require(doc, "markets", "instance", list))
    contracts = tuple(
        Contract(
            market=_require(c, "market", "contract", str),
            wholesale_price=tuple(_typed(w, float, "contract: 'wholesale_price' entry")
                                  for w in _require(c, "wholesale_price", "contract", list)),
            max_volume=_require(c, "max_volume", "contract", float),
            flex_above_min=_require(c, "flex_above_min", "contract", float),
        )
        for c in _typed(doc.get("contracts", []), list, "instance: 'contracts'")
    )
    supply = tuple(
        SupplyStep(capacity=_require(s, "capacity", "supply step", float),
                   unit_cost=_require(s, "unit_cost", "supply step", float))
        for s in _require(doc, "supply_steps", "instance", list)
    )
    limits = tuple(
        (_require(p, "lower", "production limit", float),
         _require(p, "upper", "production limit", float))
        for p in _require(doc, "production_limits", "instance", list)
    )
    elasticity = {
        market: ElasticityCurve(steps=_whole_number(e, "steps", "elasticity"),
                                width=_require(e, "width", "elasticity", float),
                                decrement=_require(e, "decrement", "elasticity", float))
        for market, e in _typed(doc.get("elasticity", {}), dict,
                                "instance: 'elasticity'").items()
    }
    transport = _typed(doc.get("transport_cost", {}), dict, "instance: 'transport_cost'")
    return MarketInstance(
        markets=markets,
        contracts=contracts,
        supply_steps=supply,
        transport_cost={k: _typed(v, float, f"instance: transport_cost {k!r}")
                        for k, v in transport.items()},
        production_limits=limits,
        periods=_whole_number(doc, "periods", "instance"),
        elasticity=elasticity,
    )


def instance_to_dict(instance: MarketInstance) -> dict:
    doc = {
        "markets": list(instance.markets),
        "contracts": [
            {"market": c.market, "wholesale_price": list(c.wholesale_price),
             "max_volume": c.max_volume, "flex_above_min": c.flex_above_min}
            for c in instance.contracts
        ],
        "supply_steps": [
            {"capacity": s.capacity, "unit_cost": s.unit_cost}
            for s in instance.supply_steps
        ],
        "transport_cost": dict(sorted(instance.transport_cost.items())),
        "production_limits": [
            {"lower": lo, "upper": hi} for lo, hi in instance.production_limits
        ],
        "periods": instance.periods,
    }
    if instance.elasticity:
        doc["elasticity"] = {
            market: {"steps": e.steps, "width": e.width, "decrement": e.decrement}
            for market, e in sorted(instance.elasticity.items())
        }
    return doc


def load_instance(path) -> MarketInstance:
    with open(path, "r", encoding="utf-8") as handle:
        return instance_from_dict(json.load(handle))


def save_instance(instance: MarketInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(instance_to_dict(instance), handle, indent=2, sort_keys=True)
        handle.write("\n")


def scenarios_from_dict(doc: dict) -> ScenarioSet:
    """The scenario set a parsed scenarios.json describes.  Raises
    ValueError, naming the field, when a field is missing or of the wrong
    JSON type, or when the spot entries do not fill every staircase."""
    probabilities = np.asarray([_typed(p, float, "scenarios: probability") for p in
                                _require(doc, "probabilities", "scenarios", list)])
    n_s = probabilities.shape[0]
    entries = _require(doc, "spot", "scenarios", list)
    by_market: dict[str, dict[tuple[int, int, int], tuple[float, float]]] = {}
    for entry in entries:
        market = _require(entry, "market", "spot entry", str)
        key = (_whole_number(entry, "step", "spot entry"),
               _whole_number(entry, "period", "spot entry"),
               _whole_number(entry, "scenario", "spot entry"))
        cell = (_require(entry, "price", "spot entry", float),
                _require(entry, "width", "spot entry", float))
        slot = by_market.setdefault(market, {})
        if key in slot:
            raise ValueError(f"scenarios: duplicate spot entry for {market} {key}")
        slot[key] = cell

    prices: dict[str, np.ndarray] = {}
    widths: dict[str, np.ndarray] = {}
    for market, cells in by_market.items():
        n_k = max(k for k, _t, _s in cells) + 1
        n_t = max(t for _k, t, _s in cells) + 1
        price = np.full((n_k, n_t, n_s), np.nan)
        width = np.full((n_k, n_t, n_s), np.nan)
        for (k, t, s), (p, w) in cells.items():
            if s >= n_s:
                raise ValueError(f"scenarios: {market} entry has scenario index {s} "
                                 f"outside 0..{n_s - 1}")
            price[k, t, s] = p
            width[k, t, s] = w
        if np.isnan(price).any():
            k, t, s = [int(v[0]) for v in np.nonzero(np.isnan(price))]
            raise ValueError(f"scenarios: {market} is missing the spot entry for "
                             f"step {k}, period {t}, scenario {s}")
        prices[market] = price
        widths[market] = width
    return ScenarioSet(probabilities=probabilities, prices=prices, widths=widths)


def scenarios_to_dict(scenarios: ScenarioSet) -> dict:
    spot = []
    for market in sorted(scenarios.prices):
        price = scenarios.prices[market]
        width = scenarios.widths[market]
        n_k, n_t, n_s = price.shape
        for k in range(n_k):
            for t in range(n_t):
                for s in range(n_s):
                    spot.append({"market": market, "step": k, "period": t,
                                 "scenario": s, "price": float(price[k, t, s]),
                                 "width": float(width[k, t, s])})
    return {"probabilities": [float(p) for p in scenarios.probabilities], "spot": spot}


def load_scenarios(path) -> ScenarioSet:
    with open(path, "r", encoding="utf-8") as handle:
        return scenarios_from_dict(json.load(handle))


def save_scenarios(scenarios: ScenarioSet, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(scenarios_to_dict(scenarios), handle, indent=2, sort_keys=True)
        handle.write("\n")
