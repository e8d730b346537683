"""Domain model tests: validators and the JSON file contract."""

import numpy as np
import pytest

from spothedge.domain import (Contract, ElasticityCurve, MarketInstance,
                              ScenarioSet, SupplyStep, instance_from_dict,
                              instance_to_dict, load_instance, load_scenarios,
                              save_instance, save_scenarios,
                              scenarios_from_dict, scenarios_to_dict,
                              validate_instance, validate_scenarios)


def small_instance():
    return MarketInstance(
        markets=("east", "west"),
        contracts=(
            Contract("east", (38.0, 38.0), 20.0, 5.0),
            Contract("west", (36.0, 35.0), 15.0, 0.0),
        ),
        supply_steps=(SupplyStep(100.0, 10.0), SupplyStep(50.0, 14.0)),
        transport_cost={"west": 1.5},
        production_limits=((30.0, 120.0), (30.0, 120.0)),
        periods=2,
        elasticity={"east": ElasticityCurve(4, 25.0, 0.5)},
    )


def small_scenarios():
    prices = {
        "east": np.array([[[50.0, 20.0], [48.0, 22.0]],
                          [[45.0, 15.0], [43.0, 17.0]]]),
        "west": np.array([[[40.0, 25.0], [41.0, 24.0]]]),
    }
    widths = {
        "east": np.full((2, 2, 2), 30.0),
        "west": np.full((1, 2, 2), 60.0),
    }
    return ScenarioSet(probabilities=np.array([0.6, 0.4]),
                       prices=prices, widths=widths)


def test_valid_pair_has_no_problems():
    instance = small_instance()
    scenarios = small_scenarios()
    assert validate_instance(instance) == []
    assert validate_scenarios(instance, scenarios) == []


def test_instance_validator_catches_each_defect():
    base = small_instance()
    bad = MarketInstance(
        markets=("east", "east"),
        contracts=(Contract("north", (38.0,), -1.0, -2.0),),
        supply_steps=(SupplyStep(-5.0, 10.0),),
        transport_cost={"south": -1.0},
        production_limits=((50.0, 20.0),),
        periods=0,
        elasticity={"east": ElasticityCurve(0, -1.0, 0.0)},
    )
    problems = "\n".join(validate_instance(bad))
    for needle in ("duplicate market", "periods must be >= 1",
                   "unknown market", "negative max_volume",
                   "negative flex_above_min", "negative capacity",
                   "unknown market 'south'", "must be >= 0",
                   "steps must be >= 1", "width must be > 0"):
        assert needle in problems
    assert validate_instance(base) == []


def test_capacity_must_cover_production_floor():
    instance = MarketInstance(
        markets=("east",), contracts=(),
        supply_steps=(SupplyStep(10.0, 1.0),),
        transport_cost={}, production_limits=((25.0, 30.0),), periods=1)
    problems = validate_instance(instance)
    assert any("cannot reach" in p for p in problems)


def test_scenario_validator_catches_each_defect():
    instance = small_instance()
    # probabilities off, ascending staircase, non-positive width
    bad = ScenarioSet(
        probabilities=np.array([0.7, 0.7]),
        prices={"east": np.array([[[10.0, 10.0], [10.0, 10.0]],
                                  [[11.0, 9.0], [9.0, 9.0]]]),
                "west": np.full((1, 2, 2), 30.0)},
        widths={"east": np.full((2, 2, 2), 30.0),
                "west": np.zeros((1, 2, 2))},
    )
    problems = "\n".join(validate_scenarios(instance, bad))
    assert "sum to" in problems
    assert "not strictly descending at step 0->1, period 0, scenario 0" in problems
    assert "strictly positive" in problems


def test_scenario_validator_checks_market_names_and_shapes():
    instance = small_instance()
    wrong_markets = ScenarioSet(
        probabilities=np.array([1.0]),
        prices={"east": np.full((1, 2, 1), 30.0)},
        widths={"east": np.full((1, 2, 1), 10.0)},
    )
    assert any("do not match" in p
               for p in validate_scenarios(instance, wrong_markets))
    wrong_shape = ScenarioSet(
        probabilities=np.array([1.0]),
        prices={"east": np.full((1, 3, 1), 30.0),
                "west": np.full((1, 2, 1), 30.0)},
        widths={"east": np.full((1, 3, 1), 10.0),
                "west": np.full((1, 2, 1), 10.0)},
    )
    assert any("expected shape" in p
               for p in validate_scenarios(instance, wrong_shape))


def test_scenario_validator_requires_sales_room_for_forced_output():
    instance = MarketInstance(
        markets=("east",), contracts=(),
        supply_steps=(SupplyStep(100.0, 1.0),),
        transport_cost={}, production_limits=((80.0, 100.0),), periods=1)
    thin = ScenarioSet(
        probabilities=np.array([0.5, 0.5]),
        prices={"east": np.array([[[30.0, 31.0]]])},
        widths={"east": np.array([[[90.0, 50.0]]])},
    )
    problems = validate_scenarios(instance, thin)
    assert any("scenario 1" in p and "lower production limit" in p
               for p in problems)


def test_instance_json_round_trip(tmp_path):
    instance = small_instance()
    path = tmp_path / "instance.json"
    save_instance(instance, path)
    again = load_instance(path)
    assert again == instance
    # deterministic serialization
    save_instance(again, tmp_path / "second.json")
    assert path.read_bytes() == (tmp_path / "second.json").read_bytes()
    assert path.read_text().endswith("\n")


def test_instance_dict_omits_empty_elasticity():
    instance = MarketInstance(
        markets=("east",), contracts=(),
        supply_steps=(SupplyStep(10.0, 0.0),),
        transport_cost={}, production_limits=((0.0, 10.0),), periods=1)
    doc = instance_to_dict(instance)
    assert "elasticity" not in doc
    assert instance_from_dict(doc) == instance


def test_scenarios_json_round_trip(tmp_path):
    scenarios = small_scenarios()
    path = tmp_path / "scenarios.json"
    save_scenarios(scenarios, path)
    again = load_scenarios(path)
    np.testing.assert_array_equal(again.probabilities, scenarios.probabilities)
    for market in scenarios.prices:
        np.testing.assert_array_equal(again.prices[market],
                                      scenarios.prices[market])
        np.testing.assert_array_equal(again.widths[market],
                                      scenarios.widths[market])


def test_scenarios_from_dict_rejects_duplicates_and_holes():
    doc = scenarios_to_dict(small_scenarios())
    dup = dict(doc, spot=doc["spot"] + [doc["spot"][0]])
    with pytest.raises(ValueError, match="duplicate spot entry"):
        scenarios_from_dict(dup)
    holey = dict(doc, spot=doc["spot"][1:])
    with pytest.raises(ValueError, match="missing the spot entry"):
        scenarios_from_dict(holey)
    stray = dict(doc, spot=doc["spot"] + [dict(doc["spot"][0], scenario=9)])
    with pytest.raises(ValueError, match="outside 0..1"):
        scenarios_from_dict(stray)


def test_a_negative_step_cannot_overwrite_the_last_tranche():
    """At the parent, an extra entry with step -1 and price 99 was accepted
    and silently replaced east's last tranche price (45 -> 99) through
    negative indexing."""
    doc = scenarios_to_dict(small_scenarios())
    last = next(e for e in doc["spot"] if e["market"] == "east" and e["step"] == 1)
    doc["spot"].append(dict(last, step=-1, price=99.0))
    with pytest.raises(ValueError, match="'step' must be a non-negative integer, got -1"):
        scenarios_from_dict(doc)


@pytest.mark.parametrize("field, value", [
    ("step", 0.5), ("period", 1.0), ("scenario", True), ("scenario", "0"), ("period", -2),
])
def test_scenario_indices_must_be_non_negative_json_integers(field, value):
    doc = scenarios_to_dict(small_scenarios())
    doc["spot"][0][field] = value
    with pytest.raises(ValueError, match=f"spot entry: '{field}' must be a non-negative "
                                         f"integer, got {value!r}"):
        scenarios_from_dict(doc)


@pytest.mark.parametrize("where, value", [
    ("periods", 2.7), ("periods", True), ("periods", -1), ("steps", 3.9), ("steps", "4"),
])
def test_instance_counts_must_be_non_negative_json_integers(where, value):
    """At the parent "periods": 2.7 loaded as 2 and "steps": 3.9 as 3."""
    doc = instance_to_dict(small_instance())
    if where == "periods":
        doc["periods"] = value
    else:
        doc["elasticity"]["east"]["steps"] = value
    with pytest.raises(ValueError, match=f"'{where}' must be a non-negative integer"):
        instance_from_dict(doc)


def test_missing_required_field_is_named():
    with pytest.raises(ValueError, match="missing required field 'periods'"):
        instance_from_dict({"markets": ["east"], "supply_steps": [],
                            "production_limits": []})
    with pytest.raises(ValueError, match="missing required field 'width'"):
        instance_from_dict({
            "markets": ["east"], "supply_steps": [], "production_limits": [],
            "periods": 1, "elasticity": {"east": {"steps": 3, "decrement": 1.0}}})


def test_scenario_arrays_are_frozen():
    scenarios = small_scenarios()
    with pytest.raises(ValueError):
        scenarios.probabilities[0] = 0.2
    with pytest.raises(ValueError):
        scenarios.prices["east"][0, 0, 0] = 99.0
