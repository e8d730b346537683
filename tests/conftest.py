"""Shared fixtures: the canonical one-market micro instance and variants,
and a check that no test leaves a child process behind."""

import os

import numpy as np
import pytest

from spothedge.domain import Contract, MarketInstance, ScenarioSet, SupplyStep


def micro_instance(production_cost: float = 0.0, contract_price: float = 30.0,
                   flex: float = 0.0) -> MarketInstance:
    """One market, one period, fixed 100 MW production, one 100 MW contract."""
    return MarketInstance(
        markets=("hub",),
        contracts=(Contract("hub", (contract_price,), 100.0, flex),),
        supply_steps=(SupplyStep(100.0, production_cost),),
        transport_cost={},
        production_limits=((100.0, 100.0),),
        periods=1,
    )


def micro_scenarios(prices=(50.0, 20.0)) -> ScenarioSet:
    """One 100 MW spot tranche whose price is 50 or 20 with equal odds."""
    n_s = len(prices)
    return ScenarioSet(
        probabilities=np.full(n_s, 1.0 / n_s),
        prices={"hub": np.asarray(prices, dtype=float).reshape(1, 1, n_s)},
        widths={"hub": np.full((1, 1, n_s), 100.0)},
    )


@pytest.fixture
def canonical():
    return micro_instance(), micro_scenarios()


@pytest.fixture(autouse=True)
def no_child_left():
    """After every test, this process has no child, running or unreaped:
    the CLI's forked workers (k-means scan, CSV ingest) must all be gone."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("a child process is left " + ("running" if pid == 0 else f"unreaped: {pid}"))
