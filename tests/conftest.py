"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.config import SparkERConfig
from repro.data.synthetic import (
    SyntheticConfig,
    generate_abt_buy_like,
    generate_bibliographic,
    generate_dirty_persons,
    toy_bibliographic_dataset,
)
from repro.engine.context import EngineContext


@pytest.fixture
def toy_dataset():
    """The 4-profile toy example of the paper's Figure 1."""
    return toy_bibliographic_dataset()


@pytest.fixture(scope="session")
def abt_buy_small():
    """A small synthetic Abt-Buy-like clean-clean dataset (fast, ~100 profiles)."""
    return generate_abt_buy_like(SyntheticConfig(num_entities=60, seed=3))


@pytest.fixture(scope="session")
def abt_buy_medium():
    """A medium synthetic Abt-Buy-like dataset used by integration tests."""
    return generate_abt_buy_like(SyntheticConfig(num_entities=150, seed=5))


@pytest.fixture(scope="session")
def bibliographic_small():
    """A small synthetic bibliographic clean-clean dataset."""
    return generate_bibliographic(num_entities=80, seed=9)


@pytest.fixture(scope="session")
def dirty_persons_small():
    """A small synthetic dirty-ER person dataset."""
    return generate_dirty_persons(num_entities=60, seed=13)


@pytest.fixture
def engine():
    """A fresh serial engine context splitting jobs into 4 ranges."""
    return EngineContext(default_parallelism=4)


@pytest.fixture
def default_config():
    """The unsupervised default configuration."""
    return SparkERConfig.unsupervised_default()
