"""Golden fixtures built from the worked medical example tables."""

from __future__ import annotations

from pathlib import Path

import pytest

from pacas.hierarchy import load_hierarchy_set
from pacas.metrics import Distribution
from pacas.pricing import SupportSet
from pacas.relation import DependencyConfig, load_relation

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def hierarchies():
    return load_hierarchy_set(FIXTURES / "hierarchies.json")


@pytest.fixture(scope="session")
def dep_config():
    return DependencyConfig.from_json(FIXTURES / "config.json")


@pytest.fixture(scope="session")
def master(hierarchies):
    return load_relation(FIXTURES / "master.csv", hierarchies)


@pytest.fixture()
def dirty(hierarchies):
    return load_relation(FIXTURES / "dirty.csv", hierarchies)


@pytest.fixture(scope="session")
def truth(hierarchies):
    return load_relation(FIXTURES / "truth.csv", hierarchies)


@pytest.fixture(scope="session")
def public(hierarchies):
    return load_relation(FIXTURES / "public.csv", hierarchies)


@pytest.fixture()
def golden_support(master):
    return SupportSet.load(FIXTURES / "golden_support.json", master.copy())


@pytest.fixture(scope="session")
def age_distribution(master, hierarchies):
    return Distribution.from_relation(master, "AGE")


@pytest.fixture(scope="session")
def med_distribution(master, hierarchies):
    return Distribution.from_relation(master, "MED")
