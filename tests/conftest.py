"""Shared fixtures.

Hardware backends and blocking-instruction discovery are expensive, so they
are session-scoped and shared across test modules.
"""

from __future__ import annotations

import pytest

from repro.core.blocking import find_blocking_instructions
from repro.isa.database import load_default_database
from repro.measure.backend import HardwareBackend
from repro.uarch.configs import ALL_UARCHES, get_uarch

_BACKENDS = {}
_BLOCKING = {}


@pytest.fixture(scope="session")
def db():
    return load_default_database()


def backend_for(name: str) -> HardwareBackend:
    if name not in _BACKENDS:
        _BACKENDS[name] = HardwareBackend(get_uarch(name))
    return _BACKENDS[name]


def blocking_for(name: str, database):
    if name not in _BLOCKING:
        _BLOCKING[name] = find_blocking_instructions(
            database, backend_for(name)
        )
    return _BLOCKING[name]


@pytest.fixture(scope="session")
def skl_backend():
    return backend_for("SKL")


@pytest.fixture(scope="session")
def hsw_backend():
    return backend_for("HSW")


@pytest.fixture(scope="session")
def nhm_backend():
    return backend_for("NHM")


@pytest.fixture(scope="session")
def snb_backend():
    return backend_for("SNB")


@pytest.fixture(scope="session")
def skl_blocking(db):
    return blocking_for("SKL", db)


@pytest.fixture(scope="session")
def nhm_blocking(db):
    return blocking_for("NHM", db)


@pytest.fixture(scope="session")
def all_uarch_names():
    return [u.name for u in ALL_UARCHES]
