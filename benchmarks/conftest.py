"""Shared infrastructure for the paper-reproduction benchmarks.

Each ``bench_*.py`` regenerates one table or figure of the paper.  Results
are printed and also written as text artifacts under ``results/``.  The
default working set is a stratified sample per generation (the full catalog
takes hours on the pure-Python simulator, mirroring the 50-110 minute
hardware runs of Section 7.1); set ``REPRO_FULL=1`` for complete runs.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.core.blocking import find_blocking_instructions
from repro.isa.database import load_default_database
from repro.measure.backend import HardwareBackend
from repro.uarch.configs import get_uarch

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

_BACKENDS = {}
_BLOCKING = {}


def full_run_requested() -> bool:
    """Whether ``REPRO_FULL`` asks for the full catalog instead of a
    stratified sample."""
    return os.environ.get("REPRO_FULL", "") not in ("", "0")


def hardware_backend(name: str) -> HardwareBackend:
    if name not in _BACKENDS:
        _BACKENDS[name] = HardwareBackend(get_uarch(name))
    return _BACKENDS[name]


def blocking_for(name: str, database):
    if name not in _BLOCKING:
        _BLOCKING[name] = find_blocking_instructions(
            database, hardware_backend(name)
        )
    return _BLOCKING[name]


def write_artifact(name: str, content: str) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(content)
    return path


@pytest.fixture(scope="session")
def db():
    return load_default_database()


@pytest.fixture(scope="session")
def emit():
    """Print a report block and persist it under results/."""

    def _emit(artifact_name: str, text: str) -> None:
        print()
        print(text)
        write_artifact(artifact_name, text + "\n")

    return _emit
