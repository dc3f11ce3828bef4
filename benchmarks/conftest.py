"""Shared fixtures for the benchmark harness."""

import json
from pathlib import Path

import pytest

from repro.gatelib import BestagonLibrary
from repro.synthesis import NpnDatabase

ARTIFACTS = Path(__file__).parent / "artifacts"


@pytest.fixture(scope="session")
def npn_database():
    """One NPN database per session (exact-synthesis results are cached)."""
    return NpnDatabase()


@pytest.fixture(scope="session")
def bestagon_library():
    return BestagonLibrary()


def print_header(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def write_artifact(record: dict, name: str) -> Path:
    """Write ``record`` as JSON to ``artifacts/<name>``; returns the path."""
    path = ARTIFACTS / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path
