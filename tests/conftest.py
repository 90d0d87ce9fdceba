"""Shared pytest configuration for the package's test suite."""

from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent


def pytest_collection_modifyitems(config, items):
    # Numerical RuntimeWarnings (overflow, invalid value, division by zero)
    # fail every test in this directory.
    for item in items:
        if TESTS_DIR in Path(item.path).resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))
