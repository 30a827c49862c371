"""Shared test configuration: hypothesis profile and one shared CLI self-check run."""
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def validate_cli_run():
    """One `qmemory validate` subprocess, shared by every test that reads it."""
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "qmemory", "validate"],
        capture_output=True,
        text=True,
    )
