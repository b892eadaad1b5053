"""Session-wide fixtures shared by the bench, CLI and replication tests."""

import pytest

from repro.bench import baseline


@pytest.fixture(scope="session")
def suite_doc():
    """One full run of the gated suite; tests deep-copy before mutating."""
    return baseline.run_suite("test")


@pytest.fixture(scope="session")
def storm_doc():
    """A 6-schedule availability storm (the full gate runs 100)."""
    return baseline.run_replication_storm(n_schedules=6, base_seed=400)
