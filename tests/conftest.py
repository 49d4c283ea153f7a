"""Shared fixtures for the test suite: laptop-scale configs and traces."""

import os
import sys

import numpy as np
import pytest

from repro.data.trace import SyntheticDataset, make_dataset
from repro.hardware.spec import DEFAULT_HARDWARE
from repro.model.config import ModelConfig, tiny_config

_DEV_SHM = "/dev/shm"


def _shm_segments() -> set:
    """Names of the POSIX shared-memory segments currently alive."""
    try:
        return set(os.listdir(_DEV_SHM))
    except OSError:
        return set()


@pytest.fixture
def shm_leak_check():
    """Assert the test leaks no shared-memory segments.

    Snapshots ``/dev/shm`` before the test and fails if new ``psm_``
    segments (Python's ``multiprocessing.shared_memory`` prefix) survive
    it — the acceptance check for crash/mid-publish cleanup.  Skips where
    ``/dev/shm`` is unavailable (non-Linux).
    """
    if not (sys.platform.startswith("linux") and os.path.isdir(_DEV_SHM)):
        pytest.skip("shared-memory leak check requires /dev/shm")
    before = _shm_segments()
    yield
    leaked = {
        name
        for name in _shm_segments() - before
        if name.startswith("psm_")
    }
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


@pytest.fixture
def rng():
    """Deterministic RNG for tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_cfg() -> ModelConfig:
    """Structurally complete, laptop-scale model config."""
    return tiny_config()


@pytest.fixture
def small_cfg() -> ModelConfig:
    """Slightly larger functional config exercising duplicates and misses."""
    return tiny_config(
        rows_per_table=400, batch_size=8, lookups_per_table=3, num_tables=2
    )


@pytest.fixture
def hardware():
    """Default (paper) hardware spec."""
    return DEFAULT_HARDWARE


@pytest.fixture
def small_dataset(small_cfg) -> SyntheticDataset:
    """Medium-locality functional dataset with dense features and labels."""
    return make_dataset(small_cfg, "medium", seed=7, num_batches=24, with_dense=True)


@pytest.fixture
def id_only_dataset(small_cfg) -> SyntheticDataset:
    """Medium-locality ID-only dataset for cache-behaviour tests."""
    return make_dataset(small_cfg, "medium", seed=7, num_batches=24)


def pytest_addoption(parser):
    parser.addoption(
        "--regen-digests",
        action="store_true",
        default=False,
        help="rewrite tests/golden/digests.json from the current code "
        "instead of comparing against it (review the diff like code)",
    )
