from __future__ import annotations

import pytest

from situsearch.datagen import default_generator_config, generate_synthetic


@pytest.fixture(scope="session")
def small_synthetic_dataset():
    """60 synthetic annotations shared across harness-level tests."""
    config = default_generator_config(seed=7)
    return generate_synthetic(config, 60)
