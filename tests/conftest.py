"""Shared fixtures; the helpers and oracles that tests import by name live in ``helpers``."""
from __future__ import annotations

import numpy as np
import pytest

RNG_SEED = 20240917


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(RNG_SEED)
