import time

import pytest
from hypothesis import settings

from hyperclass.experiments import ARMS, run_synthetic_pipeline

# Derandomized so the whole suite, property tests included, is reproducible
# run to run; no deadline because a few properties train tiny models.
settings.register_profile("deterministic", deadline=None, derandomize=True)
settings.load_profile("deterministic")

# The seeds of the `arms` fixture and of scripts/same_bits.py's arm items.
SEEDS = range(5)


@pytest.fixture(scope="session")
def arms():
    """4 arms x 5 seeds of the default synthetic pipeline, with wall time.
    Shared by the acceptance gates and the pipeline tests."""
    out = {}
    for name, kwargs in ARMS.items():
        t0 = time.monotonic()
        out[name] = {
            "records": [run_synthetic_pipeline(seed, **kwargs) for seed in SEEDS],
            "elapsed": time.monotonic() - t0,
        }
    return out
