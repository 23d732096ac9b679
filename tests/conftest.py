import os
from pathlib import Path

import pytest

import stackdet
from stackdet.synth import (
    PopulationConfig,
    default_partition_specs,
    generate_population,
)

# the thread-count variables of OpenBLAS, OpenMP and MKL builds of numpy
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(scope="session")
def benchmark_population_small_dim():
    """Full benchmark-shaped population at a small dimension (cheap to share)."""
    config = PopulationConfig(dimension=8, seed=97)
    train_spec, dev_spec, test_spec = default_partition_specs()
    return generate_population(config, train_spec, dev_spec, test_spec)


@pytest.fixture(scope="session")
def child_env():
    """``child_env(blas_threads)``: environment for a child Python process.

    The child imports the same ``stackdet`` as the tests, and BLAS runs on
    ``blas_threads`` threads (read once, when numpy loads BLAS).
    """
    src = str(Path(stackdet.__file__).resolve().parents[1])

    def env(blas_threads: int) -> dict[str, str]:
        out = dict(os.environ)
        out["PYTHONPATH"] = os.pathsep.join(filter(None, [src, out.get("PYTHONPATH")]))
        out.update((var, str(blas_threads)) for var in BLAS_THREAD_VARS)
        return out

    return env
