"""Shared fixtures.

The expensive artifacts (training datasets, the full and reduced trained
checkpoints) are built once per session; wall-clock times are recorded so the
acceptance tests can assert their runtime budgets against the same run they
take results from.
"""

import time

import numpy as np
import pytest

from aqualoc.environment import (
    DEFAULT_ENVIRONMENT,
    DEFAULT_REGION,
    DEFAULT_SOURCE,
    gen_dataset,
    synthesize_received,
)
from aqualoc.forward import TrainConfig, pretrain
from aqualoc.pln import DEFAULT_HIDDEN, REDUCED_HIDDEN, PlnArchitecture
from aqualoc.signals import TimeGrid, make_pulse


# Tests that need a trained network take minutes; `pytest -m "not slow"` skips them.
SLOW_FIXTURES = {"trained", "trained_checkpoint", "reduced_checkpoint", "theorem", "theorem_report"}


def pytest_collection_modifyitems(config, items):
    for item in items:
        if SLOW_FIXTURES & set(getattr(item, "fixturenames", ())):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def pulse():
    return make_pulse()


@pytest.fixture(scope="session")
def grid():
    return TimeGrid()


@pytest.fixture(scope="session")
def env():
    return DEFAULT_ENVIRONMENT


@pytest.fixture(scope="session")
def oracle_received(pulse, grid, env):
    """Noiseless received signal at the reference source position."""
    return synthesize_received(env, DEFAULT_SOURCE, pulse, grid)


@pytest.fixture(scope="session")
def train_dataset(pulse, grid, env):
    return gen_dataset(env, DEFAULT_REGION, 256, pulse, grid, seed=0)


@pytest.fixture(scope="session")
def trained(train_dataset):
    """Full-size checkpoint trained with default config, plus its wall time."""
    t0 = time.time()
    ck = pretrain(train_dataset, PlnArchitecture(hidden=DEFAULT_HIDDEN), TrainConfig())
    return ck, time.time() - t0


@pytest.fixture(scope="session")
def trained_checkpoint(trained):
    return trained[0]


@pytest.fixture(scope="session")
def reduced_checkpoint(train_dataset):
    """Small-network checkpoint for the dense-Hessian theorem machinery."""
    ck = pretrain(
        train_dataset, PlnArchitecture(hidden=REDUCED_HIDDEN), TrainConfig()
    )
    return ck


@pytest.fixture(scope="session")
def theorem(reduced_checkpoint):
    """Robustness report at the reference depth perturbation, plus wall time."""
    from aqualoc.theory import EnvPerturbation, TheoremConfig, verify_theorem

    t0 = time.time()
    report = verify_theorem(
        reduced_checkpoint.model,
        DEFAULT_ENVIRONMENT,
        DEFAULT_SOURCE,
        EnvPerturbation(depth_m=-0.05),
        TheoremConfig(),
    )
    return report, time.time() - t0


@pytest.fixture(scope="session")
def theorem_report(theorem):
    return theorem[0]


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
