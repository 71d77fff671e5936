"""Shared fixtures.

The expensive artifacts (training datasets, the full and reduced trained
checkpoints, the theorem report) are built once per session.
"""

import numpy as np
import pytest

from aqualoc.environment import (
    DEFAULT_ENVIRONMENT,
    DEFAULT_REGION,
    DEFAULT_SOURCE,
    gen_dataset,
    synthesize_received,
)
from aqualoc.forward import Checkpoint, ModelParams, TrainConfig, pretrain, save_checkpoint
from aqualoc.pln import DEFAULT_HIDDEN, REDUCED_HIDDEN, InputNormalization, PlnArchitecture, pln_init
from aqualoc.signals import TimeGrid, make_pulse


# Tests that need a trained network take minutes; `pytest -m "not slow"` skips them.
SLOW_FIXTURES = {"trained_checkpoint", "reduced_checkpoint", "theorem_report"}


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
def trained_checkpoint(train_dataset):
    """Full-size checkpoint trained with default config."""
    return pretrain(train_dataset, PlnArchitecture(hidden=DEFAULT_HIDDEN), TrainConfig())


@pytest.fixture(scope="session")
def reduced_checkpoint(train_dataset):
    """Small-network checkpoint for the dense-Hessian theorem machinery."""
    return pretrain(train_dataset, PlnArchitecture(hidden=REDUCED_HIDDEN), TrainConfig())


@pytest.fixture(scope="session")
def untrained_checkpoint(tmp_path_factory):
    """Path of a checkpoint holding the reduced network at its initial weights."""
    norm = InputNormalization.from_region(DEFAULT_REGION, DEFAULT_ENVIRONMENT)
    params = pln_init(PlnArchitecture(hidden=REDUCED_HIDDEN), norm, 0)
    model = ModelParams(params, DEFAULT_ENVIRONMENT.sound_speed,
                        DEFAULT_ENVIRONMENT.receiver_depth, make_pulse())
    return save_checkpoint(Checkpoint(model), tmp_path_factory.mktemp("ck") / "ck.json")


@pytest.fixture(scope="session")
def theorem_report(reduced_checkpoint):
    """Robustness report at the reference depth perturbation."""
    from aqualoc.forward import NetworkModel
    from aqualoc.theory import TheoremConfig, verify_theorem

    return verify_theorem(
        NetworkModel(reduced_checkpoint.model),
        DEFAULT_ENVIRONMENT,
        DEFAULT_SOURCE,
        -0.05,
        TheoremConfig(),
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
