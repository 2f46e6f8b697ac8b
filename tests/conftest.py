import pathlib

import pytest

from rmgcr.geogrid import (
    GridConfig,
    ObjectSpec,
    full_coverage_dataset,
    generate_dataset,
)
from rmgcr.ground import train_label_model, train_pvfs_fqi
from rmgcr.rm import load_rm

TASKS_DIR = pathlib.Path(__file__).resolve().parent.parent / "tasks"

GAMMA = 0.97
GAMMA_RM = 0.97 ** 10


def all_assignments(vocab):
    """All 2^|vocab| truth assignments, as frozensets, in label-mask order."""
    vocab = tuple(vocab)
    for mask in range(1 << len(vocab)):
        yield frozenset(a for i, a in enumerate(vocab) if mask >> i & 1)


@pytest.fixture(scope="session")
def desk_cfg():
    """Default 6x6 fixed-layout grid with the six standard objects."""
    return GridConfig()


@pytest.fixture(scope="session")
def corridor_cfg():
    """1x4 corridor with a red triangle at the right end."""
    return GridConfig(
        width=4,
        height=1,
        objects=(ObjectSpec("red", "triangle", (0, 3)),),
        episode_len=10,
    )


@pytest.fixture(scope="session")
def desk_pvfs(desk_cfg):
    """Tabular FQI primitive value functions with full dynamics coverage."""
    return train_pvfs_fqi(full_coverage_dataset(desk_cfg), GAMMA)


@pytest.fixture(scope="session")
def corridor_pvfs(corridor_cfg):
    return train_pvfs_fqi(full_coverage_dataset(corridor_cfg), GAMMA)


@pytest.fixture(scope="session")
def desk_dataset(desk_cfg):
    return generate_dataset(desk_cfg, 200, seed=1)


@pytest.fixture(scope="session")
def desk_label_model(desk_dataset):
    return train_label_model(desk_dataset)


@pytest.fixture(scope="session")
def exact_label_model(desk_cfg):
    """Tabular label model memorizing every state of the fixed layout."""
    return train_label_model(
        full_coverage_dataset(desk_cfg), backend="tabular", holdout_fraction=0.0
    )


def _loader(name):
    @pytest.fixture(scope="session")
    def fixture():
        return load_rm(TASKS_DIR / name)

    return fixture


sequence_rm = _loader("sequence.rm")
loop_rm = _loader("loop.rm")
safety_rm = _loader("safety.rm")
logic_rm = _loader("logic.rm")
lava_rm = _loader("lava.rm")
