from __future__ import annotations

import os
from dataclasses import dataclass

import pytest

import numpy as np

from smd import (
    Dataset,
    Network,
    NetworkSpec,
    init_network,
    make_spirals,
    split,
    train_model,
)
from smd.checkpoint import load_checkpoint, save_checkpoint
from smd.config import check
from smd.errors import ConfigurationError

from oracles import train_settings


@dataclass
class Task:
    train: Dataset
    val: Dataset
    test: Dataset
    parent: Network  # checkpoint round-tripped, i.e. float32-valued


def _build_task(tmp_path, turns: float, batch_size: int, n_eval: int) -> Task:
    train = make_spirals(2500, turns=turns, seed=1)
    pool = make_spirals(n_eval, turns=turns, seed=2)
    val, test = split(pool, (0.5, 0.5), seed=3)
    spec = NetworkSpec([2, 64, 64, 64, 2], seed=7)
    trained = train_model(init_network(spec), train, **train_settings(batch_size=batch_size))
    ckpt = tmp_path / f"parent_t{turns}_b{batch_size}.ckpt"
    save_checkpoint(trained, ckpt)
    return Task(train, val, test, load_checkpoint(ckpt))


@pytest.fixture(scope="session")
def spiral_task(tmp_path_factory) -> Task:
    """Default-parameter task: 1.75-turn spirals, 1000-sample eval pool."""
    return _build_task(tmp_path_factory.mktemp("spiral"), turns=1.75, batch_size=16, n_eval=1000)


@pytest.fixture(scope="session")
def bench_task(tmp_path_factory) -> Task:
    """Harder task used by the acceptance experiments: 2-turn spirals,
    batch size 8, 5000-sample eval pool (2500 validation / 2500 test)."""
    return _build_task(tmp_path_factory.mktemp("bench"), turns=2.0, batch_size=8, n_eval=5000)


# The smallest config of each command that `config.check` accepts. The
# checkpoint it names is never read: the check reads no file.
CHECK_BASES = {
    "train": {"task": {}, "model": {"layer_sizes": [2, 8, 2], "train": {}}},
    "search": {
        "task": {},
        "model": {"checkpoint": "unread.ckpt"},
        "mutation": {"search": {"sigma_grid": [0.05], "rho_grid": [0.5]}},
    },
    "evolve": {
        "task": {},
        "model": {"checkpoint": "unread.ckpt"},
        "mutation": {"sigma": 0.05, "rho": 0.5},
        "evolution": {"pop_size": 4, "top_k": 2},
    },
    "ablate": {
        "task": {},
        "model": {"checkpoint": "unread.ckpt"},
        "ablation": {"sigma_grid": [0.05], "rho_grid": [0.5], "seeds": [0]},
    },
}


@pytest.fixture()
def config_error(tmp_path):
    """The message of the error `config.check` raises for a command's
    `CHECK_BASES` config with the given sections in place of its own."""

    def error(command: str, **sections) -> str:
        with pytest.raises(ConfigurationError) as exc:
            check(dict(CHECK_BASES[command], **sections), command, str(tmp_path))
        return str(exc.value)

    return error


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def no_unreaped_children():
    """Fail a test that leaves a child process behind, running or exited
    but not reaped, as a command that left a worker would."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    what = "still running" if pid == 0 else f"pid {pid}, exited but not reaped"
    pytest.fail(f"the test left a child process behind ({what})")
