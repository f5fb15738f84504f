"""JSON run-configuration parsing for the command-line harness.

All randomness is seeded from config fields; nothing reads system entropy.
Section schemas are strict: unknown keys are configuration errors so typos
fail loudly instead of silently using defaults.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

from .boundary import DEFAULT_RESOLUTION, cell_tag
from .datasets import Dataset, SplitSpec, load_csv, make_spirals, split
from .divergence import GridSearchConfig
from .errors import ConfigurationError
from .evolution import GenerationConfig
from .mutation import SUBSPACE_MODES, MutationParams
from .network import NetworkSpec
from .training import TrainConfig

_TASK_KEYS = {
    "dataset", "n_train", "n_eval", "noise_std", "turns",
    "train_seed", "eval_seed", "split_seed", "eval_fractions",
    "train_csv", "eval_csv", "val_csv", "test_csv",
}
_MODEL_KEYS = {"layer_sizes", "hidden_activation", "seed", "train", "checkpoint"}
_MUTATION_KEYS = {
    "sigma", "rho", "mu", "subspace_mode", "mirrored", "anti_random",
    "search", "search_result",
}
_SEARCH_KEYS = {
    "sigma_grid", "rho_grid", "kl_target", "kl_tolerance",
    "samples_per_cell", "probe_size", "seed",
}
_EVOLUTION_KEYS = {"pop_size", "top_k", "generations", "master_seed"}
_BOUNDARY_KEYS = {"sigma_grid", "rho_grid", "resolution", "seed"}
_ABLATION_KEYS = {"sigma_grid", "rho_grid", "modes", "seeds", "pop_size", "top_k"}
_OUTPUT_KEYS = {"dir"}


def load_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        cfg = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"{path}: top level must be an object")
    return cfg


def _section(cfg: dict, name: str, allowed: set[str], required: bool = True) -> dict:
    section = cfg.get(name)
    if section is None:
        if required:
            raise ConfigurationError(f"config is missing the '{name}' section")
        return {}
    if not isinstance(section, dict):
        raise ConfigurationError(f"'{name}' section must be an object")
    unknown = set(section) - allowed - {"_comment"}
    if unknown:
        raise ConfigurationError(f"'{name}' section has unknown keys: {sorted(unknown)}")
    return section


def build_task_data(cfg: dict) -> tuple[Dataset, Dataset, Dataset]:
    """Materialize (train, validation, test) datasets from the task section."""
    task = _section(cfg, "task", _TASK_KEYS)
    kind = task.get("dataset", "spirals")
    if kind == "spirals":
        train = make_spirals(
            n=int(task.get("n_train", 2500)),
            noise_std=float(task.get("noise_std", 0.05)),
            turns=float(task.get("turns", 1.75)),
            seed=int(task.get("train_seed", 1)),
        )
        eval_pool = make_spirals(
            n=int(task.get("n_eval", 1000)),
            noise_std=float(task.get("noise_std", 0.05)),
            turns=float(task.get("turns", 1.75)),
            seed=int(task.get("eval_seed", 2)),
        )
        fractions = tuple(task.get("eval_fractions", (0.5, 0.5)))
        if len(fractions) != 2:
            raise ConfigurationError("eval_fractions must have exactly two entries")
        val, test = split(eval_pool, SplitSpec(fractions, int(task.get("split_seed", 3))))
        return train, val, test
    if kind == "csv":
        if "train_csv" not in task:
            raise ConfigurationError("csv task needs 'train_csv'")
        train = load_csv(task["train_csv"])
        if "val_csv" in task or "test_csv" in task:
            if not ("val_csv" in task and "test_csv" in task):
                raise ConfigurationError("csv task needs both 'val_csv' and 'test_csv'")
            val = load_csv(task["val_csv"], class_count=train.class_count)
            test = load_csv(task["test_csv"], class_count=train.class_count)
            return train, val, test
        if "eval_csv" not in task:
            raise ConfigurationError("csv task needs 'eval_csv' or val_csv/test_csv")
        eval_pool = load_csv(task["eval_csv"], class_count=train.class_count)
        fractions = tuple(task.get("eval_fractions", (0.5, 0.5)))
        val, test = split(eval_pool, SplitSpec(fractions, int(task.get("split_seed", 3))))
        return train, val, test
    raise ConfigurationError(f"unknown dataset kind {kind!r}")


def build_model_section(cfg: dict) -> dict:
    model = _section(cfg, "model", _MODEL_KEYS)
    has_train = "train" in model
    has_ckpt = "checkpoint" in model
    if has_train == has_ckpt:
        raise ConfigurationError("model section needs exactly one of 'train' or 'checkpoint'")
    return model


def build_network_spec(model: dict) -> NetworkSpec:
    if "layer_sizes" not in model:
        raise ConfigurationError("model section needs 'layer_sizes' to train from scratch")
    return NetworkSpec(
        layer_sizes=tuple(model["layer_sizes"]),
        hidden_activation=model.get("hidden_activation", "relu"),
        seed=int(model.get("seed", 0)),
    )


def build_train_config(model: dict) -> TrainConfig:
    train = model.get("train")
    if not isinstance(train, dict):
        raise ConfigurationError("model 'train' must be an object")
    try:
        return TrainConfig(**train)
    except TypeError as exc:
        raise ConfigurationError(f"bad train config: {exc}") from exc


def mutation_mode(cfg: dict) -> str:
    """Which of the three mutation forms the config uses."""
    mutation = _section(cfg, "mutation", _MUTATION_KEYS)
    forms = [
        "explicit" if "sigma" in mutation or "rho" in mutation else None,
        "search" if "search" in mutation else None,
        "search_result" if "search_result" in mutation else None,
    ]
    present = [f for f in forms if f]
    if len(present) != 1:
        raise ConfigurationError(
            "mutation section needs exactly one of explicit (sigma, rho), "
            "'search', or 'search_result'"
        )
    return present[0]


def build_mutation_params(
    cfg: dict, sigma: float | None = None, rho: float | None = None
) -> MutationParams:
    """The mutation distribution and spawning strategy.

    The explicit form reads sigma and rho from the section; the search
    forms pass the values their search found. The strategy keys (mu,
    subspace_mode, mirrored, anti_random) apply to all three forms.
    """
    mutation = _section(cfg, "mutation", _MUTATION_KEYS)
    if sigma is None or rho is None:
        if "sigma" not in mutation or "rho" not in mutation:
            raise ConfigurationError("explicit mutation needs both 'sigma' and 'rho'")
        sigma = _number_key(mutation, "mutation", "sigma", None)
        rho = _number_key(mutation, "mutation", "rho", None)
    return MutationParams(
        sigma=sigma,
        rho=rho,
        mu=_number_key(mutation, "mutation", "mu", 0.0),
        subspace_mode=mutation.get("subspace_mode", "dynamic"),
        mirrored=_bool_key(mutation, "mutation", "mirrored", True),
        anti_random=_bool_key(mutation, "mutation", "anti_random", False),
    )


def build_search_config(cfg: dict) -> tuple[GridSearchConfig, int]:
    mutation = _section(cfg, "mutation", _MUTATION_KEYS)
    search = mutation.get("search")
    if not isinstance(search, dict):
        raise ConfigurationError("mutation 'search' must be an object")
    unknown = set(search) - _SEARCH_KEYS
    if unknown:
        raise ConfigurationError(f"search directive has unknown keys: {sorted(unknown)}")
    if "sigma_grid" not in search or "rho_grid" not in search:
        raise ConfigurationError("search directive needs 'sigma_grid' and 'rho_grid'")
    seed = int(search.get("seed", 0))
    kwargs = {k: v for k, v in search.items() if k != "seed"}
    return GridSearchConfig(**kwargs), seed


def build_generation_config(cfg: dict, mutation: MutationParams) -> tuple[GenerationConfig, int]:
    evolution = _section(cfg, "evolution", _EVOLUTION_KEYS)
    gen_cfg = GenerationConfig(
        mutation=mutation,
        pop_size=_int_key(evolution, "evolution", "pop_size", 16, 1),
        top_k=_int_key(evolution, "evolution", "top_k", 8, 1),
        generations=_int_key(evolution, "evolution", "generations", 1, 1),
    )
    return gen_cfg, _int_key(evolution, "evolution", "master_seed", 0, 0)


def _int_value(value, name: str, key: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigurationError(f"{name} '{key}' must be an integer >= {minimum}, got {value!r}")
    return value


def _int_key(section: dict, name: str, key: str, default: int, minimum: int) -> int:
    return _int_value(section.get(key, default), name, key, minimum)


def _is_finite_number(value) -> bool:
    return (
        not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)
    )


def _number_key(section: dict, name: str, key: str, default) -> float:
    value = section.get(key, default)
    if not _is_finite_number(value):
        raise ConfigurationError(f"{name} '{key}' must be a finite number, got {value!r}")
    return float(value)


def _bool_key(section: dict, name: str, key: str, default: bool) -> bool:
    value = section.get(key, default)
    if not isinstance(value, bool):
        raise ConfigurationError(f"{name} '{key}' must be true or false, got {value!r}")
    return value


def _number_grid(section: dict, name: str, key: str, rule: str, ok) -> list[float]:
    grid = section[key]
    if not isinstance(grid, list) or not grid:
        raise ConfigurationError(f"{name} '{key}' must be a non-empty list, got {grid!r}")
    for value in grid:
        if not _is_finite_number(value) or not ok(value):
            raise ConfigurationError(f"{name} '{key}' values must be {rule}, got {value!r}")
    return [float(v) for v in grid]


def boundary_section(cfg: dict) -> dict:
    """The boundary section with defaults filled in and every value checked.

    Returns sigma_grid and rho_grid as float lists, resolution and seed as
    ints. Grids whose cells would share an output file name are rejected.
    """
    section = _section(cfg, "boundary", _BOUNDARY_KEYS)
    if "sigma_grid" not in section or "rho_grid" not in section:
        raise ConfigurationError("boundary section needs 'sigma_grid' and 'rho_grid'")
    sigmas = _number_grid(section, "boundary", "sigma_grid", "finite and >= 0", lambda s: s >= 0)
    rhos = _number_grid(section, "boundary", "rho_grid", "in [0, 1)", lambda r: 0 <= r < 1)
    tags = {cell_tag(s, r) for s in sigmas for r in rhos}
    if len(tags) != len(sigmas) * len(rhos):
        raise ConfigurationError(
            f"boundary grids name the same cell twice: sigma_grid {sigmas}, rho_grid {rhos}"
        )
    return {
        "sigma_grid": sigmas,
        "rho_grid": rhos,
        "resolution": _int_key(section, "boundary", "resolution", DEFAULT_RESOLUTION, 1),
        "seed": _int_key(section, "boundary", "seed", 0, 0),
    }


def ablation_section(cfg: dict) -> dict:
    """The ablation section with defaults filled in and every value checked.

    Returns sigma_grid and rho_grid as float lists, modes as a list of
    subspace modes, seeds as an int list, and pop_size and top_k as ints.
    """
    section = _section(cfg, "ablation", _ABLATION_KEYS)
    for key in ("sigma_grid", "rho_grid", "seeds"):
        if key not in section:
            raise ConfigurationError(f"ablation section needs '{key}'")
    modes = section.get("modes", ["dynamic"])
    if not isinstance(modes, list) or not modes or any(m not in SUBSPACE_MODES for m in modes):
        raise ConfigurationError(
            f"ablation 'modes' must be a non-empty list of {SUBSPACE_MODES}, got {modes!r}"
        )
    seeds = section["seeds"]
    if not isinstance(seeds, list) or not seeds:
        raise ConfigurationError(f"ablation 'seeds' must be a non-empty list, got {seeds!r}")
    return {
        "sigma_grid": _number_grid(
            section, "ablation", "sigma_grid", "finite and > 0", lambda s: s > 0
        ),
        "rho_grid": _number_grid(section, "ablation", "rho_grid", "in [0, 1)", lambda r: 0 <= r < 1),
        "modes": modes,
        "seeds": [_int_value(seed, "ablation", "seeds", 0) for seed in seeds],
        "pop_size": _int_key(section, "ablation", "pop_size", 16, 1),
        "top_k": _int_key(section, "ablation", "top_k", 4, 1),
    }


def resolve_out_dir(cfg: dict, cli_out: str | None) -> Path:
    """Output directory priority: SMD_OUT env, then --out, then config."""
    output = _section(cfg, "output", _OUTPUT_KEYS, required=False)
    env = os.environ.get("SMD_OUT")
    chosen = env or cli_out or output.get("dir", "out")
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path
