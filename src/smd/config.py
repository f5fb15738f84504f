"""JSON run-configuration parsing for the command-line harness.

`SCHEMA` declares every config key once: section -> key -> (kind, default).
`section` checks a section, or a nested object such as `model.train`,
against it. Unknown keys, values of the wrong kind and missing required keys
are configuration errors that name the section and the key, so typos fail
loudly instead of silently using defaults. A default of None leaves an absent
key out, so the dataclass the key builds supplies its own default. Rules that
tie keys together stay in the `build_*` functions. All randomness is seeded
from config fields; nothing reads system entropy.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Callable, NamedTuple

from .boundary import DEFAULT_RESOLUTION, cell_tag
from .datasets import Dataset, SplitSpec, load_csv, make_spirals, split
from .divergence import GridSearchConfig
from .errors import ConfigurationError
from .evolution import GenerationConfig
from .mutation import SUBSPACE_MODES, MutationParams, group_roles
from .network import ACTIVATIONS, NetworkSpec
from .training import OPTIMIZERS, TrainConfig


class Kind(NamedTuple):
    """What a config value may be: its JSON types (a bool is never a number),
    a range check, and the cast applied to a value that passes both."""

    rule: str
    types: tuple[type, ...]
    ok: Callable = lambda v: True
    cast: Callable = lambda v: v


def _valid(kind: Kind, value) -> bool:
    return type(value) in kind.types and kind.ok(value)


def _integer(minimum: int) -> Kind:
    return Kind(f"an integer >= {minimum}", (int,), lambda v: v >= minimum)


def _number(rule: str = "", ok: Callable = lambda v: True) -> Kind:
    return Kind(f"a finite number{rule}", (int, float), lambda v: math.isfinite(v) and ok(v), float)


def _one_of(options: tuple[str, ...]) -> Kind:
    return Kind(f"one of {list(options)}", (str,), lambda v: v in options)


def _list_of(item: Kind, length: int = 0) -> Kind:
    size = f"a list of {length}" if length else "a non-empty list"
    return Kind(
        f"{size}, each {item.rule}",
        (list,),
        lambda v: 0 < len(v) == (length or len(v)) and all(_valid(item, x) for x in v),
        lambda v: [item.cast(x) for x in v],
    )


BOOL = Kind("true or false", (bool,))
STRING = Kind("a string", (str,))
OBJECT = Kind("an object", (dict,))  # a nested object, checked against SCHEMA["<section>.<key>"]
REQUIRED = object()  # the default of a key the section cannot do without

_SEED, _COUNT = _integer(0), _integer(1)
_NONNEGATIVE = _number(" >= 0", lambda v: v >= 0)
_POSITIVE = _number(" > 0", lambda v: v > 0)
_RHO = _number(" in [0, 1)", lambda v: 0 <= v < 1)
_BETA = _number(" in (0, 1)", lambda v: 0 < v < 1)

SCHEMA: dict[str, dict[str, tuple[Kind, object]]] = {
    "task": {
        "dataset": (_one_of(("spirals", "csv")), "spirals"),
        "n_train": (_COUNT, 2500),
        "n_eval": (_COUNT, 1000),
        "noise_std": (_NONNEGATIVE, None),
        "turns": (_POSITIVE, None),
        "train_seed": (_SEED, 1),
        "eval_seed": (_SEED, 2),
        "split_seed": (_SEED, 3),
        "eval_fractions": (_list_of(_NONNEGATIVE, 2), [0.5, 0.5]),
        "train_csv": (STRING, None),
        "eval_csv": (STRING, None),
        "val_csv": (STRING, None),
        "test_csv": (STRING, None),
    },
    "model": {
        "layer_sizes": (_list_of(_COUNT), None),
        "hidden_activation": (_one_of(ACTIVATIONS), None),
        "seed": (_SEED, None),
        "train": (OBJECT, None),
        "checkpoint": (STRING, None),
    },
    "model.train": {
        "optimizer": (_one_of(OPTIMIZERS), None),
        "learning_rate": (_POSITIVE, None),
        "epochs": (_COUNT, None),
        "batch_size": (_COUNT, None),
        "adam_beta1": (_BETA, None),
        "adam_beta2": (_BETA, None),
        "adam_eps": (_POSITIVE, None),
        "shuffle_seed": (_SEED, None),
    },
    "mutation": {
        "sigma": (_POSITIVE, None),
        "rho": (_RHO, None),
        "mu": (_number(), None),
        "subspace_mode": (_one_of(SUBSPACE_MODES), None),
        "mirrored": (BOOL, None),
        "anti_random": (BOOL, None),
        "search": (OBJECT, None),
        "search_result": (STRING, None),
    },
    "mutation.search": {
        "sigma_grid": (_list_of(_POSITIVE), REQUIRED),
        "rho_grid": (_list_of(_RHO), REQUIRED),
        "kl_target": (_POSITIVE, None),
        "kl_tolerance": (_POSITIVE, None),
        "samples_per_cell": (_COUNT, None),
        "probe_size": (_COUNT, None),
        "seed": (_SEED, 0),
    },
    "evolution": {
        "pop_size": (_COUNT, None),
        "top_k": (_COUNT, None),
        "generations": (_COUNT, None),
        "master_seed": (_SEED, 0),
    },
    "boundary": {
        "sigma_grid": (_list_of(_NONNEGATIVE), REQUIRED),
        "rho_grid": (_list_of(_RHO), REQUIRED),
        "resolution": (_COUNT, DEFAULT_RESOLUTION),
        "seed": (_SEED, 0),
    },
    "ablation": {
        "sigma_grid": (_list_of(_POSITIVE), REQUIRED),
        "rho_grid": (_list_of(_RHO), REQUIRED),
        "modes": (_list_of(_one_of(SUBSPACE_MODES)), ["dynamic"]),
        "seeds": (_list_of(_SEED), REQUIRED),
        "pop_size": (_COUNT, 16),
        "top_k": (_COUNT, 4),
    },
    "output": {"dir": (STRING, "out")},
}


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


def _value(name: str, key: str, kind: Kind, value):
    if not _valid(kind, value):
        raise ConfigurationError(f"{name} '{key}' must be {kind.rule}, got {value!r}")
    return kind.cast(value)


def section(cfg: dict, name: str, required: bool = False) -> dict:
    """The checked `name` section of cfg, with defaults filled in.

    A dotted name such as `mutation.search` names the object under its last
    part; cfg is then the parent object.
    """
    if name not in SCHEMA:
        raise ConfigurationError(f"config has an unknown section {name!r}")
    parent, _, last = name.rpartition(".")
    if last not in cfg and required:
        raise ConfigurationError(f"config is missing the '{name}' section")
    raw = _value(parent or "config", last, OBJECT, cfg.get(last, {}))
    unknown = raw.keys() - SCHEMA[name].keys() - {"_comment"}
    if unknown:
        raise ConfigurationError(f"'{name}' section has unknown keys: {sorted(unknown)}")
    checked = {}
    for key, (kind, default) in SCHEMA[name].items():
        if key in raw and kind is OBJECT:
            checked[key] = section(raw, f"{name}.{key}")
        elif key in raw:
            checked[key] = _value(name, key, kind, raw[key])
        elif default is REQUIRED:
            raise ConfigurationError(f"{name} section needs '{key}'")
        elif default is not None:
            checked[key] = kind.cast(default)
    return checked


def build_task_data(cfg: dict) -> tuple[Dataset, Dataset, Dataset]:
    """Materialize (train, validation, test) datasets from the task section."""
    task = section(cfg, "task", required=True)
    if task["dataset"] == "spirals":
        shape = {k: task[k] for k in ("noise_std", "turns") if k in task}
        train = make_spirals(task["n_train"], seed=task["train_seed"], **shape)
        eval_pool = make_spirals(task["n_eval"], seed=task["eval_seed"], **shape)
    else:
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
    val, test = split(eval_pool, SplitSpec(task["eval_fractions"], task["split_seed"]))
    return train, val, test


def build_model_section(cfg: dict) -> dict:
    model = section(cfg, "model", required=True)
    if ("train" in model) == ("checkpoint" in model):
        raise ConfigurationError("model section needs exactly one of 'train' or 'checkpoint'")
    return model


def build_network_spec(model: dict) -> NetworkSpec:
    if "layer_sizes" not in model:
        raise ConfigurationError("model section needs 'layer_sizes' to train from scratch")
    keys = ("layer_sizes", "hidden_activation", "seed")
    return NetworkSpec(**{k: model[k] for k in keys if k in model})


def build_train_config(model: dict) -> TrainConfig:
    return TrainConfig(**model["train"])


def mutation_mode(cfg: dict) -> str:
    """Which of the three mutation forms the config uses."""
    mutation = section(cfg, "mutation", required=True)
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
    cfg: dict, found: object = None, source: str = "mutation"
) -> MutationParams:
    """The mutation distribution and spawning strategy.

    sigma and rho come from `found` (what a search found, or a search result
    artifact named `source`), else from the explicit form of the section;
    either way they must pass the section's kinds. The strategy keys (mu,
    subspace_mode, mirrored, anti_random) apply to all three forms.
    """
    mutation = section(cfg, "mutation", required=True)
    found = mutation if found is None else found
    if not isinstance(found, dict) or not {"sigma", "rho"} <= found.keys():
        raise ConfigurationError(f"{source} needs both 'sigma' and 'rho', got {found!r}")
    sigma, rho = (_value(source, k, SCHEMA["mutation"][k][0], found[k]) for k in ("sigma", "rho"))
    strategy = ("mu", "subspace_mode", "mirrored", "anti_random")
    params = MutationParams(sigma, rho, **{k: mutation[k] for k in strategy if k in mutation})
    if params.anti_random and rho == 0:
        raise ConfigurationError(
            f"mutation 'anti_random' needs rho > 0, got rho 0 from {source}: the complement "
            "subspace is empty, so its children would copy the parent"
        )
    return params


def build_search_config(cfg: dict) -> tuple[GridSearchConfig, int]:
    search = dict(section(cfg, "mutation", required=True)["search"])
    seed = search.pop("seed")
    return GridSearchConfig(**search), seed


def generation_sizes(cfg: dict) -> tuple[dict, int]:
    """The evolution section's sizes, as `GenerationConfig` keywords, and its
    master seed. The sizes pass `GenerationConfig`'s rules, and pop_size the
    spawning-group rule of the mutation section's strategy, here, before the
    mutation is resolved, so a bad size fails before a KL grid search."""
    evolution = dict(section(cfg, "evolution", required=True))
    master_seed = evolution.pop("master_seed")
    sizes = GenerationConfig(None, **evolution)  # the mutation is not known yet
    mutation = section(cfg, "mutation", required=True)
    group_roles(
        mutation.get("mirrored", MutationParams.mirrored),
        mutation.get("anti_random", MutationParams.anti_random),
        sizes.pop_size,
    )
    return evolution, master_seed


def boundary_section(cfg: dict) -> dict:
    """The checked boundary section; grids whose cells would share an output
    file name are rejected."""
    checked = section(cfg, "boundary", required=True)
    sigmas, rhos = checked["sigma_grid"], checked["rho_grid"]
    if len({cell_tag(s, r) for s in sigmas for r in rhos}) != len(sigmas) * len(rhos):
        raise ConfigurationError(
            f"boundary grids name the same cell twice: sigma_grid {sigmas}, rho_grid {rhos}"
        )
    return checked


def ablation_section(cfg: dict) -> dict:
    return section(cfg, "ablation", required=True)


def resolve_out_dir(cfg: dict, cli_out: str | None) -> Path:
    """Output directory priority: SMD_OUT env, then --out, then config."""
    output = section(cfg, "output")
    path = Path(os.environ.get("SMD_OUT") or cli_out or output["dir"])
    path.mkdir(parents=True, exist_ok=True)
    return path
