"""JSON run-configuration checking for the command-line harness.

`SCHEMA` declares every config key once: section -> key -> (kind, default).
`section` checks a section, or a nested object such as `model.train`,
against it. Unknown keys, values of the wrong kind and missing required keys
are configuration errors that name the section and the key, so typos fail
loudly instead of silently using defaults. A None default marks an optional
key with no default; a default that the class or function the key builds
declares is read from it (`NetworkSpec.seed`), never copied.

`check` is the one check of a command's config, run before any data or
checkpoint is read: it runs `section` once per section, applies every rule
that ties keys together, and hands the command only checked values: each
command calls its library function with its checked section as keywords
(none of those functions declares a default of its own), and asks
`build_task_data` for the datasets it reads. Size rules bound what a config
asks numpy to allocate, estimated from checked values, so the check
allocates nothing: a boundary's grids (`_BOUNDARY_GRID_BYTES`), and a
genome or a spirals set (`_ARRAY_BYTES`). Two library checks
run again on values it has checked: the divisibility check of
`group_roles`, which `spawn_mutations` also calls, and
`NetworkSpec.__post_init__`. A file that cannot be opened (the config, a
search result) raises its `OSError`, which names the path and which
`cli.main` reports. All randomness is seeded from config fields; nothing
reads system entropy.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

from .boundary import cell_tag
from .datasets import Dataset, load_csv, make_spirals, split
from .errors import ConfigurationError
from .mutation import SUBSPACE_MODES, MutationParams, group_roles
from .network import ACTIVATIONS, NetworkSpec
from .training import OPTIMIZERS


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
        "noise_std": (_NONNEGATIVE, make_spirals.__kwdefaults__["noise_std"]),
        "turns": (_POSITIVE, make_spirals.__kwdefaults__["turns"]),
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
        "hidden_activation": (_one_of(ACTIVATIONS), NetworkSpec.hidden_activation),
        "seed": (_SEED, NetworkSpec.seed),
        "train": (OBJECT, None),
        "checkpoint": (STRING, None),
    },
    "model.train": {
        "optimizer": (_one_of(OPTIMIZERS), "adam"),
        "learning_rate": (_POSITIVE, 0.001),
        "epochs": (_COUNT, 10),
        "batch_size": (_COUNT, 16),
        "adam_beta1": (_BETA, 0.9),
        "adam_beta2": (_BETA, 0.999),
        "adam_eps": (_POSITIVE, 1e-8),
        "shuffle_seed": (_SEED, 0),
    },
    "mutation": {
        "sigma": (_POSITIVE, None),
        "rho": (_RHO, None),
        "mu": (_number(), MutationParams.mu),
        "subspace_mode": (_one_of(SUBSPACE_MODES), MutationParams.subspace_mode),
        "mirrored": (BOOL, MutationParams.mirrored),
        "anti_random": (BOOL, MutationParams.anti_random),
        "search": (OBJECT, None),
        "search_result": (STRING, None),
    },
    "mutation.search": {
        "sigma_grid": (_list_of(_POSITIVE), REQUIRED),
        "rho_grid": (_list_of(_RHO), REQUIRED),
        "kl_target": (_POSITIVE, 0.05),
        "kl_tolerance": (_POSITIVE, 0.5),  # relative band half-width around the target
        "samples_per_cell": (_COUNT, 4),
        "probe_size": (_COUNT, 1000),
        "seed": (_SEED, 0),
    },
    "evolution": {
        "pop_size": (_COUNT, 16),
        "top_k": (_COUNT, 8),
        "generations": (_COUNT, 1),
        "master_seed": (_SEED, 0),
        "repeats": (_COUNT, 1),
    },
    "boundary": {
        "sigma_grid": (_list_of(_NONNEGATIVE), REQUIRED),
        "rho_grid": (_list_of(_RHO), REQUIRED),
        "resolution": (_COUNT, 200),
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


# The sections each command reads: a config without one of them is an error,
# and so is any other section. Every command also reads `output`, whose keys
# all have defaults.
_SECTIONS = {
    "train": ("task", "model"),
    "search": ("task", "model", "mutation"),
    "evolve": ("task", "model", "mutation", "evolution"),
    "boundary": ("task", "model", "boundary"),
    "ablate": ("task", "model", "ablation"),
}
_STRATEGY = ("mu", "subspace_mode", "mirrored", "anti_random")
# The model keys that build a network; a checkpoint brings its own network.
_ARCHITECTURE = ("layer_sizes", "hidden_activation", "seed")
# The model.train keys that only the Adam optimizer reads.
_ADAM = {"adam_beta1", "adam_beta2", "adam_eps"}

# The most bytes a boundary export's two resolution^2 grid arrays (an intp
# class and a float64 confidence per lattice point) may take: 1 GiB, so a
# resolution of at most 8,192.
_BOUNDARY_GRID_BYTES = 1 << 30
# The most bytes one genome (8 per float64 parameter) or one spirals set (24
# per sample: two float64 coordinates and an int64 label) may take: 1 GiB.
_ARRAY_BYTES = 1 << 30


def _unique(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object; a key it repeats is an error, not a silent overwrite."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _read_json(path: str | Path) -> object:
    """The JSON value in the file at path."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique)
    except ValueError as exc:  # a JSONDecodeError, a duplicate key or bad UTF-8
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc


def load_config(path: str | Path) -> dict:
    cfg = _read_json(path)
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"{path}: top level must be an object")
    return cfg


def _value(name: str, key: str, kind: Kind, value):
    if not _valid(kind, value):
        raise ConfigurationError(f"{name} '{key}' must be {kind.rule}, got {value!r}")
    return kind.cast(value)


def section(cfg: dict, name: str) -> dict:
    """The checked `name` section of cfg, with defaults filled in.

    A dotted name such as `mutation.search` names the object under its last
    part; cfg is then the parent object.
    """
    parent, _, last = name.rpartition(".")
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


def check(cfg: dict, command: str, cli_out: str | None) -> dict:
    """What `command` runs on: its config's checked sections and the objects
    built from them. A section the command does not read is an error;
    `section` checks each section the command reads once, then every rule
    that ties keys together is applied. The output directory is made first
    (--out, else `output.dir`), so a failed check leaves it empty."""
    output = section(cfg, "output")
    out_dir = Path(cli_out or output["dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path or on it, or no permission
        raise ConfigurationError(f"cannot make output directory {out_dir}: {exc.strerror}") from exc
    reads = _SECTIONS[command]
    unread = sorted(cfg.keys() - {*reads, "output", "_comment"})
    if unread:
        raise ConfigurationError(
            f"config sections {unread} are not read by the {command} command"
        )
    checked = {}
    for name in sorted(reads):
        if name not in cfg:
            raise ConfigurationError(f"config is missing the '{name}' section")
        checked[name] = section(cfg, name)
    written = {name: cfg[name].keys() - {"_comment"} for name in reads}  # without defaults
    _task_rules(checked["task"], written["task"])
    run = {
        "out_dir": out_dir,
        "task": checked["task"],
        **_model(checked["model"], command, cfg["model"]),
    }
    # Sizes estimated from checked values, so a check allocates nothing.
    task = checked["task"]
    sizes = [
        (f"task.{key}", task[key], 24 * task[key], "samples (24 per sample)")
        for key in ("n_train", "n_eval") if task["dataset"] == "spirals"
    ]
    if command == "train":
        spec = run["spec"]
        sizes.append((
            "model.layer_sizes", list(spec.layer_sizes), 8 * spec.param_count(),
            "genome (8 per parameter)",
        ))
    for key, value, size, what in sizes:
        if size > _ARRAY_BYTES:
            raise ConfigurationError(
                f"{key} {value} needs {size} bytes of {what}, above the bound of {_ARRAY_BYTES}"
            )
    if command == "search":
        if written["mutation"] != {"search"}:
            raise ConfigurationError(
                "the search command's mutation section holds a 'search' directive and "
                f"nothing else, got keys {sorted(written['mutation'])}"
            )
        search = run["search"] = checked["mutation"]["search"]
        for name in ("sigma_grid", "rho_grid"):
            if search[name] != sorted(set(search[name])):
                raise ConfigurationError(f"{name} must be strictly ascending")
    elif command == "evolve":
        evolution = checked["evolution"]
        _population(evolution["pop_size"], evolution["top_k"], checked["mutation"])
        run.update(evolution=evolution, mutation=_mutation(checked["mutation"]))
    elif command == "boundary":
        sigmas, rhos = checked["boundary"]["sigma_grid"], checked["boundary"]["rho_grid"]
        if len({cell_tag(s, r) for s in sigmas for r in rhos}) != len(sigmas) * len(rhos):
            raise ConfigurationError(
                f"boundary grids name the same cell twice: sigma_grid {sigmas}, rho_grid {rhos}"
            )
        resolution = checked["boundary"]["resolution"]
        if 16 * resolution**2 > _BOUNDARY_GRID_BYTES:
            raise ConfigurationError(
                f"boundary.resolution {resolution} needs {16 * resolution**2} bytes of grid "
                f"arrays (16 per lattice point), above the bound of {_BOUNDARY_GRID_BYTES}"
            )
        run["boundary"] = checked["boundary"]
    elif command == "ablate":
        ablation = checked["ablation"]
        _population(ablation["pop_size"], ablation["top_k"], {})  # the default strategy
        run["ablation"] = ablation
    return run


def _task_rules(task: dict, written) -> None:
    """A csv task names its files one of two ways; a spirals task's sample
    counts split evenly between its two spirals; the config writes no task
    key that the task's form never reads (`written` are the keys as written,
    since `task` also holds defaults); an eval pool is split by fractions
    that sum to 1 (a task without one keeps the default fractions)."""
    if task["dataset"] == "spirals":
        for key in ("n_train", "n_eval"):
            if task[key] % 2:
                raise ConfigurationError(
                    f"task '{key}' must be even, half for each spiral, got {task[key]}"
                )
        form, unread = "a spirals task", {"train_csv", "eval_csv", "val_csv", "test_csv"}
    else:
        if "train_csv" not in task:
            raise ConfigurationError("csv task needs 'train_csv'")
        if ("val_csv" in task) != ("test_csv" in task):
            raise ConfigurationError("csv task needs both 'val_csv' and 'test_csv'")
        if "val_csv" not in task and "eval_csv" not in task:
            raise ConfigurationError("csv task needs 'eval_csv' or val_csv/test_csv")
        form = "a csv task"
        unread = {"n_train", "n_eval", "noise_std", "turns", "train_seed", "eval_seed"}
        if "val_csv" in task:
            form += " that names val_csv and test_csv"
            unread |= {"eval_csv", "eval_fractions", "split_seed"}
    unread = sorted(unread & written)
    if unread:
        raise ConfigurationError(f"task '{unread[0]}' is not read by {form}")
    if abs(sum(task["eval_fractions"]) - 1.0) > 1e-9:
        raise ConfigurationError(f"fractions must sum to 1, got {sum(task['eval_fractions'])}")


def _model(model: dict, command: str, raw: dict) -> dict:
    """The checkpoint path, or for `train` the network spec and training
    settings. `raw`, the section as written, sets no key that nothing
    reads: no architecture key beside `checkpoint`, no Adam key beside sgd."""
    if ("train" in model) == ("checkpoint" in model):
        raise ConfigurationError("model section needs exactly one of 'train' or 'checkpoint'")
    wanted = "train" if command == "train" else "checkpoint"
    if wanted not in model:
        raise ConfigurationError(f"the {command} command needs model.{wanted}")
    if command != "train":
        overridden = sorted(raw.keys() & set(_ARCHITECTURE))
        if overridden:
            raise ConfigurationError(
                f"model keys {overridden} do not apply beside 'checkpoint', "
                "whose network is used as it is"
            )
        return {"checkpoint": Path(model["checkpoint"])}
    if "layer_sizes" not in model:
        raise ConfigurationError("model section needs 'layer_sizes' to train from scratch")
    unread = sorted(_ADAM.intersection(raw["train"]))
    if unread and model["train"]["optimizer"] == "sgd":
        raise ConfigurationError(f"model.train '{unread[0]}' is not read by the sgd optimizer")
    spec = NetworkSpec(**{k: model[k] for k in _ARCHITECTURE})
    return {"spec": spec, "train": model["train"]}


def _population(pop_size: int, top_k: int, strategy: dict) -> None:
    """A population keeps top_k of pop_size children, in whole spawning groups."""
    if top_k > pop_size:
        raise ConfigurationError(
            f"top_k must lie in [1, pop_size], got {top_k} with pop {pop_size}"
        )
    group_roles(
        strategy.get("mirrored", MutationParams.mirrored),
        strategy.get("anti_random", MutationParams.anti_random),
        pop_size,
    )


def _mutation(mutation: dict) -> MutationParams:
    """The mutation of the section's one form, explicit sigma and rho or a
    search result artifact, with the section's strategy keys."""
    if "search" in mutation:
        raise ConfigurationError(
            "the evolve command runs no KL search: run `smd search` with this 'search' "
            "directive and set mutation 'search_result' to the search_result.json it writes"
        )
    explicit = "sigma" in mutation or "rho" in mutation
    if explicit == ("search_result" in mutation):
        raise ConfigurationError(
            "mutation section needs exactly one of explicit (sigma, rho) or 'search_result'"
        )
    if explicit:
        found, source = mutation, "mutation"
    else:
        path = Path(mutation["search_result"])
        found, source = _read_json(path), f"search result {path}"
    if not isinstance(found, dict) or not {"sigma", "rho"} <= found.keys():
        raise ConfigurationError(f"{source} needs both 'sigma' and 'rho', got {found!r}")
    sigma, rho = (_value(source, k, SCHEMA["mutation"][k][0], found[k]) for k in ("sigma", "rho"))
    params = MutationParams(sigma, rho, **{k: mutation[k] for k in _STRATEGY})
    if params.anti_random and rho == 0:
        raise ConfigurationError(
            f"mutation 'anti_random' needs rho > 0, got rho 0 from {source}: the complement "
            "subspace is empty, so its children would copy the parent"
        )
    return params


def build_task_data(
    section: dict, *, train: bool, evaluation: bool
) -> tuple[Dataset | None, Dataset | None, Dataset | None]:
    """(train, validation, test) datasets of the checked task section.

    Only the sets the caller asks for are built: the training set when
    `train`, the validation and test sets when `evaluation`; a set not
    asked for is None. A csv task reads `train_csv` either way, because it
    sets the class count of the other files.
    """
    train_set = None
    if section["dataset"] == "spirals":
        shape = {k: section[k] for k in ("noise_std", "turns")}
        if train:
            train_set = make_spirals(section["n_train"], seed=section["train_seed"], **shape)
        if not evaluation:
            return train_set, None, None
        eval_pool = make_spirals(section["n_eval"], seed=section["eval_seed"], **shape)
    else:
        train_set = load_csv(section["train_csv"])
        if not evaluation:
            return train_set, None, None
        if "val_csv" in section:
            val = load_csv(section["val_csv"], class_count=train_set.class_count)
            test = load_csv(section["test_csv"], class_count=train_set.class_count)
            return train_set, val, test
        eval_pool = load_csv(section["eval_csv"], class_count=train_set.class_count)
    val, test = split(eval_pool, section["eval_fractions"], section["split_seed"])
    return train_set, val, test
