"""The benchmark's workloads: generated configs, set-up, CLI steps, output checks.

Every config is derived from a shipped spiral config under ``configs/`` with
its output paths pointed into the workload's own working area and its seeds
offset by the workload seed. Seed 0 reproduces the shipped seeds. The shipped
files are only read, never written.

Paths inside generated configs are relative: every command runs with the
working area as its current directory, so artifact bytes do not depend on
where the checkout lives.
"""

from __future__ import annotations

import csv
import json
import struct
from dataclasses import dataclass
from pathlib import Path

# Trimmed ablation grid: the shipped sweep (5 sigma x 4 rho x 2 modes x 5
# seeds = 200 generations) takes over 40 s, longer than one measured run.
# The trim keeps the extremes of the shipped sigma and rho grids and both
# subspace modes, so every code path of the full sweep still runs.
ABLATION_SIGMAS = [0.05, 0.25]
ABLATION_RHOS = [0.0, 0.9]
ABLATION_SEEDS = 3

# The wide case: few huge genomes instead of many small ones.
WIDE_LAYERS = [2, 512, 512, 512, 2]
WIDE_INIT_SEED = 7
WIDE_N_EVAL = 1000
WIDE_POP = 64
WIDE_TOP_K = 8
WIDE_SIGMA = 0.01
WIDE_RHO = 0.9

# Runs in a child process during set-up: He-initialise a parent and write it
# with the program's own checkpoint writer, so it is float32-exact.
_INIT_FIXTURE = (
    "import sys\n"
    "from smd.checkpoint import save_checkpoint\n"
    "from smd.network import NetworkSpec, init_network\n"
    "spec = NetworkSpec(tuple(int(s) for s in sys.argv[3].split(',')), 'relu', int(sys.argv[2]))\n"
    "save_checkpoint(init_network(spec), sys.argv[1])\n"
)


def init_fixture_argv(path: str, seed: int, layers: list[int]) -> list[str]:
    """Set-up argv that writes a He-initialised ``layers`` checkpoint to ``path``."""
    return ["-c", _INIT_FIXTURE, path, str(seed), ",".join(str(s) for s in layers)]


@dataclass(frozen=True)
class Step:
    """One timed CLI command: ``smd <command> --config <config>``."""

    command: str
    config: str


@dataclass
class Workload:
    name: str
    steps: tuple[Step, ...]
    # config file name -> config object, written into the working area
    configs: dict[str, dict]
    # argv after the interpreter for the set-up child, which also warms caches
    setup_argv: list[str]
    # fixture files set-up must produce, relative to the working area
    fixtures: tuple[str, ...]
    # artifacts each step must write, relative to the working area
    artifacts: dict[str, tuple[str, ...]]

    def argv(self, step: Step) -> list[str]:
        return [step.command, "--config", step.config]


def _load_shipped(root: Path, name: str) -> dict:
    return json.loads((root / "configs" / name).read_text(encoding="utf-8"))


def spiral_chain(root: Path, seed: int) -> Workload:
    """What a user runs: train, search, evolve, boundary, each step reading the
    previous step's artifacts. Time goes to training, the KL sweep, the
    boundary CSV writer and interpreter start-up in every command."""
    train = _load_shipped(root, "spiral_train.json")
    train["output"] = {"dir": "out"}

    search = _load_shipped(root, "spiral_search.json")
    search["model"] = {"checkpoint": "out/model.ckpt"}
    search["output"] = {"dir": "out"}
    # The search seed stays at its shipped value: about one search seed in
    # forty ends outside the KL band (exit 4), and a workload must not fail.

    evolve = _load_shipped(root, "spiral_evolve.json")
    evolve["model"] = {"checkpoint": "out/model.ckpt"}
    evolve["mutation"] = {"search_result": "out/search_result.json"}
    evolve["evolution"]["master_seed"] += seed
    evolve["output"] = {"dir": "out"}

    boundary = _load_shipped(root, "spiral_boundary.json")
    boundary["model"] = {"checkpoint": "out/model.ckpt"}
    boundary["boundary"]["seed"] = boundary["boundary"].get("seed", 0) + seed
    boundary["output"] = {"dir": "out/boundary"}

    grid = boundary["boundary"]
    cells = [
        f"out/boundary/boundary_sigma{s:g}_rho{r:g}.{ext}"
        for s in grid["sigma_grid"]
        for r in grid["rho_grid"]
        for ext in ("csv", "pgm")
    ]
    return Workload(
        name="spiral_chain",
        steps=(
            Step("train", "train.json"),
            Step("search", "search.json"),
            Step("evolve", "evolve.json"),
            Step("boundary", "boundary.json"),
        ),
        configs={
            "train.json": train,
            "search.json": search,
            "evolve.json": evolve,
            "boundary.json": boundary,
        },
        setup_argv=["-c", "import smd.cli"],
        fixtures=(),
        artifacts={
            "train": ("out/model.ckpt", "out/training_log.csv", "out/train_summary.json"),
            "search": ("out/search_result.json", "out/sweep.csv"),
            "evolve": ("out/eval_report.json", "out/eval_report.csv"),
            "boundary": tuple(cells),
        },
    )


def spiral_ablation(root: Path, seed: int) -> Workload:
    """Many pop-16 generations of the small spiral net: per-call overhead of
    forward, evolution and metrics, with no training and no boundary."""
    train = _load_shipped(root, "spiral_train.json")
    train["output"] = {"dir": "fixture"}

    ablate = _load_shipped(root, "spiral_ablate.json")
    ablate["model"] = {"checkpoint": "fixture/model.ckpt"}
    section = ablate["ablation"]
    section["sigma_grid"] = list(ABLATION_SIGMAS)
    section["rho_grid"] = list(ABLATION_RHOS)
    section["seeds"] = [seed + i for i in range(ABLATION_SEEDS)]
    ablate["output"] = {"dir": "out"}
    return Workload(
        name="spiral_ablation",
        steps=(Step("ablate", "ablate.json"),),
        configs={"fixture_train.json": train, "ablate.json": ablate},
        setup_argv=["-m", "smd.cli", "train", "--config", "fixture_train.json"],
        fixtures=("fixture/model.ckpt",),
        artifacts={"ablate": ("out/ablation.csv",)},
    )


def wide_evolve(root: Path, seed: int) -> Workload:
    """One pop-64 generation of a w = 527,874 net: the same layers as the
    ablation the other way round, few huge genomes, so mutation sampling,
    BLAS-bound forward and memory dominate."""
    evolve = _load_shipped(root, "spiral_evolve.json")
    evolve["task"]["n_eval"] = WIDE_N_EVAL
    evolve["model"] = {"checkpoint": "fixture/wide.ckpt"}
    evolve["mutation"] = {"sigma": WIDE_SIGMA, "rho": WIDE_RHO}
    evolution = evolve["evolution"]
    evolution["pop_size"] = WIDE_POP
    evolution["top_k"] = WIDE_TOP_K
    evolution["generations"] = 1
    evolution["master_seed"] += seed
    evolve["output"] = {"dir": "out"}
    return Workload(
        name="wide_evolve",
        steps=(Step("evolve", "evolve.json"),),
        configs={"evolve.json": evolve},
        setup_argv=init_fixture_argv("fixture/wide.ckpt", WIDE_INIT_SEED + seed, WIDE_LAYERS),
        fixtures=("fixture/wide.ckpt",),
        artifacts={"evolve": ("out/eval_report.json", "out/eval_report.csv")},
    )


WORKLOADS = {
    "spiral_chain": spiral_chain,
    "spiral_ablation": spiral_ablation,
    "wide_evolve": wide_evolve,
}


# ---------------------------------------------------------------- checks


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _read_csv(path: Path) -> list[list[str]]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def check_checkpoint(path: Path, layer_sizes: list[int] | None = None) -> list[str]:
    """Header and length of an ``SMD1`` checkpoint, per the README format."""
    blob = path.read_bytes()
    if blob[:4] != b"SMD1":
        return [f"{path.name}: bad magic"]
    (count,) = struct.unpack_from("<I", blob, 4)
    sizes = list(struct.unpack_from(f"<{count}I", blob, 8))
    _, w = struct.unpack_from("<BQ", blob, 8 + 4 * count)
    expected_w = sum(i * o + o for i, o in zip(sizes[:-1], sizes[1:]))
    problems = []
    if layer_sizes is not None and sizes != list(layer_sizes):
        problems.append(f"{path.name}: layer sizes {sizes}, expected {layer_sizes}")
    if w != expected_w or len(blob) != 8 + 4 * count + 9 + 4 * w:
        problems.append(f"{path.name}: parameter count or length mismatch")
    return problems


def _check_train(work: Path, cfg: dict) -> list[str]:
    problems = check_checkpoint(work / "out/model.ckpt", cfg["model"]["layer_sizes"])
    epochs = cfg["model"]["train"]["epochs"]
    log = _read_csv(work / "out/training_log.csv")
    if log[0] != ["epoch", "train_loss", "train_acc"] or len(log) != epochs + 1:
        problems.append(f"training_log.csv: expected a header and {epochs} rows")
    summary = _read_json(work / "out/train_summary.json")
    if not 0.9 <= summary["val_accuracy"] <= 1.0:
        problems.append(f"train_summary.json: val_accuracy {summary['val_accuracy']} < 0.9")
    return problems


def _check_search(work: Path, cfg: dict) -> list[str]:
    search = cfg["mutation"]["search"]
    result = _read_json(work / "out/search_result.json")
    problems = []
    if result["sigma"] not in search["sigma_grid"] or result["rho"] not in search["rho_grid"]:
        problems.append("search_result.json: (sigma, rho) is not a grid cell")
    if result["in_band"] is not True:
        problems.append("search_result.json: search ended outside the KL band")
    rows = _read_csv(work / "out/sweep.csv")
    n_cells = len(search["sigma_grid"]) * len(search["rho_grid"])
    if rows[0] != ["sigma", "rho", "mean_kl", "mean_mse", "mean_child_acc", "n_children"]:
        problems.append("sweep.csv: unexpected header")
    if len(rows) != n_cells + 1:
        problems.append(f"sweep.csv: {len(rows) - 1} rows, expected {n_cells}")
    elif any(int(r[5]) != search["samples_per_cell"] for r in rows[1:]):
        problems.append("sweep.csv: a cell scored the wrong number of children")
    return problems


def _check_evolve(work: Path, cfg: dict) -> list[str]:
    evolution = cfg["evolution"]
    report = _read_json(work / "out/eval_report.json")
    problems = []
    pop, k = evolution["pop_size"], evolution["top_k"]
    if len(report["per_child"]) != pop:
        problems.append(f"eval_report.json: {len(report['per_child'])} children, expected {pop}")
    selected = report["selected"]
    if len(selected) != k or len(set(selected)) != k or not all(0 <= i < pop for i in selected):
        problems.append("eval_report.json: selection is not k distinct children")
    for block in ("parent", "averaged", "ensemble"):
        if not 0.0 <= report[block]["accuracy"] <= 1.0:
            problems.append(f"eval_report.json: {block} accuracy out of range")
    delta = report["ensemble"]["accuracy"] - report["parent"]["accuracy"]
    if report["delta_acc"] != delta:
        problems.append("eval_report.json: delta_acc is not ensemble minus parent accuracy")
    if report["seed"] != evolution["master_seed"]:
        problems.append("eval_report.json: master seed not echoed")
    mutation = cfg["mutation"]
    if "sigma" in mutation and (
        report["config"]["mutation"]["sigma"] != mutation["sigma"]
        or report["config"]["mutation"]["rho"] != mutation["rho"]
    ):
        problems.append("eval_report.json: mutation echo differs from the config")
    if "search_result" in mutation:
        found = _read_json(work / mutation["search_result"])
        echo = report["config"]["mutation"]
        if (echo["sigma"], echo["rho"]) != (found["sigma"], found["rho"]):
            problems.append("eval_report.json: mutation differs from the search result")
    if len(_read_csv(work / "out/eval_report.csv")) != 2:
        problems.append("eval_report.csv: expected a header and one row")
    return problems


def _check_boundary(work: Path, cfg: dict) -> list[str]:
    res = cfg["boundary"].get("resolution", 200)
    header = f"P5\n{res} {res}\n255\n".encode("ascii")
    problems = []
    for path in sorted((work / "out/boundary").iterdir()):
        if path.suffix == ".pgm":
            blob = path.read_bytes()
            if not blob.startswith(header) or len(blob) != len(header) + res * res:
                problems.append(f"{path.name}: not a {res}x{res} binary PGM")
        elif path.suffix == ".csv":
            with path.open("rb") as fh:
                first = fh.readline()
                lines = 1 + sum(1 for _ in fh)
            if first != b"x,y,class,confidence\n" or lines != res * res + 1:
                problems.append(f"{path.name}: expected a header and {res * res} rows")
    return problems


def _check_ablate(work: Path, cfg: dict) -> list[str]:
    section = cfg["ablation"]
    rows = _read_csv(work / "out/ablation.csv")
    problems = []
    if rows[0] != ["sigma", "rho", "mode", "seed", "mean_kl", "avg_acc", "ens_acc"]:
        problems.append("ablation.csv: unexpected header")
    expected = [
        [repr(float(s)), repr(float(r)), m, str(seed)]
        for s in section["sigma_grid"]
        for r in section["rho_grid"]
        for m in section["modes"]
        for seed in section["seeds"]
    ]
    if [r[:4] for r in rows[1:]] != expected:
        problems.append("ablation.csv: rows do not match the sweep grid")
    elif any(not 0.0 <= float(r[i]) <= 1.0 for r in rows[1:] for i in (5, 6)):
        problems.append("ablation.csv: accuracy out of range")
    return problems


CHECKS = {
    "train": _check_train,
    "search": _check_search,
    "evolve": _check_evolve,
    "boundary": _check_boundary,
    "ablate": _check_ablate,
}


def check_step(work: Path, wl: Workload, step: Step) -> list[str]:
    """Problems with one step's artifacts; empty when they are all correct."""
    missing = [a for a in wl.artifacts[step.command] if not (work / a).is_file()]
    if missing:
        return [f"{step.command}: missing artifacts {missing}"]
    try:
        return CHECKS[step.command](work, wl.configs[step.config])
    except (OSError, ValueError, KeyError, IndexError, struct.error) as exc:
        return [f"{step.command}: unreadable artifact ({exc!r})"]


def children_scored(work: Path, wl: Workload, step: Step) -> int:
    """Child genomes one step scored, counted from its artifacts."""
    if step.command == "search":
        return sum(int(r[5]) for r in _read_csv(work / "out/sweep.csv")[1:])
    if step.command == "evolve":
        return len(_read_json(work / "out/eval_report.json")["per_child"])
    if step.command == "ablate":
        rows = len(_read_csv(work / "out/ablation.csv")) - 1
        return rows * wl.configs[step.config]["ablation"]["pop_size"]
    return 0


def delta_acc_pt(work: Path) -> float:
    """Evolve's ensemble-minus-parent test accuracy, in percentage points."""
    return 100.0 * _read_json(work / "out/eval_report.json")["delta_acc"]

