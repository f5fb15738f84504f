"""Command-line harness: train, search, evolve, boundary, ablate.

Every command is a pure function of its JSON config (all seeds included),
so reruns produce byte-identical artifacts. Exit codes: 0 success,
2 configuration error or a file that cannot be read or written, 3 training
divergence, 4 search found no in-band cell, 5 validation/test overlap,
6 task/model or task/command mismatch, 7 a forked worker process (of
`ablate`'s sweep or `evolve`'s scoring) died.
`EXIT_CODES` maps each error of `smd.errors` to its code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import config as cfgmod
from .boundary import export_boundary_cells
from .checkpoint import load_checkpoint, save_checkpoint
from .datasets import Dataset, write_csv
from .divergence import grid_search, write_sweep_csv
from .errors import (
    CheckpointError,
    ConfigurationError,
    DataHygieneError,
    ParseError,
    ShapeError,
    TaskMismatchError,
    TrainingDivergenceError,
    WorkerError,
)
from .evolution import (
    datasets_disjoint, run_ablation, run_generation, write_ablation_csv, write_eval_csv
)
from .metrics import accuracy
from .network import Network, NetworkSpec, forward, init_network, softmax
from .training import train_model

EXIT_OK = 0
EXIT_OUT_OF_BAND = 4

# The exit code of each error a command can raise.
EXIT_CODES = {
    ConfigurationError: 2,
    ParseError: 2,
    CheckpointError: 2,
    TrainingDivergenceError: 3,
    DataHygieneError: 5,
    TaskMismatchError: 6,
    ShapeError: 6,
    WorkerError: 7,
}


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _check_task(spec: NetworkSpec, data: Dataset) -> None:
    """The model must take the task's features and score its classes."""
    features = data.inputs.shape[1]
    if (spec.input_dim, spec.output_dim) != (features, data.class_count):
        raise TaskMismatchError(
            f"model maps {spec.input_dim} inputs to {spec.output_dim} classes, but the task "
            f"has {features} features and {data.class_count} classes"
        )


def cmd_train(run: dict) -> int:
    train, val, _ = cfgmod.build_task_data(run["task"], train=True, evaluation=True)
    _check_task(run["spec"], train)

    net = init_network(run["spec"])
    history: list[dict] = []
    trained = train_model(net, train, history, **run["train"])
    val_acc = accuracy(softmax(forward(trained, val.inputs)), val.labels)

    ckpt_path = run["out_dir"] / "model.ckpt"
    save_checkpoint(trained, ckpt_path)
    write_csv(
        run["out_dir"] / "training_log.csv",
        ("epoch", "train_loss", "train_acc"),
        ((row["epoch"], row["loss"], row["accuracy"]) for row in history),
    )
    _write_json(
        run["out_dir"] / "train_summary.json",
        {
            "checkpoint": ckpt_path.name,
            "epochs": run["train"]["epochs"],
            "final_train_loss": history[-1]["loss"],
            "final_train_accuracy": history[-1]["accuracy"],
            "val_accuracy": val_acc,
        },
    )
    print(f"checkpoint {ckpt_path} | val accuracy {val_acc:.4f}")
    return EXIT_OK


def _load_parent(path: Path, data: Dataset) -> Network:
    """The checkpoint at path, checked against the task's `data`."""
    parent = load_checkpoint(path)
    _check_task(parent.spec, data)
    return parent


def cmd_search(run: dict) -> int:
    _, val, _ = cfgmod.build_task_data(run["task"], train=False, evaluation=True)
    parent = _load_parent(run["checkpoint"], val)
    result, cells = grid_search(parent, val, **run["search"])
    _write_json(run["out_dir"] / "search_result.json", result)
    write_sweep_csv(cells, run["out_dir"] / "sweep.csv")
    print(
        f"sigma {result['sigma']:g} | rho {result['rho']:g} | mean KL {result['mean_kl']:.4f}"
        f" | in_band {result['in_band']}"
    )
    return EXIT_OK if result["in_band"] else EXIT_OUT_OF_BAND


def _evaluation_data(run: dict) -> tuple[Network, Dataset, Dataset]:
    """The checkpoint's parent and the task's validation and test sets,
    which must share no sample."""
    _, val, test = cfgmod.build_task_data(run["task"], train=False, evaluation=True)
    if not datasets_disjoint(val, test):
        raise DataHygieneError("validation and test sets share samples")
    return _load_parent(run["checkpoint"], val), val, test


def _summary_line(report: dict) -> str:
    """One line of `eval_report.json`, in the standard report table's column order."""
    parent, ensemble, mutation = report["parent"], report["ensemble"], report["config"]["mutation"]
    return (
        f"Acc {100 * parent['accuracy']:.2f} | NLL {parent['nll']:.4f} | "
        f"ECE {parent['ece']:.4f} | eAcc {100 * ensemble['accuracy']:.2f} | "
        f"eNLL {ensemble['nll']:.4f} | eECE {ensemble['ece']:.4f} | "
        f"dAcc {100 * report['delta_acc']:+.2f} | "
        f"sigma {mutation['sigma']:g} | rho {mutation['rho']:g} | "
        f"KL {report['mean_kl_children']:.4f}"
    )


def cmd_evolve(run: dict) -> int:
    parent, val, test = _evaluation_data(run)
    # Best-of-R selection peeks only at validation-side accuracy.
    report = run_generation(
        parent, run["mutation"], val, test, jobs=_usable_cpus(), **run["evolution"]
    )
    _write_json(run["out_dir"] / "eval_report.json", report)
    write_eval_csv(report, run["out_dir"] / "eval_report.csv")
    print(_summary_line(report))
    return EXIT_OK


def cmd_boundary(run: dict) -> int:
    train, _, _ = cfgmod.build_task_data(run["task"], train=True, evaluation=False)
    parent = _load_parent(run["checkpoint"], train)
    written = export_boundary_cells(parent, train, run["out_dir"], **run["boundary"])
    print(f"wrote {len(written)} boundary files to {run['out_dir']}")
    return EXIT_OK


def cmd_ablate(run: dict) -> int:
    parent, val, test = _evaluation_data(run)
    rows = run_ablation(parent, val, test, jobs=_usable_cpus(), **run["ablation"])
    write_ablation_csv(rows, run["out_dir"] / "ablation.csv")
    print(f"wrote {len(rows)} ablation rows to {run['out_dir'] / 'ablation.csv'}")
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "search": cmd_search,
    "evolve": cmd_evolve,
    "boundary": cmd_boundary,
    "ablate": cmd_ablate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smd", description="Evolutionary fine-tuning with sparse masked mutations"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output directory (overrides output.dir)")
    return parser


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask, which honours
    `taskset`), or the machine's count where there is no mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = cfgmod.check(cfgmod.load_config(args.config), args.command, args.out)
        return _COMMANDS[args.command](run)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES[type(exc)]
    except OSError as exc:
        if exc.filename is None:  # no file to name: a fault, such as a failed `os.fork`
            raise
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_CODES[ConfigurationError]


if __name__ == "__main__":
    sys.exit(main())
