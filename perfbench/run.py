"""Benchmark of the smd CLI: end-to-end command walls and RSS, or traced layers.

    python3 perfbench/run.py --workload spiral_chain --seed 0 --seconds 30 --trace 0

With ``--trace 0`` every command of the workload runs as a fresh
``python -m smd.cli`` process, in series, and is timed from spawn to exit;
its peak RSS comes from ``os.wait4``. Passes repeat until ``--seconds`` is
used up and the medians are reported.

With ``--trace 1`` one untraced subprocess pass gives reference artifacts,
then untraced and traced in-process passes (``smd.cli.main(argv)``)
alternate; the traced ones give per-layer self times and counts, and the
difference of their median walls is the tracing overhead.

Every pass checks exit codes and artifacts, and every artifact must be
byte-identical to the first pass's. The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; details (machine facts,
per-command walls, artifact SHA-256s, per-span tables) go to
``.perfbench/results/``. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import workloads as wls

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Set-up repeats at least this often, and until this much time has passed.
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
STARTUP_SAMPLES = 5
COMMAND_TIMEOUT_S = 150.0

# End-to-end metrics, reported with --trace 0 on every workload.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "children_per_s": "1/s",
}

# Per-layer metrics: (name, unit, span, field). These run on every workload
# and form the --trace 1 result line, with the three derived ones below.
LAYER_METRICS = [
    ("network.forward.calls", "count", "network.forward", "calls"),
    ("network.forward.self_s", "s", "network.forward", "self_s"),
    ("network.forward.rows", "count", "network.forward", "rows"),
    ("network.forward.flops", "flop", "network.forward", "flops"),
    ("network.softmax.calls", "count", "network.softmax", "calls"),
    ("network.softmax.self_s", "s", "network.softmax", "self_s"),
    ("mutation.spawn_mutations.self_s", "s", "mutation.spawn_mutations", "self_s"),
    ("mutation.sample_noise.self_s", "s", "mutation.sample_noise", "self_s"),
    ("mutation.sample_mask.self_s", "s", "mutation.sample_mask", "self_s"),
    ("mutation.genome_bytes", "B", "mutation.spawn_mutations", "genome_bytes"),
    ("mutation.apply.self_s", "s", "mutation.apply", "self_s"),
    ("mutation.SparseMutation.__post_init__.self_s", "s",
     "mutation.SparseMutation.__post_init__", "self_s"),
    ("divergence.kl_from_logits.calls", "count", "divergence.kl_from_logits", "calls"),
    ("divergence.kl_from_logits.self_s", "s", "divergence.kl_from_logits", "self_s"),
    ("evolution.run_generation.self_s", "s", "evolution.run_generation", "self_s"),
    ("evolution.evaluate_fitness.self_s", "s", "evolution.evaluate_fitness", "self_s"),
    ("evolution.ensemble_predict.calls", "count", "evolution.ensemble_predict", "calls"),
    ("evolution.ensemble_predict.self_s", "s", "evolution.ensemble_predict", "self_s"),
    ("evolution.average_weights.self_s", "s", "evolution.average_weights", "self_s"),
    ("evolution.select_top_k.self_s", "s", "evolution.select_top_k", "self_s"),
    ("evolution.datasets_disjoint.self_s", "s", "evolution.datasets_disjoint", "self_s"),
    ("metrics.metric_triple.calls", "count", "metrics.metric_triple", "calls"),
    ("metrics.metric_triple.self_s", "s", "metrics.metric_triple", "self_s"),
    ("checkpoint.load_checkpoint.self_s", "s", "checkpoint.load_checkpoint", "self_s"),
    ("config.build_task_data.self_s", "s", "config.build_task_data", "self_s"),
    ("datasets.make_spirals.self_s", "s", "datasets.make_spirals", "self_s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
]
DERIVED_UNITS = {
    "network.forward.calls_per_child": "ratio",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
}
# Layers that run on spiral_chain only. The result line must carry the same
# metrics on every workload, so these go to the detail output alone.
CHAIN_LAYER_METRICS = [
    ("training.loss_and_grad.calls", "count", "training.loss_and_grad", "calls"),
    ("training.loss_and_grad.self_s", "s", "training.loss_and_grad", "self_s"),
    ("training.train_model.self_s", "s", "training.train_model", "self_s"),
    ("divergence.sweep_cells.self_s", "s", "divergence.sweep_cells", "self_s"),
    ("divergence.mse_from_logits.self_s", "s", "divergence.mse_from_logits", "self_s"),
    ("boundary.evaluate_grid.self_s", "s", "boundary.evaluate_grid", "self_s"),
    ("boundary.write_grid_csv.self_s", "s", "boundary.write_grid_csv", "self_s"),
    ("boundary.write_grid_csv.bytes", "B", "boundary.write_grid_csv", "bytes"),
    ("boundary.write_grid_pgm.self_s", "s", "boundary.write_grid_pgm", "self_s"),
    ("checkpoint.save_checkpoint.self_s", "s", "checkpoint.save_checkpoint", "self_s"),
]
COMPUTED = ("network.forward.flops", "mutation.genome_bytes", "boundary.write_grid_csv.bytes")


# ------------------------------------------------------------------ helpers


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SMD_OUT", None)  # it would override every output directory
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], cwd: Path, log: Path) -> tuple[int, float, int]:
    """Run ``python <argv>``; returns (exit code, wall s, peak RSS KiB)."""
    with log.open("wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=cwd, env=child_env(),
            stdout=out, stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def hash_tree(base: Path, sub: str) -> dict[str, str]:
    top = base / sub
    if not top.is_dir():
        return {}
    return {
        str(p.relative_to(base)): sha256_file(p)
        for p in sorted(top.rglob("*")) if p.is_file()
    }


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def describe(values: list[float]) -> dict:
    return {"median": median(values), "min": min(values), "max": max(values), "n": len(values)}


# ------------------------------------------------------------ machine facts


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _blas_threads() -> int | None:
    """Threads OpenBLAS would use, asked of the library numpy loaded."""
    import ctypes

    maps = _read("/proc/self/maps") or ""
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts(seed: int) -> dict:
    import numpy

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind, size = _read(f"{base}/level"), _read(f"{base}/type"), _read(f"{base}/size")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    blas = {}
    with contextlib.suppress(Exception):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # a plain checkout; source_sha256 identifies the code
    source = hashlib.sha256()
    for path in sorted((SRC / "smd").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cache": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": _blas_threads(),
            "thread_env": {
                k: os.environ.get(k)
                for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            },
        },
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "workload_seed": seed,
    }


# ------------------------------------------------------------------- set-up


def write_configs(wl: wls.Workload, work: Path) -> dict[str, str]:
    hashes = {}
    for name, cfg in wl.configs.items():
        path = work / name
        path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
        hashes[name] = sha256_file(path)
    return hashes


def set_up(wl: wls.Workload, work: Path) -> tuple[float, dict[str, str], list[str]]:
    """Generate configs and fixtures; returns (seconds, fixture hashes, problems).

    The set-up child also imports the package once, so the timed commands
    start with warm file caches.
    """
    t0 = time.perf_counter()
    shutil.rmtree(work / "fixture", ignore_errors=True)
    (work / "fixture").mkdir(parents=True)
    write_configs(wl, work)
    code, _, _ = spawn(wl.setup_argv, work, work / "logs" / "setup.log")
    elapsed = time.perf_counter() - t0
    problems = [] if code == 0 else [f"set-up exited {code}; see {work / 'logs/setup.log'}"]
    for fixture in wl.fixtures:
        path = work / fixture
        if not path.is_file():
            problems.append(f"set-up did not write {fixture}")
        elif path.suffix == ".ckpt":
            problems += wls.check_checkpoint(path)
    return elapsed, hash_tree(work, "fixture"), problems


# ------------------------------------------------------------------ passes


class Pass:
    """One run of every step of a workload, in order."""

    def __init__(self) -> None:
        self.commands: list[dict] = []
        self.problems: list[str] = []
        self.hashes: dict[str, str] = {}
        self.wall = 0.0

    @property
    def complete(self) -> bool:
        return not self.problems


def _finish_step(p: Pass, wl: wls.Workload, work: Path, step: wls.Step, record: dict) -> bool:
    if record["exit"] != 0:
        p.problems.append(f"{step.command}: exit {record['exit']}")
    else:
        p.problems += wls.check_step(work, wl, step)
    if not p.problems:
        record["children"] = wls.children_scored(work, wl, step)
    p.commands.append(record)
    return not p.problems


def subprocess_pass(wl: wls.Workload, work: Path) -> Pass:
    p = Pass()
    shutil.rmtree(work / "out", ignore_errors=True)
    for step in wl.steps:
        log = work / "logs" / f"{step.command}.log"
        code, wall, rss_kib = spawn(["-m", "smd.cli", *wl.argv(step)], work, log)
        p.wall += wall
        record = {"command": step.command, "exit": code, "wall_s": wall, "rss_kib": rss_kib}
        if not _finish_step(p, wl, work, step, record):
            p.problems.append(f"see {log}")
            break
    p.hashes = hash_tree(work, "out")
    return p


def inprocess_pass(wl: wls.Workload, work: Path, tracer=None) -> Pass:
    import smd.cli

    p = Pass()
    shutil.rmtree(work / "out", ignore_errors=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for step in wl.steps:
            if tracer is not None:
                tracer.command = step.command
            sink = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = smd.cli.main(wl.argv(step))
            except SystemExit as exc:  # argparse rejects its arguments
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed command, reported, not fatal
                code = -1
                sink.write(traceback.format_exc())
            wall = time.perf_counter() - t0
            p.wall += wall
            record = {"command": step.command, "exit": code, "wall_s": wall}
            if not _finish_step(p, wl, work, step, record):
                p.problems.append(sink.getvalue()[-2000:])
                break
    finally:
        os.chdir(cwd)
    p.hashes = hash_tree(work, "out")
    return p


def compare_hashes(reference: dict[str, str], p: Pass, label: str) -> list[str]:
    if p.hashes == reference:
        return []
    changed = sorted(k for k in set(reference) | set(p.hashes) if reference.get(k) != p.hashes.get(k))
    return [f"{label}: artifacts differ from the first pass: {changed}"]


# ----------------------------------------------------------------- measuring


def _pass_metrics(p: Pass) -> dict[str, float]:
    scoring = [c for c in p.commands if c["command"] in ("search", "evolve", "ablate")]
    metrics = {
        "wall_s": p.wall,
        "peak_rss_mb": max(c["rss_kib"] for c in p.commands) / 1024.0,
        "children_per_s": sum(c["children"] for c in scoring) / sum(c["wall_s"] for c in scoring),
    }
    for c in p.commands:
        metrics[f"{c['command']}_s"] = c["wall_s"]
    return metrics


def measure_end_to_end(wl: wls.Workload, work: Path, seconds: float, result: dict) -> dict:
    setups, fixture_hashes = [], None
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        elapsed, hashes, problems = set_up(wl, work)
        setups.append(elapsed)
        result["problems"] += problems
        if fixture_hashes is not None and hashes != fixture_hashes:
            result["problems"].append("set-up fixtures differ between repeats")
        fixture_hashes = hashes
        if problems:
            break
    result["fixtures"] = fixture_hashes
    if result["problems"]:
        return {}

    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        p = subprocess_pass(wl, work)
        passes.append(p)
        result["attempted"] += len(p.commands)
        if not p.complete:
            result["failed"] += 1
            result["problems"] += p.problems
            break
        result["problems"] += compare_hashes(passes[0].hashes, p, f"pass {len(passes)}")
        elapsed = time.perf_counter() - start
        if elapsed + p.wall > seconds:
            break
    result["artifacts"] = passes[0].hashes
    result["passes"] = [p.commands for p in passes]
    good = [_pass_metrics(p) for p in passes if p.complete]
    if not good:
        return {}
    per_pass = {k: [m[k] for m in good] for k in good[0]}
    result["per_pass"] = {k: describe(v) for k, v in per_pass.items()}
    if wl.name == "spiral_chain":
        result["delta_acc_pt"] = wls.delta_acc_pt(work)
    metrics = {"setup_s": median(setups)}
    metrics.update({k: median(per_pass[k]) for k in ("wall_s", "peak_rss_mb", "children_per_s")})
    result["setup"] = describe(setups)
    result["command_walls"] = {f"{s.command}_s": median(per_pass[f"{s.command}_s"]) for s in wl.steps}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def _layer_values(summary: dict) -> dict[str, float]:
    values = {}
    for name, _, span, field in LAYER_METRICS + CHAIN_LAYER_METRICS:
        values[name] = summary.get(span, {}).get(field, 0)
    children = summary.get("mutation.spawn_mutations", {}).get("children", 0)
    calls = values["network.forward.calls"]
    values["network.forward.calls_per_child"] = calls / children if children else 0.0
    return values


def measure_layers(wl: wls.Workload, work: Path, seconds: float, result: dict) -> dict:
    from tracer import Tracer

    _, result["fixtures"], problems = set_up(wl, work)
    result["problems"] += problems
    if problems:
        return {}
    start = time.perf_counter()
    reference = subprocess_pass(wl, work)
    result["attempted"] += len(reference.commands)
    if not reference.complete:
        result["failed"] += 1
        result["problems"] += reference.problems
        return {}
    result["artifacts"] = reference.hashes

    startup = [spawn(["-c", "import smd.cli"], work, work / "logs" / "startup.log")[1]
               for _ in range(STARTUP_SAMPLES)]

    sys.path.insert(0, str(SRC))
    os.environ.pop("SMD_OUT", None)
    import smd.cli  # noqa: F401  (loads every layer module before wrapping)

    tracer = Tracer()
    plain_walls, traced_walls, traced = [], [], []
    per_command = {}
    while True:
        for traced_run in (False, True):
            if traced_run:
                tracer.reset()
                tracer.install()
                try:
                    p = inprocess_pass(wl, work, tracer)
                finally:
                    tracer.uninstall()
            else:
                p = inprocess_pass(wl, work)
            result["attempted"] += len(p.commands)
            label = f"{'traced' if traced_run else 'untraced'} in-process pass"
            if not p.complete:
                result["failed"] += 1
                result["problems"] += [f"{label}: {x}" for x in p.problems]
                return {}
            result["problems"] += compare_hashes(reference.hashes, p, label)
            if traced_run:
                traced_walls.append(p.wall)
                traced.append(_layer_values(tracer.summary()))
                per_command = {s.command: tracer.summary(s.command) for s in wl.steps}
            else:
                plain_walls.append(p.wall)
        elapsed = time.perf_counter() - start
        if elapsed + plain_walls[-1] + traced_walls[-1] > seconds:
            break

    # Counts repeat exactly between passes; times are medians over passes.
    values = {}
    for k in traced[0]:
        samples = [t[k] for t in traced]
        if k.endswith("_s"):
            values[k] = median(samples)
        elif len(set(samples)) == 1:
            values[k] = samples[0]
        else:
            result["problems"].append(f"{k} differs between traced passes: {samples}")
            values[k] = samples[-1]
    values["cli.startup_s"] = median(startup)
    values["trace.overhead_s"] = median(traced_walls) - median(plain_walls)
    result["tracing"] = {
        "untraced_wall_s": describe(plain_walls),
        "traced_wall_s": describe(traced_walls),
        "overhead_pct": 100.0 * values["trace.overhead_s"] / median(plain_walls),
        "spans_last_pass": len(tracer.spans),
    }
    result["layers"] = values
    result["per_command_spans"] = per_command
    units = {name: unit for name, unit, *_ in LAYER_METRICS + CHAIN_LAYER_METRICS}
    result["layer_units"] = units | DERIVED_UNITS
    write_spans(tracer, work / "spans.jsonl")
    reported = [name for name, *_ in LAYER_METRICS] + list(DERIVED_UNITS)
    return {k: {"value": values[k], "unit": result["layer_units"][k]} for k in reported}


def write_spans(tracer, path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for i, (name, t0, t1, parent, command, self_s) in enumerate(tracer.spans):
            fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                 "parent": parent, "command": command, "self_s": self_s}) + "\n")


# --------------------------------------------------------------------- main


def run(wl: wls.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the full result (``line`` is the summary)."""
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)

    result = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "facts": machine_facts(seed), "configs": write_configs(wl, work),
        "attempted": 0, "failed": 0, "problems": [],
    }
    measure = measure_layers if trace else measure_end_to_end
    metrics = measure(wl, work, seconds, result)
    result["error_rate"] = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    result["correct"] = not result["problems"] and bool(metrics)
    result["line"] = {
        "correct": result["correct"],
        "attempted": max(result["attempted"], 1),
        "failed": result["failed"] if result["attempted"] else 1,
        "metrics": metrics,
    }
    return result


def report(result: dict) -> None:
    """Human-readable lines, the detail file, then the JSON result line."""
    name = result["workload"]
    for metric, body in result["line"]["metrics"].items():
        tag = " (computed)" if metric in COMPUTED else ""
        print(f"{name} {metric} {body['value']:.6g} {body['unit']}{tag}")
    for command, wall in result.get("command_walls", {}).items():
        print(f"{name} {command} {wall:.6g} s (median of {result['per_pass']['wall_s']['n']} passes)")
    if "delta_acc_pt" in result:
        print(f"{name} delta_acc_pt {result['delta_acc_pt']:.6g} pt")
    layers, units = result.get("layers", {}), result.get("layer_units", {})
    for metric in sorted(set(layers) - set(result["line"]["metrics"])):
        if layers[metric]:
            tag = " (computed)" if metric in COMPUTED else ""
            print(f"{name} {metric} {layers[metric]:.6g} {units[metric]}{tag}")
    for command, spans in result.get("per_command_spans", {}).items():
        calls = spans.get("network.forward", {}).get("calls", 0)
        print(f"{name} {command}.network.forward.calls {calls} count")
    if "tracing" in result:
        print(f"{name} trace.overhead_pct {result['tracing']['overhead_pct']:.3g} %")
    print(f"{name} error_rate {result['error_rate']:.6g} ratio")
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)

    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}-seed{result['seed']}-trace{int(result['trace'])}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"details: {path.relative_to(ROOT)}")
    print(json.dumps(result["line"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "smd" / "cli.py").is_file():
        parser.exit(2, f"error: no program source at {SRC / 'smd'}; run from a full checkout\n")
    if args.workload not in wls.WORKLOADS:
        parser.exit(2, f"error: unknown workload {args.workload!r}; choose from {sorted(wls.WORKLOADS)}\n")
    if args.seed < 0:
        parser.exit(2, "error: --seed must be nonnegative\n")
    result = run(wls.WORKLOADS[args.workload](ROOT, args.seed), args.seed, args.seconds, bool(args.trace))
    report(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
