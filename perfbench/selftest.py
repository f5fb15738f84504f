"""Self-test of the benchmark harness on tiny workloads (about fifteen seconds).

    python3 perfbench/selftest.py

Asserts that the tracer counts ``network.forward`` calls as 2P+2k+3 for one
evolve generation, that traced and untraced runs write byte-identical
artifacts, that every reported metric has a well-formed name and a unit and
matches ``BENCHMARK.json``, and that a command pointed at a missing
checkpoint (exit 2) is counted as failed.
"""

from __future__ import annotations

import json
import re
import sys

import run
import workloads as wls

POP, TOP_K = 4, 2
TINY_LAYERS = [2, 8, 2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def tiny_evolve(name: str, checkpoint: str = "fixture/wide.ckpt") -> wls.Workload:
    """One evolve generation of a [2, 8, 2] net on a small spiral task."""
    wl = wls.wide_evolve(run.ROOT, 0)
    wl.name = name
    wl.setup_argv = wls.init_fixture_argv("fixture/wide.ckpt", 7, TINY_LAYERS)
    cfg = wl.configs["evolve.json"]
    cfg["task"].update(n_train=100, n_eval=200)
    cfg["model"]["checkpoint"] = checkpoint
    cfg["evolution"].update(pop_size=POP, top_k=TOP_K)
    return wl


def tiny_ablation() -> wls.Workload:
    """Both subspace modes, one sigma, one rho, one seed, on a tiny net."""
    wl = wls.spiral_ablation(run.ROOT, 0)
    wl.name = "selftest_ablation"
    wl.setup_argv = wls.init_fixture_argv("fixture/model.ckpt", 7, TINY_LAYERS)
    cfg = wl.configs["ablate.json"]
    cfg["task"].update(n_train=100, n_eval=200)
    cfg["ablation"].update(sigma_grid=[0.05], rho_grid=[0.5], seeds=[0], pop_size=POP, top_k=TOP_K)
    del wl.configs["fixture_train.json"]
    return wl


def check_names(line: dict, expected: list[dict]) -> None:
    metrics = line["metrics"]
    for name, body in metrics.items():
        assert NAME.fullmatch(name) and len(name) <= 64, f"bad metric name {name!r}"
        assert isinstance(body["unit"], str) and body["unit"], f"{name} has no unit"
        assert isinstance(body["value"], (int, float)), f"{name} is not a number"
    declared = {m["name"]: m["unit"] for m in expected}
    got = {name: body["unit"] for name, body in metrics.items()}
    assert got == declared, f"metrics differ from BENCHMARK.json: {got} vs {declared}"


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    traced = run.run(tiny_evolve("selftest_evolve"), 0, 1.0, True)
    assert traced["correct"], traced["problems"]
    calls = traced["layers"]["network.forward.calls"]
    assert calls == 2 * POP + 2 * TOP_K + 3, f"forward calls {calls}, expected 2P+2k+3"
    check_names(traced["line"], spec["per_layer"])
    print(f"ok: traced evolve counts {calls} forward calls = 2P+2k+3 (P={POP}, k={TOP_K})")

    plain = run.run(tiny_evolve("selftest_evolve"), 0, 1.0, False)
    assert plain["correct"], plain["problems"]
    assert plain["artifacts"] == traced["artifacts"], "traced and untraced artifacts differ"
    check_names(plain["line"], spec["end_to_end"])
    print(f"ok: {len(plain['artifacts'])} artifacts byte-identical traced and untraced")

    ablation = run.run(tiny_ablation(), 0, 1.0, False)
    assert ablation["correct"], ablation["problems"]
    check_names(ablation["line"], spec["end_to_end"])
    print("ok: every metric name is well formed, carries a unit and matches BENCHMARK.json")

    broken = run.run(tiny_evolve("selftest_missing", checkpoint="fixture/missing.ckpt"), 0, 1.0, False)
    record = broken["passes"][0][0]
    assert record["exit"] == 2, record
    assert broken["failed"] == 1 and broken["error_rate"] > 0, broken
    assert not broken["correct"] and not broken["line"]["correct"]
    print(f"ok: missing checkpoint exits 2 and counts: error_rate {broken['error_rate']:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
