"""Small mutants of the README's contracts: tier-1 must kill each one.

    python3 tests/mutants.py               # every row
    python3 tests/mutants.py kl_floor ...  # the named rows only

Each row of `MUTANTS` names a file, an exact old text in it, the new text
that replaces it, and the README contract the edit breaks; README's
"Invariants" chapter names every row (`tests/test_invariants.py` checks
that it does). The whole tree (without version control, run outputs and
caches) is copied to a temporary directory once unmutated and once per
row; the row's edit is applied to its copy and `python -m pytest -x` runs
there. A mutant is killed when pytest
exits non-zero. For each row the script prints the contract, the first
failing test and the seconds taken.

The script exits 1 when an old text does not occur exactly once in its file
(so a refactor that moves a contract's code must update its row), when the
unmutated copy fails (a kill would then show nothing), or when a mutant
survives. It is not a test module: pytest does not collect it, and it is not
part of tier-1. It uses the standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = shutil.ignore_patterns(
    ".git", ".perfbench", "out", "__pycache__", ".hypothesis", ".pytest_cache"
)


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    contract: str


MUTANTS = (
    Mutant(
        "kl_floor", "src/smd/divergence.py",
        "return max(float(kl), 0.0)", "return float(kl)",
        "the KL probe is never negative: a mean that rounds below 0 is 0.0",
    ),
    Mutant(
        "repeat_tie", "src/smd/evolution.py",
        "val_acc > tried[best_repeat]", "val_acc >= tried[best_repeat]",
        "repeats report the best ensemble validation accuracy, the earliest on a tie",
    ),
    Mutant(
        "boundary_pin", "src/smd/boundary.py",
        "from .evolution import average_weights, one_blas_thread\n",
        "from contextlib import nullcontext as one_blas_thread\n\n"
        "from .evolution import average_weights\n",
        "the boundary export runs at one OpenBLAS thread and restores the count",
    ),
    Mutant(
        "resolution_bound", "src/smd/config.py",
        "if 16 * resolution**2 > _BOUNDARY_GRID_BYTES:", "if False:",
        "boundary.resolution is bounded: its two grid arrays take at most 1 GiB",
    ),
    Mutant(
        "support_restore", "src/smd/network.py",
        "params[written] = theta.values[written]", "pass",
        "frozen coordinates stay bit-identical: predict restores each support",
    ),
    Mutant(
        "average_plus_zero", "src/smd/evolution.py",
        "np.full(theta.w, -0.0)", "np.zeros(theta.w)",
        "the averaged model and mirrored cancellation keep their bytes (-0.0 start)",
    ),
    Mutant(
        "float32_range", "src/smd/network.py",
        'with np.errstate(over="raise"):', 'with np.errstate(over="ignore"):',
        "a genome or an input beyond the float32 range exits 2 naming it, not scored as inf",
    ),
    Mutant(
        "rho0_full_slice", "src/smd/mutation.py",
        "if on_complement not in index and params.rho == 0:", "if False:",
        "a child is a patch: a rho-0 pass draws no mask and shares one support object",
    ),
    Mutant(
        "view_gather", "src/smd/mutation.py",
        "return picked.copy() if isinstance(index, slice) else picked", "return picked",
        "the parent is never written: the full slice's gather is a copy",
    ),
    Mutant(
        "destination_check", "src/smd/datasets.py",
        "if destination.is_dir() and not destination.is_symlink():", "if False:",
        "artifacts are one set: a directory in a destination's place replaces none",
    ),
    Mutant(
        "mirrored_sign", "src/smd/mutation.py",
        '"-": (-1, False),', '"-": (+1, False),',
        "mirrored pairs cancel exactly",
    ),
    Mutant(
        "unknown_key", "src/smd/config.py",
        'unknown = raw.keys() - SCHEMA[name].keys() - {"_comment"}', "unknown = set()",
        "config schemas are strict: an unknown key exits 2",
    ),
    Mutant(
        "unseeded_noise", "src/smd/mutation.py",
        "rng = np.random.default_rng(seed)\n    with np.errstate",
        "rng = np.random.default_rng()\n    with np.errstate",
        "reruns are byte-identical: every draw is seeded from the config",
    ),
    Mutant(
        "draw_order", "src/smd/mutation.py",
        "    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=key)\n",
        '    calls = derive_seed.__dict__.setdefault("calls", [0])\n'
        "    calls[0] += 1\n"
        "    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(*key, calls[0]))\n",
        "results do not depend on evaluation order: no seed depends on the draws before it",
    ),
    Mutant(
        "hand_out", "src/smd/evolution.py",
        "values.update(zip(points[j::jobs], result))",
        "values.update(zip(points[j * len(result):], result))",
        "results do not depend on the worker count or the hand-out order",
    ),
    Mutant(
        "test_set_once", "src/smd/evolution.py",
        "        val_acc = _ensemble_val_accuracy(run[0], run[1], val)\n",
        "        val_acc = _ensemble_val_accuracy(run[0], run[1], val)\n"
        "        _score_parent(run[0].parent, val, test)  # each repeat peeks at the test set\n",
        "the test set is read once, after selection",
    ),
    Mutant(
        "array_bound", "src/smd/config.py",
        "        if size > _ARRAY_BYTES:", "        if False:",
        "a genome or a spirals set beyond 1 GiB exits 2 before anything is allocated",
    ),
)


def run_suite(tree: Path) -> tuple[int, str, float]:
    """pytest -x in `tree`: its exit code, its first failing test and the
    seconds taken. The copy's own `src` is the only one on the path."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    seconds = time.perf_counter() - start
    failed = [line.split()[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode, (failed or ["-"])[0], seconds


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    rows = [m for m in MUTANTS if not names or m.name in names]
    misplaced = 0
    for m in rows:
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            print(f"{m.name}: the old text occurs {count} times in {m.path}", file=sys.stderr)
            misplaced += 1
    if misplaced:
        return 1
    with tempfile.TemporaryDirectory(prefix="smd-mutants-") as tmp:

        def copy(name: str) -> Path:
            return shutil.copytree(ROOT, Path(tmp) / name, ignore=SKIPPED)

        code, failed, seconds = run_suite(copy("unmutated"))
        print(f"unmutated tree: pytest exit {code} in {seconds:.1f} s")
        if code != 0:
            print(f"the unmutated tree fails ({failed}); no kill would show anything")
            return 1
        print("| mutant | file | contract | killed by | s |")
        print("|---|---|---|---|---|")
        survivors = 0
        for m in rows:
            tree = copy(m.name)
            target = tree / m.path
            target.write_text(target.read_text(encoding="utf-8").replace(m.old, m.new),
                              encoding="utf-8")
            code, failed, seconds = run_suite(tree)
            survivors += code == 0
            killer = f"`{failed}`" if code != 0 else "**survived**"
            print(f"| `{m.name}` | `{m.path}` | {m.contract} | {killer} | {seconds:.1f} |",
                  flush=True)
            shutil.rmtree(tree)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
