"""Output-divergence probes between parent and mutated children, and the
grid search picking (sigma, rho) that maximizes child accuracy inside a
KL budget.

MSE compares raw logits; KL compares softmax distributions (relative
entropy of unnormalized outputs is not well defined), direction
KL(parent || child).
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .datasets import Dataset, write_csv
from .metrics import accuracy
from .mutation import MutationParams, derive_seed, spawn_mutations, working_genomes
from .network import EPS_PROB, Network, predict

# Spawn-key namespace for per-cell search randomness.
_CELL_NS = 2

SWEEP_COLUMNS = ("sigma", "rho", "mean_kl", "mean_mse", "mean_child_acc", "n_children")


def mse_from_logits(parent_logits: np.ndarray, child_logits: np.ndarray) -> float:
    """Sum of squared logit differences per sample, averaged over samples."""
    diff = np.asarray(parent_logits) - np.asarray(child_logits)
    return float((diff**2).sum(axis=1).mean())


def clamp_probs(probs: np.ndarray) -> np.ndarray:
    """Probabilities clamped at EPS_PROB and renormalized: how each side of
    the KL probe enters the log."""
    p = np.clip(probs, EPS_PROB, None)
    return p / p.sum(axis=1, keepdims=True)


def kl_from_probs(parent_probs: np.ndarray, child_probs: np.ndarray) -> float:
    """Mean KL(parent || child) from softmax outputs, the parent given
    already clamped (`clamp_probs`) and the child not.

    Scoring many children against one parent clamps the parent once.
    """
    q = clamp_probs(child_probs)
    kl = (parent_probs * np.log(parent_probs / q)).sum(axis=1).mean()
    return max(float(kl), 0.0)


def _search_spawn_params(sigma: float, rho: float, samples_per_cell: int) -> MutationParams:
    # Mirrored pairs when the cell size allows it, never anti-random
    # complements: a complement child mutates the (1 - rho) fraction, which
    # would mix near-dense children into sparse cells and destroy the
    # monotone KL-vs-rho trend the sweep exists to measure.
    mirrored = samples_per_cell % 2 == 0
    return MutationParams(sigma=sigma, rho=rho, mirrored=mirrored, anti_random=False)


def sweep_cells(
    parent: Network,
    probe: Dataset,
    sigma_grid: Sequence[float],
    rho_grid: Sequence[float],
    samples_per_cell: int,
    master_seed: int,
) -> list[dict]:
    """Evaluate every (sigma, rho) cell: mean KL/MSE/accuracy of fresh children,
    one dict keyed by `SWEEP_COLUMNS` per cell.

    Cells come out sorted by (rho, sigma) for ascending grids. Cell
    randomness derives from (master_seed, cell index, child index), with
    the cell index counted sigma-major, so the visiting order does not
    change any cell's values. Each cell's children are scored by one
    `network.predict` pass, which softmaxes each child's logits once, for
    both its KL and its accuracy; the logits give its MSE.
    """
    ((_, parent_logits, parent_probs),) = predict(parent.spec, [parent.params], probe.inputs)
    parent_probs = clamp_probs(parent_probs)
    cells = []
    for cj, rho in enumerate(rho_grid):
        for ci, sigma in enumerate(sigma_grid):
            cell_index = ci * len(rho_grid) + cj
            cell_seed = derive_seed(master_seed, _CELL_NS, cell_index)
            params = _search_spawn_params(sigma, rho, samples_per_cell)
            children = spawn_mutations(parent.params, params, samples_per_cell, cell_seed)
            genomes = working_genomes(parent.params, params, children)
            kls, mses, accs = [], [], []
            for _, logits, probs in predict(parent.spec, genomes, probe.inputs):
                kls.append(kl_from_probs(parent_probs, probs))
                mses.append(mse_from_logits(parent_logits, logits))
                accs.append(accuracy(probs, probe.labels))
            means = (float(np.mean(kls)), float(np.mean(mses)), float(np.mean(accs)))
            cells.append(dict(zip(SWEEP_COLUMNS, (sigma, rho, *means, len(children)))))
    return cells


def select_cell(cells: list[dict], kl_target: float, kl_tolerance: float) -> tuple[dict, bool]:
    """Selection rule: among cells with mean KL inside kl_target * (1 +-
    kl_tolerance), the one with the best mean child accuracy; if the band
    is empty, the cell with mean KL closest to the target, flagged False.
    Ties prefer larger sigma, then larger rho.
    """
    lo = kl_target * (1 - kl_tolerance)
    hi = kl_target * (1 + kl_tolerance)
    in_band = [c for c in cells if lo <= c["mean_kl"] <= hi]
    if in_band:
        return max(in_band, key=lambda c: (c["mean_child_acc"], c["sigma"], c["rho"])), True
    return max(cells, key=lambda c: (-abs(c["mean_kl"] - kl_target), c["sigma"], c["rho"])), False


def grid_search(
    parent: Network,
    probe: Dataset,
    *,
    sigma_grid: list[float],
    rho_grid: list[float],
    kl_target: float,
    kl_tolerance: float,
    samples_per_cell: int,
    probe_size: int,
    seed: int,
) -> tuple[dict, list[dict]]:
    """Sweep the grid on the first `probe_size` probe rows and apply the
    selection rule (see select_cell). The keyword parameters are the checked
    `mutation.search` section's keys; `seed` is the master seed of every
    cell's children.

    Returns the `search_result.json` payload and the sweep cells.
    """
    if probe.n > probe_size:
        probe = Dataset(probe.inputs[:probe_size], probe.labels[:probe_size], probe.class_count)
    cells = sweep_cells(parent, probe, sigma_grid, rho_grid, samples_per_cell, seed)
    best, in_band = select_cell(cells, kl_target, kl_tolerance)
    result = {
        "sigma": best["sigma"],
        "rho": best["rho"],
        "mean_kl": best["mean_kl"],
        "mean_mse": best["mean_mse"],
        "child_accuracy": best["mean_child_acc"],
        "probe_size": probe.n,
        "in_band": in_band,
        "kl_target": kl_target,
        "kl_tolerance": kl_tolerance,
        "seed": seed,
    }
    return result, cells


def write_sweep_csv(cells: list[dict], path: str | Path) -> None:
    write_csv(path, SWEEP_COLUMNS, ([c[name] for name in SWEEP_COLUMNS] for c in cells))
