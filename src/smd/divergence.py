"""Output-divergence probes between parent and mutated children, and the
grid search picking (sigma, rho) that maximizes child accuracy inside a
KL budget.

MSE compares raw logits; KL compares softmax distributions (relative
entropy of unnormalized outputs is not well defined), direction
KL(parent || child).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datasets import Dataset, write_csv
from .errors import ConfigurationError
from .metrics import accuracy
from .mutation import MutationParams, child_logits, derive_seed, spawn_mutations
from .network import EPS_PROB, Network, forward, softmax, workspace

# Spawn-key namespace for per-cell search randomness.
_CELL_NS = 2

SWEEP_COLUMNS = ("sigma", "rho", "mean_kl", "mean_mse", "mean_child_acc", "n_children")


@dataclass
class GridSearchConfig:
    sigma_grid: Sequence[float]
    rho_grid: Sequence[float]
    kl_target: float = 0.05
    kl_tolerance: float = 0.5  # relative band half-width around the target
    samples_per_cell: int = 4
    probe_size: int = 1000

    def __post_init__(self):
        for name in ("sigma_grid", "rho_grid"):
            grid = getattr(self, name)
            if list(grid) != sorted(set(grid)):
                raise ConfigurationError(f"{name} must be strictly ascending")


@dataclass(frozen=True)
class CellResult:
    sigma: float
    rho: float
    mean_kl: float
    mean_mse: float
    mean_child_acc: float
    n_children: int


@dataclass(frozen=True)
class GridSearchOutcome:
    best: CellResult  # the cell the selection rule chose
    probe_size: int  # probe rows every cell was scored on
    in_band: bool
    cells: tuple[CellResult, ...]


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
) -> list[CellResult]:
    """Evaluate every (sigma, rho) cell: mean KL/MSE/accuracy of fresh children.

    Cells come out sorted by (rho, sigma) for ascending grids. Cell
    randomness derives from (master_seed, cell index, child index), with
    the cell index counted sigma-major, so the visiting order does not
    change any cell's values. The parent and every child run through one
    activation workspace, and each child's logits are softmaxed once, for
    both its KL and its accuracy.
    """
    scratch = workspace(parent.spec, probe.n)
    parent_logits = forward(parent, probe.inputs, scratch)
    parent_probs = clamp_probs(softmax(parent_logits))
    cells = []
    for cj, rho in enumerate(rho_grid):
        for ci, sigma in enumerate(sigma_grid):
            cell_index = ci * len(rho_grid) + cj
            cell_seed = derive_seed(master_seed, _CELL_NS, cell_index)
            params = _search_spawn_params(sigma, rho, samples_per_cell)
            children = spawn_mutations(parent.params, params, samples_per_cell, cell_seed)
            kls, mses, accs = [], [], []
            for logits in child_logits(parent, params, children, probe.inputs, scratch):
                probs = softmax(logits)
                kls.append(kl_from_probs(parent_probs, probs))
                mses.append(mse_from_logits(parent_logits, logits))
                accs.append(accuracy(probs, probe.labels))
            cells.append(
                CellResult(
                    sigma=sigma,
                    rho=rho,
                    mean_kl=float(np.mean(kls)),
                    mean_mse=float(np.mean(mses)),
                    mean_child_acc=float(np.mean(accs)),
                    n_children=len(children),
                )
            )
    return cells


def select_cell(
    cells: list[CellResult], kl_target: float, kl_tolerance: float
) -> tuple[CellResult, bool]:
    """Selection rule: among cells with mean KL inside kl_target * (1 +-
    kl_tolerance), the one with the best mean child accuracy; if the band
    is empty, the cell with mean KL closest to the target, flagged False.
    Ties prefer larger sigma, then larger rho.
    """
    if not cells:
        raise ConfigurationError("no cells to select from")
    lo = kl_target * (1 - kl_tolerance)
    hi = kl_target * (1 + kl_tolerance)
    in_band = [c for c in cells if lo <= c.mean_kl <= hi]
    if in_band:
        return max(in_band, key=lambda c: (c.mean_child_acc, c.sigma, c.rho)), True
    return max(cells, key=lambda c: (-abs(c.mean_kl - kl_target), c.sigma, c.rho)), False


def grid_search(
    parent: Network, probe: Dataset, cfg: GridSearchConfig, master_seed: int
) -> GridSearchOutcome:
    """Sweep the grid and apply the selection rule; see select_cell."""
    probe = _cap_probe(probe, cfg.probe_size)
    cells = sweep_cells(
        parent, probe, cfg.sigma_grid, cfg.rho_grid, cfg.samples_per_cell, master_seed
    )
    best, in_band = select_cell(cells, cfg.kl_target, cfg.kl_tolerance)
    return GridSearchOutcome(best, probe.n, in_band, tuple(cells))


def _cap_probe(probe: Dataset, probe_size: int) -> Dataset:
    if probe.n <= probe_size:
        return probe
    return Dataset(probe.inputs[:probe_size], probe.labels[:probe_size], probe.class_count)


def write_sweep_csv(cells: list[CellResult], path: str | Path) -> None:
    write_csv(path, SWEEP_COLUMNS, ([getattr(c, name) for name in SWEEP_COLUMNS] for c in cells))
