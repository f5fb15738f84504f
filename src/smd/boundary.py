"""Decision-boundary grid export for 2-D tasks.

For each requested (sigma, rho) the parent is perturbed once and evaluated
over a regular lattice spanning the data bounding box padded by 10%. Each
cell yields a CSV of (x, y, class, confidence) and an 8-bit PGM image.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datasets import Dataset, artifact_set
from .errors import TaskMismatchError
from .mutation import Child, MutationParams, child_patches, derive_seed
from .network import Network, ParamVector, forward, softmax, workspace

# Spawn-key namespace for boundary-cell perturbations.
_BOUNDARY_NS = 4

_PAD = 0.1  # lattice padding, as a fraction of each side of the data's box
# Lattice points per forward call. OpenBLAS takes another path for small
# row counts: blocks of 2,000-7,000 change the last bits of the shipped
# grids, 8,000 is the smallest size found that keeps them.
_BLOCK = 8000


@dataclass(frozen=True)
class BoundaryGrid:
    xs: np.ndarray  # lattice x coordinates, ascending
    ys: np.ndarray  # lattice y coordinates, ascending
    classes: np.ndarray  # (res, res) int, row i = ys[i]
    confidence: np.ndarray  # (res, res) max softmax probability


def lattice_bounds(data: Dataset) -> tuple[float, float, float, float]:
    """Bounding box of the samples padded by `_PAD` of each side length."""
    lo = data.inputs.min(axis=0)
    hi = data.inputs.max(axis=0)
    span = hi - lo
    return (
        float(lo[0] - _PAD * span[0]),
        float(hi[0] + _PAD * span[0]),
        float(lo[1] - _PAD * span[1]),
        float(hi[1] + _PAD * span[1]),
    )


def evaluate_grid(
    net: Network,
    bounds: tuple[float, float, float, float],
    resolution: int,
    scratch: tuple[np.ndarray, np.ndarray],
) -> BoundaryGrid:
    """Class and confidence at each lattice point, y-major.

    The lattice points are never built whole: they are forwarded in
    `_BLOCK`-point blocks through the caller's `workspace(net.spec,
    min(_BLOCK, resolution**2))` and one points buffer, so memory is
    O(_BLOCK x widest layer + resolution^2).
    """
    x0, x1, y0, y1 = bounds
    xs = np.linspace(x0, x1, resolution)
    ys = np.linspace(y0, y1, resolution)
    n = resolution * resolution
    block = min(_BLOCK, n)
    pts = np.empty((block, 2))
    classes = np.empty(n, dtype=np.intp)
    confidence = np.empty(n)
    for start in range(0, n, block):
        stop = min(start + block, n)
        idx = np.arange(start, stop)
        p = pts[: stop - start]
        p[:, 0] = xs[idx % resolution]
        p[:, 1] = ys[idx // resolution]
        probs = softmax(forward(net, p, scratch))
        probs.argmax(axis=1, out=classes[start:stop])
        probs.max(axis=1, out=confidence[start:stop])
    return BoundaryGrid(
        xs, ys, classes.reshape(resolution, resolution), confidence.reshape(resolution, resolution)
    )


def perturbed_network(parent: Network, sigma: float, rho: float, seed: int) -> Network:
    """One sampled mutation of the parent, as a float64 genome of its own
    for the float64 boundary forward; sigma == 0 returns the parent."""
    if sigma == 0.0:
        return parent
    child = Child(
        seed=derive_seed(seed, _BOUNDARY_NS, 1),
        mask_seed=derive_seed(seed, _BOUNDARY_NS, 0),
        group=0,
        role="solo",
    )
    params = MutationParams(sigma=sigma, rho=rho)
    ((index, values),) = child_patches(parent.params, params, [child])
    genome = parent.params.values.copy()
    genome[index] = values
    return Network(parent.spec, ParamVector(genome))


def write_grid_csv(grid: BoundaryGrid, path: str | Path) -> None:
    """Header `x,y,class,confidence`, then one line per lattice point, y-major.

    Floats are written as their shortest round-trip `repr`, lines end in LF.
    Each x is formatted once per grid and each y once per lattice row; the
    grid is converted to Python scalars one row at a time, so the writer's
    memory stays O(resolution).
    """
    xs = [repr(x) for x in grid.xs.tolist()]
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write("x,y,class,confidence\n")
        for y, classes, confidence in zip(grid.ys.tolist(), grid.classes, grid.confidence):
            mid = f",{y!r},"
            fh.write("".join([
                f"{x}{mid}{c},{p!r}\n"
                for x, c, p in zip(xs, classes.tolist(), confidence.tolist())
            ]))


def write_grid_pgm(grid: BoundaryGrid, path: str | Path) -> None:
    """Binary PGM; class 0 maps to black, the highest class to white.

    Rows run top to bottom in image convention, so the first pixel row is
    the largest y.
    """
    res = grid.classes.shape[0]
    top_class = max(int(grid.classes.max()), 1)
    pixels = np.round(grid.classes[::-1] * (255.0 / top_class)).astype(np.uint8)
    header = f"P5\n{res} {res}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())


def cell_tag(sigma: float, rho: float) -> str:
    return f"sigma{sigma:g}_rho{rho:g}"


def export_boundary_cells(
    parent: Network,
    data: Dataset,
    out_dir: str | Path,
    *,
    sigma_grid: list[float],
    rho_grid: list[float],
    resolution: int,
    seed: int,
) -> list[Path]:
    """Write one CSV and one PGM per (sigma, rho) cell; returns the paths.
    The keyword parameters are the checked `boundary` section's keys; `seed`
    is the master seed of every cell's perturbation.

    Each cell is written as soon as it is computed, to a temporary of
    `datasets.artifact_set`, so no two grids are held at once; the files
    replace their destinations together once every cell is written."""
    if data.inputs.shape[1] != 2:
        raise TaskMismatchError(
            f"boundary export needs 2-D data, got {data.inputs.shape[1]} features"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bounds = lattice_bounds(data)
    # One workspace for every cell: a workspace freed per cell stays in
    # glibc's heap and raises the command's peak RSS.
    scratch = workspace(parent.spec, min(_BLOCK, resolution**2))
    written = []
    with artifact_set(out_dir) as stage:
        for ci, sigma in enumerate(sigma_grid):
            for cj, rho in enumerate(rho_grid):
                cell_seed = derive_seed(seed, ci * len(rho_grid) + cj)
                net = perturbed_network(parent, sigma, rho, cell_seed)
                grid = evaluate_grid(net, bounds, resolution, scratch)
                csv_name = f"boundary_{cell_tag(sigma, rho)}.csv"
                pgm_name = f"boundary_{cell_tag(sigma, rho)}.pgm"
                write_grid_csv(grid, stage(csv_name))
                write_grid_pgm(grid, stage(pgm_name))
                written.extend([out_dir / csv_name, out_dir / pgm_name])
    return written
