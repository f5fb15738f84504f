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
from .evolution import average_weights, one_blas_thread
from .mutation import Child, MutationParams, child_patches, derive_seed
from .network import (
    Network,
    NetworkSpec,
    hidden_layers,
    output_layer,
    softmax,
    unflatten,
    workspace,
)

# Spawn-key namespace for boundary-cell perturbations.
_BOUNDARY_NS = 4

_PAD = 0.1  # lattice padding, as a fraction of each side of the data's box
# Lattice points per output-layer call. OpenBLAS takes its small-matrix
# kernel for products of M x N x K <= 10**6, which rounds differently: the
# shipped 64 -> 2 output layer gives other last bits on up to 7,812 rows
# than on 8,000, and the same from 7,813 rows on. Only the output layer
# depends on the row count: the hidden layers give the same bits on any
# row count but one.
_BLOCK = 8000
# Most lattice points per hidden-layer call: each block runs its hidden
# layers in sub-blocks through a small workspace, so only the last hidden
# layer's activations are held for the whole block. A block is cut into
# the fewest sub-blocks of at most this size, whose sizes differ by at
# most one, so no sub-block has one point unless its block has: numpy
# forwards a single row by another path, which rounds differently.
_SUB_BLOCK = 256


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


def grid_buffers(
    spec: NetworkSpec, resolution: int
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The activation buffers of `evaluate_grid` on a `resolution` lattice:
    a `workspace` of `_SUB_BLOCK` rows for the hidden layers, and one
    (block, last hidden width) array for the output layer's input."""
    block = min(_BLOCK, resolution**2)
    return workspace(spec, min(_SUB_BLOCK, block)), np.empty((block, spec.layer_sizes[-2]))


def evaluate_grid(
    net: Network,
    bounds: tuple[float, float, float, float],
    resolution: int,
    buffers: tuple[tuple[np.ndarray, np.ndarray], np.ndarray],
) -> BoundaryGrid:
    """Class and confidence at each lattice point, y-major.

    The lattice points are never built whole: they are forwarded in
    `_BLOCK`-point blocks through the caller's `grid_buffers(net.spec,
    resolution)` and one points buffer. Each block runs its hidden layers
    in sub-blocks of at most `_SUB_BLOCK` points through the buffers'
    workspace, writes the last hidden activations into their block-wide
    array, and runs the output layer once on the whole block. Memory is
    O(_BLOCK x last hidden width + _SUB_BLOCK x widest layer +
    resolution^2).
    """
    x0, x1, y0, y1 = bounds
    xs = np.linspace(x0, x1, resolution)
    ys = np.linspace(y0, y1, resolution)
    n = resolution * resolution
    block = min(_BLOCK, n)
    *hidden, out = unflatten(net.spec, net.params.values)
    scratch, last = buffers
    pts = np.empty((block, 2))
    classes = np.empty(n, dtype=np.intp)
    confidence = np.empty(n)
    for start in range(0, n, block):
        stop = min(start + block, n)
        idx = np.arange(start, stop)
        p = pts[: stop - start]
        p[:, 0] = xs[idx % resolution]
        p[:, 1] = ys[idx // resolution]
        h = last[: stop - start]
        subs = -(-len(h) // _SUB_BLOCK)
        for i in range(subs):
            rows = slice(len(h) * i // subs, len(h) * (i + 1) // subs)
            h[rows] = hidden_layers(hidden, net.spec.hidden_activation, p[rows], scratch)
        probs = softmax(output_layer(out, h))
        probs.argmax(axis=1, out=classes[start:stop])
        probs.max(axis=1, out=confidence[start:stop])
    return BoundaryGrid(
        xs, ys, classes.reshape(resolution, resolution), confidence.reshape(resolution, resolution)
    )


def perturbed_network(parent: Network, sigma: float, rho: float, seed: int) -> Network:
    """One sampled mutation of the parent, as a float64 genome of its own
    for the float64 boundary forward: the average of its one patch, which
    is that child exactly. sigma == 0 returns the parent."""
    if sigma == 0.0:
        return parent
    child = Child(
        seed=derive_seed(seed, _BOUNDARY_NS, 1),
        mask_seed=derive_seed(seed, _BOUNDARY_NS, 0),
        group=0,
        role="solo",
    )
    patches = child_patches(parent.params, MutationParams(sigma=sigma, rho=rho), [child])
    return Network(parent.spec, average_weights(parent.params, patches))


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
    replace their destinations together once every cell is written. Every
    cell runs through the export's one `grid_buffers`, so its activation
    memory is one block of last hidden activations and one sub-block
    workspace, whatever the number of cells. The cells run under
    `evolution.one_blas_thread`: the bytes do not depend on the thread
    count, and a second OpenBLAS thread would touch GEMM buffers of its own
    on the first block, which raises the command's peak RSS."""
    if data.inputs.shape[1] != 2:
        raise TaskMismatchError(
            f"boundary export needs 2-D data, got {data.inputs.shape[1]} features"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bounds = lattice_bounds(data)
    # One set of buffers for every cell: buffers freed per cell stay in
    # glibc's heap and raise the command's peak RSS.
    buffers = grid_buffers(parent.spec, resolution)
    written = []
    with artifact_set(out_dir) as stage, one_blas_thread():
        for ci, sigma in enumerate(sigma_grid):
            for cj, rho in enumerate(rho_grid):
                cell_seed = derive_seed(seed, ci * len(rho_grid) + cj)
                net = perturbed_network(parent, sigma, rho, cell_seed)
                grid = evaluate_grid(net, bounds, resolution, buffers)
                csv_name = f"boundary_{cell_tag(sigma, rho)}.csv"
                pgm_name = f"boundary_{cell_tag(sigma, rho)}.pgm"
                write_grid_csv(grid, stage(csv_name))
                write_grid_pgm(grid, stage(pgm_name))
                written.extend([out_dir / csv_name, out_dir / pgm_name])
                del grid  # not held while the next cell's grid is made
    return written
