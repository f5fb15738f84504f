"""Synthetic spiral data, deterministic splits, CSV ingestion, the one
CSV writer of the artifacts, and the staging that writes a command's
artifacts as one set."""

from __future__ import annotations

import contextlib
import csv
import errno
import math
import os
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ParseError


@dataclass
class Dataset:
    """Labeled samples: inputs (n, d) float64, labels (n,) int64."""

    inputs: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise ConfigurationError(f"inputs must be a nonempty matrix, got {self.inputs.shape}")
        if self.labels.shape != (self.inputs.shape[0],):
            raise ConfigurationError("one label per input row required")
        if self.class_count < 1:
            raise ConfigurationError("class_count must be positive")
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise ConfigurationError(
                f"labels must lie in [0, {self.class_count}), got range "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )
        if not np.all(np.isfinite(self.inputs)):
            raise ConfigurationError("inputs contain non-finite values")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]


def make_spirals(n: int, *, noise_std: float = 0.05, turns: float = 1.75, seed: int = 0) -> Dataset:
    """Two interleaved spirals, n/2 points per class.

    Each class traces r = t, angle = 2*pi*turns*t (+ pi for class 1) for
    t ~ Uniform[0, 1], with independent Gaussian coordinate noise.
    """
    rng = np.random.default_rng(seed)
    half = n // 2
    points = []
    for c in (0, 1):
        t = rng.random(half)
        angle = 2.0 * np.pi * turns * t + c * np.pi
        clean = np.column_stack([t * np.sin(angle), t * np.cos(angle)])
        points.append(clean + rng.normal(0.0, noise_std, size=(half, 2)))
    inputs = np.vstack(points)
    labels = np.repeat([0, 1], half)
    return Dataset(inputs, labels, class_count=2)


def split(data: Dataset, fractions: Sequence[float], seed: int) -> list[Dataset]:
    """Disjoint, exhaustive partition after a seeded shuffle, by fractions
    that sum to 1.

    Sizes are floor(n * fraction); the rounding remainder goes to the
    first split. Any empty part is a configuration error.
    """
    n = data.n
    sizes = [int(np.floor(n * f)) for f in fractions]
    sizes[0] += n - sum(sizes)
    if any(s < 1 for s in sizes):
        raise ConfigurationError(
            f"split of {n} samples by {tuple(fractions)} yields an empty part {sizes}"
        )
    order = np.random.default_rng(seed).permutation(n)
    out = []
    pos = 0
    for s in sizes:
        sel = order[pos : pos + s]
        pos += s
        out.append(Dataset(data.inputs[sel], data.labels[sel], data.class_count))
    return out


def _is_numeric_row(fields: list[str]) -> bool:
    try:
        for f in fields:
            float(f)
    except ValueError:
        return False
    return True


def load_csv(path: str | Path, class_count: int | None = None) -> Dataset:
    """Read a dataset: d feature columns then one integer label column.

    A non-numeric first row is treated as a header. class_count defaults
    to max(label) + 1.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:  # missing, say, or a directory: named as every input path is
        raise ParseError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc

    rows = [(i + 1, line.strip()) for i, line in enumerate(lines) if line.strip()]
    if rows and not _is_numeric_row(rows[0][1].split(",")):
        rows = rows[1:]
    if not rows:
        raise ParseError(f"{path}: no samples")

    width = len(rows[0][1].split(","))
    if width < 2:
        raise ParseError(f"{path}: row 1 has {width} columns, need features plus label")

    features = []
    labels = []
    for lineno, line in rows:
        fields = line.split(",")
        if len(fields) != width:
            raise ParseError(f"{path}: row {lineno} has {len(fields)} columns, expected {width}")
        try:
            features.append([float(f) for f in fields[:-1]])
        except ValueError:
            raise ParseError(f"{path}: row {lineno} has a non-numeric feature") from None
        if not all(map(math.isfinite, features[-1])):
            raise ParseError(f"{path}: row {lineno} has a non-finite feature")
        try:
            labels.append(int(fields[-1]))
        except ValueError:
            raise ParseError(f"{path}: row {lineno} has a non-integer label") from None
        if not 0 <= labels[-1] < 2**63:  # a label is an int64
            raise ParseError(f"{path}: row {lineno} has label {labels[-1]}, outside [0, 2**63)")

    inferred = max(labels) + 1
    if class_count is None:
        class_count = inferred
    elif inferred > class_count:
        raise ParseError(
            f"{path}: label {max(labels)} exceeds declared class count {class_count}"
        )
    return Dataset(np.array(features), np.array(labels), class_count)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A header row, then one line per row; floats are written as their
    shortest round-trip `repr`, other values with `str`, lines end in LF."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(v) if isinstance(v, float) else str(v) for v in row] for row in rows)


@contextlib.contextmanager
def artifact_set(out_dir: str | Path) -> Iterator[Callable[[str], Path]]:
    """Write a command's artifacts as one set: all of them, or none.

    Yields `stage(name)`, the temporary path in `out_dir` to write the
    artifact `name` to (`.<name>.partial`). When the block ends, every
    destination is checked before the first `os.replace`: one that is a
    directory raises `IsADirectoryError` naming it, and none is replaced.
    A block that raises replaces none either. The temporaries left are
    removed, so a failed command leaves `out_dir` as it was.
    """
    staged = {}  # destination -> its temporary

    def stage(name: str) -> Path:
        destination = Path(out_dir) / name
        staged[destination] = destination.with_name(f".{name}.partial")
        return staged[destination]

    try:
        yield stage
        for destination in staged:
            if destination.is_dir() and not destination.is_symlink():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(destination))
        for destination, temporary in staged.items():
            os.replace(temporary, destination)
    finally:
        for temporary in staged.values():
            with contextlib.suppress(OSError):
                temporary.unlink()
