"""Reference implementations the tests compare the package against.

None of these run in a command. `child_genome` builds a genome by its own
scatter from a whole mask, and `seed_record_genome` rebuilds a child from
its seed record through it, so a test that compares them with
`mutation.child_patches`, or with the genomes `evolution.average_weights`
and `boundary.perturbed_network` build from its patches, compares two
separate implementations. `train_settings` gives `train_model` the
keywords a config's `model.train` section would.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from smd.config import section
from smd.datasets import Dataset
from smd.divergence import clamp_probs, kl_from_probs, mse_from_logits
from smd.errors import ConfigurationError, ShapeError
from smd.mutation import (
    _COMPLEMENT_NS,
    ROLES,
    Child,
    MutationParams,
    derive_seed,
    sample_mask,
    sample_noise,
)
from smd.network import Network, NetworkSpec, ParamVector, forward, softmax


def child_genome(
    theta: ParamVector, values: np.ndarray, mask: np.ndarray, role: str
) -> ParamVector:
    """theta plus sign * values on `role`'s support; frozen coordinates are
    never written.

    `values` holds one value per support coordinate, in ascending index
    order. For float32-valued theta and values the sum is exact in float64,
    so a mirrored group averages back to theta exactly.
    """
    if role not in ROLES:
        raise ConfigurationError(f"unknown role {role!r}, expected one of {tuple(ROLES)}")
    if mask.shape != theta.values.shape:
        raise ShapeError(f"mask {mask.shape} vs genome {theta.w}")
    sign, on_complement = ROLES[role]
    index = np.flatnonzero((1 - mask if on_complement else mask) == 1)
    if values.shape != index.shape:
        raise ShapeError(f"{values.shape} values for a support of {index.size}")
    genome = theta.values.copy()
    genome[index] = theta.values[index] + sign * values
    return ParamVector(genome)


def seed_record_genome(theta: ParamVector, params: MutationParams, child: Child) -> ParamVector:
    """`child`'s genome rebuilt from its seed record: its group's whole mask,
    the noise stream of its role's support, and `child_genome`'s scatter."""
    mask = sample_mask(theta.w, params.rho, child.mask_seed)
    if ROLES[child.role][1]:
        size, stream = theta.w - int(mask.sum()), derive_seed(child.seed, _COMPLEMENT_NS)
    else:
        size, stream = int(mask.sum()), child.seed
    values = sample_noise(size, params.mu, params.sigma, stream)
    return child_genome(theta, values, mask, child.role)


def partition_masks(w: int, n_parts: int, seed: int) -> list[np.ndarray]:
    """n_parts pairwise-disjoint masks whose union covers every index.

    Each index is assigned uniformly at random to one part.
    """
    if n_parts < 1:
        raise ConfigurationError("n_parts must be positive")
    if n_parts > w:
        raise ConfigurationError(f"cannot split {w} parameters into {n_parts} parts")
    assign = np.random.default_rng(seed).integers(0, n_parts, size=w)
    return [(assign == p).astype(np.uint8) for p in range(n_parts)]


def mask_to_rle(mask: np.ndarray) -> str:
    """Run-length encoding "bitxcount ..." of a 0/1 mask, as the pinned
    support digests of the CLI tests are taken."""
    mask = np.asarray(mask, dtype=np.uint8)
    if mask.size == 0:
        return ""
    edges = np.flatnonzero(np.diff(mask)) + 1
    starts = np.concatenate([[0], edges])
    ends = np.concatenate([edges, [mask.size]])
    return " ".join(f"{int(mask[s])}x{e - s}" for s, e in zip(starts, ends))


def rle_to_mask(text: str) -> np.ndarray:
    """Inverse of `mask_to_rle`."""
    parts = []
    for token in text.split():
        bit, count = token.split("x")
        parts.append(np.full(int(count), int(bit), dtype=np.uint8))
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint8)


def _check_same_spec(parent: Network, child: Network) -> None:
    if parent.spec.layer_sizes != child.spec.layer_sizes or (
        parent.spec.hidden_activation != child.spec.hidden_activation
    ):
        raise ShapeError("parent and child architectures differ")


def kl_from_logits(parent_logits: np.ndarray, child_logits: np.ndarray) -> float:
    """Mean KL(parent || child) between clamped, renormalized softmaxes."""
    return kl_from_probs(clamp_probs(softmax(parent_logits)), softmax(child_logits))


def output_mse(parent: Network, child: Network, probe: Dataset) -> float:
    """Mean squared difference of raw logits over the probe set."""
    _check_same_spec(parent, child)
    return mse_from_logits(forward(parent, probe.inputs), forward(child, probe.inputs))


def output_kl(parent: Network, child: Network, probe: Dataset) -> float:
    """Mean relative entropy between parent and child output distributions."""
    _check_same_spec(parent, child)
    return kl_from_logits(forward(parent, probe.inputs), forward(child, probe.inputs))


def float32_logits(spec: NetworkSpec, genome: ParamVector, inputs: np.ndarray) -> np.ndarray:
    """The logits `network.predict` scores, written out by hand: the genome
    and the inputs cast to float32, then per layer a matmul, the bias and,
    on a hidden layer, the activation; the result cast to float64."""
    values = genome.values.astype(np.float32)
    a = np.asarray(inputs, dtype=np.float64).astype(np.float32)
    shapes = spec.layer_shapes()
    pos = 0
    for i, (fan_in, fan_out) in enumerate(shapes):
        w = values[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out)
        b = values[pos + fan_in * fan_out : pos + (fan_in + 1) * fan_out]
        pos += (fan_in + 1) * fan_out
        a = np.matmul(a, w) + b
        if i < len(shapes) - 1:
            a = np.tanh(a) if spec.hidden_activation == "tanh" else np.maximum(a, 0.0)
    return a.astype(np.float64)


def flatten(layers: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Inverse of `network.unflatten`: each layer's W row-major, then its b."""
    chunks = []
    for w, b in layers:
        chunks.append(np.asarray(w, dtype=np.float64).ravel())
        chunks.append(np.asarray(b, dtype=np.float64).ravel())
    return np.concatenate(chunks)


def save_csv(data: Dataset, path: str | Path) -> None:
    """Write features then the integer label, one row per sample, with header."""
    d = data.inputs.shape[1]
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join([f"f{i}" for i in range(d)] + ["label"]) + "\n")
        for row, label in zip(data.inputs, data.labels):
            fh.write(",".join(f"{x:.17g}" for x in row) + f",{label}\n")


def rowwise_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax reduced along each row of (n, C) logits, the textbook layout
    that `network.softmax` computes class-major."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy from raw logits via a stable log-softmax."""
    z = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    return float((log_norm - z[np.arange(len(labels)), labels]).mean())


def train_settings(**keys) -> dict:
    """The checked `model.train` section that writes `keys`, defaults filled in."""
    return section({"train": keys}, "model.train")
