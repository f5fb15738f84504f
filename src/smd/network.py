"""Minimal feed-forward network kernel operating on a flat parameter genome.

Parameters live in a single 1-D float64 vector with a canonical layout:
for each layer in order, the weight matrix of shape (fan_in, fan_out)
flattened row-major, followed by the bias vector of length fan_out. All
mutation and averaging algebra elsewhere in the package relies on this
layout being stable across runs and checkpoints.

`forward` and `predict` share one layer loop, `hidden_layers` then
`output_layer`. `forward` runs it in float64, for training; `predict`
runs it in float32, for every scoring pass, and returns float64 logits;
the boundary export runs its two halves in float64, the hidden layers on
sub-blocks of its lattice and the output layer on whole blocks. A scoring
pass takes a parent and a stream of patches (support index, values
there): each child is written onto one float32 copy of the parent and
its support restored after, so no pass holds a float64 child genome.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ShapeError

ACTIVATIONS = ("relu", "tanh")

# Probability floor applied before any log.
EPS_PROB = 1e-12


def is_integer(value) -> bool:
    """A Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description: layer sizes, hidden activation, init seed."""

    layer_sizes: tuple[int, ...]
    hidden_activation: str = "relu"
    seed: int = 0

    def __post_init__(self):
        if not all(is_integer(s) and s >= 1 for s in self.layer_sizes):
            raise ConfigurationError(f"layer sizes must be integers >= 1, got {self.layer_sizes}")
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        if len(self.layer_sizes) < 2:
            raise ConfigurationError("layer_sizes needs at least input and output dims")
        if self.hidden_activation not in ACTIVATIONS:
            raise ConfigurationError(
                f"unknown hidden_activation {self.hidden_activation!r}, expected one of {ACTIVATIONS}"
            )
        if not is_integer(self.seed) or self.seed < 0:
            raise ConfigurationError(f"seed must be an integer >= 0, got {self.seed!r}")
        # (fan_in, fan_out, weight start, bias start, end) per layer, computed
        # once: unflatten runs on every forward call and training step. Not a
        # field, so equality and hashing ignore it.
        layout, pos = [], 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            bias = pos + fan_in * fan_out
            layout.append((fan_in, fan_out, pos, bias, bias + fan_out))
            pos = bias + fan_out
        object.__setattr__(self, "_layout", tuple(layout))

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def layer_shapes(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per layer in forward order."""
        return [(fan_in, fan_out) for fan_in, fan_out, *_ in self._layout]

    def param_count(self) -> int:
        return self._layout[-1][-1]


@dataclass
class ParamVector:
    """Flat genome of all trainable parameters in canonical order."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(self.values)):
            raise ConfigurationError("parameter vector contains non-finite entries")

    @property
    def w(self) -> int:
        return self.values.shape[0]


@dataclass
class Network:
    spec: NetworkSpec
    params: ParamVector = field(repr=False)

    def __post_init__(self):
        expected = self.spec.param_count()
        if self.params.w != expected:
            raise ShapeError(
                f"parameter vector has {self.params.w} entries, spec needs {expected}"
            )


def init_network(spec: NetworkSpec) -> Network:
    """He-initialized network: W ~ N(0, 2/fan_in), biases zero.

    Deterministic under spec.seed.
    """
    rng = np.random.default_rng(spec.seed)
    chunks = []
    for fan_in, fan_out in spec.layer_shapes():
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        chunks.append(w.ravel())
        chunks.append(np.zeros(fan_out))
    return Network(spec, ParamVector(np.concatenate(chunks)))


def unflatten(spec: NetworkSpec, values: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Materialize (W, b) views per layer from a flat vector.

    Returned arrays are views; callers must not write through them.
    """
    values = np.asarray(values)
    if values.shape != (spec.param_count(),):
        raise ShapeError(
            f"expected flat vector of length {spec.param_count()}, got shape {values.shape}"
        )
    return [
        (values[w0:b0].reshape(fan_in, fan_out), values[b0:end])
        for fan_in, fan_out, w0, b0, end in spec._layout
    ]


def _activate_inplace(z: np.ndarray, kind: str) -> None:
    if kind == "relu":
        np.maximum(z, 0.0, out=z)
    else:
        np.tanh(z, out=z)


def workspace(
    spec: NetworkSpec, rows: int, dtype: type = np.float64
) -> tuple[np.ndarray, np.ndarray]:
    """Activation scratch for a pass of `spec` on up to `rows` inputs: float64
    for `forward`, float32 for `predict`.

    Two separate flat arrays of rows x widest hidden layer; hidden layers
    alternate between them. Hold one for a scoring pass and drop it after:
    a cached workspace would outlive the pass and raise peak memory.
    """
    size = rows * max(spec.layer_sizes[1:-1], default=0)
    return np.empty(size, dtype), np.empty(size, dtype)


def _inputs(spec: NetworkSpec, inputs: np.ndarray) -> np.ndarray:
    """`inputs` as float64 (n, input_dim) rows; any other shape is an error."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ShapeError(f"inputs must be (n, {spec.input_dim}), got {x.shape}")
    return x


def hidden_layers(
    layers: list[tuple[np.ndarray, np.ndarray]],
    activation: str,
    x: np.ndarray,
    scratch: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """The hidden-layer loop of every forward pass: `x` through the (W, b)
    `layers` of `unflatten` but the last, in the dtype of `x`, the layers
    and `scratch`.

    Hidden layer i writes its matmul into an (n, fan_out) view of
    `scratch[i % 2]`, then adds the bias and applies the activation in
    place; `x` and the layers are never written. Returns the last hidden
    layer's activations, a view of `scratch`, or `x` itself when there is
    no hidden layer.
    """
    n = x.shape[0]
    a = x
    for i, (w, b) in enumerate(layers):
        buf = scratch[i % 2]
        size = n * w.shape[1]
        if buf.size < size:
            raise ShapeError(f"workspace of {buf.size} entries is too small for {n} x {w.shape[1]}")
        z = np.matmul(a, w, out=buf[:size].reshape(n, w.shape[1]))
        z += b
        _activate_inplace(z, activation)
        a = z
    return a


def output_layer(layer: tuple[np.ndarray, np.ndarray], a: np.ndarray) -> np.ndarray:
    """The logits of the last hidden activations `a` under the output
    (W, b) `layer`. Only the logits are allocated, so they never alias a
    workspace."""
    w, b = layer
    logits = a @ w
    logits += b
    return logits


def _layers(
    spec: NetworkSpec, values: np.ndarray, x: np.ndarray, scratch: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """The one layer loop of `forward` and `predict`: the logits of the
    network `values` on `x`, through `scratch`."""
    *hidden, out = unflatten(spec, values)
    return output_layer(out, hidden_layers(hidden, spec.hidden_activation, x, scratch))


def forward(net: Network, inputs: np.ndarray) -> np.ndarray:
    """Float64 logits for a batch of inputs, shape (n, output_dim), through
    a `workspace` made for this one call. Training runs it; every scoring
    pass runs `predict`."""
    x = _inputs(net.spec, inputs)
    return _layers(net.spec, net.params.values, x, workspace(net.spec, x.shape[0]))


# A patch is a support index (an index array or a slice) and the float64
# values written there; the empty patch scores a network as it is.
UNPATCHED = (np.empty(0, np.intp), np.empty(0))


def _float32(values: np.ndarray, out: np.ndarray, what: str, index=Ellipsis) -> np.ndarray:
    """`values` cast into `out[index]`, of the float32 array `out`. A value
    beyond the float32 range is an error that names `what`, not an `inf`."""
    try:
        with np.errstate(over="raise"):
            out[index] = values
    except FloatingPointError:
        raise ConfigurationError(f"{what} beyond the float32 range cannot be scored") from None
    return out


def predict(
    spec: NetworkSpec,
    theta: ParamVector,
    patches: Iterable[tuple[np.ndarray | slice, np.ndarray]],
    inputs: np.ndarray,
) -> Iterator[tuple[tuple, np.ndarray, np.ndarray]]:
    """Each patch of `theta` with its network's logits on `inputs` and their
    softmax: the one scoring pass over a population. A single network is
    scored as the patch `UNPATCHED`.

    Scoring runs in float32, the precision checkpoints store: the inputs
    and theta are each cast once per pass, into one float32 input array
    and one float32 parameter buffer, and every network runs through one
    float32 `workspace`. For each patch the previous patch's support is
    restored from theta, unless the patch has the same index object (a
    mirrored partner, or any M child at rho 0), and float32(values) is
    written at its support: scoring a child costs O(support) besides its
    forward pass, and no w-length float64 genome is built. Logits are
    returned as float64, so everything downstream of them stays float64.
    An input, a parameter or a logit beyond the float32 range is an error,
    not an `inf`. A patch is pulled only once the previous one is yielded,
    so a child's forward pass allocates only its patch, its logits and
    their softmax; the workspace and the buffer are dropped when the pass
    ends."""
    x = _inputs(spec, inputs)
    x = _float32(x, np.empty(x.shape, np.float32), "inputs")
    scratch = workspace(spec, x.shape[0], np.float32)
    Network(spec, theta)  # theta's length check
    params = _float32(theta.values, np.empty(theta.w, np.float32), "genome parameters")
    written = None
    for index, values in patches:
        if written is not None and written is not index:
            params[written] = theta.values[written]  # in range: theta was cast whole
        _float32(values, params, "genome parameters", index)
        written = index
        # numpy reports only this thread's FP flags, not OpenBLAS's: check the logits instead
        with np.errstate(over="ignore", invalid="ignore"):
            logits = _layers(spec, params, x, scratch)
        if not np.isfinite(logits).all():
            raise ConfigurationError("logits beyond the float32 range cannot be scored")
        logits = logits.astype(np.float64)
        yield (index, values), logits, softmax(logits)
        values = None  # release the patch before the next one is drawn


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last (class) axis, stabilized by max subtraction.

    Computed class-major: the transposed logits are copied once into a
    contiguous (C, ..., n) array, each reduction runs over its leading axis
    as C - 1 whole-row passes, and the transposed view is returned. A
    reduction along a short last axis is numpy's slowest layout; on
    (2500, 2) logits this is about 9x faster. For C < 8 every value equals
    the row-wise formula's bit for bit; from C = 8 numpy sums a row
    pairwise, so the last bit can differ (by at most about 1e-15), and so
    can the artifacts of such a task.
    """
    e = np.array(np.asarray(logits, dtype=np.float64).T, order="C")
    e -= e.max(axis=0)
    np.exp(e, out=e)
    e /= e.sum(axis=0)
    return e.T


def nll_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log likelihood of the true labels.

    Probabilities are clamped to [EPS_PROB, 1] before the log, so the
    result is finite and nonnegative even for zero-probability labels.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2 or labels.shape != (probs.shape[0],):
        raise ShapeError(f"incompatible shapes {probs.shape} and {labels.shape}")
    p = np.clip(probs[np.arange(len(labels)), labels], EPS_PROB, 1.0)
    return float(-np.log(p).mean())
