"""Gradient training for the feed-forward kernel: backprop, Adam/SGD loop.

Everything is plain float64 numpy. Training is single-threaded and fully
determined by (init seed, shuffle seed, data), so identical configs yield
bit-identical parameter vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .errors import TrainingDivergenceError
from .metrics import accuracy
from .network import (
    Network,
    NetworkSpec,
    ParamVector,
    _activate_inplace,
    forward,
    softmax,
    unflatten,
)

OPTIMIZERS = ("adam", "sgd")


@dataclass
class TrainConfig:
    optimizer: str = "adam"
    learning_rate: float = 0.001
    epochs: int = 10
    batch_size: int = 16
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    shuffle_seed: int = 0


def _loss_and_delta(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. the logits, from one `exp`.

    The gradient is (softmax(logits) - onehot(labels)) / n; the shifted
    logits are the ones `network.softmax` computes, so for fewer than 8
    classes its probabilities are the same bit for bit.
    """
    n = len(labels)
    rows = np.arange(n)
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    norm = e.sum(axis=1, keepdims=True)
    loss = float((np.log(norm[:, 0]) - z[rows, labels]).mean())
    e /= norm
    e[rows, labels] -= 1.0
    e /= n
    return loss, e


def loss_and_grad(
    spec: NetworkSpec,
    values: np.ndarray,
    inputs: np.ndarray,
    labels: np.ndarray,
    grad: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. the flat parameter vector.

    Standard backprop: forward pass caching activations, then the softmax
    cross-entropy delta is pushed back through each layer. The gradient is
    written into `grad` when given (shape of `values`), else into a new
    array; either way that array is returned.
    """
    layers = unflatten(spec, values)
    if grad is None:
        grad = np.empty_like(values)
    grads = unflatten(spec, grad)
    last = len(layers) - 1

    acts = [np.asarray(inputs, dtype=np.float64)]
    for i, (w, b) in enumerate(layers):
        z = acts[-1] @ w
        z += b
        if i < last:
            _activate_inplace(z, spec.hidden_activation)
        acts.append(z)

    loss, delta = _loss_and_delta(acts[-1], labels)

    for i in range(last, -1, -1):
        gw, gb = grads[i]
        np.matmul(acts[i].T, delta, out=gw)
        delta.sum(axis=0, out=gb)
        if i > 0:
            delta = delta @ layers[i][0].T
            # derivatives from the stored activations: tanh' = 1 - tanh^2,
            # and relu(z) > 0 exactly where z > 0
            if spec.hidden_activation == "tanh":
                delta *= 1.0 - acts[i] ** 2
            else:
                delta *= acts[i] > 0
    return loss, grad


def train_model(
    net: Network,
    data: Dataset,
    cfg: TrainConfig,
    history: list[dict] | None = None,
) -> Network:
    """Train a copy of `net` on `data`; the input network is left untouched.

    Appends one {"epoch", "loss", "accuracy"} record per epoch to `history`
    when given. Raises TrainingDivergenceError on the first non-finite
    batch loss. The optimizer state lives in buffers allocated once and
    updated in place, in the same elementwise order as the textbook
    out-of-place update, so the result is the same bit for bit.
    """
    theta = net.params.values.copy()
    shuffle_rng = np.random.default_rng(cfg.shuffle_seed)
    n = data.inputs.shape[0]

    grad = np.empty_like(theta)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    tmp = np.empty_like(theta)
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    step = 0

    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for batch_idx, start in enumerate(range(0, n, cfg.batch_size)):
            sel = order[start : start + cfg.batch_size]
            loss, _ = loss_and_grad(net.spec, theta, data.inputs[sel], data.labels[sel], grad)
            if not np.isfinite(loss):
                raise TrainingDivergenceError(epoch, batch_idx)
            epoch_loss += loss * len(sel)
            step += 1
            if cfg.optimizer == "adam":
                # m = b1*m + (1-b1)*grad;  v = b2*v + (1-b2)*grad**2
                m *= b1
                np.multiply(1 - b1, grad, out=tmp)
                m += tmp
                v *= b2
                np.square(grad, out=tmp)
                tmp *= 1 - b2
                v += tmp
                # theta -= lr*m_hat / (sqrt(v_hat) + eps); grad is spent, so
                # it holds the denominator
                np.divide(v, 1 - b2**step, out=grad)
                np.sqrt(grad, out=grad)
                grad += cfg.adam_eps
                np.divide(m, 1 - b1**step, out=tmp)
                tmp *= cfg.learning_rate
                tmp /= grad
                theta -= tmp
            else:
                grad *= cfg.learning_rate
                theta -= grad

        if history is not None:
            trained = Network(net.spec, ParamVector(theta))
            acc = accuracy(softmax(forward(trained, data.inputs)), data.labels)
            history.append({"epoch": epoch, "loss": epoch_loss / n, "accuracy": acc})

    return Network(net.spec, ParamVector(theta))
