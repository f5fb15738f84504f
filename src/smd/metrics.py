"""Classification report metrics: accuracy, NLL, expected calibration error.

ECE always uses `ECE_BINS` (15) equal-width max-confidence bins over
(0, 1], so its numbers are comparable across runs.
"""

from __future__ import annotations

import numpy as np

from .network import nll_loss

ECE_BINS = 15


def accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax matches the label.

    Argmax ties resolve to the lowest class index.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    return float((probs.argmax(axis=1) == labels).mean())


def ece(probs: np.ndarray, labels: np.ndarray) -> float:
    """Expected calibration error under equal-width confidence binning.

    Bin b covers (b/ECE_BINS, (b+1)/ECE_BINS]; softmax confidences are
    strictly positive so the open left edge of bin 0 is unreachable. Empty
    bins contribute nothing.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)

    conf = probs.max(axis=1)
    correct = probs.argmax(axis=1) == labels
    idx = np.clip(np.ceil(conf * ECE_BINS).astype(np.int64) - 1, 0, ECE_BINS - 1)

    total = 0.0
    n = len(labels)
    for b in range(ECE_BINS):
        sel = idx == b
        count = int(sel.sum())
        if count == 0:
            continue
        total += (count / n) * abs(correct[sel].mean() - conf[sel].mean())
    return float(total)


def metric_triple(probs: np.ndarray, labels: np.ndarray) -> dict[str, float]:
    """Accuracy, NLL and ECE of one probability matrix: a metric block of
    `eval_report.json`, keyed in that order."""
    return {
        "accuracy": accuracy(probs, labels),
        "nll": nll_loss(probs, labels),
        "ece": ece(probs, labels),
    }
