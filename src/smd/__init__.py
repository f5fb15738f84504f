"""Evolutionary fine-tuning of trained networks via sparse masked mutations.

The genome is the flat parameter vector of a small feed-forward network.
Children are spawned by adding Gaussian noise restricted to random binary
subspaces (optionally mirrored and anti-random for variance reduction),
scored on validation accuracy, and the best are combined by weight
averaging and softmax ensembling. A KL-divergence probe budgets the
mutation hyperparameters.
"""

__version__ = "0.1.0"
