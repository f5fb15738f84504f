"""Evolutionary fine-tuning of trained networks via sparse masked mutations.

The genome is the flat parameter vector of a small feed-forward network.
Children are spawned by adding Gaussian noise restricted to random binary
subspaces (optionally mirrored and anti-random for variance reduction),
scored on validation accuracy, and the best are combined by weight
averaging and softmax ensembling. A KL-divergence probe budgets the
mutation hyperparameters.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .datasets import Dataset, load_csv, make_spirals, split
from .divergence import grid_search
from .evolution import (
    Population,
    average_weights,
    evaluate_fitness,
    run_ablation,
    run_generation,
    select_top_k,
)
from .metrics import accuracy, ece, metric_triple
from .mutation import (
    Child,
    MutationParams,
    child_patches,
    sample_mask,
    sample_noise,
    spawn_mutations,
)
from .network import (
    Network,
    NetworkSpec,
    ParamVector,
    forward,
    init_network,
    nll_loss,
    predict,
    softmax,
)
from .training import train_model

__version__ = "0.1.0"
