"""One-or-more-generation evolutionary loop: spawn a mutated population,
score fitness on validation data, select top-k, and combine the winners by
weight averaging and softmax ensembling.

Model selection touches only the validation set; the test set is read
exactly once, when the final report metrics are computed. A child is a
seed record; every pass over children (scoring, the weight average)
consumes `mutation.child_patches`, each child's support and its values
there, so no pass builds a float64 child genome.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .datasets import Dataset, write_csv
from .metrics import accuracy, metric_triple
from .mutation import (
    Child, MutationParams, child_patches, derive_seed, gather, spawn_mutations
)
from .network import UNPATCHED, Network, ParamVector, nll_loss, predict
from .divergence import clamp_probs, kl_from_probs
from .workers import map_points

# Spawn-key namespaces separating per-generation and per-repeat randomness.
_GENERATION_NS = 3
_REPEAT_NS = 5

EVAL_CSV_COLUMNS = (
    "sigma", "rho", "subspace_mode", "mirrored", "anti_random",
    "pop_size", "top_k", "generations", "seed",
    "parent_acc", "parent_nll", "parent_ece",
    "avg_acc", "avg_nll", "avg_ece",
    "ens_acc", "ens_nll", "ens_ece",
    "delta_acc", "mean_kl_children", "mean_kl_selected",
)

ABLATION_CSV_COLUMNS = ("sigma", "rho", "mode", "seed", "mean_kl", "avg_acc", "ens_acc")


@dataclass
class Population:
    """A scored generation, as `evaluate_fitness` builds it.

    The children are seed records; a child's patch is drawn from
    `mutation` and the parent only while the child is scored. Per child,
    in order: its validation accuracy, its validation NLL and its
    validation softmax probabilities, (n, C). The probabilities are the
    child's one softmax; fitness, NLL, the KL probe and the ensemble's
    validation accuracy all read them.
    """

    parent: Network
    mutation: MutationParams
    children: list[Child]
    fitness: np.ndarray
    val_nll: np.ndarray
    val_probs: list[np.ndarray]


# Forward multiply-adds (children x rows x sum of fan_in * fan_out) below
# which a scoring pass runs serially, as forking costs more than it saves.
# Float32 scoring, serial at 2 OpenBLAS threads vs 2 forked workers at 1,
# 2-vCPU Xeon, median of 15 alternating passes: 3.4e8 (the shipped spiral
# evolve) 24 vs 33 ms; then pops of a [2, 512, 512, 512, 2] net on 500 rows:
# 5.3e8, 27 vs 27; 1.1e9, 45 vs 53; 1.6e9 (3 groups on 2 workers), 71 vs 84;
# 2.1e9, 92 vs 83; 4.2e9, 183 vs 141; 1.7e10 (pop 64), 667 vs 476 ms.
_FORK_MIN_MACS = 2e9


def evaluate_fitness(
    parent: Network, params: MutationParams, children: list[Child], val: Dataset, jobs: int = 1
) -> Population:
    """The scored population of `children` (the parent is never scored).

    This is the one validation pass per child: `network.predict` writes
    each child's patch onto its float32 copy of the parent, runs it
    forward once and softmaxes its logits once. The probabilities give
    the child's fitness (validation accuracy) and its validation NLL, the
    selection tie-break, and are kept for the KL probe and the ensemble's
    validation accuracy.

    A pass of at least `_FORK_MIN_MACS` with jobs > 1 is split into at most
    `jobs` contiguous runs of whole groups (partners share a mask draw),
    each scored on a forked worker (`workers.map_points`) by a pass of its
    own. Its probabilities are the serial pass's, bit for bit.
    """
    sizes = parent.spec.layer_sizes
    macs = len(children) * val.n * sum(a * b for a, b in zip(sizes, sizes[1:]))
    starts = [i for i, c in enumerate(children) if i == 0 or c.group != children[i - 1].group]
    n = min(jobs, len(starts)) if macs >= _FORK_MIN_MACS else 1
    bounds = [0] + [starts[j * len(starts) // n] for j in range(1, n)] + [len(children)]
    runs = list(zip(bounds, bounds[1:]))

    def score(run: tuple[int, int]) -> list[np.ndarray]:
        patches = child_patches(parent.params, params, children[run[0] : run[1]])
        return [probs for _, _, probs in predict(parent.spec, parent.params, patches, val.inputs)]

    scored = map_points(score, runs, n)
    val_probs = [probs for run in runs for probs in scored[run]]
    fitness = np.array([accuracy(probs, val.labels) for probs in val_probs])
    val_nll = np.array([nll_loss(probs, val.labels) for probs in val_probs])
    return Population(parent, params, children, fitness, val_nll, val_probs)


def select_top_k(pop: Population, k: int) -> list[int]:
    """Indices of the k fittest children.

    Ties break by lower validation NLL, then by lower child index, so the
    selection is deterministic.
    """
    n = len(pop.children)
    order = sorted(range(n), key=lambda i: (-pop.fitness[i], pop.val_nll[i], i))
    return order[:k]


def average_weights(
    theta: ParamVector, patches: Iterable[tuple[np.ndarray | slice, np.ndarray]]
) -> ParamVector:
    """Coordinatewise arithmetic mean of the children that `patches` make
    of theta.

    A running sum in patch order, then one division: each child adds theta
    everywhere but its support, where its values are added instead. Every
    coordinate receives the same float64 additions, in the same order, as
    a running sum of whole child genomes would give it, and as
    `np.mean(np.stack(...), axis=0)` does, without building any child. The
    mean of one child is that child's genome, exactly.
    """
    # -0.0 + x is x bit for bit for every finite x, +-0.0 included, so the
    # first child needs no branch of its own.
    total, n = np.full(theta.w, -0.0), 0
    for index, values in patches:
        patched = gather(total, index)
        patched += values
        total += theta.values
        total[index] = patched
        n += 1
        patched = values = None  # release them before the next patch is drawn
    total /= n
    return ParamVector(total)


def _mean_probs(member_probs: Iterable[np.ndarray]) -> np.ndarray:
    return np.mean(np.stack(list(member_probs)), axis=0)


def _ensemble_probs(
    parent: Network, params: MutationParams, members: list[Child], inputs: np.ndarray
) -> tuple[np.ndarray, ParamVector]:
    """The ensemble's prediction, the unweighted mean of the members'
    softmax outputs, and the members' weight average.

    One `network.predict` pass, in member order: each member's patch is
    drawn once, scored, and added to the running sum of the average.
    """
    member_probs = []
    patches = child_patches(parent.params, params, members)
    scored = predict(parent.spec, parent.params, patches, inputs)
    # Keep each member's probabilities as the average pulls its patch.
    average = average_weights(
        parent.params, (member_probs.append(probs) or patch for patch, _, probs in scored)
    )
    return _mean_probs(member_probs), average


def _ensemble_val_accuracy(pop: Population, selected: list[int], val: Dataset) -> float:
    """Validation accuracy of the selected children's ensemble, from their
    cached probabilities."""
    return accuracy(_mean_probs(pop.val_probs[i] for i in selected), val.labels)


def _evolve(
    parent: Network,
    params: MutationParams,
    val: Dataset,
    *,
    pop_size: int,
    top_k: int,
    generations: int,
    master_seed: int,
    jobs: int = 1,
) -> tuple[Population, list[int]]:
    """Run `generations` generations on validation data only.

    Returns the final generation's scored population (its parent is the
    chained model) and the selected indices. Every generation but the last
    averages its selected children, in selection order, into the next
    parent; `_report` builds the final average, so a repeat that is not
    reported builds none. A chained parent is quantized to float32 values,
    as a checkpoint round-trip would, so its mirrored children still
    average back to it exactly. Each generation is scored by
    `evaluate_fitness` on up to `jobs` workers.
    """
    current = parent
    for gen in range(generations):
        gen_seed = derive_seed(master_seed, _GENERATION_NS, gen)
        children = spawn_mutations(current.params, params, pop_size, gen_seed)
        pop = evaluate_fitness(current, params, children, val, jobs)
        selected = select_top_k(pop, top_k)
        if gen < generations - 1:
            chosen = [pop.children[i] for i in selected]
            patches = child_patches(current.params, params, chosen)
            averaged = average_weights(current.params, patches)
            quantized = averaged.values.astype(np.float32).astype(np.float64)
            current = Network(current.spec, ParamVector(quantized))
    return pop, selected


def _score_parent(parent: Network, val: Dataset, test: Dataset) -> tuple[np.ndarray, dict]:
    """The parent's clamped validation distribution (the fixed side of the
    KL probe) and its test metrics, each from a `network.predict` pass, so
    the parent is scored as its children are."""
    ((_, _, val_probs),) = predict(parent.spec, parent.params, [UNPATCHED], val.inputs)
    ((_, _, test_probs),) = predict(parent.spec, parent.params, [UNPATCHED], test.inputs)
    return clamp_probs(val_probs), metric_triple(test_probs, test.labels)


def _report(
    pop: Population,
    selected: list[int],
    val: Dataset,
    test: Dataset,
    parent_scores: tuple[np.ndarray, dict],
    *,
    generations: int,
    seed: int,
) -> dict:
    """The `eval_report.json` payload of one scored generation, from its
    cached validation probabilities and its parent's `_score_parent` result.

    Only the averaged model and the ensemble members are run forward, on
    the test set. One `_ensemble_probs` pass draws each member's patch from
    its seed record once, for both the average and the ensemble.
    """
    parent_val_probs, parent_metrics = parent_scores
    child_kls = [kl_from_probs(parent_val_probs, p) for p in pop.val_probs]
    per_child = [
        {
            "index": i,
            "group": child.group,
            "role": child.role,
            "seed": child.seed,
            "mask_seed": child.mask_seed,
            "fitness": float(pop.fitness[i]),
            "val_nll": float(pop.val_nll[i]),
            "kl_to_parent": child_kls[i],
        }
        for i, child in enumerate(pop.children)
    ]
    chosen = [pop.children[i] for i in selected]
    ensemble_probs, average = _ensemble_probs(pop.parent, pop.mutation, chosen, test.inputs)
    ensemble = metric_triple(ensemble_probs, test.labels)
    ((_, _, averaged_probs),) = predict(pop.parent.spec, average, [UNPATCHED], test.inputs)
    averaged = metric_triple(averaged_probs, test.labels)
    return {
        "parent": parent_metrics,
        "averaged": averaged,
        "ensemble": ensemble,
        "per_child": per_child,
        "selected": selected,
        "delta_acc": ensemble["accuracy"] - parent_metrics["accuracy"],
        "mean_kl_children": float(np.mean(child_kls)),
        "mean_kl_selected": float(np.mean([child_kls[i] for i in selected])),
        "ensemble_val_accuracy": _ensemble_val_accuracy(pop, selected, val),
        "config": {
            "pop_size": len(pop.children),
            "top_k": len(selected),
            "generations": generations,
            "mutation": asdict(pop.mutation),
        },
        "seed": seed,
    }


def run_generation(
    parent: Network,
    params: MutationParams,
    val: Dataset,
    test: Dataset,
    *,
    pop_size: int,
    top_k: int,
    generations: int,
    master_seed: int,
    repeats: int,
    jobs: int = 1,
) -> dict:
    """Spawn, score, select, combine; report metrics on the test set.

    Returns the `eval_report.json` payload. The keyword parameters besides
    `jobs` are the checked `evolution` section's keys.

    With generations > 1 the averaged model becomes the next parent; the
    report describes the final generation (its parent is the chained
    model). `evaluate_fitness` builds each generation already scored:
    each child's validation logits are computed and softmaxed once, and
    the probabilities are reused for fitness, NLL, the per-child KL to the
    parent and the ensemble's validation accuracy, so one generation runs
    P + k + 3 forward passes: P on validation, then the parent on
    validation and test, and the averaged model and k members on test.
    Children are kept as seed records, and every pass over children draws
    each child's patch, its support and its values there, which
    `network.predict` writes onto one float32 copy of the parent: no
    scoring pass builds a float64 child genome. The k selected patches
    are drawn once, one at a time, for both the average and the ensemble. A
    big enough validation pass is scored on up to `jobs` forked workers
    (`evaluate_fitness`), with the same bytes; the report's test passes run
    in this process, in selection order.

    With repeats R > 1, R runs evolve on validation data only, run r from
    a seed derived from (master_seed, r). Only the run whose ensemble has
    the best validation accuracy (the earliest on a tie) is scored on the
    test set, so the test set is still read once, by k + 2 forward passes
    (the parent, the average and the k members). The report then lists
    each run's seed and ensemble validation accuracy under `repeats`, and
    the reported run's index under `best_repeat`.
    """
    seeds = [master_seed]
    if repeats > 1:
        seeds = [derive_seed(master_seed, _REPEAT_NS, r) for r in range(repeats)]
    tried, best, best_repeat = [], None, 0
    for r, seed in enumerate(seeds):
        run = _evolve(
            parent, params, val,
            pop_size=pop_size, top_k=top_k, generations=generations, master_seed=seed, jobs=jobs,
        )
        val_acc = _ensemble_val_accuracy(run[0], run[1], val)
        tried.append({"seed": seed, "ensemble_val_accuracy": val_acc})
        if best is None or val_acc > tried[best_repeat]["ensemble_val_accuracy"]:
            best, best_repeat = run, r
        del run  # at most the best run and the next one are held
    pop, selected = best
    # Selection is done: test data is read from here on only.
    parent_scores = _score_parent(pop.parent, val, test)
    report = _report(
        pop, selected, val, test, parent_scores, generations=generations, seed=seeds[best_repeat]
    )
    if repeats > 1:
        report.update(repeats=tried, best_repeat=best_repeat)
    return report


def run_ablation(
    parent: Network,
    val: Dataset,
    test: Dataset,
    *,
    sigma_grid: list[float],
    rho_grid: list[float],
    modes: list[str],
    seeds: list[int],
    pop_size: int,
    top_k: int,
    jobs: int = 1,
) -> list[dict]:
    """Full factorial sweep over (sigma, rho, subspace mode, seed). The
    keyword parameters besides `jobs` are the checked `ablation` section's keys.

    Each distinct sweep point runs one generation; rows carry both the
    averaged model's and the ensemble's test accuracy plus the mean child
    KL, in grid order. At rho 0 every mask is all ones whatever its seed,
    and no noise seed depends on the mode, so a rho-0 point builds the
    same children in every mode: it is computed once, in the first mode,
    keyed without its mode, and each mode's row repeats its values. The
    fixed parent's validation probabilities and test metrics are computed
    once for the whole sweep; no selection reads them.

    With jobs > 1 the distinct points run on up to `jobs` worker processes
    (`workers.map_points`), each scored serially, so a worker never forks
    workers. Each worker sends back three floats per point. Rows are looked
    up by point, so they are the same for every `jobs`, whichever point
    finishes first.
    """
    parent_scores = _score_parent(parent, val, test)
    grid = [
        (sigma, rho, mode, seed)
        for sigma in sigma_grid for rho in rho_grid for mode in modes for seed in seeds
    ]
    keys = [(sigma, rho, mode if rho > 0 else None, seed) for sigma, rho, mode, seed in grid]
    points = {}  # each key -> the first grid point with that key, which computes it
    for key, point in zip(keys, grid):
        points.setdefault(key, point)

    def run_point(point: tuple) -> tuple[float, float, float]:
        sigma, rho, mode, seed = point
        params = MutationParams(sigma=sigma, rho=rho, subspace_mode=mode)
        scored = _evolve(
            parent, params, val, pop_size=pop_size, top_k=top_k, generations=1, master_seed=seed
        )
        report = _report(*scored, val, test, parent_scores, generations=1, seed=seed)
        return (
            report["mean_kl_children"],
            report["averaged"]["accuracy"],
            report["ensemble"]["accuracy"],
        )

    values = map_points(run_point, list(points.values()), jobs)
    return [
        dict(zip(ABLATION_CSV_COLUMNS, (*point, *values[points[key]])))
        for key, point in zip(keys, grid)
    ]


def datasets_disjoint(a: Dataset, b: Dataset) -> bool:
    """True when no sample row of `a` appears in `b` (exact float match,
    with -0.0 equal to 0.0: adding 0.0 turns each -0.0 into 0.0)."""
    rows_a = {row.tobytes() for row in a.inputs + 0.0}
    return all(row.tobytes() not in rows_a for row in b.inputs + 0.0)


def write_eval_csv(report: dict, path: str | Path) -> None:
    """The report as one row of `EVAL_CSV_COLUMNS`. A column is the key of
    its name in the report, its config echo or its mutation echo, or a
    metric block's `<block>_<metric>`."""
    fields = {**report["config"]["mutation"], **report["config"], **report}
    for prefix, block in (("parent", "parent"), ("avg", "averaged"), ("ens", "ensemble")):
        for suffix, metric in (("acc", "accuracy"), ("nll", "nll"), ("ece", "ece")):
            fields[f"{prefix}_{suffix}"] = report[block][metric]
    write_csv(path, EVAL_CSV_COLUMNS, [[fields[c] for c in EVAL_CSV_COLUMNS]])


def write_ablation_csv(rows: list[dict], path: str | Path) -> None:
    write_csv(path, ABLATION_CSV_COLUMNS, ([row[c] for c in ABLATION_CSV_COLUMNS] for row in rows))
