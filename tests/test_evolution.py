import dataclasses
import inspect
import itertools
import json
import os
import tracemalloc

import numpy as np
import pytest

import smd.config as cfgmod
import smd.evolution as evolution
from smd.boundary import export_boundary_cells
from smd.checkpoint import load_checkpoint, save_checkpoint
from smd.cli import main
from smd.datasets import Dataset, make_spirals
from smd.divergence import SWEEP_COLUMNS, grid_search
from smd.errors import ConfigurationError, WorkerError
from smd.evolution import (
    Population,
    average_weights,
    datasets_disjoint,
    evaluate_fitness,
    run_ablation,
    run_generation,
    select_top_k,
    write_ablation_csv,
)
from smd.mutation import (
    _GROUP_ROLES,
    SUBSPACE_MODES,
    Child,
    MutationParams,
    child_patches,
    derive_seed,
    sample_mask,
    sample_noise,
    spawn_mutations,
)
from smd.network import Network, NetworkSpec, ParamVector, forward, init_network, softmax
from smd.training import train_model

from oracles import child_genome, float32_logits, seed_record_genome


def make_population(fitness, nll=None):
    """Population stub with given fitness; children carry dummy seeds."""
    spec = NetworkSpec([1, 2])
    parent = init_network(spec)
    children = [Child(seed=i, mask_seed=i, group=i, role="solo") for i in range(len(fitness))]
    return Population(
        parent,
        MutationParams(sigma=0.1, rho=0.5),
        children,
        fitness=np.asarray(fitness, dtype=float),
        val_nll=np.asarray(nll if nll is not None else np.zeros(len(fitness)), dtype=float),
        val_probs=[],
    )


def scored(parent, params, pop_size, master_seed, val):
    """The scored population of pop_size children of parent."""
    children = spawn_mutations(parent.params, params, pop_size, master_seed)
    return evaluate_fitness(parent, params, children, val)


class TestEvaluateFitness:
    def test_zero_strength_children_match_parent(self, spiral_task):
        params = MutationParams(sigma=1e-12, rho=0.5)
        fitness = scored(spiral_task.parent, params, 4, 1, spiral_task.val).fitness
        parent_probs = softmax(forward(spiral_task.parent, spiral_task.val.inputs))
        parent_acc = float((parent_probs.argmax(axis=1) == spiral_task.val.labels).mean())
        assert np.all(fitness == parent_acc)

    def test_fitness_in_unit_interval(self, spiral_task):
        params = MutationParams(sigma=0.1, rho=0.5)
        fitness = scored(spiral_task.parent, params, 8, 2, spiral_task.val).fitness
        assert np.all((fitness >= 0.0) & (fitness <= 1.0))

    def test_label_perfect_child_scores_one(self):
        # a [1,2] "network" that outputs (x, -x): positive inputs -> class 0
        spec = NetworkSpec([1, 2])
        parent = Network(spec, ParamVector(np.array([1.0, -1.0, 0.0, 0.0])))
        params = MutationParams(sigma=1e-12, rho=0.0, mirrored=False)
        val = Dataset(np.array([[1.0], [2.0], [-3.0]]), np.array([0, 0, 1]), 2)
        fitness = scored(parent, params, 1, 0, val).fitness
        assert fitness[0] == 1.0

    def test_a_child_beyond_the_float32_range_is_an_error(self):
        """A float32-maximum parent plus noise is finite in float64 but
        would score as inf in float32."""
        spec = NetworkSpec([2, 8, 2], seed=1)
        top = float(np.finfo(np.float32).max)
        parent = Network(spec, ParamVector(np.full(spec.param_count(), top)))
        params = MutationParams(sigma=1e37, rho=0.5)
        with pytest.raises(ConfigurationError) as exc:
            scored(parent, params, 4, 0, make_spirals(50, seed=2))
        assert str(exc.value) == "genome parameters beyond the float32 range cannot be scored"


class TestSelectTopK:
    def test_requires_fitness(self):
        # A population is built scored: one without fitness cannot exist.
        pop = make_population([0.5])
        with pytest.raises(TypeError):
            Population(pop.parent, pop.mutation, pop.children)

    def test_all_equal_takes_lowest_indices(self):
        pop = make_population([0.7] * 6)
        assert select_top_k(pop, 3) == [0, 1, 2]

    def test_k_equals_pop_size(self):
        pop = make_population([0.1, 0.9, 0.5])
        assert sorted(select_top_k(pop, 3)) == [0, 1, 2]

    def test_nll_breaks_fitness_ties(self):
        pop = make_population([0.8, 0.8, 0.8], nll=[0.5, 0.2, 0.9])
        assert select_top_k(pop, 1) == [1]

    def test_randomized_selection_contract(self):
        """1000 random cases: k distinct indices, min selected >= max unselected."""
        rng = np.random.default_rng(99)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(1, n + 1))
            fitness = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)
            nll = rng.random(n).round(2)
            pop = make_population(fitness, nll)
            sel = select_top_k(pop, k)
            assert len(sel) == k
            assert len(set(sel)) == k
            unselected = [i for i in range(n) if i not in set(sel)]
            if unselected:
                assert fitness[sel].min() >= fitness[unselected].max()
            # deterministic tie-breaks: re-running yields the identical list
            assert sel == select_top_k(pop, k)


def whole(candidates):
    """Each candidate genome as a patch over every coordinate."""
    return [(slice(None), c.values) for c in candidates]


class TestAverageWeights:
    def test_identical_candidates(self):
        v = ParamVector(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(average_weights(v, whole([v, v, v])).values, v.values)

    def test_mirrored_pair_recovers_parent(self, rng):
        theta = ParamVector(rng.normal(size=64).astype(np.float32).astype(np.float64))
        noise, mask = sample_noise(64, 0.0, 0.3, 1), sample_mask(64, 0.5, 2)
        index = np.flatnonzero(mask)
        pair = [
            (index, child_genome(theta, noise[index], mask, r).values[index]) for r in ("+", "-")
        ]
        avg = average_weights(theta, pair)
        assert np.array_equal(avg.values, theta.values)

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 17])
    def test_running_sum_matches_stacked_mean(self, rng, k):
        cands = [ParamVector(rng.normal(size=257)) for _ in range(k)]
        reference = np.mean(np.stack([c.values for c in cands]), axis=0)
        theta = ParamVector(rng.normal(size=257))
        assert average_weights(theta, whole(cands)).values.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_patch_average_is_the_running_sum_of_seed_record_genomes(self, k, rho):
        """theta holds -0.0 and +0.0 on the supports and off them; an
        average of one child is that child, signed zeros included."""
        w = 400
        values = np.random.default_rng(k).normal(0, 0.2, w).astype(np.float32)
        values[::4], values[2::4] = -0.0, 0.0
        theta = ParamVector(values.astype(np.float64))
        params = MutationParams(sigma=0.1, rho=rho, mirrored=False)
        children = spawn_mutations(theta, params, k, master_seed=11)
        genomes = [seed_record_genome(theta, params, c).values for c in children]
        total = genomes[0].copy()
        for genome in genomes[1:]:
            total += genome
        total /= k
        average = average_weights(theta, child_patches(theta, params, children))
        assert average.values.tobytes() == total.tobytes()
        if rho > 0:  # at rho 0 every coordinate is on the support
            on = sample_mask(w, rho, children[0].mask_seed) == 1
            zero = theta.values == 0
            for where in (on, ~on):
                assert (where & zero & np.signbit(theta.values)).any()
                assert (where & zero & ~np.signbit(theta.values)).any()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_signed_zero_values_keep_their_sign(self, n):
        """A patch that writes -0.0 or +0.0 on a support averages to the
        running sum of its whole genomes bit for bit, first child included."""
        theta = ParamVector(np.array([-0.0, -0.0, 0.0, 0.0, -0.0, 1.5]))
        mask = np.array([1, 1, 1, 1, 0, 0], dtype=np.uint8)
        noise = np.array([-0.0, 0.0, -0.0, 0.0])
        index = np.flatnonzero(mask)
        genomes = [child_genome(theta, noise, mask, "solo").values for _ in range(n)]
        total = genomes[0].copy()
        for genome in genomes[1:]:
            total += genome
        total /= n
        average = average_weights(theta, [(index, g[index]) for g in genomes])
        assert average.values.tobytes() == total.tobytes()
        assert np.signbit(average.values[:5]).tolist() == [True, False, False, False, True]

    def test_permutation_stable_within_tolerance(self, rng):
        cands = [ParamVector(rng.normal(size=32)) for _ in range(5)]
        theta = ParamVector(np.zeros(32))
        a = average_weights(theta, whole(cands))
        b = average_weights(theta, whole(cands[::-1]))
        np.testing.assert_allclose(a.values, b.values, atol=1e-7)


class TestEnsemblePredict:
    """The ensemble `_report` scores: the mean of the members' softmax outputs."""

    def test_single_member_is_its_softmax(self, rng):
        parent = init_network(NetworkSpec([2, 4, 3], seed=1))
        params = MutationParams(sigma=0.1, rho=0.5, mirrored=False)
        (child,) = spawn_mutations(parent.params, params, 1, 0)
        genome = seed_record_genome(parent.params, params, child)
        x = rng.normal(size=(6, 2))
        np.testing.assert_array_equal(
            evolution._ensemble_probs(parent, params, [child], x)[0],
            softmax(float32_logits(parent.spec, genome, x)),
        )

    def test_two_member_arithmetic(self):
        # a [1, 2] network on the input 1 has logits (w0 + b0, w1 + b1)
        spec = NetworkSpec([1, 2])
        parent = Network(spec, ParamVector(np.array([0.0, 0.0, np.log(0.6 / 0.4), 0.0])))
        params = MutationParams(sigma=0.5, rho=0.0)
        pair = spawn_mutations(parent.params, params, 2, 3)
        genomes = [seed_record_genome(parent.params, params, c).values for c in pair]
        p0 = [1.0 / (1.0 + np.exp((w1 + b1) - (w0 + b0))) for w0, w1, b0, b1 in genomes]
        probs, _ = evolution._ensemble_probs(parent, params, pair, np.array([[1.0]]))
        np.testing.assert_allclose(probs, [[np.mean(p0), 1.0 - np.mean(p0)]], atol=1e-12)

    def test_identical_members_match_single(self, rng):
        parent = init_network(NetworkSpec([2, 4, 2], seed=2))
        params = MutationParams(sigma=0.1, rho=0.5, mirrored=False)
        (child,) = spawn_mutations(parent.params, params, 1, 0)
        x = rng.normal(size=(10, 2))
        np.testing.assert_allclose(
            evolution._ensemble_probs(parent, params, [child] * 3, x)[0],
            evolution._ensemble_probs(parent, params, [child], x)[0],
            atol=1e-12,
        )

    def test_rows_normalized(self, spiral_task):
        params = MutationParams(sigma=0.1, rho=0.5)
        children = spawn_mutations(spiral_task.parent.params, params, 4, 5)
        probs, _ = evolution._ensemble_probs(
            spiral_task.parent, params, children, spiral_task.val.inputs
        )
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-6)


class CountingDataset(Dataset):
    """Dataset whose input reads are counted and stamped in one sequence
    shared by all instances, for data-hygiene checks."""

    _sequence = itertools.count()

    def __init__(self, base: Dataset):
        self.reads, self.read_at = 0, []
        super().__init__(base.inputs, base.labels, base.class_count)
        self.reads, self.read_at = 0, []  # ignore reads made by construction-time validation

    @property
    def inputs(self):
        self.reads += 1
        self.read_at.append(next(self._sequence))
        return self._inputs

    @inputs.setter
    def inputs(self, value):
        self._inputs = value


def generation(t, master_seed, params=None, **run):
    """`run_generation` on the task `t`: a pop-8, top-4, one-generation run
    of sigma 0.05, rho 0.5 unless `params` or `run` say otherwise."""
    params = params or MutationParams(sigma=0.05, rho=0.5)
    run = {"pop_size": 8, "top_k": 4, "generations": 1, "repeats": 1, **run}
    return run_generation(t.parent, params, t.val, t.test, master_seed=master_seed, **run)


class TestRunGeneration:
    def test_report_shape(self, spiral_task):
        report = generation(spiral_task, 7)
        assert len(report["per_child"]) == 8
        assert len(report["selected"]) == 4
        assert len(set(report["selected"])) == 4
        sel = set(report["selected"])
        fit = [c["fitness"] for c in report["per_child"]]
        assert min(fit[i] for i in sel) >= max(
            (fit[i] for i in range(8) if i not in sel), default=0.0
        )

    def test_zero_mutation_fixed_point(self, spiral_task):
        report = generation(spiral_task, 8, MutationParams(sigma=1e-12, rho=0.5))
        p, a, e = report["parent"], report["averaged"], report["ensemble"]
        for field in ("accuracy", "nll", "ece"):
            assert abs(p[field] - a[field]) <= 1e-6
            assert abs(p[field] - e[field]) <= 1e-6
        assert report["delta_acc"] == 0.0

    def test_rerun_is_identical(self, spiral_task):
        assert generation(spiral_task, 9) == generation(spiral_task, 9)

    def test_test_set_read_once_at_the_end(self, spiral_task):
        val = CountingDataset(spiral_task.val)
        test = CountingDataset(spiral_task.test)
        generation(dataclasses.replace(spiral_task, val=val, test=test), 10)
        # parent, averaged, ensemble each forward the test inputs once,
        # after the last validation read
        assert test.reads == 3
        assert max(val.read_at) < min(test.read_at)

    def test_test_set_read_once_with_repeats(self, spiral_task, tmp_path, monkeypatch):
        read = {}
        build_task_data = cfgmod.build_task_data

        def counting(cfg, **sets):
            train, val, test = build_task_data(cfg, **sets)
            read["val"], read["test"] = CountingDataset(val), CountingDataset(test)
            return train, read["val"], read["test"]

        monkeypatch.setattr(cfgmod, "build_task_data", counting)
        save_checkpoint(spiral_task.parent, tmp_path / "parent.ckpt")
        cfg = {
            "task": {"dataset": "spirals", "n_train": 100, "n_eval": 600, "turns": 1.75},
            "model": {"checkpoint": str(tmp_path / "parent.ckpt")},
            "mutation": {"sigma": 0.05, "rho": 0.5},
            "evolution": {"pop_size": 8, "top_k": 4, "repeats": 3},
        }
        path = tmp_path / "evolve.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
        assert len(json.loads((out / "eval_report.json").read_text())["repeats"]) == 3
        # the validation/test overlap check, then the chosen repeat's parent,
        # averaged model and ensemble
        assert read["test"].reads == 1 + 3
        assert read["val"].reads > read["test"].reads

    def test_repeats_report_the_chosen_run(self, spiral_task):
        report = generation(spiral_task, 10, repeats=3)
        seeds = [derive_seed(10, evolution._REPEAT_NS, r) for r in range(3)]
        singles = [generation(spiral_task, seed) for seed in seeds]
        assert report.pop("repeats") == [
            {"seed": seed, "ensemble_val_accuracy": single["ensemble_val_accuracy"]}
            for seed, single in zip(seeds, singles)
        ]
        best = max(range(3), key=lambda r: (singles[r]["ensemble_val_accuracy"], -r))
        assert report.pop("best_repeat") == best
        assert report == singles[best]

    def test_repeats_that_tie_report_the_earliest(self, spiral_task):
        """Children within 1e-12 of the parent: every repeat's ensemble
        scores the same validation accuracy, and run 0 is reported."""
        report = generation(spiral_task, 15, MutationParams(sigma=1e-12, rho=0.5), repeats=3)
        assert len({r["ensemble_val_accuracy"] for r in report["repeats"]}) == 1
        assert report["best_repeat"] == 0
        assert report["seed"] == report["repeats"][0]["seed"] == derive_seed(
            15, evolution._REPEAT_NS, 0
        )

    def test_per_child_kl_nonnegative(self, spiral_task):
        report = generation(spiral_task, 11)
        assert all(c["kl_to_parent"] >= 0.0 for c in report["per_child"])
        assert report["mean_kl_children"] >= 0.0
        assert report["mean_kl_selected"] >= 0.0

    def test_two_generations_chain_averaged_parent(self, spiral_task):
        r1 = generation(spiral_task, 12, generations=1)
        r2 = generation(spiral_task, 12, generations=2)
        # the second generation's parent is the first generation's average,
        # so its parent metrics generally differ from the original parent's
        assert r1["config"]["generations"] == 1
        assert r2["config"]["generations"] == 2
        assert r2["parent"] != r1["parent"]

    def test_csv_row_matches_columns(self, spiral_task, tmp_path):
        from smd.evolution import EVAL_CSV_COLUMNS, write_eval_csv

        report = generation(spiral_task, 13)
        write_eval_csv(report, tmp_path / "eval_report.csv")
        header, row = (tmp_path / "eval_report.csv").read_text().splitlines()
        assert header.split(",") == list(EVAL_CSV_COLUMNS)
        assert len(row.split(",")) == len(EVAL_CSV_COLUMNS)

    def test_summary_line_field_order(self, spiral_task):
        from smd.cli import _summary_line

        line = _summary_line(generation(spiral_task, 14))
        fields = ["Acc", "NLL", "ECE", "eAcc", "eNLL", "eECE", "dAcc", "sigma", "rho", "KL"]
        positions = [line.index(f" {f} ") if f" {f} " in line else line.index(f) for f in fields]
        assert positions == sorted(positions)


class TestReportIsTheArtifact:
    """Each command's library function takes its checked config section's
    keys as keywords, with no defaults of its own, and the dicts that
    `run_generation` and `grid_search` return are the JSON they write."""

    @pytest.mark.parametrize(
        "function, name",
        [
            (run_generation, "evolution"),
            (run_ablation, "ablation"),
            (train_model, "model.train"),
            (grid_search, "mutation.search"),
            (export_boundary_cells, "boundary"),
        ],
    )
    def test_keywords_are_the_section_keys(self, function, name):
        keywords = [
            p for p in inspect.signature(function).parameters.values()
            if p.kind is p.KEYWORD_ONLY and p.name != "jobs"
        ]
        assert {p.name for p in keywords} == cfgmod.SCHEMA[name].keys()
        assert [p.name for p in keywords if p.default is not p.empty] == []

    @pytest.mark.parametrize("repeats", [1, 3])
    def test_returned_dict_is_the_written_report(self, spiral_task, tmp_path, repeats):
        save_checkpoint(spiral_task.parent, tmp_path / "parent.ckpt")
        cfg = {
            "task": {"dataset": "spirals", "n_train": 100, "n_eval": 600, "turns": 1.75},
            "model": {"checkpoint": str(tmp_path / "parent.ckpt")},
            "mutation": {"sigma": 0.05, "rho": 0.5},
            "evolution": {"pop_size": 8, "top_k": 4, "master_seed": 6, "repeats": repeats},
        }
        path = tmp_path / "evolve.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0

        run = cfgmod.check(cfg, "evolve", str(tmp_path / "unused"))
        _, val, test = cfgmod.build_task_data(run["task"], train=False, evaluation=True)
        parent = load_checkpoint(run["checkpoint"])
        report = run_generation(parent, run["mutation"], val, test, **run["evolution"])
        written = (out / "eval_report.json").read_text()
        assert json.dumps(report, indent=2) + "\n" == written
        assert ("repeats" in report, "best_repeat" in report) == (repeats > 1, repeats > 1)

    def test_returned_dict_is_the_written_search_result(self, spiral_task, tmp_path):
        save_checkpoint(spiral_task.parent, tmp_path / "parent.ckpt")
        search = {"sigma_grid": [0.02, 0.05], "rho_grid": [0.0, 0.5], "probe_size": 300}
        cfg = {
            "task": {"dataset": "spirals", "n_train": 100, "n_eval": 600, "turns": 1.75},
            "model": {"checkpoint": str(tmp_path / "parent.ckpt")},
            "mutation": {"search": search},
        }
        path = tmp_path / "search.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["search", "--config", str(path), "--out", str(out)]) in (0, 4)

        run = cfgmod.check(cfg, "search", str(tmp_path / "unused"))
        _, val, _ = cfgmod.build_task_data(run["task"], train=False, evaluation=True)
        result, cells = grid_search(load_checkpoint(run["checkpoint"]), val, **run["search"])
        written = (out / "search_result.json").read_bytes()
        assert (json.dumps(result, indent=2) + "\n").encode() == written
        assert [tuple(c) for c in cells] == [SWEEP_COLUMNS] * 4


class TestGenerationMemory:
    def test_peak_holds_top_k_genomes_not_the_population(self):
        """A generation builds each group's genomes only while it is scored,
        so its traced peak is a few genomes beyond the k it combines."""
        spec = NetworkSpec([2, 256, 256, 2], seed=3)
        values = init_network(spec).params.values.astype(np.float32).astype(np.float64)
        parent = Network(spec, ParamVector(values))
        val = make_spirals(250, seed=2)
        test = make_spirals(250, seed=3)
        top_k = 4
        genome_bytes = parent.params.w * 8
        tracemalloc.start()
        try:
            run_generation(
                parent, MutationParams(sigma=0.01, rho=0.5), val, test,
                pop_size=32, top_k=top_k, generations=1, master_seed=0, repeats=1,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (top_k + 6) * genome_bytes, peak / genome_bytes

    @pytest.mark.parametrize("anti_random", [False, True])
    def test_selected_genomes_are_combined_one_at_a_time(self, anti_random):
        """The k selected genomes are rebuilt one at a time for the average
        and for the ensemble, so the traced peak does not grow with k."""
        spec = NetworkSpec([2, 256, 256, 2], seed=3)
        values = init_network(spec).params.values.astype(np.float32).astype(np.float64)
        parent = Network(spec, ParamVector(values))
        val = make_spirals(250, seed=2)
        test = make_spirals(250, seed=3)
        params = MutationParams(sigma=0.01, rho=0.5, anti_random=anti_random)
        genome_bytes = parent.params.w * 8
        tracemalloc.start()
        try:
            run_generation(
                parent, params, val, test,
                pop_size=32, top_k=16, generations=1, master_seed=0, repeats=1,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * genome_bytes, peak / genome_bytes


class TestGenomeLifetime:
    """A pass holds each child only as its patch, its support and its
    values there: no consumer of a pass builds a float64 child genome.
    Peaks are traced beyond the parent, in genomes of w float64 values."""

    @staticmethod
    def setup(rho=0.9):
        spec = NetworkSpec([2, 400, 400, 2], seed=3)
        values = init_network(spec).params.values.astype(np.float32).astype(np.float64)
        parent = Network(spec, ParamVector(values))
        assert parent.params.w == 162_402
        return parent, MutationParams(sigma=0.01, rho=rho)

    @staticmethod
    def traced_peak(run):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_average_weights_holds_one_candidate(self):
        parent, params = self.setup()
        children = spawn_mutations(parent.params, params, 8, 0)
        peak = self.traced_peak(
            lambda: average_weights(parent.params, child_patches(parent.params, params, children))
        )
        genome_bytes = parent.params.w * 8
        assert peak < 2 * genome_bytes, peak / genome_bytes

    def test_evaluate_fitness_holds_one_genome(self):
        """One float32 parameter buffer (half a genome) and one patch."""
        parent, params = self.setup()
        children = spawn_mutations(parent.params, params, 8, 0)
        val = make_spirals(100, seed=2)
        peak = self.traced_peak(lambda: evaluate_fitness(parent, params, children, val))
        genome_bytes = parent.params.w * 8
        assert peak < 1.5 * genome_bytes, peak / genome_bytes

    def test_member_pass_holds_the_average_and_one_buffer(self):
        """The report's member pass holds the average's running sum, the
        float32 parameter buffer and one patch; a float64 working genome
        would add a whole genome."""
        parent, params = self.setup()
        members = spawn_mutations(parent.params, params, 8, 0)
        test = make_spirals(100, seed=3)
        peak = self.traced_peak(
            lambda: evolution._ensemble_probs(parent, params, members, test.inputs)
        )
        genome_bytes = parent.params.w * 8
        assert peak < 2.75 * genome_bytes, peak / genome_bytes

    def test_dense_fitness_pass_holds_no_index_array(self):
        """At rho 0 (the dense ES baseline) a support is a full slice: no
        w-length index array, and no working genome, is held."""
        parent, params = self.setup(rho=0.0)
        children = spawn_mutations(parent.params, params, 8, 0)
        val = make_spirals(100, seed=2)
        peak = self.traced_peak(lambda: evaluate_fitness(parent, params, children, val))
        genome_bytes = parent.params.w * 8
        assert peak < 4.5 * genome_bytes, peak / genome_bytes


class TestChainedParent:
    @pytest.mark.parametrize("anti_random", [False, True])
    def test_mirrored_pairs_cancel_in_generation_2(self, spiral_task, monkeypatch, anti_random):
        """The averaged genome chained into generation 2 is float32-valued,
        so each +/- pair of that generation averages back to it bit for bit."""
        populations = []

        def recording(parent, params, children, val, jobs):
            populations.append(evaluate_fitness(parent, params, children, val, jobs))
            return populations[-1]

        monkeypatch.setattr(evolution, "evaluate_fitness", recording)
        params = MutationParams(sigma=0.05, rho=0.5, anti_random=anti_random)
        generation(spiral_task, 4, params, top_k=3, generations=2)
        assert len(populations) == 2
        final = populations[-1]
        theta = final.parent.params
        assert theta.values.tobytes() != spiral_task.parent.params.values.tobytes()
        genomes = {c: seed_record_genome(theta, params, c) for c in final.children}
        pairs = 0
        for plus in final.children:
            if not plus.role.startswith("+"):
                continue
            minus = next(
                c for c in final.children
                if c.group == plus.group and c.role == "-" + plus.role[1:]
            )
            mean = (genomes[plus].values + genomes[minus].values) / 2
            assert mean.tobytes() == theta.values.tobytes()
            pairs += 1
        assert pairs == 4


class TestRunAblation:
    def test_row_count_and_schema(self, spiral_task, tmp_path):
        rows = run_ablation(
            spiral_task.parent,
            spiral_task.val,
            spiral_task.test,
            sigma_grid=[0.05, 0.1],
            rho_grid=[0.5],
            modes=["static", "dynamic"],
            seeds=[0, 1],
            pop_size=4,
            top_k=2,
        )
        assert len(rows) == 2 * 1 * 2 * 2
        path = tmp_path / "ablation.csv"
        write_ablation_csv(rows, path)
        header = path.read_text().splitlines()[0]
        assert header == "sigma,rho,mode,seed,mean_kl,avg_acc,ens_acc"

    def test_empty_grid_rejected(self, config_error):
        # `config.check` owns the rule; `run_ablation` never sees an empty grid.
        ablation = {"sigma_grid": [], "rho_grid": [0.5], "seeds": [0]}
        assert config_error("ablate", ablation=ablation).startswith("ablation 'sigma_grid' must be")

    def test_dense_collapses_where_sparse_survives(self, bench_task):
        """At sigma 0.25, the rho=0.9 rows keep far more test accuracy than
        the dense rows, for both combination styles (seed-averaged)."""
        rows = run_ablation(
            bench_task.parent,
            bench_task.val,
            bench_task.test,
            sigma_grid=[0.25],
            rho_grid=[0.0, 0.9],
            modes=["dynamic"],
            seeds=[0, 1, 2, 3, 4],
            pop_size=16,
            top_k=4,
        )
        by_rho = {rho: [r for r in rows if r["rho"] == rho] for rho in (0.0, 0.9)}
        dense_ens = np.mean([r["ens_acc"] for r in by_rho[0.0]])
        sparse_ens = np.mean([r["ens_acc"] for r in by_rho[0.9]])
        assert sparse_ens > dense_ens
        dense_avg = np.mean([r["avg_acc"] for r in by_rho[0.0]])
        sparse_avg = np.mean([r["avg_acc"] for r in by_rho[0.9]])
        assert sparse_avg > dense_avg

    def test_static_and_dynamic_subspaces_similar(self, bench_task):
        rows = run_ablation(
            bench_task.parent,
            bench_task.val,
            bench_task.test,
            sigma_grid=[0.1],
            rho_grid=[0.9],
            modes=["static", "dynamic"],
            seeds=[0, 1, 2, 3, 4],
            pop_size=16,
            top_k=4,
        )
        by_mode = {
            mode: np.mean([r["ens_acc"] for r in rows if r["mode"] == mode])
            for mode in ("static", "dynamic")
        }
        assert abs(by_mode["static"] - by_mode["dynamic"]) <= 0.05


@pytest.fixture()
def forks(monkeypatch):
    """The os.fork calls made in this process."""
    calls, real = [], os.fork

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counting)
    return calls


class TestAblationJobs:
    """`run_ablation(..., jobs)` runs its distinct points on forked workers
    and gives the serial loop's rows, bit for bit."""

    # rho 0 and rho > 0 in both modes: 12 distinct points for 16 rows.
    GRID = ([0.05, 0.1], [0.0, 0.5], ["static", "dynamic"], [0, 1])

    def ablate(self, t, jobs, sigmas=None):
        grid_sigmas, rhos, modes, seeds = self.GRID
        return run_ablation(
            t.parent, t.val, t.test, sigma_grid=sigmas or grid_sigmas, rho_grid=rhos,
            modes=modes, seeds=seeds, pop_size=4, top_k=2, jobs=jobs,
        )

    @pytest.fixture(scope="class")
    def serial_rows(self, spiral_task):
        return self.ablate(spiral_task, 1)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_rows_equal_the_serial_loop(self, spiral_task, serial_rows, forks, jobs):
        assert self.ablate(spiral_task, jobs) == serial_rows
        assert len(forks) == jobs

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_do_not_depend_on_hand_out_order(
        self, spiral_task, serial_rows, monkeypatch, jobs
    ):
        real = evolution._map_points
        handed = []  # the points of each call: the sweep's, then its scoring passes' runs

        def reversed_points(task, points, jobs):
            handed.append(points[::-1])
            return real(task, points[::-1], jobs)

        monkeypatch.setattr(evolution, "_map_points", reversed_points)
        assert self.ablate(spiral_task, jobs) == serial_rows
        assert len(handed[0]) == 12 and handed[0][0] == (0.1, 0.5, "dynamic", 1)

    def test_runs_here_without_blas_thread_functions(
        self, spiral_task, serial_rows, monkeypatch, forks
    ):
        monkeypatch.setattr(evolution, "_blas_threads", lambda: None)
        assert self.ablate(spiral_task, 2) == serial_rows
        assert forks == []

    def test_workers_run_one_thread_and_the_parent_keeps_its_count(self, spiral_task):
        blas = evolution._blas_threads()
        if blas is None:
            pytest.skip("numpy is not linked against OpenBLAS")
        get_threads, set_threads = blas

        def threads(point):
            spiral_task.parent.params.values @ spiral_task.parent.params.values  # a BLAS call
            return get_threads(), len(os.listdir("/proc/self/task"))

        before = get_threads()
        set_threads(2)
        try:
            # One BLAS thread and no OpenBLAS pool thread beside the worker's own.
            assert set(evolution._map_points(threads, [0, 1, 2], 2).values()) == {(1, 1)}
            assert get_threads() == 2
            self.ablate(spiral_task, 2)
            assert get_threads() == 2
        finally:
            set_threads(before)

    def test_worker_error_is_raised_and_every_worker_reaped(self, spiral_task, forks):
        with pytest.raises(ConfigurationError, match="'sigma' 1e\\+39"):
            self.ablate(spiral_task, 2, sigmas=[0.05, 1e39])
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):  # every worker is reaped
            os.waitpid(-1, os.WNOHANG)

    def test_a_worker_that_dies_raises_worker_error_and_every_worker_is_reaped(self):
        with pytest.raises(WorkerError, match="a worker process died"):
            evolution._map_points(lambda point: os._exit(3), [0, 1, 2], 2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


    def test_points_score_with_one_job(self, spiral_task, serial_rows, monkeypatch):
        """A sweep point scores its generation in its own process, so
        workers never fork workers."""
        jobs, real = [], evolution.evaluate_fitness

        def recording(parent, params, children, val, n):
            jobs.append(n)
            return real(parent, params, children, val, n)

        monkeypatch.setattr(evolution, "evaluate_fitness", recording)
        monkeypatch.setattr(evolution, "_FORK_MIN_MACS", 0)
        monkeypatch.setattr(evolution, "_blas_threads", lambda: None)  # the points run here
        assert self.ablate(spiral_task, 2) == serial_rows
        assert jobs == [1] * 12


class TestForkedScoring:
    """`evaluate_fitness(..., jobs)` scores contiguous runs of whole groups
    on forked workers and gives the serial pass's bytes."""

    def score(self, t, jobs, mirrored=True, anti_random=False, mode="dynamic"):
        params = MutationParams(
            sigma=0.05, rho=0.5, subspace_mode=mode, mirrored=mirrored, anti_random=anti_random
        )
        children = spawn_mutations(t.parent.params, params, 8, 3)
        return evaluate_fitness(t.parent, params, children, t.val, jobs)

    @staticmethod
    def assert_same(a, b):
        assert [p.tobytes() for p in a.val_probs] == [p.tobytes() for p in b.val_probs]
        assert a.fitness.tobytes() == b.fitness.tobytes()
        assert a.val_nll.tobytes() == b.val_nll.tobytes()

    @pytest.mark.parametrize("mode", SUBSPACE_MODES)
    @pytest.mark.parametrize("strategy", list(_GROUP_ROLES))
    def test_matches_the_serial_pass_bit_for_bit(
        self, spiral_task, monkeypatch, forks, strategy, mode
    ):
        serial = self.score(spiral_task, 1, *strategy, mode)
        monkeypatch.setattr(evolution, "_FORK_MIN_MACS", 0)
        self.assert_same(self.score(spiral_task, 2, *strategy, mode), serial)
        assert len(forks) == 2

    @pytest.mark.parametrize(
        "strategy, runs",
        [((True, True), [(0, 4), (4, 8)]), ((False, False), [(0, 2), (2, 5), (5, 8)])],
    )
    def test_runs_are_whole_groups(self, spiral_task, monkeypatch, forks, strategy, runs):
        """Three jobs: two quads give two runs, eight solo children three."""
        handed, real = [], evolution._map_points

        def recording(task, points, jobs):
            handed.extend(points)
            return real(task, points, jobs)

        serial = self.score(spiral_task, 1, *strategy)
        monkeypatch.setattr(evolution, "_map_points", recording)
        monkeypatch.setattr(evolution, "_FORK_MIN_MACS", 0)
        self.assert_same(self.score(spiral_task, 3, *strategy), serial)
        assert handed == runs
        assert len(forks) == len(runs)

    @pytest.mark.parametrize("case", ["one_cpu", "no_blas_thread_functions", "below_break_even"])
    def test_serial_without_a_fork(self, spiral_task, monkeypatch, forks, case):
        serial = self.score(spiral_task, 1)
        jobs = 1 if case == "one_cpu" else 2
        if case != "below_break_even":
            monkeypatch.setattr(evolution, "_FORK_MIN_MACS", 0)
        if case == "no_blas_thread_functions":
            monkeypatch.setattr(evolution, "_blas_threads", lambda: None)
        self.assert_same(self.score(spiral_task, jobs), serial)
        assert forks == []


class TestDatasetsDisjoint:
    def test_disjoint_splits(self, spiral_task):
        assert datasets_disjoint(spiral_task.val, spiral_task.test)

    def test_overlap_detected(self, spiral_task):
        assert not datasets_disjoint(spiral_task.val, spiral_task.val)

    def test_signed_zeros_are_one_sample(self):
        plus = Dataset(np.array([[0.0, 1.0], [0.5, 0.5]]), np.array([0, 1]), 2)
        minus = Dataset(np.array([[0.25, 0.5], [-0.0, 1.0]]), np.array([1, 0]), 2)
        assert not datasets_disjoint(plus, minus)
        assert not datasets_disjoint(minus, plus)


class TestPopulationSizes:
    """`config.check` checks the population sizes before `run_generation`
    reads them."""

    def test_top_k_bounded(self, config_error):
        message = config_error("evolve", evolution={"pop_size": 4, "top_k": 5})
        assert message == "top_k must lie in [1, pop_size], got 5 with pop 4"

    def test_top_k_at_least_one(self, config_error):
        # the ensemble and the average always have a member
        message = config_error("evolve", evolution={"pop_size": 4, "top_k": 0})
        assert message.startswith("evolution 'top_k' must be an integer >= 1")
