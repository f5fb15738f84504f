"""One scoring pass per dataset.

Each child's validation logits are computed and softmaxed once, in
`evaluate_fitness`, and the probabilities are reused for fitness, NLL, KL
to the parent and the ensemble's validation accuracy. These tests pin the
resulting forward-pass counts, check the cached values against a direct
float32 recompute bit for bit, and pin the bytes of the evolve and ablate
artifacts on a tiny config.
"""

import hashlib
import json

import numpy as np
import pytest

import smd.evolution as evolution
import smd.mutation as mutation
import smd.network as network
from smd.cli import main
from smd.divergence import grid_search
from smd.evolution import evaluate_fitness, run_ablation, run_generation
from smd.mutation import MutationParams, derive_seed, spawn_mutations
from smd.network import Network, ParamVector, softmax, workspace

from oracles import float32_logits, kl_from_logits, seed_record_genome

POP, TOP_K = 8, 4


@pytest.fixture()
def forward_calls(monkeypatch):
    """Counts every run of `smd.network`'s layer loop, which
    `smd.network.predict` runs once per genome it scores: every child, and
    every single network of `smd.evolution` and `smd.divergence`."""
    calls, layers = [], network._layers

    def counting(spec, values, x, scratch):
        calls.append(len(x))
        return layers(spec, values, x, scratch)

    monkeypatch.setattr(network, "_layers", counting)
    return calls


@pytest.fixture()
def workspaces(monkeypatch):
    """The rows of every `workspace` made: one per `predict` pass, and one
    per `forward` call that is handed none."""
    made = []

    def counting(spec, rows, *dtype):
        made.append(rows)
        return workspace(spec, rows, *dtype)

    monkeypatch.setattr(network, "workspace", counting)
    return made


def params_of(**mutation):
    return MutationParams(**{"sigma": 0.05, "rho": 0.5, **mutation})


def sizes(generations=1, master_seed=0, repeats=1):
    """`run_generation`'s keywords: a pop-POP, top-TOP_K run."""
    return dict(
        pop_size=POP, top_k=TOP_K, generations=generations, master_seed=master_seed,
        repeats=repeats,
    )


class TestForwardCallCount:
    @pytest.mark.parametrize("generations", [1, 2])
    def test_run_generation(self, spiral_task, forward_calls, generations):
        t = spiral_task
        run_generation(t.parent, params_of(), t.val, t.test, **sizes(generations, 3))
        # P per generation for fitness; then parent val, parent test,
        # averaged test, and k ensemble members on test.
        assert len(forward_calls) == generations * POP + TOP_K + 3

    def test_run_ablation(self, spiral_task, forward_calls):
        t = spiral_task
        rows = run_ablation(
            t.parent, t.val, t.test, sigma_grid=[0.05, 0.1], rho_grid=[0.5],
            modes=["static", "dynamic"], seeds=[0, 1], pop_size=POP, top_k=TOP_K,
        )
        points = len(rows)
        assert points == 8
        # The fixed parent's val logits and test metrics are shared by the sweep.
        assert len(forward_calls) == (POP + TOP_K + 1) * points + 2

    def test_evaluate_fitness_one_pass_per_child(self, spiral_task, forward_calls, workspaces):
        t = spiral_task
        params = params_of()
        children = spawn_mutations(t.parent.params, params, POP, 4)
        pop = evaluate_fitness(t.parent, params, children, t.val)
        assert forward_calls == [t.val.n] * POP
        assert workspaces == [t.val.n]
        assert len(pop.val_probs) == POP

    def test_report_one_pass_for_the_members(self, spiral_task, forward_calls, workspaces):
        t = spiral_task
        pop, selected = evolution._evolve(
            t.parent, params_of(), t.val, pop_size=POP, top_k=TOP_K, generations=1, master_seed=5
        )
        parent_scores = evolution._score_parent(pop.parent, t.val, t.test)
        del forward_calls[:], workspaces[:]
        evolution._report(pop, selected, t.val, t.test, parent_scores, generations=1, seed=5)
        # The k members in one pass, then the averaged model on its own.
        assert forward_calls == [t.test.n] * (TOP_K + 1)
        assert workspaces == [t.test.n] * 2

    def test_grid_search(self, spiral_task, forward_calls, workspaces):
        t = spiral_task
        sigmas, rhos, samples, probe_size = [0.02, 0.05, 0.1], [0.5, 0.9], 4, 200
        _, cells = grid_search(
            t.parent, t.val, sigma_grid=sigmas, rho_grid=rhos, kl_target=0.01,
            kl_tolerance=0.5, samples_per_cell=samples, probe_size=probe_size, seed=2,
        )
        assert len(cells) == len(sigmas) * len(rhos)
        # The parent once, then one pass per cell of `samples` children.
        assert forward_calls == [probe_size] * (1 + len(cells) * samples)
        assert workspaces == [probe_size] * (1 + len(cells))


class TestWorkCounts:
    """A pass writes every child into one working genome, and the report
    builds each selected member once, for the average and the ensemble."""

    def test_scoring_builds_one_param_vector(self, spiral_task, monkeypatch):
        t = spiral_task
        params = params_of()
        children = spawn_mutations(t.parent.params, params, POP, 4)
        built, post_init = [], ParamVector.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(ParamVector, "__post_init__", counting)
        evaluate_fitness(t.parent, params, children, t.val)
        assert len(built) == 1

    def test_report_draws_each_member_once(self, spiral_task, monkeypatch):
        t = spiral_task
        # Independent children: each selected member is a group of its own.
        pop, selected = evolution._evolve(
            t.parent, params_of(mirrored=False), t.val,
            pop_size=POP, top_k=TOP_K, generations=1, master_seed=5,
        )
        parent_scores = evolution._score_parent(pop.parent, t.val, t.test)
        draws = {"mask": 0, "noise": 0}
        real = {"mask": mutation.sample_mask, "noise": mutation.sample_noise}

        def counting(kind):
            def draw(*args):
                draws[kind] += 1
                return real[kind](*args)
            return draw

        monkeypatch.setattr(mutation, "sample_mask", counting("mask"))
        monkeypatch.setattr(mutation, "sample_noise", counting("noise"))
        evolution._report(pop, selected, t.val, t.test, parent_scores, generations=1, seed=5)
        assert draws == {"mask": TOP_K, "noise": TOP_K}

    @pytest.mark.parametrize("generations, averages", [(1, 1), (2, 3 + 1)])
    def test_only_chained_and_reported_runs_average(
        self, spiral_task, monkeypatch, generations, averages
    ):
        """With three repeats, each run averages only to chain a generation,
        and the reported run once more for its report."""
        t = spiral_task
        calls, real = [], evolution.average_weights

        def counting(candidates):
            calls.append(1)
            return real(candidates)

        monkeypatch.setattr(evolution, "average_weights", counting)
        run_generation(t.parent, params_of(), t.val, t.test, **sizes(generations, 7, repeats=3))
        assert len(calls) == averages


class TestCachedScores:
    def test_val_logits_match_direct_forward(self, spiral_task):
        t = spiral_task
        params = params_of()
        children = spawn_mutations(t.parent.params, params, POP, 5)
        pop = evaluate_fitness(t.parent, params, children, t.val)
        for child, cached in zip(pop.children, pop.val_probs, strict=True):
            genome = seed_record_genome(t.parent.params, pop.mutation, child)
            direct = softmax(float32_logits(t.parent.spec, genome, t.val.inputs))
            assert cached.tobytes() == direct.tobytes()

    @pytest.mark.parametrize("generations", [1, 2])
    def test_kl_and_ensemble_val_match_recompute(self, spiral_task, generations):
        t = spiral_task
        seed = 6
        params = params_of()
        report = run_generation(t.parent, params, t.val, t.test, **sizes(generations, seed))

        current = t.parent
        for gen in range(generations):
            gen_seed = derive_seed(seed, evolution._GENERATION_NS, gen)
            children = spawn_mutations(current.params, params, POP, gen_seed)
            pop = evaluate_fitness(current, params, children, t.val)
            selected = evolution.select_top_k(pop, TOP_K)
            chosen = [pop.children[i] for i in selected]
            averaged = evolution.average_weights(
                [seed_record_genome(current.params, params, c) for c in chosen]
            )
            if gen < generations - 1:
                # A chained parent is float32-valued, like a loaded checkpoint.
                quantized = averaged.values.astype(np.float32).astype(np.float64)
                current = Network(current.spec, ParamVector(quantized))
        assert report["selected"] == selected

        parent_logits = float32_logits(current.spec, current.params, t.val.inputs)
        genomes = [seed_record_genome(current.params, params, c) for c in pop.children]
        logits = [float32_logits(current.spec, g, t.val.inputs) for g in genomes]
        for record, child_logits in zip(report["per_child"], logits):
            kl = kl_from_logits(parent_logits, child_logits)
            assert record["kl_to_parent"] == kl
        probs = np.mean([softmax(logits[i]) for i in selected], axis=0)
        ens_val = float((probs.argmax(axis=1) == t.val.labels).mean())
        assert report["ensemble_val_accuracy"] == ens_val


class TestAblationPoints:
    """A rho-0 point builds the same children in every mode, so the sweep
    computes it once; rows keep grid order and their own mode."""

    GRID = ([0.05, 0.1], [0.0, 0.5], ["static", "dynamic"], [0, 1])

    def ablate(self, t):
        sigmas, rhos, modes, seeds = self.GRID
        return run_ablation(
            t.parent, t.val, t.test, sigma_grid=sigmas, rho_grid=rhos, modes=modes, seeds=seeds,
            pop_size=4, top_k=2,
        )

    def test_evolve_runs_once_per_distinct_point(self, spiral_task, monkeypatch):
        points = []
        real = evolution._evolve

        def counting(parent, params, val, **run):
            points.append((params.sigma, params.rho, params.subspace_mode, run["master_seed"]))
            return real(parent, params, val, **run)

        monkeypatch.setattr(evolution, "_evolve", counting)
        rows = self.ablate(spiral_task)
        assert len(rows) == 16
        # 2 sigmas x 2 seeds x (one rho-0 point + two rho-0.5 modes)
        assert len(points) == len(set(points)) == 12
        assert {p[2] for p in points if p[1] == 0.0} == {"static"}

    def test_rows_equal_an_undeduplicated_loop(self, spiral_task):
        t = spiral_task
        rows = self.ablate(t)
        parent_scores = evolution._score_parent(t.parent, t.val, t.test)
        expected = []
        sigmas, rhos, modes, seeds = self.GRID
        for sigma in sigmas:
            for rho in rhos:
                for mode in modes:
                    for seed in seeds:
                        params = MutationParams(sigma=sigma, rho=rho, subspace_mode=mode)
                        scored = evolution._evolve(
                            t.parent, params, t.val,
                            pop_size=4, top_k=2, generations=1, master_seed=seed,
                        )
                        report = evolution._report(
                            *scored, t.val, t.test, parent_scores, generations=1, seed=seed
                        )
                        expected.append({
                            "sigma": sigma, "rho": rho, "mode": mode, "seed": seed,
                            "mean_kl": report["mean_kl_children"],
                            "avg_acc": report["averaged"]["accuracy"],
                            "ens_acc": report["ensemble"]["accuracy"],
                        })
        assert rows == expected

        def values(mode):
            return [
                {k: v for k, v in row.items() if k != "mode"}
                for row in rows if row["rho"] == 0.0 and row["mode"] == mode
            ]

        assert values("static") == values("dynamic")


# SHA-256s of the artifacts the tiny configs below write, keyed by path
# under the output directory. `training_log.csv` was recorded when the
# train, search and best-of-3 evolve artifacts were added to this test;
# every other digest when scoring moved to float32 (`network.predict`).
# Numpy on OpenBLAS, training in float64 and scoring in float32; another
# BLAS build may round a matmul differently and legitimately change them.
GOLDEN = {
    "training_log.csv": "205b4de12b4eba464196f4d3d6107bf07bd62866043c9dfba428a0b0e49c72f5",
    "search_result.json": "f36da403f51898179314c3331894293b2c3374a8143c93e0db12c1dd1951be6b",
    "sweep.csv": "5fdeb0342815b49d6367b32a5a6d78f113f898870d32d42d12f821e49fda4013",
    "eval_report.json": "b3e9d90a93b2c561c3865a9fe083f189e412551109c04e8c500dcfa0c0a41a0c",
    "eval_report.csv": "3318c9818b5e4db114036cad6a9f6fa4bd688ad689c27e0b204b97ed82ae19d6",
    "repeats/eval_report.json": "0abfcb54a99474358d3cd493dd9d6e484cdef791e4562cd74c3675364a7b8577",
    "repeats/eval_report.csv": "de10f4a9e0a69ad3ab280af7df197a7e23f39e38e794749a9353360eaf3b3b46",
    "ablation.csv": "d2d49ff80799b5fc10c27d9fa2313536342caf8353ee6ca077ec6cbd99997ef3",
}


def _task():
    return {
        "dataset": "spirals",
        "n_train": 600,
        "n_eval": 600,
        "noise_std": 0.05,
        "turns": 1.75,
        "train_seed": 1,
        "eval_seed": 2,
        "split_seed": 3,
        "eval_fractions": [0.5, 0.5],
    }


def _run(tmp_path, name, payload):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    assert main([name, "--config", str(path)]) == 0


def test_artifact_bytes_pinned(tmp_path):
    out = tmp_path / "out"
    task = _task()
    _run(tmp_path, "train", {
        "task": task,
        "model": {"layer_sizes": [2, 16, 2], "seed": 7, "train": {"epochs": 5, "batch_size": 16}},
        "output": {"dir": str(out)},
    })
    checkpoint = {"checkpoint": str(out / "model.ckpt")}
    _run(tmp_path, "search", {
        "task": task,
        "model": checkpoint,
        "mutation": {"search": {
            "sigma_grid": [0.02, 0.05, 0.1], "rho_grid": [0.25, 0.5, 0.9],
            "kl_target": 0.01, "kl_tolerance": 0.9, "samples_per_cell": 4, "probe_size": 200,
            "seed": 11,
        }},
        "output": {"dir": str(out)},
    })
    _run(tmp_path, "evolve", {
        "task": task,
        "model": checkpoint,
        "mutation": {"sigma": 0.05, "rho": 0.5, "anti_random": True},
        "evolution": {"pop_size": 8, "top_k": 4, "generations": 2, "master_seed": 0},
        "output": {"dir": str(out)},
    })
    _run(tmp_path, "evolve", {
        "task": task,
        "model": checkpoint,
        "mutation": {"search_result": str(out / "search_result.json")},
        "evolution": {"pop_size": 8, "top_k": 4, "generations": 1, "master_seed": 4, "repeats": 3},
        "output": {"dir": str(out / "repeats")},
    })
    _run(tmp_path, "ablate", {
        "task": task,
        "model": checkpoint,
        "ablation": {
            "sigma_grid": [0.05, 0.1], "rho_grid": [0.0, 0.5], "modes": ["static", "dynamic"],
            "seeds": [0, 1], "pop_size": 4, "top_k": 2,
        },
        "output": {"dir": str(out)},
    })
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert digests == GOLDEN
