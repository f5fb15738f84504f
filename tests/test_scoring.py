"""One scoring pass per dataset.

Each child's validation logits are computed and softmaxed once, in
`evaluate_fitness`, and the probabilities are reused for fitness, NLL, KL
to the parent and the ensemble's validation accuracy. These tests pin the
resulting `forward` call counts, check the cached values against a direct
recompute bit for bit, and pin the bytes of the evolve and ablate
artifacts on a tiny config.
"""

import hashlib
import json

import numpy as np
import pytest

import smd.evolution as evolution
import smd.mutation as mutation
from smd.cli import main
from smd.evolution import GenerationConfig, evaluate_fitness, run_ablation, run_generation
from smd.mutation import MutationParams, derive_seed, spawn_mutations
from smd.network import Network, ParamVector, forward, softmax

from oracles import kl_from_logits, seed_record_genome

POP, TOP_K = 8, 4


@pytest.fixture()
def forward_calls(monkeypatch):
    """Counts every `forward` call made from `smd.evolution`, and from
    `smd.mutation.child_logits`, which runs every child."""
    calls = []

    def counting(net, inputs, *scratch):
        calls.append(len(inputs))
        return forward(net, inputs, *scratch)

    monkeypatch.setattr(evolution, "forward", counting)
    monkeypatch.setattr(mutation, "forward", counting)
    return calls


def gen_cfg(generations=1, **mutation):
    params = dict(sigma=0.05, rho=0.5)
    params.update(mutation)
    return GenerationConfig(
        mutation=MutationParams(**params), pop_size=POP, top_k=TOP_K, generations=generations
    )


class TestForwardCallCount:
    @pytest.mark.parametrize("generations", [1, 2])
    def test_run_generation(self, spiral_task, forward_calls, generations):
        t = spiral_task
        run_generation(t.parent, gen_cfg(generations), t.val, t.test, 3)
        # P per generation for fitness; then parent val, parent test,
        # averaged test, and k ensemble members on test.
        assert len(forward_calls) == generations * POP + TOP_K + 3

    def test_run_ablation(self, spiral_task, forward_calls):
        t = spiral_task
        rows = run_ablation(
            t.parent, [0.05, 0.1], [0.5], ["static", "dynamic"], t.val, t.test, [0, 1],
            pop_size=POP, top_k=TOP_K,
        )
        points = len(rows)
        assert points == 8
        # The fixed parent's val logits and test metrics are shared by the sweep.
        assert len(forward_calls) == (POP + TOP_K + 1) * points + 2

    def test_evaluate_fitness_one_pass_per_child(self, spiral_task, forward_calls):
        t = spiral_task
        params = gen_cfg().mutation
        children = spawn_mutations(t.parent.params, params, POP, 4)
        pop = evaluate_fitness(t.parent, params, children, t.val)
        assert forward_calls == [t.val.n] * POP
        assert len(pop.val_probs) == POP


class TestWorkCounts:
    """A pass writes every child into one working genome, and the report
    builds each selected member once, for the average and the ensemble."""

    def test_scoring_builds_one_param_vector(self, spiral_task, monkeypatch):
        t = spiral_task
        params = gen_cfg().mutation
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
        cfg = gen_cfg(mirrored=False)
        pop, selected = evolution._evolve(t.parent, cfg, t.val, 5)
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
        evolution._report(pop, selected, cfg, t.val, t.test, 5, parent_scores)
        assert draws == {"mask": TOP_K, "noise": TOP_K}

    @pytest.mark.parametrize("generations, averages", [(1, 1), (2, 3 + 1)])
    def test_only_chained_and_reported_runs_average(
        self, spiral_task, monkeypatch, generations, averages
    ):
        """With --repeats 3, each run averages only to chain a generation,
        and the reported run once more for its report."""
        t = spiral_task
        calls, real = [], evolution.average_weights

        def counting(candidates):
            calls.append(1)
            return real(candidates)

        monkeypatch.setattr(evolution, "average_weights", counting)
        run_generation(t.parent, gen_cfg(generations), t.val, t.test, 7, repeats=3)
        assert len(calls) == averages


class TestCachedScores:
    def test_val_logits_match_direct_forward(self, spiral_task):
        t = spiral_task
        params = gen_cfg().mutation
        children = spawn_mutations(t.parent.params, params, POP, 5)
        pop = evaluate_fitness(t.parent, params, children, t.val)
        for child, cached in zip(pop.children, pop.val_probs, strict=True):
            genome = seed_record_genome(t.parent.params, pop.mutation, child)
            direct = softmax(forward(Network(t.parent.spec, genome), t.val.inputs))
            assert cached.tobytes() == direct.tobytes()

    @pytest.mark.parametrize("generations", [1, 2])
    def test_kl_and_ensemble_val_match_recompute(self, spiral_task, generations):
        t = spiral_task
        seed = 6
        cfg = gen_cfg(generations)
        report = run_generation(t.parent, cfg, t.val, t.test, seed)

        current = t.parent
        for gen in range(generations):
            gen_seed = derive_seed(seed, evolution._GENERATION_NS, gen)
            children = spawn_mutations(current.params, cfg.mutation, POP, gen_seed)
            pop = evaluate_fitness(current, cfg.mutation, children, t.val)
            selected = evolution.select_top_k(pop, TOP_K)
            chosen = [pop.children[i] for i in selected]
            averaged = evolution.average_weights(
                [seed_record_genome(current.params, cfg.mutation, c) for c in chosen]
            )
            if gen < generations - 1:
                # A chained parent is float32-valued, like a loaded checkpoint.
                quantized = averaged.values.astype(np.float32).astype(np.float64)
                current = Network(current.spec, ParamVector(quantized))
        assert report.selected_indices == selected

        parent_logits = forward(current, t.val.inputs)
        nets = [
            Network(current.spec, seed_record_genome(current.params, cfg.mutation, c))
            for c in pop.children
        ]
        for record, net in zip(report.per_child, nets):
            kl = kl_from_logits(parent_logits, forward(net, t.val.inputs))
            assert record["kl_to_parent"] == kl
        probs = np.mean([softmax(forward(nets[i], t.val.inputs)) for i in selected], axis=0)
        ens_val = float((probs.argmax(axis=1) == t.val.labels).mean())
        assert report.ensemble_val_accuracy == ens_val


class TestAblationPoints:
    """A rho-0 point builds the same children in every mode, so the sweep
    computes it once; rows keep grid order and their own mode."""

    GRID = ([0.05, 0.1], [0.0, 0.5], ["static", "dynamic"], [0, 1])

    def ablate(self, t):
        sigmas, rhos, modes, seeds = self.GRID
        return run_ablation(t.parent, sigmas, rhos, modes, t.val, t.test, seeds, pop_size=4, top_k=2)

    def test_evolve_runs_once_per_distinct_point(self, spiral_task, monkeypatch):
        points = []
        real = evolution._evolve

        def counting(parent, cfg, val, seed):
            points.append((cfg.mutation.sigma, cfg.mutation.rho, cfg.mutation.subspace_mode, seed))
            return real(parent, cfg, val, seed)

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
                        cfg = GenerationConfig(
                            MutationParams(sigma=sigma, rho=rho, subspace_mode=mode),
                            pop_size=4, top_k=2, generations=1,
                        )
                        report = evolution._report(
                            *evolution._evolve(t.parent, cfg, t.val, seed),
                            cfg, t.val, t.test, seed, parent_scores,
                        )
                        expected.append({
                            "sigma": sigma, "rho": rho, "mode": mode, "seed": seed,
                            "mean_kl": report.mean_kl_children,
                            "avg_acc": report.averaged_metrics.accuracy,
                            "ens_acc": report.ensemble_metrics.accuracy,
                        })
        assert rows == expected

        def values(mode):
            return [
                {k: v for k, v in row.items() if k != "mode"}
                for row in rows if row["rho"] == 0.0 and row["mode"] == mode
            ]

        assert values("static") == values("dynamic")


# SHA-256s of the artifacts the tiny configs below write, keyed by path
# under the output directory. `eval_report.json` and `ablation.csv` were
# recorded when noise became one draw per support coordinate (every rho > 0
# value moved; the rho-0 ablation rows kept their bytes); the others when
# the train, search and best-of-3 evolve artifacts were added to this test.
# Float64 numpy on OpenBLAS; another BLAS build may round a matmul
# differently and legitimately change them.
GOLDEN = {
    "training_log.csv": "205b4de12b4eba464196f4d3d6107bf07bd62866043c9dfba428a0b0e49c72f5",
    "search_result.json": "f99a15c430ff004bac28053ab96cf39ceba756694ee1a6479adbf7554a20532b",
    "sweep.csv": "ff444a334380c694b0ffdbe55f38b4535dec07a9c54926c307dc3586b6ff07d1",
    "eval_report.json": "8b0b5cf3f5f188d9f63d3a600fa1fc9546cd4ff1a99b46fd777ff2434234b4b0",
    "eval_report.csv": "b83ef391ee4ea2acf80bc57dc6f65e05a44c6978859c1cbfd9d59eca038b0851",
    "repeats/eval_report.json": "fc03f49c9c86d261470a2f622dc52aed1e9c77e119b154bac39329254da7ce7e",
    "repeats/eval_report.csv": "b34bda434b19d3d086bd9ff16f1d29490a41f5c4e54294216dc538056bff95d7",
    "ablation.csv": "4233414fa6d36f7f6e09491c323054ed160b7391d11e740fbd98a453946dd449",
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


def _run(tmp_path, name, payload, *flags):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    assert main([name, "--config", str(path), *flags]) == 0


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
        "evolution": {"pop_size": 8, "top_k": 4, "generations": 1, "master_seed": 4},
        "output": {"dir": str(out / "repeats")},
    }, "--repeats", "3")
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
