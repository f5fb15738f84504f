"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with `pytest -v -s tests/test_acceptance.py`).

Experiment-backed thresholds were pre-validated with the oracle runs
recorded in the repository notes; the task here is 2-turn spirals with a
2500-sample training set and a 2500/2500 validation/test pool.
"""

import json
import math

import numpy as np
import pytest

from smd.cli import main
from smd.datasets import make_spirals
from smd.divergence import sweep_cells, write_sweep_csv
from smd.evolution import run_generation, select_top_k
from smd.metrics import accuracy, ece, metric_triple
from smd.mutation import (
    Child,
    MutationParams,
    sample_mask,
    sample_noise,
)
from smd.network import (
    Network,
    NetworkSpec,
    ParamVector,
    forward,
    init_network,
    nll_loss,
    softmax,
)
from smd.training import loss_and_grad

from oracles import (
    child_genome,
    cross_entropy,
    output_kl,
    output_mse,
    partition_masks,
    seed_record_genome,
    train_settings,
)


def report(criterion: str, passed: bool, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} {detail}".rstrip())
    assert passed, f"{criterion} failed: {detail}"


class TestCriterion01MutationAlgebra:
    def test_oracle_suite(self):
        """Brute-force elementwise verification, w <= 1e4, 100 seeds, exact."""
        for seed in range(100):
            rng = np.random.default_rng(seed)
            w = int(rng.integers(8, 10_001))
            theta = ParamVector(rng.normal(0, 0.2, w).astype(np.float32).astype(np.float64))
            mask = sample_mask(w, float(rng.uniform(0, 0.99)), seed)
            noise = sample_noise(w, 0.0, float(rng.uniform(0.01, 0.5)), seed + 1)

            gamma = child_genome(ParamVector(np.zeros(w)), noise[mask == 1], mask, "+").values
            assert np.array_equal(gamma, noise * mask)

            comp = 1 - mask

            child = child_genome(theta, noise[mask == 1], mask, "-")
            assert np.array_equal(child.values, theta.values - gamma)
            frozen = mask == 0
            assert np.array_equal(child.values[frozen], theta.values[frozen])

            c1, c2, c3, c4 = (
                child_genome(theta, noise[support == 1], mask, r)
                for r, support in (("+M", mask), ("+M'", comp), ("-M", mask), ("-M'", comp))
            )
            expected = [
                theta.values + noise * mask,
                theta.values + noise * comp,
                theta.values - noise * mask,
                theta.values - noise * comp,
            ]
            for got, want in zip((c1, c2, c3, c4), expected):
                assert np.array_equal(got.values, want)
            mean = (c1.values + c2.values + c3.values + c4.values) / 4.0
            assert np.array_equal(mean, theta.values)

            parts = partition_masks(w, int(rng.integers(1, 9)), seed)
            assert np.all(np.stack(parts).sum(axis=0) == 1)
        report("1 (mutation algebra oracle)", True, "- 100 seeds exact")


class TestCriterion02DivergenceOracle:
    def test_direct_summation(self):
        worst = 0.0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            d_in, d_out = int(rng.integers(1, 4)), int(rng.integers(2, 5))
            spec = NetworkSpec([d_in, int(rng.integers(2, 6)), d_out], seed=seed)
            parent = init_network(spec)
            child = Network(
                spec, ParamVector(parent.params.values + rng.normal(0, 0.2, parent.params.w))
            )
            from smd.datasets import Dataset

            n = int(rng.integers(1, 10))
            probe = Dataset(rng.normal(size=(n, d_in)), rng.integers(0, d_out, n), d_out)

            pl, ql = forward(parent, probe.inputs), forward(child, probe.inputs)
            kl_ref = 0.0
            mse_ref = 0.0
            for a, b in zip(pl, ql):
                p = np.exp(a - a.max())
                p /= p.sum()
                q = np.exp(b - b.max())
                q /= q.sum()
                p = np.clip(p, 1e-12, None)
                q = np.clip(q, 1e-12, None)
                p /= p.sum()
                q /= q.sum()
                kl_ref += sum(po * math.log(po / qo) for po, qo in zip(p, q))
                mse_ref += sum((x - y) ** 2 for x, y in zip(a, b))
            kl_ref /= n
            mse_ref /= n

            kl = output_kl(parent, child, probe)
            mse = output_mse(parent, child, probe)
            worst = max(worst, abs(kl - kl_ref), abs(mse - mse_ref))
            assert abs(kl - kl_ref) <= 1e-9
            assert abs(mse - mse_ref) <= 1e-9
            assert output_kl(parent, parent, probe) == 0.0
            assert kl >= 0.0
        report("2 (divergence oracle)", True, f"- max deviation {worst:.2e}")


class TestCriterion03GradientCheck:
    def test_central_differences(self):
        rng = np.random.default_rng(7)
        spec = NetworkSpec([2, 4, 2], seed=3)
        values = init_network(spec).params.values
        x = rng.normal(size=(16, 2))
        y = rng.integers(0, 2, 16)
        _, grad = loss_and_grad(spec, values, x, y)
        h = 1e-4
        worst = 0.0
        for i in range(len(values)):
            plus, minus = values.copy(), values.copy()
            plus[i] += h
            minus[i] -= h
            lp = cross_entropy(forward(Network(spec, ParamVector(plus)), x), y)
            lm = cross_entropy(forward(Network(spec, ParamVector(minus)), x), y)
            fd = (lp - lm) / (2 * h)
            rel = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-8)
            worst = max(worst, rel)
        report("3 (gradient check)", worst <= 1e-4, f"- max relative error {worst:.2e}")


class TestCriterion04SparsityRetainsBehavior:
    def test_rho_09_beats_dense_by_10_points(self, bench_task):
        sigma = 0.15
        means = {}
        for rho in (0.0, 0.9):
            accs = []
            params = MutationParams(sigma=sigma, rho=rho)
            for seed in range(20):
                solo = Child(seed=2 * seed + 1, mask_seed=2 * seed, group=0, role="solo")
                genome = seed_record_genome(bench_task.parent.params, params, solo)
                child = Network(bench_task.parent.spec, genome)
                probs = softmax(forward(child, bench_task.test.inputs))
                accs.append(accuracy(probs, bench_task.test.labels))
            means[rho] = float(np.mean(accs))
        gap = means[0.9] - means[0.0]
        report(
            "4 (sparse mutations retain behavior)",
            gap >= 0.10,
            f"- acc(rho=0.9)={means[0.9]:.4f}, acc(rho=0.0)={means[0.0]:.4f}, gap={100 * gap:.1f}pp",
        )


class TestCriterion05KlTrends:
    def test_mean_rank_monotonicity(self, bench_task, tmp_path):
        sigma_grid = (0.05, 0.1, 0.15, 0.2, 0.25)
        rho_grid = (0.0, 0.3, 0.6, 0.9)
        kl = {}
        for seed in range(20):
            rows = sweep_cells(
                bench_task.parent, bench_task.val, sigma_grid, rho_grid, 4, seed
            )
            for r in rows:
                kl.setdefault((r["sigma"], r["rho"]), []).append(r["mean_kl"])
        write_sweep_csv(
            sweep_cells(bench_task.parent, bench_task.val, sigma_grid, rho_grid, 4, 0),
            tmp_path / "sweep.csv",
        )

        def mean_ranks(values_by_key, keys):
            per_seed = np.array([[values_by_key[k][s] for k in keys] for s in range(20)])
            ranks = per_seed.argsort(axis=1).argsort(axis=1)
            return ranks.mean(axis=0)

        ok = True
        for rho in rho_grid:
            ranks = mean_ranks(kl, [(s, rho) for s in sigma_grid])
            ok &= bool(np.all(np.diff(ranks) >= 0))
        for sigma in sigma_grid:
            ranks = mean_ranks(kl, [(sigma, r) for r in rho_grid])
            ok &= bool(np.all(np.diff(ranks) <= 0))
        report("5 (KL monotone in sigma and rho)", ok, "- mean-rank test over 20 seeds")


class TestCriterion06TableShapedImprovement:
    def test_search_then_evolve_20_seeds(self, bench_task, tmp_path):
        from smd.checkpoint import save_checkpoint

        ckpt = tmp_path / "parent.ckpt"
        save_checkpoint(bench_task.parent, ckpt)
        config = {
            "task": {
                "dataset": "spirals",
                "n_train": 2500,
                "n_eval": 5000,
                "noise_std": 0.05,
                "turns": 2.0,
                "train_seed": 1,
                "eval_seed": 2,
                "split_seed": 3,
                "eval_fractions": [0.5, 0.5],
            },
            "model": {"checkpoint": str(ckpt)},
            "mutation": {
                "search": {
                    "sigma_grid": [0.01, 0.02, 0.05, 0.08, 0.1, 0.15, 0.2, 0.25],
                    "rho_grid": [0.0, 0.5, 0.75, 0.9, 0.99],
                    "kl_target": 0.05,
                    "kl_tolerance": 0.5,
                    "samples_per_cell": 8,
                    "probe_size": 1000,
                    "seed": 11,
                }
            },
            "output": {"dir": str(tmp_path / "search_out")},
        }
        cfg_path = tmp_path / "search.json"
        cfg_path.write_text(json.dumps(config))
        code = main(["search", "--config", str(cfg_path)])
        found = json.loads((tmp_path / "search_out" / "search_result.json").read_text())
        assert code == 0 and found["in_band"], f"search left the KL band: {found}"

        params = MutationParams(sigma=found["sigma"], rho=found["rho"])
        deltas = np.array(
            [
                run_generation(
                    bench_task.parent, params, bench_task.val, bench_task.test,
                    pop_size=16, top_k=8, generations=1, master_seed=seed, repeats=1,
                )["delta_acc"]
                for seed in range(20)
            ]
        )
        wins = int((deltas >= 0).sum())
        report(
            "6 (ensemble improves the parent)",
            wins >= 14 and deltas.mean() > 0,
            f"- sigma={found['sigma']}, rho={found['rho']}, dAcc>=0 in {wins}/20, "
            f"mean {100 * deltas.mean():+.3f}pp",
        )


class TestCriterion07RerunDeterminism:
    """Criterion 7, rerun determinism: two fresh evolve runs of one config
    write byte-identical reports."""

    def test_five_configs_byte_identical(self, tmp_path):
        from smd.checkpoint import save_checkpoint
        from smd.training import train_model

        train = make_spirals(600, seed=1)
        net = train_model(
            init_network(NetworkSpec([2, 16, 2], seed=7)), train, **train_settings(epochs=5)
        )
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(net, ckpt)
        task = {
            "dataset": "spirals",
            "n_train": 600,
            "n_eval": 600,
            "turns": 1.75,
            "train_seed": 1,
            "eval_seed": 2,
            "split_seed": 3,
        }
        variants = [
            {"sigma": 0.05, "rho": 0.5, "master_seed": 0},
            {"sigma": 0.1, "rho": 0.9, "master_seed": 1},
            {"sigma": 0.02, "rho": 0.0, "master_seed": 2},
            {"sigma": 0.2, "rho": 0.99, "master_seed": 3, "subspace_mode": "static"},
            {"sigma": 0.15, "rho": 0.75, "master_seed": 4, "anti_random": True},
        ]
        for i, v in enumerate(variants):
            mutation = {k: v[k] for k in ("sigma", "rho", "subspace_mode", "anti_random") if k in v}
            config = {
                "task": task,
                "model": {"checkpoint": str(ckpt)},
                "mutation": mutation,
                "evolution": {"pop_size": 8, "top_k": 4, "master_seed": v["master_seed"]},
            }
            cfg_path = tmp_path / f"cfg{i}.json"
            cfg_path.write_text(json.dumps(config))
            runs = []
            for rerun in ("a", "b"):
                out = tmp_path / f"run{i}{rerun}"
                assert main(["evolve", "--config", str(cfg_path), "--out", str(out)]) == 0
                runs.append((out / "eval_report.json").read_bytes())
            assert runs[0] == runs[1], f"variant {i} differs between reruns"
        report("7 (rerun determinism)", True, "- 5 configs byte-identical")


class TestCriterion08ZeroMutationFixedPoint:
    def test_sigma_1e12(self, bench_task):
        rep = run_generation(
            bench_task.parent, MutationParams(sigma=1e-12, rho=0.5), bench_task.val,
            bench_task.test, pop_size=8, top_k=4, generations=1, master_seed=5, repeats=1,
        )
        p, a, e = rep["parent"], rep["averaged"], rep["ensemble"]
        close = all(abs(p[f] - x[f]) <= 1e-6 for x in (a, e) for f in ("accuracy", "nll", "ece"))
        report(
            "8 (zero-mutation fixed point)",
            close and rep["delta_acc"] == 0.0,
            f"- dAcc={rep['delta_acc']}",
        )


class TestCriterion09MetricUnits:
    def test_stated_examples(self):
        assert accuracy(np.eye(3), np.arange(3)) == 1.0
        assert accuracy(np.full((4, 2), 0.5), np.zeros(4, int)) == 1.0
        probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7], [0.6, 0.4]])
        assert accuracy(probs, np.array([0, 0, 1, 1])) == 0.75

        assert abs(nll_loss(np.full((10, 2), 0.5), np.zeros(10, int)) - math.log(2)) <= 1e-9
        assert nll_loss(np.eye(2), np.arange(2)) <= 1e-9
        assert abs(nll_loss(np.array([[0.0, 1.0]]), np.array([0])) + math.log(1e-12)) <= 1e-9

        assert ece(np.array([[1.0, 0.0]] * 3), np.zeros(3, int)) == 0.0
        assert abs(ece(np.array([[0.8, 0.2]]), np.array([0])) - 0.2) <= 1e-12
        probs = np.array([[0.65, 0.35]] * 20)
        labels = np.array([0] * 13 + [1] * 7)
        assert ece(probs, labels) <= 1e-12

        triple = metric_triple(np.full((8, 2), 0.5), np.zeros(8, int))
        assert triple["accuracy"] == 1.0
        assert abs(triple["nll"] - math.log(2)) <= 1e-9
        assert abs(triple["ece"] - 0.5) <= 1e-9
        report("9 (metric unit suite)", True)


class TestCriterion10SelectionContract:
    def test_thousand_random_cases(self):
        from smd.evolution import Population

        spec = NetworkSpec([1, 2])
        parent = init_network(spec)
        rng = np.random.default_rng(123)
        for _ in range(1000):
            n = int(rng.integers(1, 50))
            k = int(rng.integers(1, n + 1))
            fitness = rng.choice([0.0, 0.2, 0.4, 0.6, 0.8, 1.0], size=n)
            nll = rng.random(n).round(3)
            children = [Child(i, i, i, "solo") for i in range(n)]
            params = MutationParams(sigma=0.1, rho=0.5)
            pop = Population(parent, params, children, fitness, nll, val_probs=[])
            sel = select_top_k(pop, k)
            assert len(sel) == len(set(sel)) == k
            rest = [i for i in range(n) if i not in set(sel)]
            if rest:
                assert fitness[sel].min() >= fitness[rest].max()
            assert sel == select_top_k(pop, k)
        report("10 (selection contract)", True, "- 1000 randomized cases")
