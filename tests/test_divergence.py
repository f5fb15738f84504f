import math

import numpy as np
import pytest

from smd.datasets import Dataset, make_spirals
from smd.divergence import (
    CellResult,
    GridSearchConfig,
    grid_search,
    select_cell,
    sweep_cells,
    write_sweep_csv,
)
from smd.errors import ConfigurationError, ShapeError
from smd.mutation import MutationParams, spawn_mutations
from smd.network import Network, NetworkSpec, ParamVector, forward, init_network, softmax

from oracles import output_kl, output_mse


def random_probe(rng, n, d, classes):
    return Dataset(rng.normal(size=(n, d)), rng.integers(0, classes, size=n), classes)


def perturbed(net, rng, scale):
    values = net.params.values + rng.normal(0, scale, net.params.w)
    return Network(net.spec, ParamVector(values))


def kl_direct(p_logits, q_logits):
    """Independent direct-summation oracle for the relative-entropy probe."""
    total = 0.0
    for pl, ql in zip(p_logits, q_logits):
        p = np.exp(pl - pl.max())
        p /= p.sum()
        q = np.exp(ql - ql.max())
        q /= q.sum()
        p = np.clip(p, 1e-12, None)
        q = np.clip(q, 1e-12, None)
        p /= p.sum()
        q /= q.sum()
        for po, qo in zip(p, q):
            total += po * math.log(po / qo)
    return total / len(p_logits)


def mse_direct(p_logits, q_logits):
    total = 0.0
    for pl, ql in zip(p_logits, q_logits):
        for a, b in zip(pl, ql):
            total += (a - b) ** 2
    return total / len(p_logits)


class TestOutputMse:
    def test_identical_networks_zero(self, rng):
        net = init_network(NetworkSpec([3, 6, 2], seed=1))
        probe = random_probe(rng, 20, 3, 2)
        assert output_mse(net, net, probe) == 0.0

    def test_single_sample_closed_form(self):
        # parent logits [1, 0], child [1, 2] -> (0)^2 + (2)^2 = 4
        spec = NetworkSpec([1, 2])
        parent = Network(spec, ParamVector(np.array([1.0, 0.0, 1.0, 0.0])))
        child = Network(spec, ParamVector(np.array([1.0, 2.0, 1.0, 0.0])))
        probe = Dataset(np.array([[1.0]]), np.array([0]), 2)
        assert output_mse(parent, child, probe) == pytest.approx(4.0, abs=1e-12)

    def test_symmetric(self, rng):
        net = init_network(NetworkSpec([3, 6, 2], seed=2))
        other = perturbed(net, rng, 0.1)
        probe = random_probe(rng, 15, 3, 2)
        assert output_mse(net, other, probe) == pytest.approx(
            output_mse(other, net, probe), abs=1e-12
        )

    def test_spec_mismatch(self, rng):
        a = init_network(NetworkSpec([3, 6, 2], seed=1))
        b = init_network(NetworkSpec([3, 4, 2], seed=1))
        with pytest.raises(ShapeError):
            output_mse(a, b, random_probe(rng, 5, 3, 2))


class TestOutputKl:
    def test_identical_networks_zero(self, rng):
        net = init_network(NetworkSpec([2, 5, 3], seed=3))
        probe = random_probe(rng, 10, 2, 3)
        assert output_kl(net, net, probe) == 0.0

    def test_single_sample_closed_form(self):
        # P = [0.5, 0.5], Q = [0.9, 0.1]
        spec = NetworkSpec([1, 2])
        parent = Network(spec, ParamVector(np.array([0.0, 0.0, 0.0, 0.0])))
        q = np.array([0.9, 0.1])
        logit_gap = math.log(q[0] / q[1])
        child = Network(spec, ParamVector(np.array([0.0, 0.0, logit_gap, 0.0])))
        probe = Dataset(np.array([[1.0]]), np.array([0]), 2)
        expected = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
        assert expected == pytest.approx(0.5108256237659907, abs=1e-12)
        assert output_kl(parent, child, probe) == pytest.approx(expected, abs=1e-9)

    def test_nonnegative_for_random_pairs(self, rng):
        for _ in range(20):
            net = init_network(NetworkSpec([2, 4, 3], seed=int(rng.integers(1e6))))
            other = perturbed(net, rng, float(rng.uniform(0.01, 1.0)))
            probe = random_probe(rng, 8, 2, 3)
            assert output_kl(net, other, probe) >= 0.0

    def test_finite_even_for_extreme_children(self, rng):
        net = init_network(NetworkSpec([2, 4, 2], seed=5))
        blown = Network(net.spec, ParamVector(net.params.values * 1e4))
        probe = random_probe(rng, 10, 2, 2)
        assert np.isfinite(output_kl(net, blown, probe))
        assert np.isfinite(output_kl(blown, net, probe))


class TestAgainstDirectSummation:
    @pytest.mark.parametrize("seed", range(50))
    def test_fifty_random_tiny_networks(self, seed):
        rng = np.random.default_rng(seed)
        d_in = int(rng.integers(1, 4))
        d_out = int(rng.integers(2, 5))
        spec = NetworkSpec([d_in, int(rng.integers(2, 6)), d_out], seed=seed)
        parent = init_network(spec)
        child = perturbed(parent, rng, float(rng.uniform(0.01, 0.5)))
        probe = random_probe(rng, int(rng.integers(1, 12)), d_in, d_out)

        pl = forward(parent, probe.inputs)
        ql = forward(child, probe.inputs)
        assert output_kl(parent, child, probe) == pytest.approx(kl_direct(pl, ql), abs=1e-9)
        assert output_mse(parent, child, probe) == pytest.approx(mse_direct(pl, ql), abs=1e-9)


class TestSelectCell:
    def cell(self, sigma, rho, kl, acc):
        return CellResult(sigma, rho, kl, 0.0, acc, 4)

    def test_in_band_max_accuracy_wins(self):
        cells = [
            self.cell(0.1, 0.5, 0.05, 0.90),
            self.cell(0.2, 0.5, 0.05, 0.95),
            self.cell(0.3, 0.5, 0.30, 0.99),  # out of band
        ]
        best, in_band = select_cell(cells, 0.05, 0.5)
        assert (best.sigma, in_band) == (0.2, True)

    def test_fallback_closest_kl(self):
        cells = [self.cell(0.1, 0.5, 0.001, 0.99), self.cell(0.2, 0.5, 0.004, 0.90)]
        best, in_band = select_cell(cells, 0.05, 0.5)
        assert (best.sigma, in_band) == (0.2, False)

    def test_ties_prefer_larger_sigma_then_rho(self):
        cells = [
            self.cell(0.1, 0.5, 0.05, 0.95),
            self.cell(0.2, 0.5, 0.05, 0.95),
            self.cell(0.2, 0.9, 0.05, 0.95),
        ]
        best, _ = select_cell(cells, 0.05, 0.5)
        assert (best.sigma, best.rho) == (0.2, 0.9)

    def test_band_edges_inclusive(self):
        cells = [self.cell(0.1, 0.5, 0.025, 0.9), self.cell(0.2, 0.5, 0.075, 0.8)]
        best, in_band = select_cell(cells, 0.05, 0.5)
        assert in_band
        assert best.mean_child_acc == 0.9

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            select_cell([], 0.05, 0.5)


@pytest.fixture(scope="module")
def small_parent():
    data = make_spirals(600, seed=30)
    from smd.training import TrainConfig, train_model

    net = init_network(NetworkSpec([2, 16, 2], seed=31))
    trained = train_model(net, data, TrainConfig(epochs=5))
    quantized = ParamVector(trained.params.values.astype(np.float32).astype(np.float64))
    return Network(trained.spec, quantized), data


class TestSweep:
    def test_cell_count_and_order(self, small_parent):
        parent, data = small_parent
        cells = sweep_cells(parent, data, (0.05, 0.1), (0.0, 0.5, 0.9), 4, 77)
        assert len(cells) == 6
        assert [(c.sigma, c.rho) for c in cells[:3]] == [(0.05, 0.0), (0.1, 0.0), (0.05, 0.5)]

    def test_deterministic(self, small_parent):
        parent, data = small_parent
        a = sweep_cells(parent, data, (0.05,), (0.5,), 4, 42)
        b = sweep_cells(parent, data, (0.05,), (0.5,), 4, 42)
        assert a == b

    def test_curve_sorted_by_rho_then_sigma(self, small_parent):
        parent, data = small_parent
        rows = sweep_cells(parent, data, (0.05, 0.1), (0.0, 0.9), 4, 7)
        assert [(r.rho, r.sigma) for r in rows] == [
            (0.0, 0.05), (0.0, 0.1), (0.9, 0.05), (0.9, 0.1),
        ]

    def test_sigma_to_zero_limit(self, small_parent):
        parent, data = small_parent
        rows = sweep_cells(parent, data, (1e-6,), (0.0, 0.5, 0.9), 4, 11)
        assert all(r.mean_kl <= 1e-6 for r in rows)

    def test_csv_columns(self, small_parent, tmp_path):
        parent, data = small_parent
        rows = sweep_cells(parent, data, (0.05,), (0.5,), 4, 3)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        header = path.read_text().splitlines()[0]
        assert header == "sigma,rho,mean_kl,mean_mse,mean_child_acc,n_children"

    def test_grid_search_single_cell(self, small_parent):
        parent, data = small_parent
        cfg = GridSearchConfig(sigma_grid=(0.05,), rho_grid=(0.5,), kl_target=0.05)
        out = grid_search(parent, data, cfg, 13)
        assert (out.best.sigma, out.best.rho) == (0.05, 0.5)

    def test_grid_search_deterministic(self, small_parent):
        parent, data = small_parent
        cfg = GridSearchConfig(sigma_grid=(0.02, 0.05), rho_grid=(0.0, 0.5), kl_target=0.05)
        a = grid_search(parent, data, cfg, 21)
        b = grid_search(parent, data, cfg, 21)
        assert (a.best, a.probe_size) == (b.best, b.probe_size)

    def test_spiral_search_prefers_sparse_cells(self, bench_task):
        """At the 0.05 KL budget, the winning cell mutates a sparse subspace."""
        cfg = GridSearchConfig(
            sigma_grid=(0.01, 0.02, 0.05, 0.08, 0.1, 0.15, 0.2, 0.25),
            rho_grid=(0.0, 0.5, 0.75, 0.9, 0.99),
            kl_target=0.05,
            kl_tolerance=0.5,
            samples_per_cell=8,
            probe_size=1000,
        )
        out = grid_search(bench_task.parent, bench_task.val, cfg, 11)
        assert out.in_band
        assert out.best.rho >= 0.5


class TestGridSearchConfig:
    """`config.check` checks each `mutation.search` value; the one rule
    `GridSearchConfig` keeps is that each grid is strictly ascending."""

    @pytest.mark.parametrize(
        "kw",
        [
            {"sigma_grid": []},
            {"sigma_grid": [0.0, 0.1]},
            {"sigma_grid": [0.2, 0.1]},
            {"rho_grid": [0.5, 0.5]},
            {"rho_grid": [1.0]},
            {"kl_target": 0.0},
            {"kl_tolerance": 0.0},
            {"samples_per_cell": 0},
        ],
    )
    def test_validation(self, kw, config_error):
        (key,) = kw
        search = dict({"sigma_grid": [0.05, 0.1], "rho_grid": [0.0, 0.5]}, **kw)
        message = config_error("search", mutation={"search": search})
        assert message.startswith((f"mutation.search '{key}' must be", f"{key} must be strictly"))
