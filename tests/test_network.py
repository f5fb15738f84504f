import numpy as np
import pytest

from smd.errors import ConfigurationError, ShapeError
from smd.network import (
    Network,
    NetworkSpec,
    ParamVector,
    flatten,
    forward,
    init_network,
    nll_loss,
    softmax,
    unflatten,
)


class TestNetworkSpec:
    def test_param_count_three_hidden_layers(self):
        # per layer: fan_in*fan_out + fan_out, summed
        spec = NetworkSpec([2, 64, 64, 64, 2], seed=7)
        expected = (2 * 64 + 64) + (64 * 64 + 64) + (64 * 64 + 64) + (64 * 2 + 2)
        assert expected == 8642
        assert spec.param_count() == expected

    def test_smallest_legal_network(self):
        assert NetworkSpec([1, 1]).param_count() == 2

    def test_rejects_single_layer(self):
        with pytest.raises(ConfigurationError):
            NetworkSpec([3])

    def test_rejects_zero_width(self):
        with pytest.raises(ConfigurationError):
            NetworkSpec([2, 0, 2])

    def test_rejects_unknown_activation(self):
        with pytest.raises(ConfigurationError):
            NetworkSpec([2, 2], hidden_activation="gelu")


class TestInitNetwork:
    def test_deterministic_per_seed(self):
        spec = NetworkSpec([2, 8, 2], seed=42)
        a = init_network(spec)
        b = init_network(spec)
        assert np.array_equal(a.params.values, b.params.values)

    def test_different_seeds_differ(self):
        a = init_network(NetworkSpec([2, 8, 2], seed=1))
        b = init_network(NetworkSpec([2, 8, 2], seed=2))
        assert not np.array_equal(a.params.values, b.params.values)

    def test_biases_zero_weights_scaled(self):
        spec = NetworkSpec([100, 50, 10], seed=3)
        net = init_network(spec)
        layers = unflatten(spec, net.params.values)
        for fan_in, (w, b) in zip([100, 50], layers):
            assert np.all(b == 0.0)
            assert w.std() == pytest.approx(np.sqrt(2.0 / fan_in), rel=0.15)

    def test_param_vector_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            ParamVector(np.array([1.0, np.nan]))


class TestFlattenRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    def test_unflatten_flatten_identity(self, seed):
        spec = NetworkSpec([3, 5, 4, 2], seed=seed)
        net = init_network(spec)
        layers = unflatten(spec, net.params.values)
        assert np.array_equal(flatten(layers), net.params.values)

    def test_canonical_order_weights_then_bias(self):
        spec = NetworkSpec([2, 3, 1])
        values = np.arange(spec.param_count(), dtype=np.float64)
        (w0, b0), (w1, b1) = unflatten(spec, values)
        assert np.array_equal(w0, [[0, 1, 2], [3, 4, 5]])  # row-major (fan_in, fan_out)
        assert np.array_equal(b0, [6, 7, 8])
        assert np.array_equal(w1.ravel(), [9, 10, 11])
        assert np.array_equal(b1, [12])

    def test_unflatten_rejects_wrong_length(self):
        with pytest.raises(ShapeError):
            unflatten(NetworkSpec([2, 2]), np.zeros(5))


class TestForward:
    def test_zero_params_zero_logits(self):
        spec = NetworkSpec([2, 4, 3])
        net = Network(spec, ParamVector(np.zeros(spec.param_count())))
        logits = forward(net, np.random.default_rng(0).normal(size=(7, 2)))
        assert logits.shape == (7, 3)
        assert np.all(logits == 0.0)

    def test_identity_single_weight(self):
        spec = NetworkSpec([1, 1])
        net = Network(spec, ParamVector(np.array([1.0, 0.0])))
        assert forward(net, np.array([[3.0]])).item() == 3.0

    def test_deterministic_bitwise(self, rng):
        spec = NetworkSpec([4, 16, 3], seed=5)
        net = init_network(spec)
        x = rng.normal(size=(20, 4))
        assert np.array_equal(forward(net, x), forward(net, x))

    def test_row_count_preserved_and_finite(self, spiral_task):
        logits = forward(spiral_task.parent, spiral_task.val.inputs)
        assert logits.shape == (spiral_task.val.n, 2)
        assert np.all(np.isfinite(logits))

    def test_dimension_mismatch(self):
        net = init_network(NetworkSpec([3, 2]))
        with pytest.raises(ShapeError):
            forward(net, np.zeros((4, 2)))

    def test_tanh_activation_path(self):
        spec = NetworkSpec([1, 2, 1], hidden_activation="tanh", seed=0)
        net = init_network(spec)
        out = forward(net, np.array([[100.0]]))
        # tanh saturates, so huge inputs cannot blow up the hidden layer
        assert np.all(np.abs(out) < 1e3)

    @pytest.mark.parametrize(
        "sizes, activation",
        [([2, 8, 8, 2], "relu"), ([2, 8, 8, 2], "tanh"), ([2, 2], "relu"), ([2, 2], "tanh")],
    )
    def test_in_place_layers_write_only_their_own_arrays(self, rng, sizes, activation):
        net = init_network(NetworkSpec(sizes, hidden_activation=activation, seed=3))
        net.params.values += rng.normal(size=net.params.w)  # nonzero biases
        x = rng.normal(size=(9, 2))
        x_before, genome_before = x.copy(), net.params.values.copy()

        logits = forward(net, x)

        assert x.tobytes() == x_before.tobytes()
        assert net.params.values.tobytes() == genome_before.tobytes()
        assert not np.shares_memory(logits, x)
        assert not np.shares_memory(logits, net.params.values)
        # Reference: the out-of-place layer ops, bit for bit.
        act = np.tanh if activation == "tanh" else (lambda z: np.maximum(z, 0.0))
        layers = unflatten(net.spec, genome_before)
        a = x_before
        for i, (w, b) in enumerate(layers):
            z = a @ w + b
            a = act(z) if i < len(layers) - 1 else z
        assert logits.tobytes() == a.tobytes()


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_no_overflow_on_huge_logits(self):
        out = softmax(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_ln2(self):
        out = softmax(np.array([[np.log(2.0), 0.0]]))
        np.testing.assert_allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)

    def test_rows_sum_to_one_at_large_magnitude(self, rng):
        logits = rng.uniform(-1e4, 1e4, size=(200, 5))
        sums = softmax(logits).sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-6)


class TestNllLoss:
    def test_perfect_one_hot_is_zero(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert nll_loss(probs, np.array([0, 1])) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_two_class_is_ln2(self):
        probs = np.full((10, 2), 0.5)
        assert nll_loss(probs, np.zeros(10, dtype=int)) == pytest.approx(np.log(2), abs=1e-9)

    def test_zero_probability_clamped(self):
        probs = np.array([[0.0, 1.0]])
        loss = nll_loss(probs, np.array([0]))
        assert np.isfinite(loss)
        assert loss == pytest.approx(-np.log(1e-12))
