import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smd.errors import ConfigurationError, ShapeError
from smd.network import (
    ACTIVATIONS,
    UNPATCHED,
    Network,
    NetworkSpec,
    ParamVector,
    forward,
    init_network,
    nll_loss,
    predict,
    softmax,
    unflatten,
    workspace,
    _layers,
)

from oracles import flatten, float32_logits, rowwise_softmax


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

    @pytest.mark.parametrize(
        "sizes, seed",
        [([2, 8.7, 2], 0), ([2, 8.0, 2], 0), ([2, True, 2], 0), ([2, "8", 2], 0),
         ([2, 8, 2], True), ([2, 8, 2], 1.5), ([2, 8, 2], -1), ([2, 8, 2], "1")],
    )
    def test_rejects_non_integer_sizes_and_seeds(self, sizes, seed):
        with pytest.raises(ConfigurationError):
            NetworkSpec(sizes, seed=seed)

    def test_accepts_numpy_integers(self):
        spec = NetworkSpec([np.int64(2), np.int32(8), 2], seed=np.uint8(3))
        assert spec.layer_sizes == (2, 8, 2)
        assert all(type(s) is int for s in spec.layer_sizes)
        assert init_network(spec).params.values.shape == (spec.param_count(),)

    def test_rejects_unknown_activation(self):
        with pytest.raises(ConfigurationError):
            NetworkSpec([2, 2], hidden_activation="gelu")

    def test_cached_layout_leaves_equality_hash_and_repr_alone(self):
        a, b = NetworkSpec([2, 3, 2]), NetworkSpec((2, 3, 2))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, NetworkSpec([2, 3, 2], seed=1), NetworkSpec([2, 4, 2])}) == 3
        assert repr(a) == "NetworkSpec(layer_sizes=(2, 3, 2), hidden_activation='relu', seed=0)"


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

    @pytest.mark.parametrize(
        "sizes", [[1, 1], [2, 3, 1], [3, 5, 4, 2], [2, 64, 64, 64, 2], [7, 1, 9, 1, 3]]
    )
    def test_unflatten_views_match_the_layer_walk(self, sizes):
        """The cached layout gives the same views as walking the layer shapes."""
        spec = NetworkSpec(sizes)
        values = np.arange(spec.param_count(), dtype=np.float64)
        pos, expected = 0, []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            w = values[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out)
            pos += fan_in * fan_out
            expected.append((w, values[pos : pos + fan_out]))
            pos += fan_out
        assert pos == spec.param_count()
        assert spec.layer_shapes() == list(zip(sizes[:-1], sizes[1:]))
        layers = unflatten(spec, values)
        assert len(layers) == len(expected)
        for (w, b), (w_ref, b_ref) in zip(layers, expected):
            assert w.shape == w_ref.shape and np.array_equal(w, w_ref)
            assert b.shape == b_ref.shape and np.array_equal(b, b_ref)
            assert np.shares_memory(w, values) and np.shares_memory(b, values)

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

    @pytest.mark.parametrize("classes", range(2, 8))
    def test_class_major_equals_rowwise_bytes_below_8_classes(self, rng, classes):
        # Below 8 terms numpy sums a row left to right, as the class-major
        # passes do, so every value is the same double.
        logits = rng.normal(0.0, 5.0, size=(2500, classes))
        out = softmax(logits)
        assert out.shape == logits.shape
        assert out.tobytes() == rowwise_softmax(logits).tobytes()

    @pytest.mark.parametrize("classes", [8, 10, 16])
    def test_class_major_within_one_ulp_band_from_8_classes(self, rng, classes):
        # From 8 terms numpy's row sum is pairwise: only the last bits move.
        logits = rng.normal(0.0, 5.0, size=(2500, classes))
        diff = np.abs(softmax(logits) - rowwise_softmax(logits))
        assert diff.max() <= 1e-15

    def test_input_is_never_written(self, rng):
        # A transposed (Fortran-ordered) input is the layout the class-major
        # copy would otherwise alias.
        logits = np.asfortranarray(rng.normal(size=(50, 3)))
        before = logits.copy()
        out = softmax(logits)
        assert logits.tobytes() == before.tobytes()
        assert out.tobytes() == rowwise_softmax(before).tobytes()


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


def _reference_forward(net, x):
    """Forward with a fresh array per layer, the kernel's bytes oracle."""
    layers = unflatten(net.spec, net.params.values)
    a = x
    for i, (w, b) in enumerate(layers):
        z = a @ w
        z += b
        if i < len(layers) - 1:
            z = np.tanh(z) if net.spec.hidden_activation == "tanh" else np.maximum(z, 0.0)
        a = z
    return a


class TestWorkspace:
    @settings(max_examples=60, deadline=None, database=None)
    @given(
        sizes=st.lists(st.integers(1, 40), min_size=2, max_size=5),
        activation=st.sampled_from(ACTIVATIONS),
        rows=st.lists(st.integers(1, 300), min_size=1, max_size=3),
        seed=st.integers(0, 2**16),
    )
    def test_shared_workspace_matches_per_layer_arrays(self, sizes, activation, rows, seed):
        """0-3 hidden layers: one workspace reused across calls of any row
        count gives the reference bytes, keeps earlier results intact and
        never writes the inputs."""
        rng = np.random.default_rng(seed)
        net = init_network(NetworkSpec(sizes, hidden_activation=activation, seed=seed))
        net.params.values += rng.normal(size=net.params.w)  # nonzero biases
        scratch = workspace(net.spec, max(rows))
        results = []
        for n in rows:
            x = rng.normal(size=(n, sizes[0]))
            x_before = x.copy()
            logits = _layers(net.spec, net.params.values, x, scratch)
            assert x.tobytes() == x_before.tobytes()
            assert logits.tobytes() == _reference_forward(net, x_before).tobytes()
            assert not any(np.shares_memory(logits, buf) for buf in scratch)
            results.append((logits, logits.copy()))
        for logits, kept in results:
            assert logits.tobytes() == kept.tobytes()

    def test_two_separate_buffers_of_the_widest_hidden_layer(self):
        first, second = workspace(NetworkSpec([2, 8, 30, 5, 2]), 11)
        assert first.dtype == second.dtype == np.float64
        assert first.shape == second.shape == (11 * 30,)
        assert not np.shares_memory(first, second)
        assert [buf.size for buf in workspace(NetworkSpec([3, 2]), 50)] == [0, 0]

    def test_call_with_workspace_allocates_only_its_logits(self):
        spec = NetworkSpec([2, 64, 64, 64, 2], seed=7)
        net = init_network(spec)
        x = np.random.default_rng(0).normal(size=(2500, 2))
        scratch = workspace(spec, 2500)
        tracemalloc.start()
        try:
            _layers(spec, net.params.values, x, scratch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2500 * 64 * 8 / 4, peak

    def test_undersized_workspace_raises(self):
        spec = NetworkSpec([2, 16, 2], seed=1)
        x = np.zeros((11, 2))
        with pytest.raises(ShapeError):
            _layers(spec, init_network(spec).params.values, x, workspace(spec, 10))

    def test_no_hidden_layer_needs_no_workspace(self):
        net = init_network(NetworkSpec([3, 2], seed=1))
        x = np.random.default_rng(1).normal(size=(6, 3))
        logits = _layers(net.spec, net.params.values, x, workspace(net.spec, 0))
        assert logits.tobytes() == forward(net, x).tobytes()


class TestPredict:
    """`predict` scores in float32: its logits are the float32 oracle's, bit
    for bit, returned as float64."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        sizes=st.lists(st.integers(1, 40), min_size=2, max_size=5),
        activation=st.sampled_from(ACTIVATIONS),
        rows=st.integers(1, 300),
        seed=st.integers(0, 2**16),
    )
    def test_matches_the_float32_oracle(self, sizes, activation, rows, seed):
        rng = np.random.default_rng(seed)
        spec = NetworkSpec(sizes, hidden_activation=activation, seed=seed)
        w = spec.param_count()
        theta = ParamVector(rng.normal(size=w))
        theta_before = theta.values.tobytes()
        index = np.flatnonzero(rng.random(w) < 0.5)
        patches = [  # a sparse child, a partner on its index object, a dense child, the parent
            (index, rng.normal(size=index.size)),
            (index, rng.normal(size=index.size)),
            (slice(None), rng.normal(size=w)),
            UNPATCHED,
        ]
        x = rng.normal(size=(rows, sizes[0]))
        x_before = x.copy()
        scored = list(predict(spec, theta, iter(patches), x))
        for (index, values), ((got_index, got_values), logits, probs) in zip(
            patches, scored, strict=True
        ):
            assert got_index is index and got_values is values
            genome = theta.values.copy()
            genome[index] = values
            assert logits.dtype == probs.dtype == np.float64
            assert logits.tobytes() == float32_logits(spec, ParamVector(genome), x_before).tobytes()
            assert probs.tobytes() == softmax(logits).tobytes()
        assert x.tobytes() == x_before.tobytes()
        assert theta.values.tobytes() == theta_before

    def test_one_workspace_and_one_parameter_buffer_per_pass(self):
        """Scoring eight dense patches holds no more float32 genome copies
        than scoring one; only the logits the consumer holds differ."""
        spec = NetworkSpec([2, 256, 256, 2], seed=2)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(500, 2))
        theta = ParamVector(rng.normal(size=spec.param_count()))

        def peak(count):
            patches = [(slice(None), rng.normal(size=spec.param_count())) for _ in range(count)]
            tracemalloc.start()
            try:
                for _ in predict(spec, theta, patches, x):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8) < peak(1) + spec.param_count() * 4 / 2

    def test_input_shape_is_checked(self):
        spec = NetworkSpec([3, 4, 2])
        with pytest.raises(ShapeError, match=r"inputs must be \(n, 3\), got \(4, 2\)"):
            next(predict(spec, init_network(spec).params, [UNPATCHED], np.zeros((4, 2))))

    def test_genome_length_is_checked(self):
        spec = NetworkSpec([3, 4, 2])
        with pytest.raises(ShapeError, match="spec needs 26"):
            next(predict(spec, ParamVector(np.zeros(25)), [UNPATCHED], np.zeros((4, 3))))

    @pytest.mark.parametrize("where", ["genome", "inputs"])
    def test_a_value_beyond_the_float32_range_is_an_error(self, where):
        """It would cast to inf; the error names what holds it."""
        spec = NetworkSpec([3, 4, 2])
        genome = init_network(spec).params
        x = np.zeros((4, 3))
        if where == "genome":
            genome.values[5] = 3.5e38
        else:
            x[2, 1] = -3.5e38
        what = "genome parameters" if where == "genome" else "inputs"
        with pytest.raises(ConfigurationError) as exc:
            next(predict(spec, genome, [UNPATCHED], x))
        assert str(exc.value) == f"{what} beyond the float32 range cannot be scored"

    def test_patch_values_beyond_the_float32_range_are_an_error(self):
        spec = NetworkSpec([3, 4, 2])
        theta = init_network(spec).params
        patch = (np.array([3, 5]), np.array([0.5, -3.5e38]))
        with pytest.raises(ConfigurationError) as exc:
            next(predict(spec, theta, [patch], np.zeros((4, 3))))
        assert str(exc.value) == "genome parameters beyond the float32 range cannot be scored"

    def test_logits_beyond_the_float32_range_are_an_error(self):
        """Finite float32 weights can still overflow float32 in the forward
        pass, where float64 would not; the logits are checked."""
        spec = NetworkSpec([2, 16, 2])
        genome = ParamVector(np.full(spec.param_count(), 1e30))
        x = np.ones((4, 2))
        assert np.isfinite(forward(Network(spec, genome), x)).all()
        with pytest.raises(ConfigurationError) as exc:
            next(predict(spec, genome, [UNPATCHED], x))
        assert str(exc.value) == "logits beyond the float32 range cannot be scored"

    def test_the_float32_maximum_is_scored(self):
        spec = NetworkSpec([1, 1])
        top = float(np.finfo(np.float32).max)
        genome = ParamVector(np.array([1.0, 0.0]))
        ((_, logits, _),) = predict(spec, genome, [UNPATCHED], np.array([[top]]))
        assert logits.item() == top
