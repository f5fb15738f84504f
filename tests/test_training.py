import hashlib
import json

import numpy as np
import pytest

from smd.cli import main
from smd.datasets import Dataset, make_spirals
from smd.errors import TrainingDivergenceError
from smd.metrics import accuracy
from smd.network import NetworkSpec, forward, init_network, softmax
from smd.training import loss_and_grad, train_model

from oracles import cross_entropy, train_settings


def tiny_batch(rng, n=12, d=2, classes=2):
    return rng.normal(size=(n, d)), rng.integers(0, classes, size=n)


class TestGradients:
    def test_matches_central_finite_differences(self, rng):
        """Central-difference oracle on a [2,4,2] net, h = 1e-4."""
        spec = NetworkSpec([2, 4, 2], seed=9)
        values = init_network(spec).params.values
        x, y = tiny_batch(rng)
        _, grad = loss_and_grad(spec, values, x, y)

        h = 1e-4
        coords = rng.choice(len(values), size=10, replace=False)
        for i in coords:
            plus = values.copy()
            minus = values.copy()
            plus[i] += h
            minus[i] -= h
            fd = (
                cross_entropy(_logits(spec, plus, x), y)
                - cross_entropy(_logits(spec, minus, x), y)
            ) / (2 * h)
            assert abs(fd - grad[i]) <= 1e-4 * max(abs(fd), abs(grad[i]), 1e-8)

    def test_full_gradient_tanh(self, rng):
        spec = NetworkSpec([2, 3, 2], hidden_activation="tanh", seed=4)
        values = init_network(spec).params.values
        x, y = tiny_batch(rng)
        _, grad = loss_and_grad(spec, values, x, y)
        h = 1e-5
        for i in range(len(values)):
            plus, minus = values.copy(), values.copy()
            plus[i] += h
            minus[i] -= h
            fd = (
                cross_entropy(_logits(spec, plus, x), y)
                - cross_entropy(_logits(spec, minus, x), y)
            ) / (2 * h)
            assert fd == pytest.approx(grad[i], rel=1e-4, abs=1e-7)


def _logits(spec, values, x):
    from smd.network import Network, ParamVector

    return forward(Network(spec, ParamVector(values)), x)


class TestTrainModel:
    def test_loss_decreases_on_spirals(self):
        data = make_spirals(400, seed=5)
        net = init_network(NetworkSpec([2, 16, 2], seed=0))
        history = []
        trained = train_model(net, data, history, **train_settings(epochs=5))
        start = cross_entropy(forward(net, data.inputs), data.labels)
        end = cross_entropy(forward(trained, data.inputs), data.labels)
        assert end < start
        assert history[-1]["loss"] < history[0]["loss"]

    def test_returns_new_network(self):
        data = make_spirals(100, seed=5)
        net = init_network(NetworkSpec([2, 4, 2], seed=0))
        before = net.params.values.copy()
        train_model(net, data, **train_settings(epochs=1))
        assert np.array_equal(net.params.values, before)

    def test_zero_epochs_leaves_params_unchanged(self):
        data = make_spirals(100, seed=5)
        net = init_network(NetworkSpec([2, 4, 2], seed=0))
        settings = dict(train_settings(), epochs=0)  # below the checked minimum
        trained = train_model(net, data, **settings)
        assert np.array_equal(trained.params.values, net.params.values)

    def test_bit_reproducible(self):
        data = make_spirals(200, seed=8)
        net = init_network(NetworkSpec([2, 8, 2], seed=3))
        a = train_model(net, data, **train_settings(epochs=3))
        b = train_model(net, data, **train_settings(epochs=3))
        assert np.array_equal(a.params.values, b.params.values)

    def test_sgd_path(self):
        data = make_spirals(200, seed=8)
        net = init_network(NetworkSpec([2, 8, 2], seed=3))
        settings = train_settings(optimizer="sgd", epochs=3, learning_rate=0.1)
        trained = train_model(net, data, **settings)
        assert not np.array_equal(trained.params.values, net.params.values)

    def test_label_out_of_range_rejected(self, tmp_path, capsys):
        """Labels beyond the network's outputs stop `train` before any
        training: the task check exits 6, so `train_model` never sees them."""
        from oracles import save_csv

        inputs = np.arange(12.0).reshape(6, 2)
        save_csv(Dataset(inputs, np.array([0, 1, 2, 0, 1, 2]), class_count=3), tmp_path / "3.csv")
        task = {"dataset": "csv", "train_csv": str(tmp_path / "3.csv"),
                "eval_csv": str(tmp_path / "3.csv")}
        cfg = {"task": task, "model": {"layer_sizes": [2, 4, 2], "train": {"epochs": 1}},
               "output": {"dir": str(tmp_path / "out")}}
        (tmp_path / "train.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", str(tmp_path / "train.json")]) == 6
        assert capsys.readouterr().err == (
            "error: model maps 2 inputs to 2 classes, but the task has 2 features and 3 classes\n"
        )
        assert not (tmp_path / "out" / "model.ckpt").exists()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_reports_epoch_and_batch(self):
        data = make_spirals(64, seed=1)
        net = init_network(NetworkSpec([2, 8, 2], seed=0))
        # an absurd learning rate overflows the hidden-layer product to inf,
        # and the following loss evaluation sees inf - inf = nan
        settings = train_settings(optimizer="sgd", learning_rate=1e300, epochs=5)
        with pytest.raises(TrainingDivergenceError) as err:
            train_model(net, data, **settings)
        assert err.value.epoch >= 0
        assert err.value.batch >= 0

    def test_spiral_recipe_reaches_95_percent(self, spiral_task):
        """10 epochs of Adam at lr 0.001 separate the default spirals."""
        probs = softmax(forward(spiral_task.parent, spiral_task.test.inputs))
        assert accuracy(probs, spiral_task.test.labels) >= 0.95

    def test_forward_reproduces_recorded_training_accuracy(self):
        data = make_spirals(400, seed=5)
        net = init_network(NetworkSpec([2, 16, 2], seed=0))
        history = []
        trained = train_model(net, data, history, **train_settings(epochs=3))
        probs = softmax(forward(trained, data.inputs))
        assert accuracy(probs, data.labels) == history[-1]["accuracy"]


class TestTrainConfig:
    """`config.check` checks each `model.train` value before `train_model`
    takes the section as keywords."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"optimizer": "rmsprop"},
            {"learning_rate": 0.0},
            {"epochs": 0},
            {"batch_size": 0},
            {"adam_beta1": 1.0},
            {"adam_eps": 0.0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs, config_error):
        (key,) = kwargs
        model = {"layer_sizes": [2, 8, 2], "train": kwargs}
        assert config_error("train", model=model).startswith(f"model.train '{key}' must be")


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


# (hidden activation, optimizer settings, SHA-256 of the trained float64
# parameter vector, SHA-256 of training_log.csv), for a [2,16,16,2] net
# trained 2 epochs at batch 8 on 300 spiral samples.
TRAINING_GOLDENS = {
    "adam_relu": (
        "relu",
        {"optimizer": "adam", "learning_rate": 0.01},
        "6aeb68a7f8392ac056832f02909c25b6b83df4431921441da980c83edb464755",
        "216ce792492b66ff378b829391cbf71f321ebc9c8ffbfd34516d140fcbd8ccd0",
    ),
    "adam_tanh": (
        "tanh",
        {"optimizer": "adam", "learning_rate": 0.01},
        "698e7c0fecfc43771972103d6670162e1f84750589d162cf7f82a75ff21c470e",
        "c3b9aefaeac3c68e28da429efd29ed574fdcc146f860234a8b28272426b78640",
    ),
    "sgd": (
        "relu",
        {"optimizer": "sgd", "learning_rate": 0.1},
        "4653e3254c510a3773a4da10eb2324a35e006a9f4c54657501fee31e6dc196e6",
        "1f762af607fa341986ef7b0e0b1d1b74410422a23a5348898a7052df88cc7730",
    ),
}


def _train_config(tmp_path, activation, train):
    payload = {
        "task": {"dataset": "spirals", "n_train": 300, "n_eval": 200, "train_seed": 1},
        "model": {
            "layer_sizes": [2, 16, 16, 2],
            "hidden_activation": activation,
            "seed": 3,
            "train": train,
        },
        "output": {"dir": str(tmp_path / "out")},
    }
    path = tmp_path / "train.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _override_id(override: dict) -> str:
    return ",".join(f"{k}={json.dumps(v, separators=(',', ':'))}" for k, v in override.items())


class TestTrainingBytesPinned:
    @pytest.mark.parametrize("case", sorted(TRAINING_GOLDENS))
    def test_parameters_and_log_match_golden(self, case, tmp_path):
        activation, optimizer, params_sha, log_sha = TRAINING_GOLDENS[case]
        train = dict(optimizer, epochs=2, batch_size=8, shuffle_seed=5)
        net = init_network(NetworkSpec([2, 16, 16, 2], hidden_activation=activation, seed=3))
        before = net.params.values.copy()
        trained = train_model(net, make_spirals(300, seed=1), **train_settings(**train))
        assert _sha(trained.params.values.tobytes()) == params_sha
        assert np.array_equal(net.params.values.view(np.uint64), before.view(np.uint64))

        assert main(["train", "--config", _train_config(tmp_path, activation, train)]) == 0
        assert _sha((tmp_path / "out" / "training_log.csv").read_bytes()) == log_sha


class TestGradBuffer:
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_buffer_matches_allocating_call(self, rng, activation):
        spec = NetworkSpec([2, 5, 4, 3], hidden_activation=activation, seed=2)
        values = init_network(spec).params.values
        x, y = tiny_batch(rng, classes=3)
        loss, grad = loss_and_grad(spec, values, x, y)
        buf = np.full_like(values, np.nan)
        loss_buf, out = loss_and_grad(spec, values, x, y, grad=buf)
        assert out is buf
        assert loss_buf == loss
        assert np.array_equal(buf.view(np.uint64), grad.view(np.uint64))


class TestTrainConfigTypes:
    @pytest.mark.parametrize(
        "override",
        [
            {"epochs": 2.5},
            {"epochs": True},
            {"batch_size": 2.5},
            {"batch_size": "8"},
            {"shuffle_seed": 1.5},
            {"shuffle_seed": -1},
        ],
        ids=_override_id,
    )
    def test_non_integer_or_negative_exits_2(self, override, tmp_path, capsys):
        train = dict({"epochs": 1, "batch_size": 8, "shuffle_seed": 0}, **override)
        assert main(["train", "--config", _train_config(tmp_path, "relu", train)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "model.ckpt").exists()

    def test_numpy_integers_accepted(self):
        data = make_spirals(100, seed=5)
        net = init_network(NetworkSpec([2, 4, 2], seed=0))
        plain = train_model(net, data, **train_settings(epochs=2, batch_size=4, shuffle_seed=0))
        settings = dict(train_settings(), epochs=np.int64(2), batch_size=np.int32(4),
                        shuffle_seed=np.uint8(0))
        assert np.array_equal(train_model(net, data, **settings).params.values, plain.params.values)
