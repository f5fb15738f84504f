import numpy as np
import pytest

from smd.datasets import Dataset, SplitSpec, load_csv, make_spirals, split
from smd.errors import ConfigurationError, ParseError

from oracles import save_csv


class TestMakeSpirals:
    def test_class_balance_2500(self):
        data = make_spirals(2500, noise_std=0.05, turns=1.75, seed=1)
        assert data.n == 2500
        assert int((data.labels == 0).sum()) == 1250
        assert int((data.labels == 1).sum()) == 1250

    def test_deterministic(self):
        a = make_spirals(500, seed=9)
        b = make_spirals(500, seed=9)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_zero_noise_classes_disjoint(self):
        data = make_spirals(1000, noise_std=0.0, seed=2)
        rows0 = {r.tobytes() for r in data.inputs[data.labels == 0]}
        rows1 = {r.tobytes() for r in data.inputs[data.labels == 1]}
        assert not rows0 & rows1

    def test_radius_bound(self):
        for seed in range(5):
            data = make_spirals(2500, noise_std=0.05, seed=seed)
            radii = np.linalg.norm(data.inputs, axis=1)
            assert radii.max() <= 1.0 + 6 * 0.05

    def test_odd_n_rejected(self, config_error):
        # `config.check` owns the rule; `make_spirals` never sees an odd count.
        message = config_error("train", task={"n_train": 2501})
        assert message == "task 'n_train' must be even, half for each spiral, got 2501"

    def test_parametric_form_matches_at_zero_noise(self):
        # class-1 points are the class-0 curve rotated by pi
        data = make_spirals(200, noise_std=0.0, turns=1.0, seed=3)
        r = np.linalg.norm(data.inputs, axis=1)
        # radius equals the curve parameter t <= 1
        assert np.all(r <= 1.0 + 1e-12)


class TestSplit:
    def test_even_split_250(self):
        data = make_spirals(250, seed=4)
        a, b = split(data, SplitSpec((0.5, 0.5), seed=0))
        assert (a.n, b.n) == (125, 125)

    def test_remainder_goes_to_first(self):
        data = Dataset(np.arange(10).reshape(5, 2).astype(float), np.zeros(5, int), 1)
        a, b = split(data, SplitSpec((0.5, 0.5), seed=1))
        assert (a.n, b.n) == (3, 2)

    def test_empty_split_rejected(self):
        data = make_spirals(100, seed=5)
        with pytest.raises(ConfigurationError):
            split(data, SplitSpec((1.0, 0.0), seed=0))

    @pytest.mark.parametrize("seed", range(10))
    def test_disjoint_and_exhaustive(self, seed):
        data = make_spirals(200, seed=6)
        fractions = (0.3, 0.5, 0.2)
        parts = split(data, SplitSpec(fractions, seed=seed))
        assert sum(p.n for p in parts) == data.n
        all_rows = sorted(r.tobytes() for r in data.inputs)
        got_rows = sorted(r.tobytes() for p in parts for r in p.inputs)
        assert got_rows == all_rows

    def test_deterministic_per_seed(self):
        data = make_spirals(100, seed=7)
        a1, _ = split(data, SplitSpec((0.5, 0.5), seed=3))
        a2, _ = split(data, SplitSpec((0.5, 0.5), seed=3))
        assert np.array_equal(a1.inputs, a2.inputs)

    def test_fractions_validation(self, config_error):
        with pytest.raises(ConfigurationError):
            SplitSpec((0.5,))
        with pytest.raises(ConfigurationError):
            SplitSpec((0.6, 0.6))
        # `config.check` owns the sign of each fraction.
        message = config_error("train", task={"eval_fractions": [-0.1, 1.1]})
        assert message.startswith("task 'eval_fractions' must be")


class TestCsvRoundTrip:
    def test_spiral_round_trip(self, tmp_path):
        data = make_spirals(300, seed=8)
        path = tmp_path / "spirals.csv"
        save_csv(data, path)
        loaded = load_csv(path)
        assert np.array_equal(loaded.labels, data.labels)
        assert loaded.class_count == data.class_count
        np.testing.assert_allclose(loaded.inputs, data.inputs, atol=1e-6)

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("0.5,1.5,0\n-0.25,2.0,1\n")
        data = load_csv(path)
        assert data.n == 2
        assert data.class_count == 2

    def test_non_numeric_feature_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,label\n0.1,0.2,banana\n")
        with pytest.raises(ParseError, match="row 2"):
            load_csv(path)

    def test_ragged_row_named(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0.1,0.2,0\n0.3,1\n")
        with pytest.raises(ParseError, match="row 2"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="no samples"):
            load_csv(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("x,y,label\n")
        with pytest.raises(ParseError, match="no samples"):
            load_csv(path)

    def test_label_exceeding_declared_class_count(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("0.0,0.0,5\n")
        with pytest.raises(ParseError, match="class count"):
            load_csv(path, class_count=3)

    def test_negative_label(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("0.0,0.0,-1\n")
        with pytest.raises(ParseError, match="row 1"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(tmp_path / "nope.csv")


class TestDatasetInvariants:
    def test_rejects_label_out_of_range(self):
        with pytest.raises(ConfigurationError):
            Dataset(np.zeros((2, 2)), np.array([0, 5]), class_count=2)

    def test_rejects_nonfinite_inputs(self):
        with pytest.raises(ConfigurationError):
            Dataset(np.array([[np.inf, 0.0]]), np.array([0]), class_count=1)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            Dataset(np.zeros((3, 2)), np.array([0, 1]), class_count=2)
