import struct

import numpy as np
import pytest

from smd.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from smd.errors import CheckpointError
from smd.network import NetworkSpec, init_network


@pytest.fixture()
def net():
    return init_network(NetworkSpec([2, 8, 4, 3], hidden_activation="tanh", seed=21))


class TestRoundTrip:
    def test_spec_preserved(self, net, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert loaded.spec.layer_sizes == net.spec.layer_sizes
        assert loaded.spec.hidden_activation == "tanh"

    def test_values_quantized_to_float32(self, net, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        expected = net.params.values.astype(np.float32).astype(np.float64)
        assert np.array_equal(loaded.params.values, expected)

    def test_second_save_is_lossless(self, net, tmp_path):
        # float32 quantization happens once; re-saving a loaded model is exact
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(net, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_deterministic_bytes(self, net, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(net, p1)
        save_checkpoint(net, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestRejection:
    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_payload(self, net, tmp_path):
        path = tmp_path / "trunc.ckpt"
        save_checkpoint(net, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_trailing_garbage(self, net, tmp_path):
        path = tmp_path / "extra.ckpt"
        save_checkpoint(net, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "hdr.ckpt"
        path.write_bytes(MAGIC + b"\x05")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "sizes, w", [((2, 0, 2), 2), ((2,), 0)], ids=["a zero layer size", "one layer"]
    )
    def test_bad_layer_sizes_name_the_file(self, tmp_path, sizes, w):
        path = tmp_path / "sizes.ckpt"
        header = struct.pack(f"<I{len(sizes)}IBQ", len(sizes), *sizes, 0, w)
        path.write_bytes(MAGIC + header + bytes(4 * w))
        with pytest.raises(CheckpointError, match="layer sizes") as error:
            load_checkpoint(path)
        assert str(error.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_the_file(self, net, tmp_path, value):
        path = tmp_path / "values.ckpt"
        save_checkpoint(net, path)
        blob = bytearray(path.read_bytes())
        blob[-8:-4] = np.float32(value).tobytes()  # the second-to-last parameter
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="non-finite") as error:
            load_checkpoint(path)
        assert str(error.value).startswith(f"{path}: ")

    def test_unknown_activation_code(self, net, tmp_path):
        path = tmp_path / "act.ckpt"
        save_checkpoint(net, path)
        blob = bytearray(path.read_bytes())
        blob[4 + 4 + 4 * 4] = 9  # activation byte after magic, count, 4 sizes
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="activation"):
            load_checkpoint(path)
