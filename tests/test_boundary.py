import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import smd.boundary as boundary
import smd.config as cfgmod
import smd.evolution as evolution
from smd.boundary import (
    _BLOCK,
    _BOUNDARY_NS,
    _SUB_BLOCK,
    BoundaryGrid,
    cell_tag,
    evaluate_grid,
    export_boundary_cells,
    grid_buffers,
    lattice_bounds,
    perturbed_network,
    write_grid_csv,
    write_grid_pgm,
)
from smd.checkpoint import save_checkpoint
from smd.cli import main
from smd.config import check, load_config
from smd.datasets import make_spirals
from smd.errors import ConfigurationError
from smd.mutation import Child, MutationParams, derive_seed
from smd.network import (
    Network,
    NetworkSpec,
    ParamVector,
    forward,
    hidden_layers,
    init_network,
    output_layer,
    softmax,
    workspace,
)

from oracles import seed_record_genome

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = CONFIG_DIR.parent / "src"


def evaluate(net, bounds, resolution):
    """`evaluate_grid` through buffers of its own, as a one-grid caller makes."""
    return evaluate_grid(net, bounds, resolution, grid_buffers(net.spec, resolution))


@pytest.fixture()
def data():
    return make_spirals(200, seed=17)


@pytest.fixture()
def net():
    return init_network(NetworkSpec([2, 8, 2], seed=18))


class TestLattice:
    def test_bounds_pad_ten_percent(self, data):
        x0, x1, y0, y1 = lattice_bounds(data)
        lo = data.inputs.min(axis=0)
        hi = data.inputs.max(axis=0)
        assert x0 == pytest.approx(lo[0] - 0.1 * (hi[0] - lo[0]))
        assert x1 == pytest.approx(hi[0] + 0.1 * (hi[0] - lo[0]))
        assert y1 == pytest.approx(hi[1] + 0.1 * (hi[1] - lo[1]))

    def test_grid_shapes(self, net, data):
        grid = evaluate(net, lattice_bounds(data), 50)
        assert grid.classes.shape == (50, 50)
        assert grid.confidence.shape == (50, 50)
        assert np.all((grid.confidence >= 0.5 - 1e-12) & (grid.confidence <= 1.0))


class TestPerturbedNetwork:
    def test_sigma_zero_returns_parent(self, net):
        assert perturbed_network(net, 0.0, 0.9, seed=1) is net

    def test_deterministic(self, net):
        a = perturbed_network(net, 0.1, 0.5, seed=2)
        b = perturbed_network(net, 0.1, 0.5, seed=2)
        assert np.array_equal(a.params.values, b.params.values)

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    def test_is_the_seed_record_genome(self, net, rho):
        values = net.params.values.copy()
        values[::3], values[1::3] = -0.0, 0.0  # frozen signed zeros show in the bytes
        parent = Network(net.spec, ParamVector(values))
        child = Child(
            seed=derive_seed(2, _BOUNDARY_NS, 1),
            mask_seed=derive_seed(2, _BOUNDARY_NS, 0),
            group=0,
            role="solo",
        )
        genome = seed_record_genome(parent.params, MutationParams(sigma=0.1, rho=rho), child)
        perturbed = perturbed_network(parent, 0.1, rho, seed=2)
        assert perturbed.params.values.tobytes() == genome.values.tobytes()
        assert parent.params.values.tobytes() == values.tobytes()


class TestPgm:
    def test_header_and_size(self, net, data, tmp_path):
        grid = evaluate(net, lattice_bounds(data), 200)
        path = tmp_path / "img.pgm"
        write_grid_pgm(grid, path)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n200 200\n255\n")
        assert len(blob) == len(b"P5\n200 200\n255\n") + 200 * 200

    def test_binary_classes_map_to_black_and_white(self, tmp_path):
        grid = BoundaryGrid(
            xs=np.array([0.0, 1.0]),
            ys=np.array([0.0, 1.0]),
            classes=np.array([[0, 1], [1, 0]]),
            confidence=np.ones((2, 2)),
        )
        path = tmp_path / "tiny.pgm"
        write_grid_pgm(grid, path)
        pixels = path.read_bytes()[len(b"P5\n2 2\n255\n"):]
        assert set(pixels) == {0, 255}


class TestExport:
    def test_two_by_two_grid_writes_eight_files(self, net, data, tmp_path):
        paths = export_boundary_cells(
            net, data, tmp_path, sigma_grid=[0.05, 0.25], rho_grid=[0.0, 0.9], resolution=20, seed=3
        )
        assert len(paths) == 8
        assert all(p.exists() for p in paths)
        names = {p.name for p in paths}
        assert f"boundary_{cell_tag(0.05, 0.0)}.csv" in names
        assert f"boundary_{cell_tag(0.25, 0.9)}.pgm" in names

    def test_sigma_zero_cell_reproduces_parent_boundary(self, net, data, tmp_path):
        export_boundary_cells(
            net, data, tmp_path, sigma_grid=[0.0], rho_grid=[0.9], resolution=30, seed=4
        )
        parent_grid = evaluate(net, lattice_bounds(data), 30)
        ref = tmp_path / "ref.pgm"
        write_grid_pgm(parent_grid, ref)
        produced = tmp_path / f"boundary_{cell_tag(0.0, 0.9)}.pgm"
        assert produced.read_bytes() == ref.read_bytes()

    def test_rerun_byte_identical(self, net, data, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        for d in (a_dir, b_dir):
            export_boundary_cells(
                net, data, d, sigma_grid=[0.1], rho_grid=[0.5], resolution=25, seed=5
            )
        for name in ("boundary_sigma0.1_rho0.5.csv", "boundary_sigma0.1_rho0.5.pgm"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_csv_schema(self, net, data, tmp_path):
        export_boundary_cells(
            net, data, tmp_path, sigma_grid=[0.1], rho_grid=[0.5], resolution=10, seed=6
        )
        lines = (tmp_path / "boundary_sigma0.1_rho0.5.csv").read_text().splitlines()
        assert lines[0] == "x,y,class,confidence"
        assert len(lines) == 1 + 10 * 10


def reference_csv(grid, path):
    """The writer's byte contract, spelled out with `csv.writer` and `repr`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "y", "class", "confidence"])
        for i, y in enumerate(grid.ys):
            for j, x in enumerate(grid.xs):
                writer.writerow(
                    [repr(float(x)), repr(float(y)), int(grid.classes[i, j]),
                     repr(float(grid.confidence[i, j]))]
                )


# Confidences whose repr takes each shape: exponent, subnormal, integral,
# short, large, negative zero.
SPECIAL_FLOATS = [1e-05, 5e-324, 1.0, 0.5, 1e16, -0.0]


@st.composite
def grids(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    values = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
    return BoundaryGrid(
        xs=np.array(draw(st.lists(values, min_size=cols, max_size=cols))),
        ys=np.array(draw(st.lists(values, min_size=rows, max_size=rows))),
        classes=np.array(
            draw(st.lists(st.integers(0, 9), min_size=rows * cols, max_size=rows * cols))
        ).reshape(rows, cols),
        confidence=np.array(
            draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
        ).reshape(rows, cols),
    )


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def deep_net():
    return init_network(NetworkSpec([2, 64, 64, 64, 2], seed=18))


class TestCsvBytes:
    def test_golden_sha256(self, net, data, tmp_path):
        grid = evaluate(net, lattice_bounds(data), 50)
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, path)
        assert sha256(path) == "e84cdc15a6b36c237e342c0d3a019aab7c7c464bd64ae46c441feed27eb40e06"

    def test_golden_sha256_multi_block(self, data, tmp_path):
        # 40,000 points: the lattice is forwarded in five blocks.
        grid = evaluate(deep_net(), lattice_bounds(data), 200)
        csv_path, pgm_path = tmp_path / "grid.csv", tmp_path / "grid.pgm"
        write_grid_csv(grid, csv_path)
        write_grid_pgm(grid, pgm_path)
        assert sha256(csv_path) == "d018b13cbbbdb0d62eb0d696c71a76bcf17ad190a934b2e7f9bc5e731c5a5e74"
        assert sha256(pgm_path) == "7d349f0d92c9c0aa4e7ede80a8baa50aaf2862f8da5a4f20822d9c9d17ff84cd"

    @settings(max_examples=60, deadline=None, database=None)
    @given(grids())
    @example(
        BoundaryGrid(
            xs=np.array([-0.0, 1e16]),
            ys=np.array([5e-324, 0.5, 1.0]),
            classes=np.arange(6).reshape(3, 2),
            confidence=np.array(SPECIAL_FLOATS).reshape(3, 2),
        )
    )
    def test_matches_csv_writer_reference(self, grid):
        with tempfile.TemporaryDirectory() as tmp:
            written, expected = Path(tmp, "written.csv"), Path(tmp, "expected.csv")
            write_grid_csv(grid, written)
            reference_csv(grid, expected)
            assert written.read_bytes() == expected.read_bytes()

    def test_peak_memory_is_linear_in_resolution(self, tmp_path):
        res = 400
        rng = np.random.default_rng(0)
        grid = BoundaryGrid(
            xs=np.linspace(-1.3, 1.7, res),
            ys=np.linspace(-2.1, 0.9, res),
            classes=rng.integers(0, 2, size=(res, res)),
            confidence=rng.uniform(0.5, 1.0, size=(res, res)),
        )
        path = tmp_path / "grid.csv"
        tracemalloc.start()
        try:
            write_grid_csv(grid, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # res^2 Python floats alone would take 24 * res^2 = 3.84 MB
        assert peak < 2_000 * res

    def test_evaluate_grid_peak_memory_is_bounded_by_the_block(self):
        net = deep_net()
        tracemalloc.start()
        try:
            evaluate(net, (-1.0, 1.0, -1.0, 1.0), 200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One call on all 40,000 points takes 2 x 40,000 x 64 floats (41 MB)
        # of activations; 8,000-point blocks take a fifth of that.
        assert peak < 16 * 2**20


class TestBlocks:
    @pytest.mark.parametrize("resolution", [89, 90, 200], ids=["one-block", "tail", "five-blocks"])
    def test_matches_one_call_on_the_whole_lattice(self, data, monkeypatch, resolution):
        net = deep_net()
        bounds = lattice_bounds(data)
        xs = np.linspace(bounds[0], bounds[1], resolution)
        ys = np.linspace(bounds[2], bounds[3], resolution)
        gx, gy = np.meshgrid(xs, ys)
        probs = softmax(forward(net, np.column_stack([gx.ravel(), gy.ravel()])))

        # Every buffer starts as a sentinel, so a cell left unwritten fails.
        empty = np.empty

        def sentinel(shape, dtype=float):
            buf = empty(shape, dtype)
            buf.fill(-1 if np.issubdtype(buf.dtype, np.integer) else np.nan)
            return buf

        monkeypatch.setattr(np, "empty", sentinel)
        grid = evaluate(net, bounds, resolution)
        monkeypatch.undo()

        assert np.array_equal(grid.classes.ravel(), probs.argmax(axis=1))
        np.testing.assert_allclose(grid.confidence.ravel(), probs.max(axis=1), rtol=0, atol=1e-15)

    def test_one_workspace_per_grid(self, net, monkeypatch):
        made, hidden, output = [], [], []

        def counting_workspace(spec, rows):
            made.append(rows)
            return workspace(spec, rows)

        def recording_hidden_layers(layers, activation, x, scratch):
            hidden.append((len(x), scratch))
            return hidden_layers(layers, activation, x, scratch)

        def recording_output_layer(layer, a):
            output.append(a)
            return output_layer(layer, a)

        buffers = grid_buffers(net.spec, 200)
        monkeypatch.setattr("smd.boundary.workspace", counting_workspace)
        monkeypatch.setattr("smd.boundary.hidden_layers", recording_hidden_layers)
        monkeypatch.setattr("smd.boundary.output_layer", recording_output_layer)
        evaluate_grid(net, (-1.0, 1.0, -1.0, 1.0), 200, buffers)
        # The grid allocates no workspace: each of the five blocks runs its
        # hidden layers in 32 sub-blocks of 250 points through the caller's
        # workspace, and its output layer once on the caller's block array.
        assert made == []
        assert [rows for rows, _ in hidden] == [250] * 32 * 5
        assert all(scratch is buffers[0] for _, scratch in hidden)
        assert len(output) == 5
        assert all(a.shape == (_BLOCK, 8) and a.base is buffers[1] for a in output)

    def test_one_workspace_per_export(self, net, data, tmp_path, monkeypatch):
        made, used = [], []

        def counting_workspace(spec, rows):
            made.append(rows)
            return workspace(spec, rows)

        def recording_evaluate_grid(net, bounds, resolution, buffers):
            used.append(buffers)
            return evaluate_grid(net, bounds, resolution, buffers)

        monkeypatch.setattr("smd.boundary.workspace", counting_workspace)
        monkeypatch.setattr("smd.boundary.evaluate_grid", recording_evaluate_grid)
        export_boundary_cells(
            net, data, tmp_path, sigma_grid=[0.05, 0.25], rho_grid=[0.0, 0.9], resolution=90, seed=3
        )
        # One sub-block workspace and one (block, last hidden width) array
        # serve all four cells.
        assert made == [_SUB_BLOCK]
        assert len(used) == 4
        assert all(buffers is used[0] for buffers in used)
        assert used[0][1].shape == (_BLOCK, 8)

    def test_export_peak_memory_is_one_block_of_last_hidden_activations(self, data, tmp_path):
        """Two cells at resolution 200 hold one block of last hidden
        activations, one sub-block workspace and one cell's grids. A
        workspace of two whole blocks (8.2 MB here), or a grid kept while
        the next cell's is made, passes the bound."""
        net = deep_net()
        resolution = 200
        tracemalloc.start()
        try:
            export_boundary_cells(
                net, data, tmp_path, sigma_grid=[0.0, 0.05], rho_grid=[0.9],
                resolution=resolution, seed=3,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        activations = _BLOCK * 64 * 8 + 2 * _SUB_BLOCK * 64 * 8
        assert peak < activations + 16 * resolution**2 + 2**20

    @pytest.mark.parametrize(
        "resolution", [90, 95, 200], ids=["tail", "one-row-tail", "five-blocks"]
    )
    @pytest.mark.parametrize(
        "sizes, seed", [([2, 64, 64, 64, 2], 18), ([2, 256, 256, 2], 0)], ids=["deep", "wide"]
    )
    def test_bytes_do_not_depend_on_the_sub_block(self, monkeypatch, sizes, seed, resolution):
        """Class and confidence bytes are the same for sub-blocks of 64 and
        256 points and for none (sub-blocks of a whole block). At resolution
        95 a tail block of 1,025 points cut at every 64 or 256 points would
        leave a one-point sub-block."""
        net = init_network(NetworkSpec(sizes, seed=seed))
        bounds = lattice_bounds(make_spirals(200, seed=1))
        grids = {}
        for sub_block in (64, 256, _BLOCK):
            monkeypatch.setattr(boundary, "_SUB_BLOCK", sub_block)
            grid = evaluate(net, bounds, resolution)
            grids[sub_block] = grid.classes.tobytes() + grid.confidence.tobytes()
        assert grids[64] == grids[_BLOCK]
        assert grids[256] == grids[_BLOCK]

    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        """`boundary` run as a child process with OPENBLAS_NUM_THREADS 1 and
        with 2 writes the same bytes, and the command gives the
        environment's count back. The export pins one thread, so both runs
        forward every block at one thread:
        `test_grid_bytes_do_not_depend_on_blas_threads` compares a two-thread
        forward with a one-thread one."""
        import smd.evolution

        if smd.evolution._blas_threads() is None:
            pytest.skip("numpy is not linked against OpenBLAS")
        ckpt = tmp_path / "wide.ckpt"
        save_checkpoint(init_network(NetworkSpec([2, 256, 256, 2], seed=3)), ckpt)
        payload = {
            "task": {"dataset": "spirals", "n_train": 200, "n_eval": 100},
            "model": {"checkpoint": str(ckpt)},
            "boundary": {"sigma_grid": [0.0, 0.05], "rho_grid": [0.9], "resolution": 100},
        }
        path = tmp_path / "boundary.json"
        path.write_text(json.dumps(payload))
        script = (
            "import sys\n"
            "import smd.cli, smd.evolution\n"
            "code = smd.cli.main(sys.argv[1:])\n"
            "print(smd.evolution._blas_threads()[0]())\n"
            "sys.exit(code)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC_DIR), os.environ.get("PYTHONPATH")) if p
        ))
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            done = subprocess.run(
                [sys.executable, "-c", script, "boundary", "--config", str(path), "--out", str(out)],
                env=dict(env, OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            assert done.stdout.splitlines()[-1] == threads
            written.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert len(written[0]) == 4
        assert written[0] == written[1]

    def test_grid_bytes_do_not_depend_on_blas_threads(self):
        """`evaluate_grid`, called outside the export's pin, gives the same
        class and confidence bytes at one OpenBLAS thread and at two, on a
        net whose 256 x 256 layer OpenBLAS splits between threads. At
        resolution 100 each cell forwards one 8,000-point block and one
        2,000-point block."""
        import smd.evolution

        blas = smd.evolution._blas_threads()
        if blas is None:
            pytest.skip("numpy is not linked against OpenBLAS")
        get_threads, set_threads = blas
        parent = init_network(NetworkSpec([2, 256, 256, 2], seed=3))
        bounds = lattice_bounds(make_spirals(200, seed=1))
        threads = get_threads()
        grids = {}
        try:
            for count in (1, 2):
                set_threads(count)
                if get_threads() != count:
                    pytest.skip(f"OpenBLAS runs at most {get_threads()} thread here")
                for sigma in (0.0, 0.05):
                    net = perturbed_network(parent, sigma, 0.9, seed=5)
                    grid = evaluate(net, bounds, 100)
                    grids[count, sigma] = grid.classes.tobytes() + grid.confidence.tobytes()
        finally:
            set_threads(threads)
        for sigma in (0.0, 0.05):
            assert grids[1, sigma] == grids[2, sigma]


class TestOneBlasThread:
    """The export runs every cell at one OpenBLAS thread and gives the
    caller's count back, also when a cell raises."""

    @pytest.fixture()
    def threads(self):
        """The OpenBLAS thread count getter, with the count set to 2 for the
        test and the previous count restored after it."""
        blas = evolution._blas_threads()
        if blas is None:
            pytest.skip("numpy is not linked against OpenBLAS")
        get_threads, set_threads = blas
        before = get_threads()
        set_threads(2)
        yield get_threads
        set_threads(before)

    def export(self, net, data, tmp_path):
        return export_boundary_cells(
            net, data, tmp_path, sigma_grid=[0.0, 0.05], rho_grid=[0.9], resolution=100, seed=3
        )

    def test_every_forward_runs_at_one_thread(self, net, data, tmp_path, monkeypatch, threads):
        seen, hidden = [], set()

        def recording_hidden_layers(layers, activation, x, scratch):
            hidden.add(threads())
            return hidden_layers(layers, activation, x, scratch)

        def recording_output_layer(layer, a):
            seen.append(threads())
            return output_layer(layer, a)

        monkeypatch.setattr("smd.boundary.hidden_layers", recording_hidden_layers)
        monkeypatch.setattr("smd.boundary.output_layer", recording_output_layer)
        assert threads() == 2
        self.export(net, data, tmp_path)
        # two cells, each one 8,000-point block and one 2,000-point block
        assert seen == [1, 1, 1, 1]
        assert hidden == {1}
        assert threads() == 2

    def test_the_callers_count_is_back_after_an_error(
        self, net, data, tmp_path, monkeypatch, threads
    ):
        def failing_output_layer(layer, a):
            raise FloatingPointError("a failing block")

        monkeypatch.setattr("smd.boundary.output_layer", failing_output_layer)
        with pytest.raises(FloatingPointError, match="a failing block"):
            self.export(net, data, tmp_path)
        assert threads() == 2
        assert not any(tmp_path.iterdir())

    def test_without_openblas_the_export_runs_unpinned(self, net, data, tmp_path, monkeypatch):
        monkeypatch.setattr(evolution, "_blas_threads", lambda: None)
        with evolution.one_blas_thread() as pinned:
            assert pinned is False
        assert len(self.export(net, data, tmp_path)) == 4


@pytest.fixture()
def boundary_run(tmp_path):
    """Write a config for `smd boundary` around a given boundary section."""
    ckpt = tmp_path / "parent.ckpt"
    save_checkpoint(init_network(NetworkSpec([2, 8, 2], seed=1)), ckpt)
    out = tmp_path / "out"

    def run(section):
        payload = {
            "task": {"dataset": "spirals", "n_train": 200, "n_eval": 100},
            "model": {"checkpoint": str(ckpt)},
            "boundary": section,
            "output": {"dir": str(out)},
        }
        path = tmp_path / "boundary.json"
        path.write_text(json.dumps(payload))
        return main(["boundary", "--config", str(path)]), out

    return run


def _override_id(override: dict) -> str:
    return ",".join(f"{k}={json.dumps(v, separators=(',', ':'))}" for k, v in override.items())


BASE_SECTION = {"sigma_grid": [0.05, 0.25], "rho_grid": [0.0, 0.9], "resolution": 8, "seed": 13}


class TestStrictBoundarySection:
    @pytest.mark.parametrize(
        "override",
        [
            {"resolution": 0},
            {"resolution": -3},
            {"resolution": 2.7},
            {"resolution": "200"},
            {"resolution": True},
            {"seed": -1},
            {"seed": 1.5},
            {"sigma_grid": [0.05, 0.05]},
            {"sigma_grid": [0.05, 0.0500000001]},
            {"rho_grid": []},
            {"sigma_grid": []},
            {"sigma_grid": [-0.1]},
            {"sigma_grid": ["0.1"]},
            {"sigma_grid": 0.1},
            {"rho_grid": [1.0]},
            {"rho_grid": [-0.5]},
            {"rho_grid": [True]},
        ],
        ids=_override_id,
    )
    def test_bad_value_exits_2(self, boundary_run, override, capsys):
        code, out = boundary_run(dict(BASE_SECTION, **override))
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not any(out.glob("boundary_*"))

    def test_resolution_beyond_the_grid_bound_exits_2(self, boundary_run, monkeypatch, capsys):
        monkeypatch.setattr(cfgmod, "_BOUNDARY_GRID_BYTES", 16 * 200**2)
        code, out = boundary_run(dict(BASE_SECTION, resolution=201))
        assert code == 2
        assert capsys.readouterr().err == (
            "error: boundary.resolution 201 needs 646416 bytes of grid arrays "
            "(16 per lattice point), above the bound of 640000\n"
        )
        assert not any(out.glob("boundary_*"))
        cfg = load_config(CONFIG_DIR / "spiral_boundary.json")  # the shipped 200 sits at the bound
        assert check(cfg, "boundary", str(out))["boundary"]["resolution"] == 200

    @pytest.mark.parametrize("resolution, fits", [(8192, True), (8193, False), (1000000, False)])
    def test_one_gib_of_grid_arrays_bounds_the_resolution(self, tmp_path, resolution, fits):
        cfg = {
            "task": {},
            "model": {"checkpoint": "unread.ckpt"},
            "boundary": {"sigma_grid": [0], "rho_grid": [0.5], "resolution": resolution},
        }
        if fits:
            assert check(cfg, "boundary", str(tmp_path))["boundary"]["resolution"] == resolution
        else:
            with pytest.raises(ConfigurationError, match=f"^boundary.resolution {resolution} "):
                check(cfg, "boundary", str(tmp_path))

    def test_shipped_config_passes(self, tmp_path):
        cfg = load_config(CONFIG_DIR / "spiral_boundary.json")
        section = check(cfg, "boundary", str(tmp_path))["boundary"]
        assert section == {
            "sigma_grid": [0.05, 0.25],
            "rho_grid": [0.0, 0.9],
            "resolution": 200,
            "seed": 13,
        }

    def test_defaults(self, tmp_path):
        cfg = {
            "task": {},
            "model": {"checkpoint": "unread.ckpt"},
            "boundary": {"sigma_grid": [0], "rho_grid": [0.5]},
        }
        section = check(cfg, "boundary", str(tmp_path))["boundary"]
        assert section["resolution"] == 200 and section["seed"] == 0
        assert section["sigma_grid"] == [0.0]
