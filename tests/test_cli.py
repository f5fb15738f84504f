import contextlib
import errno
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smd.checkpoint import save_checkpoint
from smd.cli import main
from smd.config import REQUIRED, SCHEMA, check, load_config, section
from smd.divergence import SWEEP_COLUMNS
from smd.errors import ConfigurationError
from smd.evolution import ABLATION_CSV_COLUMNS, EVAL_CSV_COLUMNS
from smd.network import Network, NetworkSpec, ParamVector, init_network

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = CONFIG_DIR.parent / "src"


# SHA-256 of the mask dump (`mask_dump`) of an evolve run for each strategy
# at rho 0.5, on `trained`'s checkpoint, keyed by (mirrored, anti_random,
# subspace_mode). Recorded when `evolve --dump-masks` wrote the same text;
# the report alone now rebuilds it byte for byte.
MASK_DUMPS = {
    (False, False, "dynamic"): "8fbcaf687b15d1a01f0e991d58d03d1ee069535ba4059620d0becc9670fdc718",
    (False, False, "static"): "97fc12df63e645ec6b21588883a1cc5f7120ee28e1f569d13266d1ee443f87bd",
    (False, True, "dynamic"): "85912ab759bdfe440aff0e20bbe2fab185aee0fb970963646b3b0af313992ecb",
    (False, True, "static"): "2e6cbf20e80d448f395c5440b8cbea444bae4994deb01d065a1eb9027336a0f3",
    (True, False, "dynamic"): "8100225b85a8b5e796167ed13a97ed532ecc869e8b11897a04a9f03b5cebdae9",
    (True, False, "static"): "6a72a7d7d62ebb8323615fc81e632d3b0c82f76d11cd9a9d029e46468492d5d7",
    (True, True, "dynamic"): "08857b5153b88ff5386709f97bcbc0df8c94035eb0c5a7a8c32781f2959dd240",
    (True, True, "static"): "00302664d595d49f34966d8e4f81804e4f56f1b3544edc129e7b4f130cb98b57",
}


def small_task(out_dir, n_eval=600):
    return {
        "dataset": "spirals",
        "n_train": 600,
        "n_eval": n_eval,
        "noise_std": 0.05,
        "turns": 1.75,
        "train_seed": 1,
        "eval_seed": 2,
        "split_seed": 3,
        "eval_fractions": [0.5, 0.5],
    }


def mask_dump(out):
    """One line per reported child, "<index> group=<g> role=<r> <RLE of its
    support>", rebuilt from eval_report.json's `per_child` seed records and
    `config.mutation` echo, and the parameters of the checkpoint in `out`."""
    from smd.checkpoint import load_checkpoint
    from smd.mutation import Child, MutationParams, child_patches

    from oracles import mask_to_rle

    report = json.loads((out / "eval_report.json").read_text())
    theta = load_checkpoint(out / "model.ckpt").params
    params = MutationParams(**report["config"]["mutation"])
    records = report["per_child"]
    children = [Child(c["seed"], c["mask_seed"], c["group"], c["role"]) for c in records]
    lines = []
    for c, (index, _) in zip(records, child_patches(theta, params, children), strict=True):
        support = np.zeros(theta.w, dtype=np.uint8)
        support[index] = 1
        lines.append(f"{c['index']} group={c['group']} role={c['role']} {mask_to_rle(support)}")
    return "\n".join(lines) + "\n"


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def count_forward(monkeypatch):
    """Counts every forward pass: each run of the layer loop that
    `network.forward` and `network.predict` share."""
    import smd.network

    calls, original = [], smd.network._layers

    def counting(spec, values, x, scratch):
        calls.append(len(x))
        return original(spec, values, x, scratch)

    monkeypatch.setattr(smd.network, "_layers", counting)
    return calls


@pytest.fixture()
def trained(tmp_path):
    """A small trained checkpoint plus its task section."""
    out = tmp_path / "out"
    cfg = {
        "task": small_task(out),
        "model": {
            "layer_sizes": [2, 16, 2],
            "seed": 7,
            "train": {"epochs": 5, "batch_size": 16},
        },
        "output": {"dir": str(out)},
    }
    path = write_config(tmp_path / "train.json", cfg)
    assert main(["train", "--config", path]) == 0
    return tmp_path, out, cfg


class TestTrainCommand:
    def test_writes_checkpoint_and_logs(self, trained):
        _, out, _ = trained
        assert (out / "model.ckpt").exists()
        log = (out / "training_log.csv").read_text().splitlines()
        assert log[0] == "epoch,train_loss,train_acc"
        assert len(log) == 1 + 5
        summary = json.loads((out / "train_summary.json").read_text())
        assert 0.0 <= summary["val_accuracy"] <= 1.0

    def test_rerun_byte_identical_checkpoint(self, trained, tmp_path):
        base, out, cfg = trained
        first = (out / "model.ckpt").read_bytes()
        cfg2 = dict(cfg, output={"dir": str(tmp_path / "out2")})
        path = write_config(base / "train2.json", cfg2)
        assert main(["train", "--config", path]) == 0
        assert (tmp_path / "out2" / "model.ckpt").read_bytes() == first

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "absent.json")]) == 2
        assert "absent.json" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the default output directory `out` is made here
        cfg = {"task": {"dataset": "spirals", "n_traim": 100}, "model": {}}
        path = write_config(tmp_path / "typo.json", cfg)
        assert main(["train", "--config", path]) == 2

    def test_training_divergence_exits_3(self, tmp_path):
        cfg = {
            "task": small_task(tmp_path / "out"),
            "model": {
                "layer_sizes": [2, 8, 2],
                "seed": 0,
                "train": {"optimizer": "sgd", "learning_rate": 1e300, "epochs": 3},
            },
            "output": {"dir": str(tmp_path / "out")},
        }
        path = write_config(tmp_path / "diverge.json", cfg)
        with np.errstate(all="ignore"):
            assert main(["train", "--config", path]) == 3

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_float32_overflow_exits_3_writing_nothing(self, tmp_path, capsys, optimizer):
        """An update that leaves finite float64 parameters beyond float32's
        range would store a checkpoint of infinities; training stops instead."""
        train = {"optimizer": optimizer, "learning_rate": 1e308, "epochs": 1, "batch_size": 100}
        cfg = {
            "task": {"dataset": "spirals", "n_train": 100},
            "model": {"layer_sizes": [2, 8, 2], "train": train},
        }
        out = tmp_path / "out"
        path = write_config(tmp_path / "overflow.json", cfg)
        with np.errstate(all="ignore"):
            assert main(["train", "--config", path, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: parameters outside the float32 range after epoch 0\n"
        )
        assert not any(out.iterdir())

    def test_shipped_spiral_config_hits_95_percent_validation(self, tmp_path):
        out = tmp_path / "shipped"
        code = main(
            ["train", "--config", str(CONFIG_DIR / "spiral_train.json"), "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "train_summary.json").read_text())
        assert summary["val_accuracy"] >= 0.95


class TestSearchCommand:
    def search_config(self, trained, grids=None):
        base, out, cfg = trained
        search = {
            "sigma_grid": [0.02, 0.05, 0.1, 0.2],
            "rho_grid": [0.0, 0.5, 0.9],
            "kl_target": 0.05,
            "kl_tolerance": 0.5,
            "samples_per_cell": 4,
            "probe_size": 300,
            "seed": 11,
        }
        if grids:
            search.update(grids)
        payload = {
            "task": cfg["task"],
            "model": {"checkpoint": str(out / "model.ckpt")},
            "mutation": {"search": search},
            "output": {"dir": str(out)},
        }
        return write_config(base / "search.json", payload), out

    def test_writes_result_and_sweep(self, trained):
        path, out = self.search_config(trained)
        code = main(["search", "--config", path])
        result = json.loads((out / "search_result.json").read_text())
        assert {"sigma", "rho", "mean_kl", "in_band"} <= set(result)
        assert code == (0 if result["in_band"] else 4)
        sweep = (out / "sweep.csv").read_text().splitlines()
        assert len(sweep) == 1 + 4 * 3

    def test_out_of_band_exits_4_but_writes(self, trained):
        # grid of one gentle cell: mean KL far below 0.05
        path, out = self.search_config(trained, {"sigma_grid": [0.001], "rho_grid": [0.9]})
        assert main(["search", "--config", path]) == 4
        result = json.loads((out / "search_result.json").read_text())
        assert result["in_band"] is False
        assert (out / "sweep.csv").exists()

    def test_single_cell_grid_returns_it(self, trained):
        path, out = self.search_config(trained, {"sigma_grid": [0.05], "rho_grid": [0.5]})
        main(["search", "--config", path])
        result = json.loads((out / "search_result.json").read_text())
        assert (result["sigma"], result["rho"]) == (0.05, 0.5)


class TestEvolveCommand:
    def evolve_config(self, trained, mutation=None, seed=0, **evolution):
        base, out, cfg = trained
        payload = {
            "task": cfg["task"],
            "model": {"checkpoint": str(out / "model.ckpt")},
            "mutation": mutation or {"sigma": 0.05, "rho": 0.5},
            "evolution": {
                "pop_size": 8,
                "top_k": 4,
                "generations": 1,
                "master_seed": seed,
                **evolution,
            },
            "output": {"dir": str(out)},
        }
        return write_config(base / "evolve.json", payload), out

    def test_report_artifacts(self, trained, capsys):
        path, out = self.evolve_config(trained)
        assert main(["evolve", "--config", path]) == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert list(report)[:5] == ["parent", "averaged", "ensemble", "per_child", "selected"]
        assert (out / "eval_report.csv").exists()
        line = capsys.readouterr().out.splitlines()[-1]
        for field in ("Acc", "NLL", "ECE", "eAcc", "eNLL", "eECE", "dAcc", "sigma", "rho", "KL"):
            assert field in line

    def test_failed_artifact_write_exits_2(self, trained, capsys):
        path, out = self.evolve_config(trained)
        (out / "eval_report.csv").mkdir()
        assert main(["evolve", "--config", path]) == 2
        assert capsys.readouterr().err == f"error: {out / 'eval_report.csv'}: Is a directory\n"
        # The set is written whole or not at all: the other artifact is not left behind.
        assert not (out / "eval_report.json").exists()

    def test_a_child_beyond_the_float32_range_exits_2(self, trained, capsys):
        """A float32-maximum checkpoint plus noise cannot be scored in float32."""
        base, out, _ = trained
        spec = NetworkSpec([2, 16, 2], seed=7)
        top = float(np.finfo(np.float32).max)
        parent = Network(spec, ParamVector(np.full(spec.param_count(), top)))
        save_checkpoint(parent, out / "model.ckpt")
        path, _ = self.evolve_config(trained, {"sigma": 1e37, "rho": 0.5})
        evolved = base / "evolved"
        assert main(["evolve", "--config", path, "--out", str(evolved)]) == 2
        assert capsys.readouterr().err == (
            "error: genome parameters beyond the float32 range cannot be scored\n"
        )
        assert not any(evolved.iterdir())

    def test_zero_strength_delta_zero(self, trained):
        path, out = self.evolve_config(trained, {"sigma": 1e-12, "rho": 0.5})
        assert main(["evolve", "--config", path]) == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert report["delta_acc"] == 0.0

    def test_search_result_artifact_feeds_evolve(self, trained):
        base, out, cfg = trained
        (out / "found.json").write_text(json.dumps({"sigma": 0.05, "rho": 0.9}))
        path, _ = self.evolve_config(trained, {"search_result": str(out / "found.json")})
        assert main(["evolve", "--config", path]) == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert report["config"]["mutation"]["sigma"] == 0.05
        assert report["config"]["mutation"]["rho"] == 0.9

    @pytest.mark.parametrize("form", ["search_result"])
    def test_strategy_keys_apply_to_search_forms(self, trained, form):
        base, out, cfg = trained
        (out / "found.json").write_text(json.dumps({"sigma": 0.05, "rho": 0.9}))
        mutation = {
            "search_result": str(out / "found.json"),
            "subspace_mode": "static", "anti_random": True, "mu": 0.001,
        }
        path, _ = self.evolve_config(trained, mutation)
        assert main(["evolve", "--config", path]) == 0
        report = json.loads((out / "eval_report.json").read_text())
        echo = report["config"]["mutation"]
        assert (echo["sigma"], echo["rho"]) == (0.05, 0.9)
        assert (echo["subspace_mode"], echo["anti_random"], echo["mu"]) == ("static", True, 0.001)
        assert "+M'" in {c["role"] for c in report["per_child"]}
        assert len({c["mask_seed"] for c in report["per_child"]}) == 1

    def test_repeats_records_all_runs(self, trained):
        path, out = self.evolve_config(trained, repeats=3)
        assert main(["evolve", "--config", path]) == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert len(report["repeats"]) == 3
        best = max(range(3), key=lambda r: report["repeats"][r]["ensemble_val_accuracy"])
        assert report["best_repeat"] == best

    def test_val_test_overlap_exits_5(self, trained, tmp_path):
        base, out, cfg = trained
        from oracles import save_csv
        from smd.datasets import make_spirals

        data = make_spirals(100, seed=50)
        csv_path = tmp_path / "same.csv"
        save_csv(data, csv_path)
        train_csv = tmp_path / "train.csv"
        save_csv(make_spirals(100, seed=51), train_csv)
        payload = {
            "task": {
                "dataset": "csv",
                "train_csv": str(train_csv),
                "val_csv": str(csv_path),
                "test_csv": str(csv_path),
            },
            "model": {"checkpoint": str(out / "model.ckpt")},
            "mutation": {"sigma": 0.05, "rho": 0.5},
            "evolution": {"pop_size": 4, "top_k": 2, "master_seed": 0},
            "output": {"dir": str(out)},
        }
        path = write_config(base / "overlap.json", payload)
        assert main(["evolve", "--config", path]) == 5

    def test_overlap_with_a_signed_zero_exits_5(self, trained, tmp_path, capsys):
        """A sample written `0.0` in one file and `-0.0` in the other is one
        sample: the hygiene check stops the run before anything is written."""
        base, out, cfg = trained
        files = {"train": "0.5,0.5,0\n0.1,0.2,1\n", "val": "0.0,1.0,0\n0.3,0.4,1\n",
                 "test": "-0.0,1.0,0\n0.6,0.7,1\n"}
        for name, body in files.items():
            (tmp_path / f"{name}.csv").write_text(body)
        payload = {
            "task": {"dataset": "csv", **{f"{n}_csv": str(tmp_path / f"{n}.csv") for n in files}},
            "model": {"checkpoint": str(out / "model.ckpt")},
            "mutation": {"sigma": 0.05, "rho": 0.5},
            "evolution": {"pop_size": 4, "top_k": 2, "master_seed": 0},
        }
        evolve_out = tmp_path / "evolve_out"
        path = write_config(base / "signed_zero.json", payload)
        assert main(["evolve", "--config", path, "--out", str(evolve_out)]) == 5
        assert capsys.readouterr().err == "error: validation and test sets share samples\n"
        assert not any(evolve_out.iterdir())

    @pytest.mark.parametrize("mirrored", [True, False])
    def test_dump_masks_match_child_support(self, trained, mirrored):
        """The report's seed records rebuild the drawn population, and the
        supports `mask_dump` rebuilds from them are the coordinates the
        oracle's genomes perturb."""
        from smd.checkpoint import load_checkpoint
        from smd.evolution import _GENERATION_NS
        from smd.mutation import MutationParams, derive_seed, spawn_mutations

        from oracles import rle_to_mask, seed_record_genome

        mutation = {"sigma": 0.05, "rho": 0.5, "mirrored": mirrored, "anti_random": True}
        path, out = self.evolve_config(trained, mutation)
        assert main(["evolve", "--config", path]) == 0
        parent = load_checkpoint(out / "model.ckpt")
        seed = derive_seed(0, _GENERATION_NS, 0)
        params = MutationParams(**mutation)
        children = spawn_mutations(parent.params, params, 8, seed)
        dump = mask_dump(out).splitlines()
        roles = set()
        for line, child in zip(dump, children, strict=True):
            _, group, role, rle = line.split(" ", 3)
            assert (group, role) == (f"group={child.group}", f"role={child.role}")
            roles.add(child.role)
            genome = seed_record_genome(parent.params, params, child)
            support = (genome.values != parent.params.values).astype(np.uint8)
            np.testing.assert_array_equal(rle_to_mask(rle), support)
        assert {"+M'"} <= roles

    @pytest.mark.parametrize("mirrored, anti_random, mode", sorted(MASK_DUMPS))
    def test_dump_masks_bytes_pinned(self, trained, mirrored, anti_random, mode):
        """The report alone rebuilds every child's support, and no support
        moved since the digests were taken."""
        mutation = {
            "sigma": 0.05, "rho": 0.5, "subspace_mode": mode,
            "mirrored": mirrored, "anti_random": anti_random,
        }
        path, out = self.evolve_config(trained, mutation)
        assert main(["evolve", "--config", path]) == 0
        digest = hashlib.sha256(mask_dump(out).encode()).hexdigest()
        assert digest == MASK_DUMPS[mirrored, anti_random, mode]

    @pytest.mark.parametrize("flag", [{"repeats": 0}, {"repeats": -3}])
    def test_nonpositive_count_flags_exit_2(self, trained, flag, capsys):
        """A count set below 1 in `evolution` names the key and runs nothing."""
        path, out = self.evolve_config(trained, **flag)
        assert main(["evolve", "--config", path]) == 2
        assert capsys.readouterr().err == (
            f"error: evolution 'repeats' must be an integer >= 1, got {flag['repeats']}\n"
        )
        assert not (out / "eval_report.json").exists()


class TestBoundaryCommand:
    def test_four_cells_eight_files(self, trained):
        base, out, cfg = trained
        payload = {
            "task": cfg["task"],
            "model": {"checkpoint": str(out / "model.ckpt")},
            "boundary": {
                "sigma_grid": [0.05, 0.25],
                "rho_grid": [0.0, 0.9],
                "resolution": 200,
                "seed": 13,
            },
            "output": {"dir": str(out / "boundary")},
        }
        path = write_config(base / "boundary.json", payload)
        assert main(["boundary", "--config", path]) == 0
        files = sorted(p.name for p in (out / "boundary").iterdir())
        assert len(files) == 8
        pgm = (out / "boundary" / "boundary_sigma0.05_rho0.pgm").read_bytes()
        assert pgm.startswith(b"P5\n200 200\n255\n")

    def test_non_2d_task_exits_6(self, trained, tmp_path):
        base, out, cfg = trained
        from smd.checkpoint import save_checkpoint
        from smd.network import NetworkSpec, init_network

        wide = init_network(NetworkSpec([3, 4, 2], seed=1))
        ckpt = tmp_path / "wide.ckpt"
        save_checkpoint(wide, ckpt)
        payload = {
            "task": cfg["task"],
            "model": {"checkpoint": str(ckpt)},
            "boundary": {"sigma_grid": [0.1], "rho_grid": [0.5]},
            "output": {"dir": str(out)},
        }
        path = write_config(base / "wide.json", payload)
        assert main(["boundary", "--config", path]) == 6


class TestAblateCommand:
    def test_row_count(self, trained):
        base, out, cfg = trained
        payload = {
            "task": cfg["task"],
            "model": {"checkpoint": str(out / "model.ckpt")},
            "ablation": {
                "sigma_grid": [0.05, 0.1],
                "rho_grid": [0.5],
                "modes": ["static", "dynamic"],
                "seeds": [0, 1],
                "pop_size": 4,
                "top_k": 2,
            },
            "output": {"dir": str(out)},
        }
        path = write_config(base / "ablate.json", payload)
        assert main(["ablate", "--config", path]) == 0
        rows = (out / "ablation.csv").read_text().splitlines()
        assert rows[0] == "sigma,rho,mode,seed,mean_kl,avg_acc,ens_acc"
        assert len(rows) == 1 + 2 * 1 * 2 * 2

    def test_rerun_identical(self, trained):
        base, out, cfg = trained
        payload = {
            "task": cfg["task"],
            "model": {"checkpoint": str(out / "model.ckpt")},
            "ablation": {
                "sigma_grid": [0.1],
                "rho_grid": [0.5],
                "modes": ["dynamic"],
                "seeds": [0],
                "pop_size": 4,
                "top_k": 2,
            },
            "output": {"dir": str(out)},
        }
        path = write_config(base / "ablate.json", payload)
        assert main(["ablate", "--config", path]) == 0
        first = (out / "ablation.csv").read_bytes()
        assert main(["ablate", "--config", path]) == 0
        assert (out / "ablation.csv").read_bytes() == first


@pytest.fixture()
def ablate_run(tmp_path):
    """Run `smd ablate` on a tiny [2, 8, 2] checkpoint around a given section."""
    ckpt = tmp_path / "parent.ckpt"
    save_checkpoint(init_network(NetworkSpec([2, 8, 2], seed=1)), ckpt)
    out = tmp_path / "out"

    def run(section):
        payload = {
            "task": {"dataset": "spirals", "n_train": 200, "n_eval": 100},
            "model": {"checkpoint": str(ckpt)},
            "ablation": section,
            "output": {"dir": str(out)},
        }
        path = write_config(tmp_path / "ablate.json", payload)
        return main(["ablate", "--config", path]), out

    return run


ABLATION_BASE = {
    "sigma_grid": [0.05],
    "rho_grid": [0.5],
    "modes": ["dynamic"],
    "seeds": [0],
    "pop_size": 4,
    "top_k": 2,
}


class TestStrictAblationSection:
    @pytest.mark.parametrize(
        "override",
        [
            {"sigma_grid": [0.0]},
            {"sigma_grid": [-0.1]},
            {"sigma_grid": ["0.1"]},
            {"sigma_grid": []},
            {"sigma_grid": 0.1},
            {"rho_grid": [1.0]},
            {"rho_grid": [-0.5]},
            {"rho_grid": [True]},
            {"seeds": [1.5]},
            {"seeds": [-1]},
            {"seeds": ["0"]},
            {"seeds": [True]},
            {"seeds": []},
            {"seeds": 0},
            {"pop_size": "4"},
            {"pop_size": 4.9},
            {"pop_size": 0},
            {"pop_size": True},
            {"top_k": 0},
            {"top_k": 2.5},
            {"modes": []},
            {"modes": ["random"]},
            {"modes": "static"},
        ],
        ids=lambda o: ",".join(f"{k}={json.dumps(v, separators=(',', ':'))}" for k, v in o.items()),
    )
    def test_bad_value_exits_2(self, ablate_run, override, capsys):
        code, out = ablate_run(dict(ABLATION_BASE, **override))
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize(
        "override, error",
        [({"pop_size": 4, "top_k": 5}, "top_k must lie in [1, pop_size]"),
         ({"pop_size": 3}, "pop_size divisible by 2")],
        ids=["top_k above pop_size", "pop_size in part pairs"],
    )
    def test_sizes_fail_before_any_forward_pass(
        self, ablate_run, monkeypatch, capsys, override, error
    ):
        calls = count_forward(monkeypatch)
        code, out = ablate_run(dict(ABLATION_BASE, **override))
        assert code == 2
        assert error in capsys.readouterr().err
        assert calls == []
        assert not any(out.iterdir())

    def test_base_section_runs(self, ablate_run):
        code, out = ablate_run(ABLATION_BASE)
        assert code == 0
        assert len((out / "ablation.csv").read_text().splitlines()) == 2

    def test_shipped_config_passes(self, tmp_path):
        cfg = load_config(CONFIG_DIR / "spiral_ablate.json")
        section = check(cfg, "ablate", str(tmp_path))["ablation"]
        assert section == {
            "sigma_grid": [0.05, 0.1, 0.15, 0.2, 0.25],
            "rho_grid": [0.0, 0.3, 0.6, 0.9],
            "modes": ["static", "dynamic"],
            "seeds": [0, 1, 2, 3, 4],
            "pop_size": 16,
            "top_k": 4,
        }

    def test_defaults(self, tmp_path):
        cfg = {
            "task": {},
            "model": {"checkpoint": "unread.ckpt"},
            "ablation": {"sigma_grid": [1], "rho_grid": [0], "seeds": [2]},
        }
        section = check(cfg, "ablate", str(tmp_path))["ablation"]
        assert section == {
            "sigma_grid": [1.0],
            "rho_grid": [0.0],
            "modes": ["dynamic"],
            "seeds": [2],
            "pop_size": 16,
            "top_k": 4,
        }


class TestAblateWorkers:
    """`ablate` runs the sweep points on one forked worker per usable CPU
    and writes the same bytes for any number of workers."""

    # rho 0 and rho > 0 in both modes: 12 distinct points for 16 rows.
    GRID = dict(ABLATION_BASE, sigma_grid=[0.05, 0.1], rho_grid=[0.0, 0.5],
                modes=["static", "dynamic"], seeds=[0, 1])

    @pytest.fixture()
    def cpus(self, monkeypatch):
        """Sets the usable CPU count `ablate` sees."""
        import smd.cli

        return lambda n: monkeypatch.setattr(smd.cli, "_usable_cpus", lambda: n)

    def test_csv_identical_for_every_worker_count(self, ablate_run, cpus):
        written = set()
        for n in (1, 2, 3):
            cpus(n)
            code, out = ablate_run(self.GRID)
            assert code == 0
            written.add((out / "ablation.csv").read_bytes())
        assert len(written) == 1
        assert len(written.pop().splitlines()) == 1 + 16

    def test_worker_error_exits_2_with_no_csv(self, ablate_run, cpus, capsys):
        cpus(2)
        code, out = ablate_run(dict(self.GRID, sigma_grid=[0.05, 1e39]))
        assert code == 2
        assert "error: mutation 'mu' 0.0 and 'sigma' 1e+39" in capsys.readouterr().err
        assert not any(out.iterdir())
        with pytest.raises(ChildProcessError):  # every worker is reaped
            os.waitpid(-1, os.WNOHANG)

    def test_a_worker_that_dies_exits_7_with_no_csv(self, ablate_run, cpus, monkeypatch, capsys):
        import smd.evolution

        cpus(2)
        command = os.getpid()

        def die(*args, **kwargs):
            # Only the workers may run `_evolve`; the command process scores the parent.
            assert os.getpid() != command, "a sweep point ran in the command process"
            os._exit(3)

        monkeypatch.setattr(smd.evolution, "_evolve", die)
        code, out = ablate_run(self.GRID)
        assert code == 7
        assert capsys.readouterr().err == (
            "error: a worker process died before it returned its results\n"
        )
        assert not any(out.iterdir())
        with pytest.raises(ChildProcessError):  # every worker is reaped
            os.waitpid(-1, os.WNOHANG)

    def test_usable_cpus_at_least_one(self, monkeypatch):
        """`run_ablation` takes its worker count from `_usable_cpus` and
        does not check it again."""
        import smd.cli

        assert smd.cli._usable_cpus() >= 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert smd.cli._usable_cpus() == 1

    @pytest.mark.parametrize("base", ["train", "search", "evolve", "boundary", "ablate"])
    def test_other_commands_import_no_multiprocessing(self, key_bases, tmp_path, base):
        """No command imports `multiprocessing` or `concurrent.futures`, not
        even where `ablate`'s sweep and `evolve`'s scoring fork workers: the
        script forces two workers and a forked scoring pass."""
        import smd.evolution

        inputs, bases = key_bases
        command, cfg = bases[base]
        if base == "ablate":  # two sweep points, so there is a second worker to fork
            cfg = dict(cfg, ablation=dict(cfg["ablation"], seeds=[0, 1]))
        path = write_config(tmp_path / "config.json", dict(cfg, output={"dir": str(tmp_path)}))
        script = (
            "import os, sys\n"
            "import smd.cli, smd.evolution\n"
            "smd.cli._usable_cpus = lambda: 2\n"
            "smd.evolution._FORK_MIN_MACS = 0\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "code = smd.cli.main(sys.argv[1:])\n"
            "print(len(forks), 'multiprocessing' in sys.modules, 'concurrent' in sys.modules)\n"
            "sys.exit(code)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC_DIR), os.environ.get("PYTHONPATH")) if p
        ))
        done = subprocess.run(
            [sys.executable, "-c", script, command, "--config", path],
            cwd=inputs, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        forks = 2 if command in ("evolve", "ablate") and smd.evolution._blas_threads() else 0
        assert done.stdout.splitlines()[-1] == f"{forks} False False"


class TestEvolveWorkers:
    """`evolve` scores each population on one forked worker per usable CPU
    once the pass reaches the break-even size, which these tests set to 0,
    and writes the same bytes for any number of workers."""

    @pytest.fixture()
    def forked(self, monkeypatch):
        """Forces forked scoring; returns a setter of the usable CPU count
        and the os.fork calls made in this process."""
        import smd.cli
        import smd.evolution

        monkeypatch.setattr(smd.evolution, "_FORK_MIN_MACS", 0)
        calls, real = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: calls.append(1) or real())

        def cpus(n):
            monkeypatch.setattr(smd.cli, "_usable_cpus", lambda: n)

        return cpus, calls

    def evolve(self, trained, sigma=0.05, repeats=1):
        """Exit code and output directory of a two-generation `evolve` on
        `trained`'s checkpoint; the directory is new to the run."""
        base, out, cfg = trained
        evolved = base / "evolved"
        payload = {
            "task": cfg["task"],
            "model": {"checkpoint": str(out / "model.ckpt")},
            "mutation": {"sigma": sigma, "rho": 0.5},
            "evolution": {
                "pop_size": 8, "top_k": 4, "generations": 2, "master_seed": 3, "repeats": repeats
            },
            "output": {"dir": str(evolved)},
        }
        path = write_config(base / "evolve.json", payload)
        return main(["evolve", "--config", path]), evolved

    def test_report_identical_for_one_and_two_workers(self, trained, forked):
        cpus, calls = forked
        written = []
        for n in (1, 2):
            cpus(n)
            code, evolved = self.evolve(trained, 0.05, repeats=2)
            assert code == 0
            written.append([(evolved / f).read_bytes() for f in ("eval_report.json", "eval_report.csv")])
            # 2 repeats x 2 generations, each pass scored on n workers.
            assert len(calls) == (0 if n == 1 else 2 * 2 * 2)
        assert written[0] == written[1]
        assert len(json.loads(written[0][0])["repeats"]) == 2

    def test_worker_error_exits_2_with_no_artifacts(self, trained, forked, capsys):
        cpus, calls = forked
        cpus(2)
        code, evolved = self.evolve(trained, 1e39)
        assert code == 2
        assert "error: mutation 'mu' 0.0 and 'sigma' 1e+39" in capsys.readouterr().err
        assert len(calls) == 2
        assert not any(evolved.iterdir())
        with pytest.raises(ChildProcessError):  # every worker is reaped
            os.waitpid(-1, os.WNOHANG)

    def test_a_worker_that_dies_exits_7_with_no_artifacts(
        self, trained, forked, monkeypatch, capsys
    ):
        import smd.evolution

        cpus, calls = forked
        cpus(2)
        command = os.getpid()

        def die(*args):
            # Only the workers may score children; the command process reports.
            assert os.getpid() != command, "a child was scored in the command process"
            os._exit(3)

        monkeypatch.setattr(smd.evolution, "predict", die)
        code, evolved = self.evolve(trained)
        assert code == 7
        assert capsys.readouterr().err == (
            "error: a worker process died before it returned its results\n"
        )
        assert len(calls) == 2
        assert not any(evolved.iterdir())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_failed_fork_is_not_a_configuration_error(self, trained, forked, monkeypatch):
        cpus, _ = forked
        cpus(2)

        def fail():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", fail)
        with pytest.raises(BlockingIOError):
            self.evolve(trained)

    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        """`evolve` on a net whose 256 x 256 layer OpenBLAS splits between
        threads writes the same bytes at one BLAS thread, at two, and on two
        forked one-thread workers. Each run is a child process with its own
        OPENBLAS_NUM_THREADS."""
        blas_thread_runs(
            tmp_path, "evolve",
            {
                "mutation": {"sigma": 0.01, "rho": 0.9},
                "evolution": {"pop_size": 8, "top_k": 4, "generations": 1, "master_seed": 0},
            },
            ("eval_report.json", "eval_report.csv"),
        )


class TestBlasThreads:
    """`search` and `ablate` write the same bytes at one OpenBLAS thread and
    at two, and `ablate` on two forked one-thread workers too: the float32
    GEMM of a scoring pass may not depend on how OpenBLAS splits it."""

    def test_search(self, tmp_path):
        search = {
            "sigma_grid": [0.01, 0.02], "rho_grid": [0.5, 0.9], "kl_target": 0.001,
            "kl_tolerance": 0.9, "samples_per_cell": 4, "probe_size": 500, "seed": 1,
        }
        blas_thread_runs(
            tmp_path, "search", {"mutation": {"search": search}},
            ("search_result.json", "sweep.csv"), forks=0,
        )

    def test_ablate(self, tmp_path):
        ablation = {
            "sigma_grid": [0.01], "rho_grid": [0.0, 0.9], "modes": ["static", "dynamic"],
            "seeds": [0], "pop_size": 4, "top_k": 2,
        }
        blas_thread_runs(tmp_path, "ablate", {"ablation": ablation}, ("ablation.csv",))


def blas_thread_runs(tmp_path, command, sections, artifacts, forks=2):
    """Run `command` with `sections` on a [2, 256, 256, 2] checkpoint and a
    500-row validation set in child processes: serially at
    OPENBLAS_NUM_THREADS 1 and 2, then with two usable CPUs (and forked
    scoring at any size) at 2, which forks `forks` workers. Each run must
    keep its thread count, and all must write the same `artifacts` bytes."""
    import smd.evolution

    if smd.evolution._blas_threads() is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    ckpt = tmp_path / "wide.ckpt"
    save_checkpoint(init_network(NetworkSpec([2, 256, 256, 2], seed=3)), ckpt)
    payload = {
        "task": small_task(tmp_path, n_eval=1000),
        "model": {"checkpoint": str(ckpt)},
        **sections,
    }
    path = write_config(tmp_path / f"{command}.json", payload)
    script = (
        "import os, sys\n"
        "import smd.cli, smd.evolution\n"
        "forked = sys.argv[1] == 'forked'\n"
        "smd.cli._usable_cpus = lambda: 2 if forked else 1\n"
        "smd.evolution._FORK_MIN_MACS = 0 if forked else smd.evolution._FORK_MIN_MACS\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "code = smd.cli.main(sys.argv[2:])\n"
        "print(smd.evolution._blas_threads()[0](), len(forks))\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC_DIR), os.environ.get("PYTHONPATH")) if p
    ))
    written = []
    for how, threads, forked in (("serial", "1", 0), ("serial", "2", 0), ("forked", "2", forks)):
        out = tmp_path / f"{how}{threads}"
        done = subprocess.run(
            [sys.executable, "-c", script, how, command, "--config", path, "--out", str(out)],
            env=dict(env, OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == f"{threads} {forked}"
        written.append([(out / f).read_bytes() for f in artifacts])
    assert written[0] == written[1] == written[2]


def assert_flag_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestRemovedFlags:
    def test_each_command_takes_only_config_and_out(self):
        """Every other setting is a config key, so the config file is the whole run."""
        from smd.cli import build_parser

        (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
        assert sorted(commands.choices) == ["ablate", "boundary", "evolve", "search", "train"]
        for name, parser in commands.choices.items():
            flags = {flag for a in parser._actions for flag in a.option_strings}
            assert flags - {"-h", "--help"} == {"--config", "--out"}, name

    @pytest.mark.parametrize("command", ["train", "search", "evolve", "boundary", "ablate"])
    def test_repeats_rejected(self, tmp_path, command, capsys):
        """Best-of-R runs are set by the config key `evolution.repeats`."""
        argv = [command, "--config", str(tmp_path / "unread.json"), "--repeats", "2"]
        assert_flag_rejected(argv, capsys)

    @pytest.mark.parametrize("command", ["train", "search", "evolve", "boundary", "ablate"])
    def test_workers_rejected(self, tmp_path, command, capsys):
        argv = [command, "--config", str(tmp_path / "unread.json"), "--workers", "2"]
        assert_flag_rejected(argv, capsys)

    @pytest.mark.parametrize("command", ["train", "search", "evolve", "boundary", "ablate"])
    def test_dump_masks_rejected(self, tmp_path, command, capsys):
        """The report's seed records rebuild what the dump wrote (`mask_dump`)."""
        argv = [command, "--config", str(tmp_path / "unread.json"), "--dump-masks"]
        assert_flag_rejected(argv, capsys)


# Valid alternative values for each evolution key and each mutation
# strategy key, all different from the `contract_base` config's values.
CONTRACT_ALTERNATIVES = st.one_of(
    st.tuples(st.just(("evolution", "pop_size")), st.sampled_from([4, 6, 10, 12])),
    st.tuples(st.just(("evolution", "top_k")), st.sampled_from([1, 3, 4, 8])),
    st.tuples(st.just(("evolution", "generations")), st.integers(2, 3)),
    st.tuples(st.just(("evolution", "master_seed")), st.integers(1, 2**32)),
    st.tuples(st.just(("mutation", "mu")), st.sampled_from([-0.02, 0.01, 0.05])),
    st.tuples(st.just(("mutation", "subspace_mode")), st.just("static")),
    st.tuples(st.just(("mutation", "mirrored")), st.just(False)),
    st.tuples(st.just(("mutation", "anti_random")), st.just(True)),
)


@pytest.fixture(scope="module")
def contract_base(tmp_path_factory):
    """An explicit-mutation evolve config on a tiny [2, 8, 2] task, and the
    outcome of running it."""
    from smd.checkpoint import save_checkpoint
    from smd.network import Network, NetworkSpec, ParamVector, init_network

    base = tmp_path_factory.mktemp("contract")
    save_checkpoint(init_network(NetworkSpec([2, 8, 2], seed=5)), base / "tiny.ckpt")
    task = dict(small_task(base, n_eval=200), n_train=100)
    cfg = {
        "task": task,
        "model": {"checkpoint": str(base / "tiny.ckpt")},
        "mutation": {
            "sigma": 0.05, "rho": 0.5, "mu": 0.0, "subspace_mode": "dynamic",
            "mirrored": True, "anti_random": False,
        },
        "evolution": {"pop_size": 8, "top_k": 2, "generations": 1, "master_seed": 0},
    }
    return cfg, _evolve_outcome(cfg)


def _evolve_outcome(cfg):
    """Exit code and report of `evolve`, minus the config and seed echoes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp) / "evolve.json", cfg)
        code = main(["evolve", "--config", path, "--out", tmp])
        if code != 0:
            return code, None
        report = json.loads((Path(tmp) / "eval_report.json").read_text())
    return code, {k: v for k, v in report.items() if k not in ("config", "seed")}


# sigma > 0, so the seed draws the one perturbation of the cell.
BOUNDARY_CONTRACT_BASE = {"sigma_grid": [0.05], "rho_grid": [0.5], "resolution": 8, "seed": 13}


def _written_bytes(command, cfg):
    """The exit code, and the name and bytes of each file one run writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp) / f"{command}.json", cfg)
        out = Path(tmp) / "out"
        code = main([command, "--config", path, "--out", str(out)])
        return code, {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.fixture(scope="module")
def key_bases(tmp_path_factory):
    """The input directory, and one small valid config per command, with
    variants for the csv task forms and the other mutation forms, as
    (command, config) by base name. Paths are relative to the input
    directory, the working directory of each run, so a changed value names
    another file there."""
    from oracles import save_csv
    from smd.datasets import make_spirals

    inputs = tmp_path_factory.mktemp("key_inputs")
    for seed in (5, 6):
        save_checkpoint(init_network(NetworkSpec([2, 8, 2], seed=seed)), inputs / f"net{seed}.ckpt")
    # Seeds apart from the spirals task's, which would draw the same samples.
    for name, n, seed in [("train", 100, 11), ("train2", 100, 12), ("eval", 200, 13),
                          ("eval2", 200, 14), ("val", 100, 15), ("val2", 100, 16),
                          ("test", 100, 17), ("test2", 100, 18)]:
        save_csv(make_spirals(n, seed=seed), inputs / f"{name}.csv")
    for name, sigma in (("found", 0.05), ("found2", 0.1)):
        (inputs / f"{name}.json").write_text(json.dumps({"sigma": sigma, "rho": 0.5}))

    spirals = {"dataset": "spirals", "n_train": 100, "n_eval": 200, "noise_std": 0.05,
               "turns": 1.75, "train_seed": 1, "eval_seed": 2, "split_seed": 3,
               "eval_fractions": [0.5, 0.5]}
    csv = {"dataset": "csv", "train_csv": "train.csv", "eval_csv": "eval.csv"}
    split_csv = {"dataset": "csv", "train_csv": "train.csv", "val_csv": "val.csv",
                 "test_csv": "test.csv"}
    fresh = {
        "layer_sizes": [2, 8, 2], "hidden_activation": "relu", "seed": 0,
        "train": {
            "optimizer": "adam", "learning_rate": 0.01, "epochs": 2, "batch_size": 16,
            "adam_beta1": 0.9, "adam_beta2": 0.999, "adam_eps": 1e-8, "shuffle_seed": 0,
        },
    }
    parent = {"checkpoint": "net5.ckpt"}
    explicit = {"sigma": 0.05, "rho": 0.5, "mu": 0.0, "subspace_mode": "dynamic",
                "mirrored": True, "anti_random": False}
    search = {"sigma_grid": [0.2, 0.5, 1.0], "rho_grid": [0.0, 0.5], "kl_target": 0.05,
              "kl_tolerance": 0.5, "samples_per_cell": 2, "probe_size": 80, "seed": 0}
    evolution = {"pop_size": 8, "top_k": 2, "generations": 1, "master_seed": 0}
    evolve = {"task": spirals, "model": parent, "mutation": explicit, "evolution": evolution}
    bases = {
        "train": ("train", {"task": spirals, "model": fresh, "output": {"dir": "out"}}),
        "train_csv": ("train", {"task": csv, "model": fresh}),
        "search": ("search", {"task": spirals, "model": parent, "mutation": {"search": search}}),
        "evolve": ("evolve", evolve),
        "evolve_csv": ("evolve", dict(evolve, task=csv)),
        "evolve_split_csv": ("evolve", dict(evolve, task=split_csv)),
        "evolve_found": ("evolve", dict(evolve, mutation={"search_result": "found.json"})),
        "boundary": ("boundary", {"task": spirals, "model": parent,
                                  "boundary": BOUNDARY_CONTRACT_BASE}),
        "ablate": ("ablate", {"task": spirals, "model": parent, "ablation": {
            "sigma_grid": [0.05], "rho_grid": [0.5], "modes": ["dynamic"], "seeds": [0],
            "pop_size": 4, "top_k": 2}}),
    }
    return inputs, bases


SCHEMA_KEYS = [(name, key) for name, keys in SCHEMA.items() for key in keys]

# For every SCHEMA key, the base config whose run it must change, and a
# valid value other than the base's. `task.dataset` also drops the csv
# paths, which a spirals task does not read.
KEY_CHANGES = {
    "task.dataset": ("train_csv", "spirals"),
    "task.n_train": ("train", 120),
    "task.n_eval": ("evolve", 240),
    "task.noise_std": ("train", 0.1),
    "task.turns": ("train", 1.5),
    "task.train_seed": ("train", 9),
    "task.eval_seed": ("evolve", 7),
    "task.split_seed": ("evolve", 8),
    "task.eval_fractions": ("evolve", [0.6, 0.4]),
    "task.train_csv": ("train_csv", "train2.csv"),
    "task.eval_csv": ("evolve_csv", "eval2.csv"),
    "task.val_csv": ("evolve_split_csv", "val2.csv"),
    "task.test_csv": ("evolve_split_csv", "test2.csv"),
    "model.layer_sizes": ("train", [2, 6, 2]),
    "model.hidden_activation": ("train", "tanh"),
    "model.seed": ("train", 3),
    "model.train": ("train", {"epochs": 1}),
    "model.checkpoint": ("evolve", "net6.ckpt"),
    "model.train.optimizer": ("train", "sgd"),
    "model.train.learning_rate": ("train", 0.05),
    "model.train.epochs": ("train", 3),
    "model.train.batch_size": ("train", 8),
    "model.train.adam_beta1": ("train", 0.5),
    "model.train.adam_beta2": ("train", 0.9),
    "model.train.adam_eps": ("train", 1e-3),
    "model.train.shuffle_seed": ("train", 1),
    "mutation.sigma": ("evolve", 0.1),
    "mutation.rho": ("evolve", 0.7),
    "mutation.mu": ("evolve", 0.01),
    "mutation.subspace_mode": ("evolve", "static"),
    "mutation.mirrored": ("evolve", False),
    "mutation.anti_random": ("evolve", True),
    "mutation.search": ("search", {"sigma_grid": [0.1], "rho_grid": [0.5]}),
    "mutation.search_result": ("evolve_found", "found2.json"),
    "mutation.search.sigma_grid": ("search", [0.2, 0.5, 2.0]),
    "mutation.search.rho_grid": ("search", [0.0, 0.9]),
    "mutation.search.kl_target": ("search", 0.5),
    "mutation.search.kl_tolerance": ("search", 0.1),
    "mutation.search.samples_per_cell": ("search", 3),
    "mutation.search.probe_size": ("search", 60),
    "mutation.search.seed": ("search", 1),
    "evolution.pop_size": ("evolve", 12),
    "evolution.top_k": ("evolve", 4),
    "evolution.generations": ("evolve", 2),
    "evolution.master_seed": ("evolve", 5),
    "evolution.repeats": ("evolve", 2),
    "boundary.sigma_grid": ("boundary", [0.1]),
    "boundary.rho_grid": ("boundary", [0.9]),
    "boundary.resolution": ("boundary", 9),
    "boundary.seed": ("boundary", 14),
    "ablation.sigma_grid": ("ablate", [0.1]),
    "ablation.rho_grid": ("ablate", [0.8]),
    "ablation.modes": ("ablate", ["static"]),
    "ablation.seeds": ("ablate", [1]),
    "ablation.pop_size": ("ablate", 6),
    "ablation.top_k": ("ablate", 1),
    "output.dir": ("train", "elsewhere"),
}

# What artifacts echo from their config: top-level JSON keys, and the first
# columns of ablation.csv. eval_report.csv repeats eval_report.json.
ECHO_KEYS = ("config", "seed", "epochs", "kl_target", "kl_tolerance")
ABLATION_ECHO_COLUMNS = 4


def _without_echoes(path):
    """The bytes of a written file, less what it echoes from the config."""
    if path.suffix == ".json":
        data = json.loads(path.read_text())
        return json.dumps({k: v for k, v in data.items() if k not in ECHO_KEYS}).encode()
    if path.name == "ablation.csv":
        rows = path.read_bytes().splitlines()
        return b"\n".join(b",".join(row.split(b",")[ABLATION_ECHO_COLUMNS:]) for row in rows)
    return path.read_bytes()


def _run_outcome(command, cfg):
    """The exit code, the directories written to, and what the written
    files hold beyond their config echoes, of one run. A relative
    `output.dir` lands in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = dict(cfg, output={"dir": str(Path(tmp) / cfg.get("output", {}).get("dir", "out"))})
        code = main([command, "--config", write_config(Path(tmp) / "config.json", cfg)])
        written = [p for p in Path(tmp).rglob("*") if p.is_file() and p.name != "config.json"]
        dirs = sorted({str(p.parent.relative_to(tmp)) for p in written})
        held = sorted(_without_echoes(p) for p in written if p.name != "eval_report.csv")
    return code, dirs, held


class TestConfigKeyContract:
    @pytest.mark.parametrize(
        "key, value",
        [("sigma_grid", [0.1]), ("rho_grid", [0.9]), ("resolution", 9), ("seed", 14)],
    )
    def test_every_boundary_key_changes_the_files(self, contract_base, key, value):
        cfg = {k: contract_base[0][k] for k in ("task", "model")}
        cfg["boundary"] = BOUNDARY_CONTRACT_BASE
        base_code, base_files = _written_bytes("boundary", cfg)
        cfg["boundary"] = dict(BOUNDARY_CONTRACT_BASE, **{key: value})
        code, files = _written_bytes("boundary", cfg)
        assert (base_code, code) == (0, 0)
        assert len(files) == len(base_files) == 2
        assert files != base_files, f"boundary.{key} = {value!r} changed nothing"

    @pytest.mark.parametrize("name, key", SCHEMA_KEYS, ids=[f"{n}.{k}" for n, k in SCHEMA_KEYS])
    def test_every_schema_key_changes_the_artifacts(self, key_bases, monkeypatch, name, key):
        assert f"{name}.{key}" in KEY_CHANGES, f"no base run shows what {name}.{key} does"
        base, value = KEY_CHANGES[f"{name}.{key}"]
        inputs, bases = key_bases
        monkeypatch.chdir(inputs)
        command, cfg = bases[base]
        changed = json.loads(json.dumps(cfg))
        node = changed
        for part in name.split("."):
            node = node.setdefault(part, {})
        assert node.get(key) != value
        node[key] = value
        if f"{name}.{key}" == "task.dataset":
            del node["train_csv"], node["eval_csv"]
        if f"{name}.{key}" == "model.train.optimizer":  # sgd reads no Adam key
            del node["adam_beta1"], node["adam_beta2"], node["adam_eps"]
        before = _run_outcome(command, cfg)
        after = _run_outcome(command, changed)
        assert before[0] in (0, 4) and after[0] in (0, 4)
        assert before[1:] != after[1:], f"{name}.{key} = {value!r} changed nothing"

    @settings(max_examples=24, deadline=None, database=None)
    @given(change=CONTRACT_ALTERNATIVES)
    def test_every_key_changes_the_run(self, contract_base, change):
        base, (base_code, base_report) = contract_base
        (section, key), value = change
        assert base[section][key] != value
        cfg = json.loads(json.dumps(base))
        cfg[section][key] = value
        code, report = _evolve_outcome(cfg)
        assert (base_code, code) == (0, 0)
        assert report != base_report, f"{section}.{key} = {value!r} changed nothing"

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("evolution", "combine", "both"),
            ("output", "formats", ["csv"]),
            ("evolution", "popsize", 8),
            ("mutation", "sigam", 0.05),
            ("ouptut", "dir", "elsewhere"),
            ("model.train", "epochs", 5),
            ("mutation.search", "seed", 3),
        ],
    )
    def test_inert_or_unknown_key_exits_2(self, contract_base, section, key, value, capsys):
        cfg = json.loads(json.dumps(contract_base[0]))
        cfg.setdefault(section, {})[key] = value
        assert _evolve_outcome(cfg) == (2, None)
        assert "error:" in capsys.readouterr().err


class TestComments:
    @pytest.mark.parametrize(
        "base, where",
        [("train", ()), ("train", ("task",)), ("train", ("model", "train")),
         ("evolve", ("model",)), ("search", ("mutation",))],
        ids=["top level", "task", "model.train", "model beside checkpoint", "search mutation"],
    )
    def test_comment_changes_no_byte(self, key_bases, monkeypatch, base, where):
        """A `_comment` key is ignored wherever it stands, also by the rules
        that read the keys a section was written with."""
        inputs, bases = key_bases
        monkeypatch.chdir(inputs)
        command, cfg = bases[base]
        commented = json.loads(json.dumps(cfg))
        node = commented
        for part in where:
            node = node[part]
        node["_comment"] = "ignored"
        plain = _written_bytes(command, cfg)
        assert plain[0] == 0 and plain[1]
        assert _written_bytes(command, commented) == plain


class TestOneCheckPerSection:
    @pytest.mark.parametrize(
        "base",
        ["train", "search", "evolve", "evolve_found", "boundary", "ablate"],
    )
    def test_each_section_is_checked_once(self, key_bases, monkeypatch, base):
        """`config.section` checks each section, and each nested object, of
        every command and mutation form once per run."""
        import smd.config

        inputs, bases = key_bases
        monkeypatch.chdir(inputs)
        checks, section = [], smd.config.section

        def counting(cfg, name, *rest, **kwargs):
            checks.append(name)
            return section(cfg, name, *rest, **kwargs)

        monkeypatch.setattr(smd.config, "section", counting)
        command, cfg = bases[base]
        assert _run_outcome(command, cfg)[0] in (0, 4)
        present = {"output", *cfg}
        if "train" in cfg["model"]:
            present.add("model.train")
        if "search" in cfg.get("mutation", {}):
            present.add("mutation.search")
        assert sorted(checks) == sorted(present)


SPIRAL_BASES = ["train", "search", "evolve", "boundary", "ablate"]


class TestTaskSets:
    """Each command builds only the datasets it reads, and a spirals task's
    sample counts are checked before any of them is built."""

    @pytest.mark.parametrize("key", ["n_train", "n_eval"])
    @pytest.mark.parametrize("base", SPIRAL_BASES)
    def test_odd_sample_count_exits_2_before_any_read(
        self, key_bases, monkeypatch, capsys, base, key
    ):
        import smd.cli
        import smd.config

        def no_read(*args, **kwargs):
            raise AssertionError("data or a checkpoint was read before the check")

        for module, name in [(smd.config, "make_spirals"), (smd.config, "load_csv"),
                             (smd.cli, "load_checkpoint")]:
            monkeypatch.setattr(module, name, no_read)
        inputs, bases = key_bases
        monkeypatch.chdir(inputs)
        command, cfg = bases[base]
        cfg = dict(cfg, task=dict(cfg["task"], **{key: 101}))
        assert _run_outcome(command, cfg)[1:] == ([], [])
        err = capsys.readouterr().err
        assert err == f"error: task '{key}' must be even, half for each spiral, got 101\n"

    @pytest.mark.parametrize(
        "base, built",
        [("train", ["n_train", "n_eval"]), ("search", ["n_eval"]), ("evolve", ["n_eval"]),
         ("boundary", ["n_train"]), ("ablate", ["n_eval"])],
    )
    def test_each_command_builds_the_sets_it_reads(self, key_bases, monkeypatch, base, built):
        import smd.config

        sizes, make_spirals = [], smd.config.make_spirals

        def counting(n, **kwargs):
            sizes.append(n)
            return make_spirals(n, **kwargs)

        monkeypatch.setattr(smd.config, "make_spirals", counting)
        inputs, bases = key_bases
        monkeypatch.chdir(inputs)
        command, cfg = bases[base]
        assert _run_outcome(command, cfg)[0] in (0, 4)
        assert sizes == [cfg["task"][key] for key in built]


STRICT_EVOLVE_CASES = [
    ("mutation", "mirrored", "false"),
    ("mutation", "mirrored", 0),
    ("mutation", "anti_random", "no"),
    ("mutation", "anti_random", 1),
    ("mutation", "mu", "0.1"),
    ("mutation", "mu", True),
    ("mutation", "mu", float("nan")),
    ("mutation", "mu", None),
    ("mutation", "sigma", "0.05"),
    ("mutation", "rho", True),
    ("evolution", "pop_size", 4.9),
    ("evolution", "pop_size", "8"),
    ("evolution", "pop_size", 0),
    ("evolution", "pop_size", True),
    ("evolution", "top_k", "2"),
    ("evolution", "top_k", 2.0),
    ("evolution", "generations", True),
    ("evolution", "generations", 0),
    ("evolution", "master_seed", 1.5),
    ("evolution", "master_seed", -1),
    ("evolution", "master_seed", "0"),
    ("evolution", "master_seed", None),
]


class TestStrictMutationAndEvolution:
    @pytest.mark.parametrize(
        "section, key, value",
        STRICT_EVOLVE_CASES,
        ids=[f"{s}.{k}={json.dumps(v)}" for s, k, v in STRICT_EVOLVE_CASES],
    )
    def test_bad_value_exits_2(self, contract_base, tmp_path, section, key, value, capsys):
        cfg = json.loads(json.dumps(contract_base[0]))
        cfg[section][key] = value
        out = tmp_path / "out"
        path = write_config(tmp_path / "evolve.json", cfg)
        assert main(["evolve", "--config", path, "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize(
        "mutation, key",
        [
            ('"mutation": {"sigma": 0.05, "rho": 0.5, "sigma": 0.5}', "sigma"),
            ('"mutation": {"search": {"sigma_grid": [0.05], "rho_grid": [0.5], "seed": 1, '
             '"seed": 2}}', "seed"),
            ('"mutation": {"sigma": 0.05, "rho": 0.5}, "mutation": {"sigma": 0.5, "rho": 0.5}',
             "mutation"),
        ],
        ids=["in a section", "in a nested object", "a section"],
    )
    def test_duplicate_key_exits_2(
        self, contract_base, tmp_path, monkeypatch, capsys, mutation, key
    ):
        # JSON parsers keep the last of two equal keys; a config may not rely on that.
        calls = count_forward(monkeypatch)
        cfg = {k: v for k, v in contract_base[0].items() if k != "mutation"}
        path = tmp_path / "evolve.json"
        path.write_text(json.dumps(cfg)[:-1] + f", {mutation}}}")
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}: invalid JSON (duplicate key '{key}')\n"
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "body, reason",
        [(b'{"task": {"n_train": 1' + b"0" * 5000 + b"}}", "Exceeds the limit"),
         (b'{"task": "\xff"}', "can't decode byte 0xff")],
        ids=["a 5001-digit integer", "not UTF-8"],
    )
    def test_undecodable_config_exits_2(self, tmp_path, capsys, body, reason):
        path = tmp_path / "train.json"
        path.write_bytes(body)
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: invalid JSON (") and reason in err

    @pytest.mark.parametrize("key", ["sigma", "mu"])
    def test_noise_beyond_float32_names_mu_and_sigma(self, contract_base, tmp_path, key, capsys):
        cfg = json.loads(json.dumps(contract_base[0]))
        cfg["mutation"][key] = 1e39
        out = tmp_path / "out"
        path = write_config(tmp_path / "evolve.json", cfg)
        assert main(["evolve", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: mutation 'mu' ") and "'sigma' " in err
        assert not any(out.iterdir())

    @pytest.mark.parametrize(
        "body",
        [[1, 2], {"sigma": 0.05, "rho": None}, {"sigma": "0.05", "rho": 0.5},
         {"sigma": True, "rho": 0.5}],
        ids=json.dumps,
    )
    def test_bad_search_result_artifact_exits_2(self, contract_base, tmp_path, body, capsys):
        cfg = json.loads(json.dumps(contract_base[0]))
        (tmp_path / "found.json").write_text(json.dumps(body))
        cfg["mutation"] = {"search_result": str(tmp_path / "found.json")}
        out = tmp_path / "out"
        path = write_config(tmp_path / "evolve.json", cfg)
        assert main(["evolve", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and ("'sigma'" in err or "'rho'" in err)
        assert not any(out.iterdir())

    @staticmethod
    def found_config(contract_base, tmp_path, **strategy):
        """`contract_base`'s config evolving from a search result artifact."""
        (tmp_path / "found.json").write_text(json.dumps({"sigma": 0.05, "rho": 0.5}))
        cfg = json.loads(json.dumps(contract_base[0]))
        cfg["mutation"] = {"search_result": str(tmp_path / "found.json"), **strategy}
        return cfg

    def test_bad_evolution_value_fails_before_the_search(
        self, contract_base, tmp_path, monkeypatch, capsys
    ):
        calls = count_forward(monkeypatch)
        cfg = self.found_config(contract_base, tmp_path)
        cfg["evolution"]["pop_size"] = 4.9
        out = tmp_path / "out"
        path = write_config(tmp_path / "evolve.json", cfg)
        assert main(["evolve", "--config", path, "--out", str(out)]) == 2
        assert "error: evolution 'pop_size'" in capsys.readouterr().err
        assert calls == []
        assert not any(out.iterdir())

    def test_top_k_above_pop_size_fails_before_the_search(
        self, contract_base, tmp_path, monkeypatch, capsys
    ):
        calls = count_forward(monkeypatch)
        cfg = self.found_config(contract_base, tmp_path)
        cfg["evolution"]["top_k"] = cfg["evolution"]["pop_size"] + 1
        out = tmp_path / "out"
        path = write_config(tmp_path / "evolve.json", cfg)
        assert main(["evolve", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "top_k" in err
        assert calls == []
        assert not any(out.iterdir())

    @pytest.mark.parametrize(
        "strategy, pop_size",
        [({}, 7), ({"anti_random": True}, 6), ({"mirrored": False, "anti_random": True}, 5)],
        ids=["pairs", "quads", "anti-random pairs"],
    )
    def test_pop_size_in_part_groups_fails_before_the_search(
        self, contract_base, tmp_path, monkeypatch, capsys, strategy, pop_size
    ):
        calls = count_forward(monkeypatch)
        cfg = self.found_config(contract_base, tmp_path, **strategy)
        cfg["evolution"]["pop_size"] = pop_size
        out = tmp_path / "out"
        path = write_config(tmp_path / "evolve.json", cfg)
        assert main(["evolve", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "pop_size divisible by" in err
        assert calls == []
        assert not any(out.iterdir())

    @pytest.mark.parametrize("form", ["explicit", "search_result"])
    def test_anti_random_at_rho_0_exits_2(
        self, contract_base, tmp_path, monkeypatch, capsys, form
    ):
        # At rho 0 the complement M' is empty, so the +M' and -M' children
        # would be copies of the parent.
        calls = count_forward(monkeypatch)
        cfg = json.loads(json.dumps(contract_base[0]))
        if form == "explicit":
            cfg["mutation"] = {"sigma": 0.05, "rho": 0.0}
        else:
            (tmp_path / "found.json").write_text(json.dumps({"sigma": 0.05, "rho": 0.0}))
            cfg["mutation"] = {"search_result": str(tmp_path / "found.json")}
        cfg["mutation"]["anti_random"] = True
        out = tmp_path / "out"
        path = write_config(tmp_path / "evolve.json", cfg)
        assert main(["evolve", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: mutation 'anti_random' needs rho > 0" in err
        assert calls == []
        assert not any(out.iterdir())


class TestUnreadConfig:
    """What a command does not read exits 2 before any data or checkpoint
    is read, with an `error:` line and no artifact: the KL search runs in
    `search` alone, whose mutation section holds only the search directive,
    and no command takes a section it does not read."""

    @pytest.fixture()
    def run_in(self, key_bases, monkeypatch):
        inputs, bases = key_bases
        monkeypatch.chdir(inputs)
        return bases

    def test_search_directive_in_evolve_exits_2(self, run_in, monkeypatch, capsys):
        calls = count_forward(monkeypatch)
        command, cfg = run_in["evolve"]
        search = run_in["search"][1]["mutation"]
        assert _run_outcome(command, dict(cfg, mutation=search)) == (2, [], [])
        assert capsys.readouterr().err == (
            "error: the evolve command runs no KL search: run `smd search` with this "
            "'search' directive and set mutation 'search_result' to the search_result.json "
            "it writes\n"
        )
        assert calls == []

    @pytest.mark.parametrize(
        "key, value",
        [("mu", 0.01), ("subspace_mode", "static"), ("mirrored", False), ("anti_random", True)],
    )
    def test_strategy_key_in_search_exits_2(self, run_in, monkeypatch, capsys, key, value):
        calls = count_forward(monkeypatch)
        command, cfg = run_in["search"]
        mutation = dict(cfg["mutation"], **{key: value})
        assert _run_outcome(command, dict(cfg, mutation=mutation)) == (2, [], [])
        assert capsys.readouterr().err == (
            "error: the search command's mutation section holds a 'search' directive and "
            f"nothing else, got keys {sorted(mutation)}\n"
        )
        assert calls == []

    @pytest.mark.parametrize("key", ["adam_beta1", "adam_beta2", "adam_eps"])
    def test_adam_key_beside_sgd_exits_2(self, run_in, monkeypatch, capsys, key):
        calls = count_forward(monkeypatch)
        command, cfg = run_in["train"]
        written = cfg["model"]["train"]
        train = {k: v for k, v in written.items() if not k.startswith("adam_")}
        train.update(optimizer="sgd", **{key: written[key]})
        assert _run_outcome(command, dict(cfg, model=dict(cfg["model"], train=train))) == (
            2, [], []
        )
        assert capsys.readouterr().err == (
            f"error: model.train '{key}' is not read by the sgd optimizer\n"
        )
        assert calls == []

    @pytest.mark.parametrize(
        "base, unread",
        [("evolve", "boundary"), ("train", "mutation"), ("search", "evolution"),
         ("boundary", "ablation"), ("ablate", "evolution")],
    )
    def test_unread_section_exits_2(self, run_in, monkeypatch, capsys, base, unread):
        calls = count_forward(monkeypatch)
        sections = {**run_in["evolve"][1], **run_in["boundary"][1], **run_in["ablate"][1]}
        command, cfg = run_in[base]
        assert _run_outcome(command, dict(cfg, **{unread: sections[unread]})) == (2, [], [])
        assert capsys.readouterr().err == (
            f"error: config sections ['{unread}'] are not read by the {command} command\n"
        )
        assert calls == []


# Bad values for each command, as (base config, dotted key path, value); the
# "csv" base trains from csv files with an eval pool, "split_csv" from csv
# files that name the validation and test sets. `config.check` is the one
# check of each value: no dataclass or sampler built from it checks it again.
STRICT_CONFIG_CASES = [
    ("search", "mutation.search.seed", -1),
    ("search", "mutation.search.seed", 1.5),
    ("search", "mutation.search.samples_per_cell", 2.5),
    ("search", "mutation.search.probe_size", "50"),
    ("search", "mutation.search.kl_target", "0.05"),
    ("search", "mutation.search.sigma_grid", ["0.05"]),
    ("search", "mutation.search.sigma_grid", [True]),
    ("search", "mutation.search.sigma_grid", [0.0]),
    ("search", "mutation.search.sigma_grid", []),
    ("search", "mutation.search.rho_grid", [1.0]),
    ("search", "mutation.search.kl_target", 0),
    ("search", "mutation.search.kl_tolerance", 0),
    ("search", "mutation.search.samples_per_cell", 0),
    ("search", "mutation.search.probe_size", 0),
    ("evolve", "evolution.top_k", 0),
    ("evolve", "mutation.sigma", 0),
    ("evolve", "mutation.rho", 1.0),
    ("evolve", "mutation.rho", -0.1),
    ("evolve", "mutation.subspace_mode", "x"),
    ("train", "task.n_train", "200"),
    ("train", "task.n_train", 200.7),
    ("train", "task.train_seed", True),
    ("train", "task.split_seed", -1),
    ("train", "task.eval_fractions", [0.5, "0.5"]),
    ("train", "task.noise_std", "0.05"),
    ("train", "task.noise_std", -1),
    ("train", "task.turns", 0),
    ("train", "task.eval_fractions", [-0.5, 1.5]),
    ("train", "task.dataset", 5),
    ("csv", "task.eval_fractions", [0.4, 0.3, 0.3]),
    # a key the task's form never reads
    ("train", "task.train_csv", "train.csv"),
    ("train", "task.eval_csv", "eval.csv"),
    ("train", "task.val_csv", "val.csv"),
    ("train", "task.test_csv", "test.csv"),
    ("csv", "task.n_train", 200),
    ("csv", "task.n_eval", 100),
    ("csv", "task.noise_std", 0.05),
    ("csv", "task.turns", 1.75),
    ("csv", "task.train_seed", 1),
    ("csv", "task.eval_seed", 2),
    ("split_csv", "task.eval_fractions", [0.5, 0.5]),
    ("split_csv", "task.split_seed", 3),
    ("split_csv", "task.eval_csv", "eval.csv"),
    ("train", "model.layer_sizes", [2, 8.7, 2]),
    ("train", "model.seed", True),
    ("train", "model.train.learning_rate", "0.01"),
    ("train", "model.train.optimizer", "rmsprop"),
    ("train", "model.train.learning_rate", 0),
    ("train", "model.train.epochs", 0),
    ("train", "model.train.batch_size", 0),
    ("train", "model.train.adam_beta1", 1.0),
    ("train", "model.train.adam_beta2", 0),
    ("train", "model.train.adam_eps", 0),
    ("train", "model.train.adam_eps", True),
    ("train", "output.dir", 5),
]


@pytest.fixture(scope="module")
def strict_bases(tmp_path_factory):
    """Valid configs on a tiny [2, 8, 2] task: (command, config) by base name."""
    from oracles import save_csv
    from smd.datasets import make_spirals

    base = tmp_path_factory.mktemp("strict")
    save_checkpoint(init_network(NetworkSpec([2, 8, 2], seed=1)), base / "tiny.ckpt")
    for name, seed in (("train", 1), ("eval", 2), ("val", 3), ("test", 4)):
        save_csv(make_spirals(100, seed=seed), base / f"{name}.csv")
    task = {"dataset": "spirals", "n_train": 200, "n_eval": 100}
    train = {"task": task, "model": {"layer_sizes": [2, 8, 2], "train": {"epochs": 1}}}
    csv_task = {"dataset": "csv", "train_csv": str(base / "train.csv"),
                "eval_csv": str(base / "eval.csv"), "eval_fractions": [0.5, 0.5]}
    split_csv_task = {"dataset": "csv", "train_csv": str(base / "train.csv"),
                      "val_csv": str(base / "val.csv"), "test_csv": str(base / "test.csv")}
    parent = {"checkpoint": str(base / "tiny.ckpt")}
    search = {
        "task": task,
        "model": parent,
        "mutation": {"search": {"sigma_grid": [0.05], "rho_grid": [0.5], "probe_size": 50}},
    }
    evolve = {
        "task": task,
        "model": parent,
        "mutation": {"sigma": 0.05, "rho": 0.5},
        "evolution": {"pop_size": 4, "top_k": 2},
    }
    return {
        "train": ("train", train),
        "search": ("search", search),
        "csv": ("train", dict(train, task=csv_task)),
        "split_csv": ("train", dict(train, task=split_csv_task)),
        "evolve": ("evolve", evolve),
    }


class TestStrictConfigValues:
    @pytest.mark.parametrize(
        "base, where, value",
        STRICT_CONFIG_CASES,
        ids=[f"{b}:{w}={json.dumps(v)}" for b, w, v in STRICT_CONFIG_CASES],
    )
    def test_bad_value_exits_2(self, strict_bases, tmp_path, base, where, value, capsys):
        command, cfg = strict_bases[base]
        cfg = json.loads(json.dumps(cfg))
        *parts, key = where.split(".")
        node = cfg
        for part in parts:
            node = node.setdefault(part, {})
        node[key] = value
        out = tmp_path / "out"
        out.mkdir()
        path = write_config(tmp_path / "config.json", cfg)
        assert main([command, "--config", path, "--out", str(out)]) == 2
        assert f"error: {'.'.join(parts)} '{key}'" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("base", ["train", "csv"])
    def test_fractions_must_sum_to_1(self, strict_bases, tmp_path, base, capsys):
        command, cfg = strict_bases[base]
        cfg = dict(cfg, task=dict(cfg["task"], eval_fractions=[0.6, 0.6]))
        out = tmp_path / "out"
        path = write_config(tmp_path / "config.json", cfg)
        assert main([command, "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: fractions must sum to 1, got 1.2\n"
        assert not any(out.iterdir())

    @pytest.mark.parametrize("base", ["train", "search", "csv", "split_csv", "evolve"])
    def test_base_configs_run(self, strict_bases, tmp_path, base):
        command, cfg = strict_bases[base]
        path = write_config(tmp_path / "config.json", cfg)
        assert main([command, "--config", path, "--out", str(tmp_path)]) in (0, 4)


class TestAllocationBound:
    """`config.check` bounds the genome that `model.layer_sizes` implies
    (8 B per parameter) and each spirals set (24 B per sample) by
    `config._ARRAY_BYTES`, from the checked values alone: a config past it
    exits 2 naming the key, where numpy used to raise a `MemoryError`."""

    def test_genome_beyond_the_bound_exits_2(self, tmp_path, monkeypatch, capsys):
        import smd.config as cfgmod

        monkeypatch.setattr(cfgmod, "_ARRAY_BYTES", 8 * 42)  # [2, 8, 2] has 42 parameters
        task = {"n_train": 14, "n_eval": 14}  # 336 bytes each: at the bound
        cfg = {"task": task, "model": {"layer_sizes": [2, 8, 2], "train": {}}}
        assert check(cfg, "train", str(tmp_path / "fits"))["spec"].param_count() == 42
        cfg["model"]["layer_sizes"] = [2, 9, 2]
        out = tmp_path / "out"
        path = write_config(tmp_path / "train.json", cfg)
        assert main(["train", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: model.layer_sizes [2, 9, 2] needs 376 bytes of genome "
            "(8 per parameter), above the bound of 336\n"
        )
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", ["train", "search"])
    @pytest.mark.parametrize("key", ["n_train", "n_eval"])
    def test_spirals_set_beyond_the_bound_exits_2(
        self, tmp_path, monkeypatch, capsys, command, key
    ):
        import smd.config as cfgmod

        monkeypatch.setattr(cfgmod, "_ARRAY_BYTES", 24 * 600)  # small_task's n_train
        task = {**small_task(tmp_path), key: 602}
        cfg = {"task": task, "model": {"layer_sizes": [2, 8, 2], "train": {}}}
        if command == "search":
            cfg["model"] = {"checkpoint": str(tmp_path / "unread.ckpt")}
            cfg["mutation"] = {"search": {"sigma_grid": [0.05], "rho_grid": [0.5]}}
        out = tmp_path / "out"
        path = write_config(tmp_path / "config.json", cfg)
        assert main([command, "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: task.{key} 602 needs 14448 bytes of samples (24 per sample), "
            "above the bound of 14400\n"
        )
        assert not any(out.iterdir())

    @pytest.mark.parametrize(
        "task, layer_sizes, fits",
        [
            ({"n_train": 44_739_242}, [2, 11_582, 11_582, 2], True),
            ({"n_train": 44_739_244}, [2, 64, 2], False),
            ({"n_eval": 44_739_244}, [2, 64, 2], False),
            ({}, [2, 11_583, 11_583, 2], False),
            ({}, [2, 10**9, 2], False),
        ],
    )
    def test_one_gib_bounds_the_genome_and_each_spirals_set(
        self, tmp_path, task, layer_sizes, fits
    ):
        """`check` alone, which allocates nothing, at the real bound: 1 GiB
        holds 44,739,242 samples, and a genome of 134,217,728 parameters:
        a `[2, h, h, 2]` net up to h = 11,582."""
        cfg = {"task": task, "model": {"layer_sizes": layer_sizes, "train": {}}}
        if fits:
            assert check(cfg, "train", str(tmp_path))["spec"].param_count() <= 1 << 27
        else:
            with pytest.raises(ConfigurationError, match="above the bound of 1073741824$"):
                check(cfg, "train", str(tmp_path))


class TestMalformedCsv:
    @pytest.mark.parametrize(
        "body, names_row",
        [(b"0.1,0.2,0\n0.3,\xff0.4,1\n", False),
         (b"0.1,0.2,0\n0.3,0.4,99999999999999999999\n", True),
         (b"0.1,0.2,0\n0.3,nan,1\n", True),
         (b"0.1,0.2,0\n1e999,0.4,1\n", True)],
        ids=["not UTF-8", "a label beyond int64", "a nan feature", "an inf feature"],
    )
    @pytest.mark.parametrize("key", ["train_csv", "eval_csv"])
    def test_exits_2_naming_the_file(self, strict_bases, tmp_path, key, body, names_row, capsys):
        command, cfg = strict_bases["csv"]
        bad = tmp_path / "bad.csv"
        bad.write_bytes(body)
        cfg = dict(cfg, task=dict(cfg["task"], **{key: str(bad)}))
        out = tmp_path / "out"
        path = write_config(tmp_path / "config.json", cfg)
        assert main([command, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        assert ("row 2" in err) == names_row
        assert not any(out.iterdir())


# A config that sets every SCHEMA key to a valid value. Files need not
# exist: each value is checked before a command reads anything.
FULL_CONFIG = {
    "task": {
        "dataset": "spirals", "n_train": 200, "n_eval": 100, "noise_std": 0.05, "turns": 1.75,
        "train_seed": 1, "eval_seed": 2, "split_seed": 3, "eval_fractions": [0.5, 0.5],
        "train_csv": "train.csv", "eval_csv": "eval.csv", "val_csv": "val.csv",
        "test_csv": "test.csv",
    },
    "model": {
        "layer_sizes": [2, 8, 2], "hidden_activation": "tanh", "seed": 0,
        "train": {
            "optimizer": "sgd", "learning_rate": 0.01, "epochs": 1, "batch_size": 8,
            "adam_beta1": 0.9, "adam_beta2": 0.999, "adam_eps": 1e-8, "shuffle_seed": 0,
        },
        "checkpoint": "model.ckpt",
    },
    "mutation": {
        "sigma": 0.05, "rho": 0.5, "mu": 0.0, "subspace_mode": "static", "mirrored": False,
        "anti_random": True, "search_result": "search_result.json",
        "search": {
            "sigma_grid": [0.05], "rho_grid": [0.5], "kl_target": 0.05, "kl_tolerance": 0.5,
            "samples_per_cell": 2, "probe_size": 50, "seed": 0,
        },
    },
    "evolution": {"pop_size": 4, "top_k": 2, "generations": 1, "master_seed": 0, "repeats": 1},
    "boundary": {"sigma_grid": [0.05], "rho_grid": [0.5], "resolution": 8, "seed": 0},
    "ablation": {
        "sigma_grid": [0.05], "rho_grid": [0.5], "modes": ["dynamic"], "seeds": [0],
        "pop_size": 4, "top_k": 2,
    },
    "output": {"dir": "out"},
}
# The sections each command reads, and a command that reads each SCHEMA
# section or nested object.
COMMAND_SECTIONS = {
    "train": ("task", "model", "output"),
    "search": ("task", "model", "mutation", "output"),
    "evolve": ("task", "model", "mutation", "evolution", "output"),
    "boundary": ("task", "model", "boundary", "output"),
    "ablate": ("task", "model", "ablation", "output"),
}
READER = {
    "task": "train", "model": "train", "model.train": "train", "mutation": "evolve",
    "mutation.search": "search", "evolution": "evolve", "boundary": "boundary",
    "ablation": "ablate", "output": "train",
}
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 300),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
)


def _checked(cfg, name):
    """Section `name` of cfg, or the nested object a dotted name names, checked."""
    parent = name.rpartition(".")[0]
    return section(_checked(cfg, parent) if parent else cfg, name)


class TestSchema:
    def test_full_config_sets_every_key(self):
        for name, keys in SCHEMA.items():
            assert _checked(FULL_CONFIG, name).keys() == keys.keys(), name

    @pytest.mark.parametrize("name, key", SCHEMA_KEYS, ids=[f"{n}.{k}" for n, k in SCHEMA_KEYS])
    @settings(max_examples=8, deadline=None, database=None)
    @given(data=st.data())
    def test_wrong_json_type_exits_2(self, name, key, data):
        kind = SCHEMA[name][key][0]
        value = data.draw(JSON_VALUES.filter(lambda v: type(v) not in kind.types))
        command = READER[name]
        cfg = json.loads(json.dumps({s: FULL_CONFIG[s] for s in COMMAND_SECTIONS[command]}))
        node = cfg
        for part in name.split("."):
            node = node[part]
        node[key] = value
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
            out = Path(tmp) / "out"
            out.mkdir()
            path = write_config(Path(tmp) / "config.json", cfg)
            assert main([command, "--config", path, "--out", str(out)]) == 2
            assert not any(out.iterdir())
        assert f"error: {name} '{key}' must be" in err.getvalue()

    def test_defaults_equal_their_holders(self):
        """A SCHEMA key whose class or function also declares a default has
        that default, so the two can never disagree."""
        import inspect

        from smd.datasets import make_spirals
        from smd.mutation import MutationParams

        holders = {"task": make_spirals, "model": NetworkSpec, "mutation": MutationParams}
        compared = []
        for name, holder in holders.items():
            for key, param in inspect.signature(holder).parameters.items():
                if key in SCHEMA[name] and param.default is not param.empty:
                    compared.append((f"{name}.{key}", SCHEMA[name][key][1], param.default))
        assert len(compared) == 8  # a renamed parameter would drop out unseen
        assert [c for c in compared if c[1] != c[2]] == []

    def test_readme_tables_match_the_schema(self):
        readme = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
        body = readme.split("\n## Config sections\n")[1].split("\n## ")[0]
        tables = {}
        for block in body.split("\n### ")[1:]:
            title, _, rows = block.partition("\n")
            cells = [row.split(" | ") for row in rows.splitlines() if row.startswith("| `")]
            tables[title.strip("`")] = {c[0].strip("| `"): (c[1], c[2].rstrip(" |")) for c in cells}
        assert tables.keys() == SCHEMA.keys()
        for name, keys in SCHEMA.items():
            assert tables[name].keys() == keys.keys(), name
            for key, (kind, default) in keys.items():
                rule, shown = tables[name][key]
                assert rule == kind.rule, f"{name}.{key}"
                if default is REQUIRED:
                    assert shown == "required", f"{name}.{key}"
                elif default is not None:
                    assert shown == f"`{json.dumps(default)}`", f"{name}.{key}"


class TestTaskContract:
    """A model whose input or output width differs from the task's features
    or classes exits 6 with an `error:` line before any work, whether it is
    a fresh spec (`train`) or a loaded checkpoint (every other command)."""

    SECTIONS = {
        "search": {"mutation": {"search": {"sigma_grid": [0.05], "rho_grid": [0.5]}}},
        "evolve": {
            "mutation": {"sigma": 0.05, "rho": 0.5},
            "evolution": {"pop_size": 4, "top_k": 2},
        },
        "boundary": {"boundary": {"sigma_grid": [0.1], "rho_grid": [0.5], "resolution": 8}},
        "ablate": {"ablation": {"sigma_grid": [0.05], "rho_grid": [0.5], "seeds": [0]}},
    }

    @staticmethod
    def assert_mismatch(argv, out, capsys):
        assert main(argv) == 6
        assert capsys.readouterr().err.startswith("error: model maps ")
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("layer_sizes", [[2, 8, 3], [3, 8, 2]])
    def test_fresh_spec_in_train(self, tmp_path, capsys, layer_sizes):
        out = tmp_path / "out"
        cfg = {
            "task": small_task(out),
            "model": {"layer_sizes": layer_sizes, "train": {"epochs": 1}},
            "output": {"dir": str(out)},
        }
        path = write_config(tmp_path / "train.json", cfg)
        self.assert_mismatch(["train", "--config", path], out, capsys)

    @pytest.mark.parametrize("command", sorted(SECTIONS))
    def test_checkpoint_with_other_class_count(self, tmp_path, capsys, command):
        ckpt = tmp_path / "three_way.ckpt"
        save_checkpoint(init_network(NetworkSpec([2, 8, 3], seed=1)), ckpt)
        out = tmp_path / "out"
        cfg = {
            "task": small_task(out),
            "model": {"checkpoint": str(ckpt)},
            **self.SECTIONS[command],
            "output": {"dir": str(out)},
        }
        path = write_config(tmp_path / f"{command}.json", cfg)
        self.assert_mismatch([command, "--config", path], out, capsys)

    def test_checkpoint_with_other_feature_count(self, tmp_path, capsys):
        from oracles import save_csv
        from smd.datasets import Dataset

        rng = np.random.default_rng(0)
        for name, n in (("train", 40), ("eval", 80)):
            data = Dataset(rng.normal(size=(n, 3)), np.arange(n) % 2, 2)
            save_csv(data, tmp_path / f"{name}.csv")
        ckpt = tmp_path / "two_input.ckpt"
        save_checkpoint(init_network(NetworkSpec([2, 8, 2], seed=1)), ckpt)
        out = tmp_path / "out"
        cfg = {
            "task": {
                "dataset": "csv",
                "train_csv": str(tmp_path / "train.csv"),
                "eval_csv": str(tmp_path / "eval.csv"),
            },
            "model": {"checkpoint": str(ckpt)},
            **self.SECTIONS["evolve"],
            "output": {"dir": str(out)},
        }
        path = write_config(tmp_path / "evolve.json", cfg)
        self.assert_mismatch(["evolve", "--config", path], out, capsys)


class TestCheckpointArchitecture:
    """A checkpoint brings its own network, so a model section that names
    one may not also set the keys that would build a network."""

    @pytest.mark.parametrize(
        "keys",
        [{"seed": 9}, {"layer_sizes": [2, 99, 2], "hidden_activation": "tanh", "seed": 9}],
        ids=lambda keys: ",".join(keys),
    )
    @pytest.mark.parametrize("base", ["search", "evolve", "boundary", "ablate"])
    def test_architecture_keys_exit_2(self, key_bases, monkeypatch, capsys, base, keys):
        inputs, bases = key_bases
        monkeypatch.chdir(inputs)
        command, cfg = bases[base]
        assert _run_outcome(command, dict(cfg, model=dict(cfg["model"], **keys))) == (2, [], [])
        assert capsys.readouterr().err == (
            f"error: model keys {sorted(keys)} do not apply beside 'checkpoint', "
            "whose network is used as it is\n"
        )


class TestExitCodes:
    @staticmethod
    def documented(text):
        """The codes of the paragraph that starts with "Exit codes:"."""
        paragraph = text[text.index("Exit codes:"):].split("\n\n")[0]
        return {int(code) for code in re.findall(r"\b(\d) [a-z]", paragraph)}

    def test_every_error_has_a_documented_code(self):
        import inspect

        import smd.cli
        import smd.errors

        errors = [
            cls for _, cls in inspect.getmembers(smd.errors, inspect.isclass)
            if cls.__module__ == "smd.errors"
        ]
        readme = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
        for cls in errors:
            assert cls in smd.cli.EXIT_CODES, cls.__name__
            code = smd.cli.EXIT_CODES[cls]
            assert code in self.documented(smd.cli.__doc__), cls.__name__
            assert code in self.documented(readme), cls.__name__
        assert set(smd.cli.EXIT_CODES) == set(errors)

    def test_shape_error_exits_6(self, tmp_path, monkeypatch, capsys):
        import smd.cli
        from smd.errors import ShapeError

        def fail(cfg, **sets):
            raise ShapeError("inputs must be (n, 2), got (4, 3)")

        monkeypatch.setattr(smd.cli.cfgmod, "build_task_data", fail)
        model = {"layer_sizes": [2, 8, 2], "train": {}}
        path = write_config(tmp_path / "train.json", {"task": {}, "model": model})
        assert main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 6
        assert capsys.readouterr().err == "error: inputs must be (n, 2), got (4, 3)\n"


class TestInputPaths:
    """Every input a command opens goes through one door: a path that
    cannot be opened exits 2 with `error: <path>: <reason>` and writes no
    artifact."""

    @pytest.mark.parametrize(
        "kind, code", [("missing", errno.ENOENT), ("directory", errno.EISDIR)],
        ids=["missing", "directory"],
    )
    @pytest.mark.parametrize("role", ["config", "checkpoint", "search_result"])
    def test_unopenable_path_exits_2(
        self, key_bases, tmp_path, monkeypatch, capsys, role, kind, code
    ):
        inputs, bases = key_bases
        monkeypatch.chdir(inputs)
        _, cfg = bases["evolve_found"]
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        if role == "checkpoint":
            cfg = dict(cfg, model={"checkpoint": str(bad)})
        elif role == "search_result":
            cfg = dict(cfg, mutation={"search_result": str(bad)})
        config = bad if role == "config" else write_config(tmp_path / "config.json", cfg)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["evolve", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {os.strerror(code)}\n"
        assert not any(out.iterdir())

    def test_missing_val_csv_exits_2_naming_it(self, key_bases, tmp_path, monkeypatch, capsys):
        inputs, bases = key_bases
        monkeypatch.chdir(inputs)
        _, cfg = bases["evolve_split_csv"]
        absent = tmp_path / "absent.csv"
        cfg = dict(cfg, task=dict(cfg["task"], val_csv=str(absent)))
        out = tmp_path / "out"
        path = write_config(tmp_path / "config.json", cfg)
        assert main(["evolve", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(absent) in err
        assert not any(out.iterdir())

    @pytest.mark.parametrize(
        "kind, code", [("missing", errno.ENOENT), ("directory", errno.EISDIR)],
        ids=["missing", "directory"],
    )
    def test_unreadable_val_csv_is_named_once(
        self, key_bases, tmp_path, monkeypatch, capsys, kind, code
    ):
        """A CSV that cannot be opened reads as every other input path does."""
        inputs, bases = key_bases
        monkeypatch.chdir(inputs)
        _, cfg = bases["evolve_split_csv"]
        bad = tmp_path / "bad.csv"
        if kind == "directory":
            bad.mkdir()
        cfg = dict(cfg, task=dict(cfg["task"], val_csv=str(bad)))
        out = tmp_path / "out"
        path = write_config(tmp_path / "config.json", cfg)
        assert main(["evolve", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {os.strerror(code)}\n"
        assert not any(out.iterdir())


class TestFileFormats:
    @pytest.mark.parametrize(
        "label, columns",
        [("Sweep CSV", SWEEP_COLUMNS), ("Ablation CSV", ABLATION_CSV_COLUMNS),
         ("Evaluation CSV", EVAL_CSV_COLUMNS)],
    )
    def test_readme_csv_columns_match_the_writers(self, label, columns):
        readme = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
        body = readme.split("\n## File formats\n")[1].split("\n## ")[0]
        entry = body.split(f"\n- **{label}**")[1].split("\n- ")[0]
        header = re.search(r"`([a-z_]+(?:,[a-z_]+)+)`", entry).group(1)
        assert tuple(header.split(",")) == columns


def tree(path):
    """Every entry under `path`, each file with its bytes, a directory with None."""
    return {
        str(p.relative_to(path)): None if p.is_dir() else p.read_bytes()
        for p in sorted(path.rglob("*"))
    }


class TestArtifactSets:
    """A command writes its artifacts as one set: a write that cannot be
    done leaves the output directory as it was."""

    def test_evolve_with_a_directory_in_place_of_its_csv_leaves_the_set(self, trained, capsys):
        """The repro: with `eval_report.csv` a directory, `evolve` exits 2
        with the `error:` line that names it, and writes no `eval_report.json`
        and no temporary."""
        base, out, cfg = trained
        payload = {
            "task": cfg["task"],
            "model": {"checkpoint": str(out / "model.ckpt")},
            "mutation": {"sigma": 0.05, "rho": 0.5},
            "evolution": {"pop_size": 8, "top_k": 4},
            "output": {"dir": str(out)},
        }
        path = write_config(base / "evolve.json", payload)
        (out / "eval_report.csv").mkdir()
        before = tree(out)
        assert main(["evolve", "--config", path]) == 2
        assert capsys.readouterr().err == f"error: {out / 'eval_report.csv'}: Is a directory\n"
        assert tree(out) == before

    @pytest.mark.parametrize("blocked", ["model.ckpt", "training_log.csv", "train_summary.json"])
    def test_train_leaves_an_earlier_set_in_place(self, trained, capsys, blocked):
        """A rerun that cannot write one artifact replaces none of the last
        run's, so the checkpoint and its log still belong together."""
        base, out, cfg = trained
        cfg2 = dict(cfg, model=dict(cfg["model"], seed=8))
        path = write_config(base / "retrain.json", cfg2)
        (out / blocked).unlink()
        (out / blocked).mkdir()
        before = tree(out)
        assert main(["train", "--config", path]) == 2
        assert capsys.readouterr().err == f"error: {out / blocked}: Is a directory\n"
        assert tree(out) == before

    def test_boundary_writes_no_cell_when_the_last_cannot_be_written(self, trained, capsys):
        base, out, cfg = trained
        payload = {
            "task": cfg["task"],
            "model": {"checkpoint": str(out / "model.ckpt")},
            "boundary": {"sigma_grid": [0.05, 0.25], "rho_grid": [0.9], "resolution": 20},
            "output": {"dir": str(out / "boundary")},
        }
        path = write_config(base / "boundary.json", payload)
        blocked = out / "boundary" / "boundary_sigma0.25_rho0.9.pgm"
        blocked.mkdir(parents=True)
        before = tree(out)
        assert main(["boundary", "--config", path]) == 2
        assert capsys.readouterr().err == f"error: {blocked}: Is a directory\n"
        assert tree(out) == before
        blocked.rmdir()
        assert main(["boundary", "--config", path]) == 0
        assert sorted(tree(out / "boundary")) == [
            f"boundary_sigma{s}_rho0.9.{x}" for s in ("0.05", "0.25") for x in ("csv", "pgm")
        ]


class TestOutputResolution:
    def test_env_does_not_redirect_output(self, trained, tmp_path, monkeypatch):
        """`--out` and `output.dir` are the only ways to set the output
        directory: an SMD_OUT left in the environment sets nothing."""
        base, out, cfg = trained
        monkeypatch.setenv("SMD_OUT", str(tmp_path / "env_out"))
        cfg2 = dict(cfg, output={"dir": str(tmp_path / "config_out")})
        path = write_config(base / "envtrain.json", cfg2)
        assert main(["train", "--config", path]) == 0
        assert (tmp_path / "config_out" / "model.ckpt").exists()
        assert not (tmp_path / "env_out").exists()

    def test_out_naming_a_file_exits_2(self, trained, tmp_path, capsys):
        base, out, cfg = trained
        taken = tmp_path / "taken"
        taken.write_text("kept")
        path = write_config(base / "filetrain.json", cfg)
        assert main(["train", "--config", path, "--out", str(taken)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot make output directory {taken}: File exists\n"
        )
        assert taken.read_text() == "kept"

    def test_flag_overrides_config(self, trained, tmp_path):
        base, out, cfg = trained
        flag_dir = tmp_path / "flag_out"
        path = write_config(base / "flagtrain.json", cfg)
        assert main(["train", "--config", path, "--out", str(flag_dir)]) == 0
        assert (flag_dir / "model.ckpt").exists()


# The command each file under configs/ is written for.
SHIPPED_CONFIGS = {
    "spiral_train.json": "train",
    "spiral_search.json": "search",
    "spiral_evolve.json": "evolve",
    "spiral_boundary.json": "boundary",
    "spiral_ablate.json": "ablate",
    "cifar10_wideresnet_stub.json": "ablate",
    "imagenet_search_stub.json": "search",
    "imagenet_evolve_stub.json": "evolve",
}


class TestShippedConfigs:
    def test_spiral_configs_parse(self):
        for name in SHIPPED_CONFIGS:
            cfg = load_config(CONFIG_DIR / name)
            assert isinstance(cfg, dict)

    def test_spiral_configs_share_one_task_section(self):
        tasks = [load_config(CONFIG_DIR / f"spiral_{base}.json")["task"] for base in SPIRAL_BASES]
        assert all(task == tasks[0] for task in tasks)

    def test_each_config_passes_its_command_check(self, tmp_path, monkeypatch):
        """`config.check` reads no data or checkpoint, so the stubs pass it
        too. An evolve config's search result is the search step's output;
        a stand-in for it is written where the config points."""
        assert sorted(p.name for p in CONFIG_DIR.iterdir()) == sorted(SHIPPED_CONFIGS)
        monkeypatch.chdir(tmp_path)
        for name, command in SHIPPED_CONFIGS.items():
            cfg = load_config(CONFIG_DIR / name)
            if "search_result" in cfg.get("mutation", {}):
                found = Path(cfg["mutation"]["search_result"])
                found.parent.mkdir(parents=True, exist_ok=True)
                found.write_text(json.dumps({"sigma": 0.05, "rho": 0.9}))
            check(cfg, command, str(tmp_path / "out"))

    def test_stub_configs_are_not_runnable(self, tmp_path):
        # the stubs reference external models that do not exist: exit 2
        assert main(["ablate", "--config", str(CONFIG_DIR / "cifar10_wideresnet_stub.json"),
                     "--out", str(tmp_path)]) == 2
