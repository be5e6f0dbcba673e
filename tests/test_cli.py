import contextlib
import copy
import dataclasses
import io
import json
import os
import signal
import struct
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hiercurric import benchmark as bm
from hiercurric import cli, config as cf, curriculum as cu, dataprep as dp
from hiercurric import model as md, taxonomy, transfer
from hiercurric import nnkernel as nk
from hiercurric.cli import EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION
from conftest import ANIMAL_EDGES
from test_model import replace_manifest, rewrite_manifest

MARKS = "dog\nfish\ncar\n"


@pytest.fixture
def marks_file(tmp_path):
    path = tmp_path / "marks.txt"
    path.write_text(MARKS)
    return path


def synth_args(out, seed=3, samples=8, image="1x8x8"):
    return ["synth", "--n-basic", "2", "--subs-per-basic", "2",
            "--samples-per-sub", str(samples), "--image-size", image,
            "--seed", str(seed), "--out", str(out)]


def train_config(tmp_path, out_name="run", regime=None, regimes=None,
                 extra=None, iters=6):
    config = {
        "output": {"directory": str(tmp_path / out_name)},
        "data": {
            "synthetic": {"n_basic": 2, "subs_per_basic": 2,
                          "image_size": [1, 8, 8], "samples_per_sub": 12,
                          "noise_scale": 0.1, "seed": 5},
            "split": {"n_train_per_class": 8, "max_test_per_class": 4,
                      "seed": 6},
        },
        "model": {"name": "benchmark", "input_shape": [1, 8, 8],
                  "init": "scaled"},
    }
    phase = {"iterations": iters, "seed": 7, "eval_every": 3,
             "checkpoint_every": iters, "sgd": {"batch_size": 8}}
    if regimes is not None:
        config["regimes"] = regimes
    else:
        config["regime"] = regime or {"kind": "Reference", "phase_b": phase}
    if extra:
        config.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path, config


def _tree(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def phase(iters=6, seed=7, **kw):
    out = {"iterations": iters, "seed": seed, "eval_every": 3,
           "checkpoint_every": iters, "sgd": {"batch_size": 8}}
    out.update(kw)
    return out


class TestTaxonomyCmd:
    def test_golden_labelmap_csv(self, animal_file, marks_file, tmp_path):
        out = tmp_path / "tax"
        code = cli.main(["taxonomy", "--synsets", str(animal_file),
                         "--marks", str(marks_file), "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "labelmap.csv").read_text() == (
            "leaf_id,sub_index,basic_index,basic_id\n"
            "beagle,0,1,dog\n"
            "fish,1,2,fish\n"
            "poodle,2,1,dog\n"
            "suv,3,0,car\n")
        assert (out / "height_histogram.csv").read_text() == (
            "height,count\n0,1\n1,2\n")

    def test_missing_marks_exits_2_no_outputs(self, animal_file, tmp_path):
        out = tmp_path / "tax"
        code = cli.main(["taxonomy", "--synsets", str(animal_file),
                         "--marks", str(tmp_path / "nope.txt"),
                         "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert not out.exists()

    def test_uncovered_leaf_exits_2(self, animal_file, tmp_path, capsys):
        marks = tmp_path / "marks.txt"
        marks.write_text("dog\ncar\n")
        out = tmp_path / "tax"
        code = cli.main(["taxonomy", "--synsets", str(animal_file),
                         "--marks", str(marks), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "fish" in capsys.readouterr().err
        assert not out.exists()

    def test_height_mode_changes_only_histogram(self, tmp_path, marks_file):
        synsets = tmp_path / "s.txt"
        synsets.write_text("root>dog\nroot>fish\nroot>car\ndog>poodle\n"
                           "fish>tuna\ncar>suv\ncar>van\nvan>minivan\n")
        marks_file.write_text("dog\nfish\ncar\n")
        outs = {}
        for mode in ("longest", "shortest"):
            out = tmp_path / mode
            assert cli.main(["taxonomy", "--synsets", str(synsets),
                             "--marks", str(marks_file), "--out", str(out),
                             "--height-mode", mode]) == EXIT_OK
            outs[mode] = out
        assert ((outs["longest"] / "labelmap.csv").read_bytes()
                == (outs["shortest"] / "labelmap.csv").read_bytes())
        assert ((outs["longest"] / "height_histogram.csv").read_bytes()
                != (outs["shortest"] / "height_histogram.csv").read_bytes())


    @pytest.mark.parametrize("mode", ["longest", "shortest"])
    def test_5000_level_chain_exits_0(self, tmp_path, mode):
        synsets, marks = tmp_path / "s.txt", tmp_path / "m.txt"
        synsets.write_text("".join(f"n{i}>n{i + 1}\n" for i in range(5000)))
        marks.write_text("n0\n")
        out = tmp_path / "tax"
        assert cli.main(["taxonomy", "--synsets", str(synsets), "--marks",
                         str(marks), "--out", str(out),
                         "--height-mode", mode]) == EXIT_OK
        assert (out / "labelmap.csv").read_text().splitlines()[1] == "n5000,0,0,n0"
        assert (out / "height_histogram.csv").read_text() == (
            "height,count\n5000,1\n")


class TestSynthCmd:
    def test_sample_count_and_files(self, tmp_path):
        out = tmp_path / "data"
        assert cli.main(synth_args(out)) == EXIT_OK
        manifest = dp.load_manifest(out / "manifest.csv")
        assert len(manifest) == 2 * 2 * 8
        assert (out / "synsets.txt").exists()
        assert (out / "basic_marks.txt").exists()
        assert len(list((out / "tensors").glob("*.tnsr"))) == 32

    def test_rerun_byte_identical(self, tmp_path):
        files = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(synth_args(out)) == EXIT_OK
            files.append({p.relative_to(out): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
        assert files[0] == files[1]

    def test_default_flags_give_standard_600_samples(self, tmp_path):
        out = tmp_path / "standard"
        assert cli.main(["synth", "--seed", "1", "--out", str(out)]) == EXIT_OK
        assert len(dp.load_manifest(out / "manifest.csv")) == 600

    @pytest.mark.parametrize("flags, given", [
        ([], {}),
        (["--n-basic", "2", "--image-size", "1x8x8", "--noise-scale", "0.5"],
         {"n_basic": 2, "image_size": (1, 8, 8), "noise_scale": 0.5}),
    ], ids=["no-flags", "some-flags"])
    def test_unset_flags_take_benchmark_values(self, tmp_path, flags, given):
        out, expected = tmp_path / "cli", tmp_path / "expected"
        assert cli.main(["synth", *flags, "--seed", "4", "--out", str(out)]) == EXIT_OK
        spec = dataclasses.replace(bm.synth_spec(4), **given)
        dp.save_dataset(dp.generate_synthetic(spec), expected)
        assert _tree(out) == _tree(expected)

    @pytest.mark.parametrize("size", ["3x16", "3xA", "0x8x8", "3x-8x8",
                                      "3x8x8x8", "3x 8x8"])
    def test_bad_image_size_rejected_by_parser(self, tmp_path, capsys, size):
        with pytest.raises(SystemExit) as exc:
            cli.main(synth_args(tmp_path / "data", image=size))
        assert exc.value.code == EXIT_VALIDATION
        assert "three positive integers" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()


class TestPrepareCmd:
    def test_counts_sum_to_manifest_size(self, tmp_path, animal_file,
                                         marks_file, capsys):
        graph = taxonomy.validate_basic_marks(
            taxonomy.parse_synset_file(animal_file), {"dog", "fish", "car"})
        labelmap = taxonomy.allocate_descendants(graph)
        taxonomy.labelmap_to_csv(labelmap, tmp_path / "lm.csv")
        samples = tuple(dp.Sample(f"s{i:03d}", f"t/{i}.tnsr",
                                  ["poodle", "beagle", "fish", "suv"][i % 4])
                        for i in range(40))
        dp.save_manifest(dp.DatasetManifest(samples), tmp_path / "m.csv")
        out = tmp_path / "prep"
        code = cli.main(["prepare", "--manifest", str(tmp_path / "m.csv"),
                         "--labelmap", str(tmp_path / "lm.csv"),
                         "--level", "basic", "--cap", "7", "--seed", "1",
                         "--out", str(out)])
        assert code == EXIT_OK
        rows = (out / "category_counts.csv").read_text().splitlines()[1:]
        total = sum(int(r.split(",")[1]) for r in rows)
        capped = dp.load_manifest(out / "capped_manifest.csv")
        assert total == len(capped)
        assert "total retained" in capsys.readouterr().out

        rerun = tmp_path / "prep2"
        assert cli.main(["prepare", "--manifest", str(tmp_path / "m.csv"),
                         "--labelmap", str(tmp_path / "lm.csv"),
                         "--level", "basic", "--cap", "7", "--seed", "1",
                         "--out", str(rerun)]) == EXIT_OK
        assert ((out / "capped_manifest.csv").read_bytes()
                == (rerun / "capped_manifest.csv").read_bytes())

    def test_uncuttable_splits_write_and_print_nothing(self, tmp_path, animal_file,
                                                       capsys):
        """The splits are cut before the capped manifest and the counts are
        written or printed, so a failed cut leaves no output directory."""
        graph = taxonomy.validate_basic_marks(
            taxonomy.parse_synset_file(animal_file), {"dog", "fish", "car"})
        taxonomy.labelmap_to_csv(taxonomy.allocate_descendants(graph),
                                 tmp_path / "lm.csv")
        leaves = ["poodle", "beagle", "fish", "suv"]
        dp.save_manifest(dp.DatasetManifest(tuple(
            dp.Sample(f"s{i:03d}", f"t/{i}.tnsr", leaves[i % 4]) for i in range(40))),
            tmp_path / "m.csv")
        out = tmp_path / "prep"
        code = cli.main(["prepare", "--manifest", str(tmp_path / "m.csv"),
                         "--labelmap", str(tmp_path / "lm.csv"), "--level", "sub",
                         "--cap", "20", "--seed", "1", "--splits", "2",
                         "--train-per-class", "25", "--out", str(out)])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "has 10 samples, needs at least 26" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_non_integer_sub_index_exits_2(self, tmp_path, capsys):
        (tmp_path / "lm.csv").write_text(
            "leaf_id,sub_index,basic_index,basic_id\npoodle,0.5,0,dog\n")
        dp.save_manifest(dp.DatasetManifest((dp.Sample("s0", "t/0.tnsr", "poodle"),)),
                         tmp_path / "m.csv")
        code = cli.main(["prepare", "--manifest", str(tmp_path / "m.csv"),
                         "--labelmap", str(tmp_path / "lm.csv"),
                         "--level", "basic", "--cap", "1", "--seed", "1",
                         "--out", str(tmp_path / "prep")])
        assert code == EXIT_VALIDATION
        assert "sub_index" in capsys.readouterr().err


class TestDedupCmd:
    def test_self_dedup_is_empty(self, tmp_path):
        data_dir = tmp_path / "data"
        assert cli.main(synth_args(data_dir, seed=11)) == EXIT_OK
        out = tmp_path / "dedup"
        code = cli.main(["dedup", "--manifest-a", str(data_dir / "manifest.csv"),
                         "--images-a", str(data_dir), "--threshold", "1.0",
                         "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "overlap.csv").read_text() == "id_a,id_b,score\n"
        filtered = dp.load_manifest(out / "filtered_manifest.csv")
        assert len(filtered) == 32

    def test_injected_duplicate_found(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert cli.main(synth_args(a_dir, seed=12)) == EXIT_OK
        assert cli.main(synth_args(b_dir, seed=13)) == EXIT_OK
        man_a = dp.load_manifest(a_dir / "manifest.csv")
        man_b = dp.load_manifest(b_dir / "manifest.csv")
        src = a_dir / man_a.samples[0].source
        dst = b_dir / man_b.samples[5].source
        dst.write_bytes(src.read_bytes())
        out = tmp_path / "dedup"
        code = cli.main(["dedup", "--manifest-a", str(a_dir / "manifest.csv"),
                         "--images-a", str(a_dir),
                         "--manifest-b", str(b_dir / "manifest.csv"),
                         "--images-b", str(b_dir), "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "overlap.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith(man_a.samples[0].sample_id)
        assert lines[1].endswith("1.000000")

    @pytest.mark.parametrize("text, match", [
        ("sample_id,leaf_id\ns0,poodle\n", "missing column(s) path"),
        ("sample_id,path,leaf_id\ns0,t/0.tnsr\n", "line 2: expected 3 fields"),
        ("sample_id,path,leaf_id\n", "the manifest is empty"),
    ], ids=["missing-column", "short-row", "header-only"])
    def test_malformed_manifest_exits_2(self, tmp_path, capsys, text, match):
        (tmp_path / "m.csv").write_text(text)
        code = cli.main(["dedup", "--manifest-a", str(tmp_path / "m.csv"),
                         "--images-a", str(tmp_path),
                         "--out", str(tmp_path / "dedup")])
        assert code == EXIT_VALIDATION
        assert match in capsys.readouterr().err
        assert not (tmp_path / "dedup").exists()

    def test_nul_in_manifest_path_exits_2(self, tmp_path, capsys):
        (tmp_path / "m.csv").write_text("sample_id,path,leaf_id\ns0,t/0\0.tnsr,poodle\n")
        code = cli.main(["dedup", "--manifest-a", str(tmp_path / "m.csv"),
                         "--images-a", str(tmp_path),
                         "--out", str(tmp_path / "dedup")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "line 2: " in err and "NUL" in err
        assert not (tmp_path / "dedup").exists()

    def test_side_with_two_shapes_exits_2_and_writes_nothing(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert cli.main(synth_args(data_dir, seed=14)) == EXIT_OK
        samples = dp.load_manifest(data_dir / "manifest.csv").samples
        nk.save_tensor(np.zeros((1, 4, 4), np.float32), data_dir / samples[3].source)
        out = tmp_path / "dedup"
        code = cli.main(["dedup", "--manifest-a", str(data_dir / "manifest.csv"),
                         "--images-a", str(data_dir), "--out", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert samples[3].sample_id in err and samples[0].sample_id in err
        assert not out.exists()


class TestTrainCmd:
    def test_dry_run_prints_chain_and_writes_nothing(self, tmp_path, capsys):
        config_path, config = train_config(tmp_path)
        code = cli.main(["train", "--config", str(config_path), "--dry-run"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "conv1" in out and "parameters:" in out
        assert not (tmp_path / "run").exists()

    def test_rerun_byte_identical_curves_and_checkpoints(self, tmp_path):
        config_path, config = train_config(tmp_path)
        grabs = []
        for run in range(2):
            out = tmp_path / "run"
            assert cli.main(["train", "--config", str(config_path)]) == EXIT_OK
            grabs.append({p.relative_to(out): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
            if run == 0:
                for p in sorted(out.rglob("*")):
                    if p.is_file():
                        p.unlink()
        assert grabs[0] == grabs[1]

    def test_checkpoints_record_each_phase_lr_mults(self, tmp_path):
        """A lowering facilitated run writes phase B checkpoints with conv1
        and conv2 at lowered_mult and every other entry at 1.0; every phase A
        entry is at 1.0."""
        config_path, _ = train_config(tmp_path, regime={
            "kind": "FacilitatedReplicatedHead",
            "phase_a": phase(seed=8, checkpoint_every=3),
            "phase_b": phase(checkpoint_every=3, lowered_prefix=2,
                             lowered_mult=0.1)})
        assert cli.main(["train", "--config", str(config_path)]) == EXIT_OK
        for phase_dir, lowered in (("phase_a", ()), ("phase_b", ("conv1", "conv2"))):
            paths = sorted((tmp_path / "run" / phase_dir).glob("*.ckpt"))
            assert len(paths) == 2, phase_dir
            for path in paths:
                buf = path.read_bytes()
                (length,) = struct.unpack_from("<Q", buf, 8)
                mults = {e["name"]: e["lr_mult"]
                         for e in json.loads(buf[16:16 + length])["entries"]}
                assert mults == {name: 0.1 if name.split(".")[0] in lowered
                                 else 1.0 for name in mults}, path

    def test_unknown_config_key_exits_2(self, tmp_path):
        config_path, config = train_config(tmp_path)
        config["surprise"] = 1
        config_path.write_text(json.dumps(config))
        assert cli.main(["train", "--config", str(config_path)]) == EXIT_VALIDATION
        # dropout comes from the Dropout layer, not from the optimizer
        config_path, config = train_config(tmp_path)
        config["regime"]["phase_b"]["sgd"]["dropout_rate"] = 0.5
        config_path.write_text(json.dumps(config))
        assert cli.main(["train", "--config", str(config_path)]) == EXIT_VALIDATION

    @pytest.mark.parametrize("regime, layers, match", [
        (None, [{"kind": "conv", "name": "c1", "maps": 4, "kw": 3},
                {"kind": "fc", "name": "out", "units": 2}],
         "model.layers[0]: missing key 'kh'"),
        (None, [{"kind": "relu", "name": "r1", "rate": 0.5},
                {"kind": "fc", "name": "out", "units": 2}],
         "model.layers[0]: unknown key 'rate'"),
        ({"kind": "FacilitatedReplicatedHead", "phase_a": phase(seed=8),
          "phase_b": phase(), "pretrain_categories": ["sub_00_00"]}, None,
         "takes no pretrain_categories"),
        ({"kind": "RandomSubsetPretrain", "phase_a": phase(seed=8),
          "phase_b": phase(), "pretrain_categories": ["sub_00_00"],
          "pretrain_sample": {"count": 1, "seed": 3}}, None, "not both"),
        (None, [{"kind": "fc", "name": "f1", "units": 0},
                {"kind": "fc", "name": "out", "units": 2}],
         "model: layer 'f1': units 0 must be >= 1"),
        (None, [{"kind": "dropout", "name": "d1", "rate": 5},
                {"kind": "fc", "name": "out", "units": 2}],
         "model: layer 'd1': rate 5 must be in [0, 1)"),
    ], ids=["missing-field", "unknown-field", "pretrain-on-facilitated",
            "both-pretrain-keys", "fc-zero-units", "dropout-rate-above-1"])
    def test_malformed_or_no_effect_config_exits_2(self, tmp_path, capsys,
                                                   regime, layers, match):
        config_path, config = train_config(tmp_path, regime=regime)
        if layers is not None:
            config["model"] = {"input_shape": [1, 8, 8], "layers": layers}
            config_path.write_text(json.dumps(config))
        code = cli.main(["train", "--config", str(config_path), "--dry-run"])
        assert code == EXIT_VALIDATION
        assert match in capsys.readouterr().err

    def test_unchecked_flag_exits_2(self, tmp_path, capsys):
        """The NaN/Inf scan has no off switch."""
        config_path, _ = train_config(tmp_path, iters=2)
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--config", str(config_path), "--unchecked"])
        assert exc.value.code == EXIT_VALIDATION
        assert "unrecognized arguments: --unchecked" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert cli.main(["train", "--config", str(tmp_path / "none.json")]) \
            == EXIT_VALIDATION

    def test_corrupt_run_manifest_exits_2(self, tmp_path, capsys):
        config_path, _ = train_config(tmp_path, iters=2)
        assert cli.main(["train", "--config", str(config_path)]) == EXIT_OK
        manifest = tmp_path / "run" / "MANIFEST.json"
        manifest.write_bytes(manifest.read_bytes()[:30])
        assert cli.main(["train", "--config", str(config_path)]) == EXIT_VALIDATION
        assert f"{manifest} is not valid JSON" in capsys.readouterr().err
        manifest.write_text("[]")
        assert cli.main(["train", "--config", str(config_path)]) == EXIT_VALIDATION
        assert "refusing to mix runs" in capsys.readouterr().err

    def test_manifest_hash_guard(self, tmp_path):
        config_path, config = train_config(tmp_path)
        assert cli.main(["train", "--config", str(config_path)]) == EXIT_OK
        config["data"]["synthetic"]["seed"] = 99
        config_path.write_text(json.dumps(config))
        assert cli.main(["train", "--config", str(config_path)]) == EXIT_VALIDATION

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_numeric_fault_exits_3(self, tmp_path, capsys):
        blowup = {"kind": "Reference",
                  "phase_b": phase(iters=8, sgd={"batch_size": 8,
                                                 "base_lr": 1e28})}
        config_path, _ = train_config(tmp_path, out_name="boom", regime=blowup)
        code = cli.main(["train", "--config", str(config_path)])
        assert code == EXIT_NUMERIC
        assert "iteration" in capsys.readouterr().err

    def test_numeric_fault_names_layer(self, tmp_path, capsys, monkeypatch):
        build = md.build_model

        def nan_in_conv2(*args, **kwargs):
            ckpt = build(*args, **kwargs)
            ckpt.params["conv2.weight"].weight[0, 0, 0, 0] = np.nan
            return ckpt

        monkeypatch.setattr(md, "build_model", nan_in_conv2)
        config_path, _ = train_config(tmp_path, out_name="nan")
        assert cli.main(["train", "--config", str(config_path)]) == EXIT_NUMERIC
        assert "iteration 0: layer 'conv2' forward: non-finite" in capsys.readouterr().err

    def test_regime_matrix_five_subdirectories(self, tmp_path):
        regimes = [
            {"name": "reference", "kind": "Reference", "phase_b": phase()},
            {"name": "reference_extended", "kind": "ReferenceExtended",
             "phase_a": phase(seed=21), "phase_b": phase(seed=22)},
            {"name": "random_subset", "kind": "RandomSubsetPretrain",
             "phase_a": phase(seed=23), "phase_b": phase(seed=24),
             "pretrain_sample": {"count": 2, "seed": 25}},
            {"name": "facilitated_random", "kind": "FacilitatedRandomHead",
             "phase_a": phase(seed=26), "phase_b": phase(seed=27)},
            {"name": "facilitated_replicated",
             "kind": "FacilitatedReplicatedHead",
             "phase_a": phase(seed=28), "phase_b": phase(seed=29)},
        ]
        config_path, _ = train_config(tmp_path, out_name="matrix",
                                      regimes=regimes)
        assert cli.main(["train", "--config", str(config_path)]) == EXIT_OK
        out = tmp_path / "matrix"
        names = {p.name for p in out.iterdir() if p.is_dir()}
        assert names == {"reference", "reference_extended", "random_subset",
                         "facilitated_random", "facilitated_replicated"}
        for name in names:
            assert (out / name / "curves.csv").exists()
            assert (out / name / "final.json").exists()

    def test_two_jobs_write_the_tree_of_one(self, tmp_path, monkeypatch):
        """A matrix runs its regimes in turn on the main thread, in config
        order, on one usable CPU or two, and writes the same bytes."""
        regimes = [
            {"name": "reference", "kind": "Reference", "phase_b": phase()},
            {"name": "facilitated", "kind": "FacilitatedReplicatedHead",
             "phase_a": phase(seed=21), "phase_b": phase(seed=22)},
        ]
        config_path, _ = train_config(tmp_path, regimes=regimes)
        run_regime, on_main, order = cu.run_regime, [], []

        def spy(*args, **kw):
            on_main.append(threading.current_thread() is threading.main_thread())
            order.append(Path(kw["out_dir"]).name)
            return run_regime(*args, **kw)

        monkeypatch.setattr(cu, "run_regime", spy)
        trees = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                                raising=False)
            out = tmp_path / f"cpus{len(cpus)}"
            assert cli.main(["train", "--config", str(config_path), "--out",
                             str(out)]) == EXIT_OK
            trees.append(_tree(out))
        assert on_main == [True] * 4
        assert order == ["reference", "facilitated"] * 2
        assert len(trees[0]) > 5
        assert trees[0] == trees[1]

    def test_every_regime_of_a_matrix_uses_the_conv_worker(self, tmp_path,
                                                            monkeypatch):
        """Each regime's training forwards run their second batch half on
        the conv worker thread; every first half or whole eval batch runs on
        the main thread."""
        regimes = [
            {"name": "first", "kind": "Reference", "phase_b": phase()},
            {"name": "second", "kind": "Reference", "phase_b": phase(seed=8)},
        ]
        config_path, _ = train_config(tmp_path, regimes=regimes)
        run_regime, real_gemm, running, calls = cu.run_regime, nk._conv_gemm, [], []

        def spy(*args, **kw):
            running.append(Path(kw["out_dir"]).name)
            return run_regime(*args, **kw)

        def recording_gemm(*args):
            lo = args[-2]  # a chain that starts past sample 0 is a second half
            calls.append((running[-1], lo > 0, threading.current_thread()))
            real_gemm(*args)

        monkeypatch.setattr(cu, "run_regime", spy)
        monkeypatch.setattr(nk, "_conv_gemm", recording_gemm)
        assert cli.main(["train", "--config", str(config_path)]) == EXIT_OK
        for name in ("first", "second"):
            second = {t.name for n, half, t in calls if n == name and half}
            assert second and all(t.startswith("conv-dw") for t in second), second
            assert {t for n, half, t in calls if n == name and not half} == {
                threading.main_thread()}

    def test_transfer_section_runs_probe(self, tmp_path):
        extra = {"transfer": {"n_train_per_class": 4, "max_test_per_class": 4,
                              "n_splits": 2, "seed": 41, "iters": 20}}
        config_path, _ = train_config(tmp_path, out_name="probe_run",
                                      extra=extra)
        assert cli.main(["train", "--config", str(config_path)]) == EXIT_OK
        assert (tmp_path / "probe_run" / "transfer" / "probe.json").exists()

    def test_transfer_probe_gets_final_weights_without_momentum(
            self, tmp_path, monkeypatch):
        """Each regime's final checkpoint is kept for the probe as weights
        and lr multipliers only; its trained momentum is freed."""
        extra = {"transfer": {"n_train_per_class": 4, "max_test_per_class": 4,
                              "n_splits": 2, "seed": 41, "iters": 20}}
        phase = {"iterations": 6, "seed": 7, "eval_every": 3,
                 "checkpoint_every": 6, "sgd": {"batch_size": 8}}
        regimes = [{"kind": "Reference", "name": "a", "phase_b": phase},
                   {"kind": "Reference", "name": "b",
                    "phase_b": dict(phase, seed=8)}]
        config_path, _ = train_config(tmp_path, out_name="probe_run",
                                      regimes=regimes, extra=extra)
        received, evaluate_probe = [], transfer.evaluate_probe

        def spy(ckpts, *args):
            ckpts = list(ckpts)
            received.extend(ckpts)
            return evaluate_probe(ckpts, *args)

        monkeypatch.setattr(transfer, "evaluate_probe", spy)
        assert cli.main(["train", "--config", str(config_path)]) == EXIT_OK
        assert len(received) == 2
        for name, ckpt in zip("ab", received):
            saved = md.load_checkpoint(
                tmp_path / "probe_run" / name / "phase_b" / "ckpt_00000006.ckpt")
            assert list(ckpt.params) == list(saved.params)
            for entry, kept in zip(ckpt.params.values(), saved.params.values()):
                assert entry.weight.tobytes() == kept.weight.tobytes()
                assert entry.lr_mult == kept.lr_mult
                assert not entry.momentum.any()

    def test_hiercurric_out_env_resolves_relative(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HIERCURRIC_OUT", str(tmp_path / "root"))
        config_path, _ = train_config(tmp_path, out_name="ignored")
        code = cli.main(["train", "--config", str(config_path),
                         "--out", "rel_run", "--dry-run"])
        assert code == EXIT_OK
        assert cli.resolve_out("rel_run") == tmp_path / "root" / "rel_run"


DELETE = object()
SUBSET = {"kind": "RandomSubsetPretrain", "phase_a": phase(seed=8),
          "phase_b": phase(), "pretrain_sample": {"count": 1, "seed": 3}}
CAP = {"cap": 4, "seed": 1}
PROBE = {"n_train_per_class": 4, "seed": 41}
INLINE = {"input_shape": [1, 8, 8],
          "layers": [{"kind": "fc", "name": "out", "units": 4}]}
NAME_KIND = "non-empty str, one path component"
MATRIX = [("regime", DELETE),
          ("regimes", [{"name": "a", "kind": "Reference", "phase_b": phase()}])]
FACILITATED = {"kind": "FacilitatedReplicatedHead", "phase_a": phase(seed=8),
               "phase_b": phase()}
LATE_MATRIX = [("regime", DELETE), ("regimes", [
    {"name": "a", "kind": "Reference", "phase_b": phase()},
    {"name": "b", "kind": "RandomSubsetPretrain", "phase_a": phase(seed=8),
     "phase_b": phase(), "pretrain_categories": ["sub_00_00"]},
    {"name": "c", "kind": "FacilitatedReplicatedHead",
     "phase_a": phase(seed=8), "phase_b": phase()}])]


def _case(case_id, edits, message=None):
    """One bad config: ``edits`` are (dotted key, value) pairs applied to the
    standard train config (DELETE drops the key; "" replaces the whole
    config); ``message`` is what the error names, where a config check
    rather than a library function rejects it."""
    edits = [edits] if isinstance(edits, tuple) else edits
    return pytest.param(edits, message, id=case_id)


# every kind of rejection the config checks make
CONFIG_REJECTIONS = [
    # an unknown key at each nesting level
    _case("unknown-root", ("surprise", 1), "config: unknown key 'surprise'"),
    _case("unknown-output", ("output.x", 1), "output: unknown key 'x'"),
    _case("unknown-taxonomy", ("taxonomy", {"synsets": "s", "marks": "m", "x": 1}),
          "taxonomy: unknown key 'x'"),
    _case("unknown-data", ("data.x", 1), "data: unknown key 'x'"),
    _case("unknown-synthetic", ("data.synthetic.x", 1),
          "data.synthetic: unknown key 'x'"),
    _case("unknown-cap", ("data.cap", dict(CAP, x=1)), "data.cap: unknown key 'x'"),
    _case("unknown-split", ("data.split.x", 1), "data.split: unknown key 'x'"),
    _case("unknown-model", ("model.x", 1), "model: unknown key 'x'"),
    _case("unknown-regime", ("regime.x", 1), "regime: unknown key 'x'"),
    _case("unknown-phase", ("regime.phase_b.x", 1), "regime.phase_b: unknown key 'x'"),
    _case("phase-max-iterations", ("regime.phase_b.max_iterations", 6),
          "regime.phase_b: unknown key 'max_iterations'"),
    _case("phase-task-level", ("regime.phase_b.task_level", "sub"),
          "regime.phase_b: unknown key 'task_level'"),
    _case("unknown-sgd", ("regime.phase_b.sgd.x", 1),
          "regime.phase_b.sgd: unknown key 'x'"),
    _case("unknown-pretrain-sample", [("regime", SUBSET),
                                      ("regime.pretrain_sample.x", 1)],
          "regime.pretrain_sample: unknown key 'x'"),
    _case("unknown-regimes-item", MATRIX + [("regimes.0.x", 1)],
          "regimes[0]: unknown key 'x'"),
    _case("unknown-transfer", ("transfer", dict(PROBE, x=1)),
          "transfer: unknown key 'x'"),
    _case("transfer-sgd", ("transfer", dict(PROBE, sgd={})),
          "transfer: unknown key 'sgd'"),
    # a value of the wrong type
    _case("type-str-int", ("data.synthetic.n_basic", "2"),
          "data.synthetic.n_basic: must be int"),
    _case("type-bool-float", ("data.synthetic.noise_scale", True),
          "data.synthetic.noise_scale: must be float"),
    _case("type-short-size", ("data.synthetic.image_size", [1, 8]),
          "data.synthetic.image_size: must be tuple[int, int, int]"),
    _case("type-str-seed", ("data.split.seed", "6"), "data.split.seed: must be int"),
    _case("type-bool-int", ("regime.phase_b.iterations", True),
          "regime.phase_b.iterations: must be int"),
    _case("type-str-float", ("regime.phase_b.sgd.base_lr", "0.1"),
          "regime.phase_b.sgd.base_lr: must be float"),
    _case("type-null-float", ("regime.phase_b.sgd.momentum", None),
          "regime.phase_b.sgd.momentum: must be float"),
    _case("type-shape-item", ("model.input_shape", [1, "8", 8]),
          "model.input_shape: must be tuple[int, int, int]"),
    _case("type-regime-name", ("regime.name", 3),
          "regime.name: must be non-empty str"),
    _case("type-categories-item", [("regime", SUBSET),
                                   ("regime.pretrain_sample", DELETE),
                                   ("regime.pretrain_categories", [3])],
          "regime.pretrain_categories[0]: must be str"),
    _case("type-transfer-layer", ("transfer", dict(PROBE, layer=3)),
          "transfer.layer: must be str | None"),
    _case("type-directory", ("output.directory", 5),
          "output.directory: must be non-empty str"),
    _case("type-manifest", ("data.manifest", 5), "data.manifest: must be str"),
    # a NUL byte in a path the OS would refuse to open
    _case("nul-directory", ("output.directory", "x\0y"),
          "output.directory: must be non-empty str, no NUL byte"),
    _case("nul-synsets", ("taxonomy", {"synsets": "s\0", "marks": "m"}),
          "taxonomy.synsets: must be str, no NUL byte"),
    _case("nul-marks", ("taxonomy", {"synsets": "s", "marks": "\0m"}),
          "taxonomy.marks: must be str, no NUL byte"),
    _case("nul-manifest", ("data.manifest", "m\0.csv"),
          "data.manifest: must be str, no NUL byte"),
    _case("nul-images-root", ("data.images_root", "\0"),
          "data.images_root: must be str, no NUL byte"),
    _case("type-layers", ("model", dict(INLINE, layers={})),
          "model.layers: must be a non-empty list"),
    _case("type-layer-item", ("model", dict(INLINE, layers=[5])),
          "model.layers[0]: must be object"),
    _case("type-regimes-item", MATRIX + [("regimes", [5])],
          "regimes[0]: must be object"),
    _case("type-section", ("data", []), "data: must be object"),
    # a value below its minimum
    _case("min-n-basic", ("data.synthetic.n_basic", 0),
          "data.synthetic: all synthetic counts must be >= 1"),
    _case("min-prototype-scale", ("data.synthetic.prototype_scale", 0),
          "data.synthetic: prototype scale must be > 0"),
    _case("min-noise-scale", ("data.synthetic.noise_scale", -1),
          "data.synthetic: noise scale must be >= 0"),
    _case("min-image-size", ("data.synthetic.image_size", [0, 8, 8]),
          "data.synthetic: image dims must be >= 1"),
    _case("min-split-train", ("data.split.n_train_per_class", 0),
          "data.split.n_train_per_class: must be int >= 1"),
    _case("min-split-test", ("data.split.max_test_per_class", 0),
          "data.split.max_test_per_class: must be int >= 1"),
    _case("min-cap", ("data.cap", {"cap": 0, "seed": 1}),
          "data.cap.cap: must be int >= 1"),
    _case("min-iterations", ("regime.phase_b.iterations", 0),
          "regime.phase_b.iterations: must be int >= 1"),
    _case("min-eval-every", ("regime.phase_b.eval_every", 0),
          "regime.phase_b.eval_every: must be int >= 1"),
    _case("min-checkpoint-every", ("regime.phase_b.checkpoint_every", 0),
          "regime.phase_b.checkpoint_every: must be int >= 1"),
    _case("min-lowered-prefix", ("regime.phase_b.lowered_prefix", -1),
          "regime.phase_b: lowered_prefix must be >= 0"),
    _case("max-lowered-mult", ("regime.phase_b.lowered_mult", 1.5),
          "regime.phase_b: lowered_mult must be in [0, 1]"),
    _case("min-base-lr", ("regime.phase_b.sgd.base_lr", -1),
          "regime.phase_b.sgd: base_lr must be >= 0"),
    _case("max-momentum", ("regime.phase_b.sgd.momentum", 1),
          "regime.phase_b.sgd: momentum must be in [0, 1)"),
    _case("min-weight-decay", ("regime.phase_b.sgd.weight_decay", -1),
          "regime.phase_b.sgd: weight_decay must be >= 0"),
    _case("min-lr-gamma", ("regime.phase_b.sgd.lr_gamma", 0),
          "regime.phase_b.sgd: lr_gamma must be in (0, 1]"),
    _case("min-lr-step", ("regime.phase_b.sgd.lr_step", 0),
          "regime.phase_b.sgd: lr_step must be > 0"),
    _case("min-batch-size", ("regime.phase_b.sgd.batch_size", 0),
          "regime.phase_b.sgd: batch_size must be > 0"),
    _case("min-sample-count", [("regime", SUBSET),
                               ("regime.pretrain_sample.count", 0)],
          "regime.pretrain_sample.count: must be int >= 1"),
    _case("min-input-shape", ("model.input_shape", [0, 8, 8]),
          "model: input_shape (0, 8, 8) must be >= 1"),
    _case("min-fc-units", ("model", dict(INLINE, layers=[
        {"kind": "fc", "name": "f1", "units": 0}, *INLINE["layers"]])),
          "model: layer 'f1': units 0 must be >= 1"),
    _case("range-dropout-rate", ("model", dict(INLINE, layers=[
        {"kind": "dropout", "name": "d1", "rate": -0.5}, *INLINE["layers"]])),
          "model: layer 'd1': rate -0.5 must be in [0, 1)"),
    _case("kernel-does-not-fit", ("model", dict(INLINE, layers=[
        {"kind": "conv", "name": "c1", "maps": 2, "kh": 9, "kw": 9},
        *INLINE["layers"]])),
          "model: layer 'c1': kernel does not fit input (1, 8, 8)"),
    _case("empty-regime-name", ("regime.name", ""),
          "regime.name: must be non-empty str"),
    _case("empty-directory", ("output.directory", ""),
          "output.directory: must be non-empty str"),
    _case("min-transfer-train", ("transfer", dict(PROBE, n_train_per_class=0)),
          "transfer: n_train_per_class, max_test_per_class, n_splits and "
          "iters must be >= 1"),
    _case("min-transfer-test", ("transfer", dict(PROBE, max_test_per_class=0)),
          "transfer: n_train_per_class"),
    _case("min-transfer-splits", ("transfer", dict(PROBE, n_splits=0)),
          "transfer: n_train_per_class"),
    _case("min-transfer-iters", ("transfer", dict(PROBE, iters=0)),
          "transfer: n_train_per_class"),
    # each required seed, and the other required keys
    _case("seed-synthetic", ("data.synthetic.seed", DELETE),
          "data.synthetic: missing key 'seed'"),
    _case("seed-split", ("data.split.seed", DELETE), "data.split: missing key 'seed'"),
    _case("seed-cap", ("data.cap", {"cap": 4}), "data.cap: missing key 'seed'"),
    _case("seed-phase-b", ("regime.phase_b.seed", DELETE),
          "regime.phase_b: missing key 'seed'"),
    _case("seed-phase-a", [("regime", SUBSET), ("regime.phase_a.seed", DELETE)],
          "regime.phase_a: missing key 'seed'"),
    _case("seed-pretrain-sample", [("regime", SUBSET),
                                   ("regime.pretrain_sample.seed", DELETE)],
          "regime.pretrain_sample: missing key 'seed'"),
    _case("seed-transfer", ("transfer", {"n_train_per_class": 4}),
          "transfer: missing key 'seed'"),
    _case("need-data", ("data", DELETE), "config: missing key 'data'"),
    _case("need-model", ("model", DELETE), "config: missing key 'model'"),
    _case("need-kind", ("regime.kind", DELETE), "regime: missing key 'kind'"),
    _case("need-phase-b", ("regime.phase_b", DELETE),
          "regime: missing key 'phase_b'"),
    _case("need-iterations", ("regime.phase_b.iterations", DELETE),
          "regime.phase_b: missing key 'iterations'"),
    _case("need-marks", ("taxonomy", {"synsets": "s"}),
          "taxonomy: missing key 'marks'"),
    _case("need-cap", ("data.cap", {"seed": 1}), "data.cap: missing key 'cap'"),
    _case("need-split-train", ("data.split.n_train_per_class", DELETE),
          "data.split: missing key 'n_train_per_class'"),
    _case("need-sample-count", [("regime", SUBSET),
                                ("regime.pretrain_sample.count", DELETE)],
          "regime.pretrain_sample: missing key 'count'"),
    _case("need-transfer-train", ("transfer", {"seed": 41}),
          "transfer: missing key 'n_train_per_class'"),
    # a value outside its enum
    _case("enum-model-name", ("model.name", "resnet"),
          "model.name: must be one of desk, alexnet, benchmark"),
    _case("enum-regime-kind", ("regime.kind", "Bogus"),
          "regime.kind: must be one of Reference"),
    _case("enum-init", ("model.init", "xavier"),
          "model.init: must be one of fixed, scaled"),
    _case("enum-cap-level", ("data.cap", dict(CAP, level="leaf")),
          "data.cap.level: must be one of basic, sub"),
    # an empty list
    _case("empty-layers", ("model", dict(INLINE, layers=[])),
          "model.layers: must be a non-empty list"),
    _case("empty-regimes", MATRIX + [("regimes", [])],
          "regimes: must be a non-empty list"),
    _case("empty-categories", [("regime", SUBSET),
                               ("regime.pretrain_sample", DELETE),
                               ("regime.pretrain_categories", [])],
          "regime.pretrain_categories: must be a non-empty list"),
    # a regime that its kind's recipe does not allow (phase A's level comes
    # from the kind, so a config cannot set it wrong)
    _case("kind-needs-phase-a", ("regime.kind", "FacilitatedReplicatedHead"),
          "regime: FacilitatedReplicatedHead needs a phase A config"),
    _case("kind-takes-no-phase-a", ("regime.phase_a", phase(seed=8)),
          "regime: Reference takes no phase A"),
    _case("matrix-kind-needs-phase-a",
          MATRIX + [("regimes.0.kind", "FacilitatedRandomHead")],
          "regimes[0]: FacilitatedRandomHead needs a phase A config"),
    _case("lowered-on-phase-a", [("regime", SUBSET),
                                 ("regime.phase_a.lowered_prefix", 1)],
          "regime: lowered_prefix and lowered_mult act only on phase B"),
    _case("lowered-on-reference", ("regime.phase_b.lowered_mult", 0.5),
          "regime: Reference lowers no conv layers"),
    # phase B lowering that lowers nothing, or more conv layers than exist
    _case("lowered-mult-without-prefix",
          [("regime", FACILITATED), ("regime.phase_b.lowered_mult", 0.1)],
          "regime.phase_b.lowered_mult: lowers nothing"),
    _case("lowered-mult-with-prefix-zero",
          [("regime", FACILITATED), ("regime.phase_b.lowered_prefix", 0),
           ("regime.phase_b.lowered_mult", 0.1)],
          "regime.phase_b.lowered_prefix: lowers nothing"),
    _case("lowered-prefix-without-mult",
          [("regime", FACILITATED), ("regime.phase_b.lowered_prefix", 1)],
          "regime.phase_b.lowered_prefix: lowers nothing"),
    _case("lowered-prefix-mult-one",
          [("regime", FACILITATED), ("regime.phase_b.lowered_prefix", 1),
           ("regime.phase_b.lowered_mult", 1.0)],
          "regime.phase_b.lowered_prefix: lowers nothing"),
    _case("lowered-prefix-beyond-convs",
          [("regime", FACILITATED), ("regime.phase_b.lowered_prefix", 5),
           ("regime.phase_b.lowered_mult", 0.1)],
          "regime.phase_b.lowered_prefix: 5 exceeds the model's 2 conv layers"),
    _case("matrix-lowered-prefix-beyond-convs",
          LATE_MATRIX + [("regimes.2.phase_b.lowered_prefix", 3),
                         ("regimes.2.phase_b.lowered_mult", 0.1)],
          "regimes[2].phase_b.lowered_prefix: 3 exceeds the model's 2 conv layers"),
    _case("subset-needs-categories", [("regime", SUBSET),
                                      ("regime.pretrain_sample", DELETE)],
          "regime: RandomSubsetPretrain needs pretrain categories"),
    _case("categories-on-facilitated",
          [("regime", dict(SUBSET, kind="FacilitatedReplicatedHead")),
           ("regime.pretrain_sample", DELETE),
           ("regime.pretrain_categories", ["sub_00_00"])],
          "regime: FacilitatedReplicatedHead takes no pretrain_categories"),
    _case("sample-on-reference", ("regime.pretrain_sample", {"count": 1, "seed": 3}),
          "regime: Reference takes no pretrain_sample"),
    _case("both-pretrain-keys", [("regime", SUBSET),
                                 ("regime.pretrain_categories", ["sub_00_00"])],
          "regime: give pretrain_categories or pretrain_sample, not both"),
    # a config that is not an object
    _case("config-list", ("", []), "config: must be object"),
    _case("config-number", ("", 3), "config: must be object"),
    _case("config-null", ("", None), "config: must be object"),
    # whole-number floats where an int belongs
    _case("float-n-basic", ("data.synthetic.n_basic", 2.0),
          "data.synthetic.n_basic: must be int"),
    _case("float-iterations", ("regime.phase_b.iterations", 2.0),
          "regime.phase_b.iterations: must be int"),
    _case("float-batch-size", ("regime.phase_b.sgd.batch_size", 8.0),
          "regime.phase_b.sgd.batch_size: must be int"),
    _case("float-split-seed", ("data.split.seed", 6.0),
          "data.split.seed: must be int"),
    # a key that nothing reads, and a probe that cannot run
    _case("cap-unread", ("data.cap", CAP),
          "data.cap: no regime reads it; only a basic or subset phase A"),
    _case("synthetic-taxonomy", ("taxonomy", {"synsets": "s", "marks": "m"}),
          "taxonomy: synthetic data makes its own"),
    _case("synthetic-images-root", ("data.images_root", "images"),
          "data.images_root: synthetic data reads no image files"),
    _case("synthetic-size-misfit", ("data.synthetic.image_size", [1, 16, 16]),
          "data.synthetic.image_size: (1, 16, 16) does not fit model "
          "input_shape (1, 8, 8)"),
    _case("transfer-layer-unknown", ("transfer", dict(PROBE, layer="nope")),
          "transfer.layer: no layer named 'nope'"),
    _case("transfer-layer-head", ("transfer", dict(PROBE, layer="fc2")),
          "transfer.layer: feature layer must precede the output head"),
    # a regime name that is not one directory inside the run's
    _case("regime-name-parent", MATRIX + [("regimes.0.name", "../escaped")],
          f"regimes[0].name: must be {NAME_KIND}"),
    _case("regime-name-dotdot", MATRIX + [("regimes.0.name", "..")],
          f"regimes[0].name: must be {NAME_KIND}"),
    _case("regime-name-dot", MATRIX + [("regimes.0.name", ".")],
          f"regimes[0].name: must be {NAME_KIND}"),
    _case("regime-name-nested", MATRIX + [("regimes.0.name", "a/b")],
          f"regimes[0].name: must be {NAME_KIND}"),
    _case("regime-name-backslash", MATRIX + [("regimes.0.name", "a\\b")],
          f"regimes[0].name: must be {NAME_KIND}"),
    _case("regime-name-nul", MATRIX + [("regimes.0.name", "a\0b")],
          f"regimes[0].name: must be {NAME_KIND}"),
    _case("regime-name-trailing-slash",
          [("regime", DELETE), ("regimes", [
              {"name": "a", "kind": "Reference", "phase_b": phase()},
              {"name": "a/", "kind": "Reference", "phase_b": phase(seed=9)}])],
          f"regimes[1].name: must be {NAME_KIND}"),
    _case("transfer-too-few-samples", ("transfer", dict(PROBE, n_train_per_class=12)),
          "transfer: class 'sub_00_00' has 12 samples, needs at least 13"),
    # keys that contradict each other, or the data
    _case("regime-and-regimes", ("regimes", MATRIX[1][1]),
          "config needs exactly one of 'regime' or 'regimes'"),
    _case("no-regime", ("regime", DELETE),
          "config needs exactly one of 'regime' or 'regimes'"),
    _case("regime-names-repeat", MATRIX + [("regimes", [
        {"name": "a", "kind": "Reference", "phase_b": phase()},
        {"name": "a", "kind": "Reference", "phase_b": phase(seed=9)}])],
          "regime names must be unique"),
    _case("regime-name-manifest", MATRIX + [("regimes.0.name", "MANIFEST.json")],
          "regime names must be unique ignoring case and not MANIFEST.json: "
          "regimes[0].name"),
    _case("regime-name-manifest-case", MATRIX + [("regimes.0.name", "manifest.JSON")],
          "regime names must be unique ignoring case and not MANIFEST.json: "
          "regimes[0].name"),
    _case("regime-names-repeat-case", MATRIX + [("regimes", [
        {"name": "a", "kind": "Reference", "phase_b": phase()},
        {"name": "A", "kind": "Reference", "phase_b": phase(seed=9)}])],
          "regime names must be unique ignoring case and not MANIFEST.json: "
          "regimes[1].name"),
    _case("regime-kinds-repeat", MATRIX + [("regimes", [
        {"kind": "Reference", "phase_b": phase()},
        {"kind": "Reference", "phase_b": phase(seed=9)}])],
          "regime names must be unique"),
    _case("synthetic-and-manifest", ("data.manifest", "m.csv"),
          "data needs exactly one of 'synthetic' or 'manifest'"),
    _case("no-data-source", ("data.synthetic", DELETE),
          "data needs exactly one of 'synthetic' or 'manifest'"),
    _case("manifest-no-images-root", [("data.synthetic", DELETE),
                                      ("data.manifest", "m.csv")],
          "manifest data needs 'images_root'"),
    _case("manifest-no-taxonomy", [("data.synthetic", DELETE),
                                   ("data.manifest", "m.csv"),
                                   ("data.images_root", "images")],
          "manifest data needs a 'taxonomy' section"),
    _case("model-name-and-layers", ("model", dict(INLINE, name="benchmark")),
          "model: needs exactly one of 'name' or 'layers'"),
    _case("inline-layers-no-shape", ("model", {"layers": INLINE["layers"]}),
          "model: inline layers need input_shape"),
    _case("sample-count-above-pool", [("regime", SUBSET),
                                      ("regime.pretrain_sample.count", 5)],
          "regime.pretrain_sample.count: cannot sample 5 pretrain categories "
          "from 4 unmarked leaves"),
    # pretrain categories the graph rejects, in a matrix whose other
    # regimes would run
    _case("categories-basic-mark", LATE_MATRIX + [
        ("regimes.1.pretrain_categories", ["basic_00", "sub_01_01"])],
          "regimes[1].pretrain_categories: pretrain categories overlap basic "
          "marks: basic_00"),
    _case("categories-unknown", LATE_MATRIX + [
        ("regimes.1.pretrain_categories", ["nope", "sub_01_01"])],
          "regimes[1].pretrain_categories: unknown pretrain categories: nope"),
]


def _bad_config(tmp_path, edits):
    config_path, config = train_config(tmp_path)
    for dotted, value in edits:
        if not dotted:
            config = value
            continue
        *parents, last = dotted.split(".")
        node = config
        for key in parents:
            node = node[int(key) if isinstance(node, list) else key]
        if value is DELETE:
            del node[last]
        else:
            node[last] = copy.deepcopy(value)
    config_path.write_text(json.dumps(config))
    return config_path


class TestConfigRejections:
    @pytest.mark.parametrize("edits, message", CONFIG_REJECTIONS)
    def test_bad_config_exits_2_before_any_work(self, tmp_path, edits, message):
        config_path = _bad_config(tmp_path, edits)
        assert cli.main(["train", "--config", str(config_path)]) == EXIT_VALIDATION
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_absolute_regime_name_exits_2_and_writes_nothing(self, tmp_path, capsys):
        config_path = _bad_config(tmp_path, MATRIX + [("regimes.0.name",
                                                       str(tmp_path / "abs"))])
        for dry_run in (["--dry-run"], []):
            assert cli.main(["train", "--config", str(config_path), "--out",
                             str(tmp_path / "run"), *dry_run]) == EXIT_VALIDATION
            assert (f"error: regimes[0].name: must be {NAME_KIND}"
                    in capsys.readouterr().err)
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("edits, message", [
        case for case in CONFIG_REJECTIONS if "lowered" in case.id])
    def test_lowering_rejected_by_dry_run(self, tmp_path, capsys, edits, message):
        config_path = _bad_config(tmp_path, edits)
        assert cli.main(["train", "--config", str(config_path),
                         "--dry-run"]) == EXIT_VALIDATION
        assert f"error: {message}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_cap_read_by_one_regime_of_a_matrix_is_accepted(self, tmp_path):
        regimes = [{"name": "a", "kind": "Reference", "phase_b": phase()},
                   {"name": "b", "kind": "FacilitatedReplicatedHead",
                    "phase_a": phase(seed=8), "phase_b": phase()}]
        config_path = _bad_config(tmp_path, [("regime", DELETE), ("regimes", regimes),
                                             ("data.cap", CAP)])
        assert cli.main(["train", "--config", str(config_path), "--dry-run"]) == EXIT_OK

    @pytest.mark.parametrize("edits, message", [
        case for case in CONFIG_REJECTIONS if case.values[1] is not None])
    def test_error_names_key_path(self, tmp_path, capsys, edits, message):
        config_path = _bad_config(tmp_path, edits)
        assert cli.main(["train", "--config", str(config_path)]) == EXIT_VALIDATION
        assert f"error: {message}" in capsys.readouterr().err


@pytest.fixture
def probe_fixtures(tmp_path):
    data_dir = tmp_path / "data"
    assert cli.main(synth_args(data_dir, seed=31)) == EXIT_OK
    model_spec = md.ModelSpec((1, 8, 8), bm.model_spec(4).layers)
    ckpt = md.build_model(model_spec, seed=32, init="scaled")
    ckpt_path = tmp_path / "model.ckpt"
    md.save_checkpoint(ckpt, ckpt_path)
    return data_dir, ckpt_path, model_spec


def file_backed_config(data_dir, tmp_path, **sections):
    """A train config over a saved synthetic set (manifest, tensor files and
    taxonomy), with ``sections`` added at the root."""
    config = {
        "taxonomy": {"synsets": str(data_dir / "synsets.txt"),
                     "marks": str(data_dir / "basic_marks.txt")},
        "data": {"manifest": str(data_dir / "manifest.csv"),
                 "images_root": str(data_dir),
                 "split": {"n_train_per_class": 4, "max_test_per_class": 2,
                           "seed": 6}},
        "model": {"name": "benchmark", "input_shape": [1, 8, 8],
                  "init": "scaled"},
        **sections,
    }
    path = tmp_path / "file_backed.json"
    path.write_text(json.dumps(config))
    return path


class TestProbeCmd:
    def test_n_train_list_gives_two_aggregate_rows(self, probe_fixtures,
                                                   tmp_path):
        data_dir, ckpt_path, _ = probe_fixtures
        out = tmp_path / "probe"
        code = cli.main(["probe", "--checkpoint", str(ckpt_path),
                         "--manifest", str(data_dir / "manifest.csv"),
                         "--images", str(data_dir),
                         "--n-train", "2", "--n-train", "3",
                         "--max-test", "4", "--splits", "2",
                         "--seed", "33", "--iters", "20", "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "aggregates.csv").read_text().splitlines()
        assert lines[0] == "n_train_per_class,mean_class_recall,std"
        assert len(lines) == 3
        assert (out / "n2" / "probe.json").exists()
        assert (out / "n3" / "per_class_recall.csv").exists()


    @pytest.mark.parametrize("iters", ["0", "-5"])
    def test_untrained_probe_exits_2(self, probe_fixtures, tmp_path, capsys,
                                     iters):
        data_dir, ckpt_path, _ = probe_fixtures
        out = tmp_path / "probe"
        code = cli.main(["probe", "--checkpoint", str(ckpt_path),
                         "--manifest", str(data_dir / "manifest.csv"),
                         "--images", str(data_dir), "--n-train", "2",
                         "--seed", "33", "--iters", iters, "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "iters must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_truncated_checkpoint_exits_2(self, probe_fixtures, tmp_path,
                                          capsys):
        data_dir, ckpt_path, _ = probe_fixtures
        ckpt_path.write_bytes(ckpt_path.read_bytes()[:40])
        code = cli.main(["probe", "--checkpoint", str(ckpt_path),
                         "--manifest", str(data_dir / "manifest.csv"),
                         "--images", str(data_dir), "--n-train", "2",
                         "--seed", "33", "--out", str(tmp_path / "probe")])
        assert code == EXIT_VALIDATION
        assert "checkpoint" in capsys.readouterr().err

    def test_checkpoint_entry_renamed_exits_2(self, probe_fixtures, tmp_path,
                                              capsys):
        data_dir, ckpt_path, _ = probe_fixtures
        ckpt_path.write_bytes(rewrite_manifest(
            ckpt_path.read_bytes(),
            lambda m: m["entries"][0].update(name="bogus.weight")))
        out = tmp_path / "probe"
        code = cli.main(["probe", "--checkpoint", str(ckpt_path),
                         "--manifest", str(data_dir / "manifest.csv"),
                         "--images", str(data_dir), "--n-train", "2",
                         "--seed", "33", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "error: checkpoint entries ['bogus.weight'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("index, edit, message", [
        (6, {"units": 0}, "layer 'fc1': units 0 must be >= 1"),
        (7, {"rate": 1.0}, "layer 'drop1': rate 1.0 must be in [0, 1)"),
    ], ids=["fc-zero-units", "dropout-rate-one"])
    def test_checkpoint_bad_layer_exits_2(self, probe_fixtures, tmp_path,
                                          capsys, index, edit, message):
        data_dir, ckpt_path, _ = probe_fixtures
        ckpt_path.write_bytes(rewrite_manifest(
            ckpt_path.read_bytes(),
            lambda m: m["spec"]["layers"][index].update(edit)))
        out = tmp_path / "probe"
        code = cli.main(["probe", "--checkpoint", str(ckpt_path),
                         "--manifest", str(data_dir / "manifest.csv"),
                         "--images", str(data_dir), "--n-train", "2",
                         "--seed", "33", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_n_train_exits_2(self, probe_fixtures, tmp_path, capsys):
        data_dir, ckpt_path, _ = probe_fixtures
        out = tmp_path / "probe"
        code = cli.main(["probe", "--checkpoint", str(ckpt_path),
                         "--manifest", str(data_dir / "manifest.csv"),
                         "--images", str(data_dir), "--n-train", "2",
                         "--n-train", "2", "--seed", "33", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "--n-train values repeat" in capsys.readouterr().err
        assert not out.exists()

    def test_n_train_values_share_one_feature_extraction(self, probe_fixtures,
                                                         tmp_path, monkeypatch):
        data_dir, ckpt_path, _ = probe_fixtures
        calls = []
        extract = transfer.extract_features

        def counting_extract(*args, **kwargs):
            calls.append(1)
            return extract(*args, **kwargs)

        monkeypatch.setattr(transfer, "extract_features", counting_extract)
        code = cli.main(["probe", "--checkpoint", str(ckpt_path),
                         "--manifest", str(data_dir / "manifest.csv"),
                         "--images", str(data_dir), "--n-train", "2",
                         "--n-train", "3", "--n-train", "4", "--max-test", "2",
                         "--splits", "2", "--seed", "33", "--iters", "10",
                         "--out", str(tmp_path / "probe")])
        assert code == EXIT_OK
        assert len(calls) == 1

    def test_n_train_too_large_for_a_class_writes_nothing(self, probe_fixtures,
                                                          tmp_path, capsys):
        data_dir, ckpt_path, _ = probe_fixtures
        out = tmp_path / "probe"
        code = cli.main(["probe", "--checkpoint", str(ckpt_path),
                         "--manifest", str(data_dir / "manifest.csv"),
                         "--images", str(data_dir), "--n-train", "2",
                         "--n-train", "8", "--seed", "33", "--iters", "10",
                         "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "needs at least 9" in capsys.readouterr().err
        assert not out.exists()

    def test_labelmap_missing_a_leaf_exits_2(self, probe_fixtures, tmp_path,
                                             capsys):
        data_dir, ckpt_path, _ = probe_fixtures
        lm_dir = tmp_path / "tax"
        assert cli.main(["taxonomy", "--synsets", str(data_dir / "synsets.txt"),
                         "--marks", str(data_dir / "basic_marks.txt"),
                         "--out", str(lm_dir)]) == EXIT_OK
        lm_path = lm_dir / "labelmap.csv"
        lm_path.write_text(lm_path.read_text().replace("sub_01_01", "sub_01_09"))
        out = tmp_path / "probe"
        code = cli.main(["probe", "--checkpoint", str(ckpt_path),
                         "--manifest", str(data_dir / "manifest.csv"),
                         "--images", str(data_dir), "--labelmap", str(lm_path),
                         "--n-train", "2", "--seed", "33", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert ("error: manifest leaf 'sub_01_01' not in label map"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_header_only_manifest_exits_2(self, probe_fixtures, tmp_path,
                                          capsys):
        data_dir, ckpt_path, _ = probe_fixtures
        (tmp_path / "empty.csv").write_text("sample_id,path,leaf_id\n")
        out = tmp_path / "probe"
        code = cli.main(["probe", "--checkpoint", str(ckpt_path),
                         "--manifest", str(tmp_path / "empty.csv"),
                         "--images", str(data_dir), "--n-train", "2",
                         "--seed", "33", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "the manifest is empty" in capsys.readouterr().err
        assert not out.exists()


class TestSweepCmd:
    def test_three_checkpoints_three_rows(self, probe_fixtures, tmp_path):
        data_dir, _, model_spec = probe_fixtures
        paths = []
        for i, it in enumerate((5, 10, 15)):
            ckpt = md.build_model(model_spec, seed=40 + i, init="scaled")
            ckpt.iteration = it
            path = tmp_path / f"c{it}.ckpt"
            md.save_checkpoint(ckpt, path)
            paths.append(str(path))
        out = tmp_path / "sweep"
        code = cli.main(["sweep", "--checkpoints", *paths,
                         "--manifest", str(data_dir / "manifest.csv"),
                         "--images", str(data_dir), "--n-train", "2",
                         "--max-test", "4", "--splits", "2", "--seed", "44",
                         "--iters", "20", "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "curves.csv").read_text().splitlines()
        assert lines[0] == "iteration,split,metric,value"
        assert [l.split(",")[0] for l in lines[1:]] == ["5", "10", "15"]

        argv = ["sweep", "--checkpoints", *paths,
                "--manifest", str(data_dir / "manifest.csv"),
                "--images", str(data_dir), "--n-train", "2", "--n-train", "3",
                "--seed", "44", "--out", str(tmp_path / "sweep2")]
        assert cli.main(argv) == EXIT_VALIDATION

    def test_header_only_manifest_exits_2(self, probe_fixtures, tmp_path,
                                          capsys):
        data_dir, ckpt_path, _ = probe_fixtures
        (tmp_path / "empty.csv").write_text("sample_id,path,leaf_id\n")
        out = tmp_path / "sweep"
        code = cli.main(["sweep", "--checkpoints", str(ckpt_path),
                         "--manifest", str(tmp_path / "empty.csv"),
                         "--images", str(data_dir), "--n-train", "2",
                         "--seed", "44", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "the manifest is empty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_checkpoint_version_exits_2(self, probe_fixtures, tmp_path,
                                            capsys, version):
        data_dir, ckpt_path, _ = probe_fixtures
        buf = ckpt_path.read_bytes()
        ckpt_path.write_bytes(buf[:4] + struct.pack("<I", version) + buf[8:])
        out = tmp_path / "sweep"
        code = cli.main(["sweep", "--checkpoints", str(ckpt_path),
                         "--manifest", str(data_dir / "manifest.csv"),
                         "--images", str(data_dir), "--n-train", "2",
                         "--seed", "44", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert (f"error: unsupported checkpoint version {version}"
                in capsys.readouterr().err)
        assert not out.exists()


    @staticmethod
    def _series(tmp_path, model_spec, n=4):
        """``n`` untrained checkpoints at iterations 5, 10, ...; their paths."""
        paths = []
        for i in range(n):
            ckpt = md.build_model(model_spec, seed=60 + i, init="scaled")
            ckpt.iteration = 5 * (i + 1)
            paths.append(tmp_path / f"c{ckpt.iteration}.ckpt")
            md.save_checkpoint(ckpt, paths[-1])
        return paths

    @pytest.mark.parametrize("damage, message", [
        (lambda buf: buf[:len(buf) // 2] + bytes([buf[len(buf) // 2] ^ 1])
         + buf[len(buf) // 2 + 1:], "error: checkpoint CRC32 mismatch"),
        (lambda buf: buf[:len(buf) // 2], "error: truncated tensor payload"),
    ], ids=["corrupt", "truncated"])
    def test_bad_third_of_four_checkpoints_exits_2_writing_nothing(
            self, probe_fixtures, tmp_path, monkeypatch, capsys, damage, message):
        """The third checkpoint's header and manifest are intact, so the sweep
        sorts, checks and loads the images, and extracts the first two
        checkpoints' features before the third's full load fails."""
        data_dir, _, model_spec = probe_fixtures
        paths = self._series(tmp_path, model_spec)
        paths[2].write_bytes(damage(paths[2].read_bytes()))
        extract, calls = transfer.extract_features, []
        monkeypatch.setattr(transfer, "extract_features",
                            lambda *a, **kw: calls.append(1) or extract(*a, **kw))
        out = tmp_path / "sweep"
        code = cli.main(["sweep", "--checkpoints", *map(str, paths),
                         "--manifest", str(data_dir / "manifest.csv"),
                         "--images", str(data_dir), "--n-train", "2",
                         "--seed", "44", "--iters", "10", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert len(calls) == 2
        assert not out.exists()

    def test_bad_layer_on_any_checkpoint_exits_2_before_any_load(
            self, probe_fixtures, tmp_path, monkeypatch, capsys):
        """Only the third of four checkpoints lacks the --layer: the sweep
        exits 2 before any image or checkpoint weights load."""
        data_dir, _, model_spec = probe_fixtures
        paths = self._series(tmp_path, model_spec)
        renamed = md.ModelSpec(model_spec.input_shape, tuple(
            dataclasses.replace(layer, name="dropout1") if layer.name == "drop1"
            else layer for layer in model_spec.layers))
        odd = md.build_model(renamed, seed=70, init="scaled")
        odd.iteration = 15
        md.save_checkpoint(odd, paths[2])
        loads, load = [], dp.RawFileStore.load
        monkeypatch.setattr(dp.RawFileStore, "load",
                            lambda store, sample: loads.append(sample) or load(store, sample))
        full_loads, load_checkpoint = [], md.load_checkpoint
        monkeypatch.setattr(md, "load_checkpoint",
                            lambda path: full_loads.append(path) or load_checkpoint(path))
        out = tmp_path / "sweep"
        code = cli.main(["sweep", "--checkpoints", *map(str, paths),
                         "--manifest", str(data_dir / "manifest.csv"),
                         "--images", str(data_dir), "--n-train", "2",
                         "--seed", "44", "--layer", "drop1", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "error: no layer named 'drop1'" in capsys.readouterr().err
        assert loads == [] and full_loads == []
        assert not out.exists()

    def test_four_desk_checkpoints_peak_within_one_checkpoint_of_one(self, tmp_path):
        """A sweep holds one checkpoint's weights at a time: under
        tracemalloc, a sweep of four desk checkpoints peaks less than one
        checkpoint's weights (8.7 MiB) above a sweep of the first alone."""
        data_dir = tmp_path / "data"
        assert cli.main(synth_args(data_dir, seed=31, image="3x32x32")) == EXIT_OK
        paths = [str(p) for p in self._series(tmp_path, md.desk_spec(4))]
        weights = sum(e.weight.nbytes for e in md.load_checkpoint(paths[0]).params.values())

        def sweep(n):
            return cli.main(["sweep", "--checkpoints", *paths[:n],
                             "--manifest", str(data_dir / "manifest.csv"),
                             "--images", str(data_dir), "--n-train", "2",
                             "--max-test", "4", "--splits", "2", "--seed", "44",
                             "--iters", "10", "--out", str(tmp_path / f"sweep{n}")])

        peaks = []
        tracemalloc.start()
        try:
            for n in (1, 4):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                assert sweep(n) == EXIT_OK
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert peaks[1] - peaks[0] < weights


def _poison(data_dir, index, value):
    """Set one pixel of the manifest's ``index``-th tensor to ``value``;
    returns its sample."""
    sample = dp.load_manifest(data_dir / "manifest.csv").samples[index]
    image = nk.load_tensor(data_dir / sample.source)
    image[0, 2, 3] = value
    nk.save_tensor(image, data_dir / sample.source)
    return sample


class TestImageLoads:
    def test_each_command_loads_each_image_once(self, probe_fixtures, tmp_path,
                                                monkeypatch):
        data_dir, ckpt_path, model_spec = probe_fixtures
        manifest = str(data_dir / "manifest.csv")
        later = md.build_model(model_spec, seed=50, init="scaled")
        later.iteration = 10
        md.save_checkpoint(later, tmp_path / "later.ckpt")
        loads = Counter()
        load = dp.RawFileStore.load

        def counting_load(store, sample):
            loads[sample.sample_id] += 1
            return load(store, sample)

        monkeypatch.setattr(dp.RawFileStore, "load", counting_load)
        probing = ["--manifest", manifest, "--images", str(data_dir),
                   "--max-test", "4", "--splits", "2", "--seed", "33",
                   "--iters", "10"]
        commands = {
            "probe": ["probe", "--checkpoint", str(ckpt_path), *probing,
                      "--n-train", "2", "--n-train", "3"],
            "sweep": ["sweep", "--checkpoints", str(ckpt_path),
                      str(tmp_path / "later.ckpt"), *probing, "--n-train", "2"],
            "dedup": ["dedup", "--manifest-a", manifest,
                      "--images-a", str(data_dir)],
            "train": ["train", "--config", str(file_backed_config(
                data_dir, tmp_path, regimes=[
                    {"name": "reference", "kind": "Reference",
                     "phase_b": phase()},
                    {"name": "facilitated", "kind": "FacilitatedReplicatedHead",
                     "phase_a": phase(seed=21), "phase_b": phase(seed=22)}],
                transfer={"n_train_per_class": 2, "max_test_per_class": 4,
                          "n_splits": 2, "seed": 41, "iters": 10}))],
        }
        every_image = Counter(s.sample_id for s in dp.load_manifest(manifest).samples)
        for name, argv in commands.items():
            loads.clear()
            assert cli.main([*argv, "--out", str(tmp_path / name)]) == EXIT_OK
            assert loads == every_image, name

    def test_train_without_transfer_loads_its_splits_once(self, probe_fixtures,
                                                          tmp_path, monkeypatch):
        data_dir, _, _ = probe_fixtures
        loads = Counter()
        load = dp.RawFileStore.load
        monkeypatch.setattr(dp.RawFileStore, "load", lambda store, sample: (
            loads.update([sample.sample_id]) or load(store, sample)))
        config = file_backed_config(data_dir, tmp_path, regime={
            "kind": "FacilitatedReplicatedHead", "phase_a": phase(seed=21),
            "phase_b": phase(seed=22)})
        assert cli.main(["train", "--config", str(config),
                         "--out", str(tmp_path / "run")]) == EXIT_OK
        # 4 train and 2 val samples of each leaf's 8
        (train, val), = dp.random_class_splits(
            dp.load_manifest(data_dir / "manifest.csv"), 4, 2, 1, seed=6)
        assert loads == Counter(s.sample_id for split in (train, val)
                                for s in split.samples)
        assert sum(loads.values()) == 24

    def test_missing_tensor_files_exit_2_and_write_no_manifest(
            self, probe_fixtures, tmp_path, capsys):
        data_dir, _, _ = probe_fixtures
        for path in sorted((data_dir / "tensors").iterdir())[::2]:
            path.unlink()
        config = file_backed_config(data_dir, tmp_path, regime={
            "kind": "Reference", "phase_b": phase()})
        out = tmp_path / "run"
        code = cli.main(["train", "--config", str(config), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert ".tnsr" in capsys.readouterr().err
        assert not (out / "MANIFEST.json").exists()

    def test_one_image_of_another_shape_exits_2(self, probe_fixtures,
                                                 tmp_path, capsys):
        data_dir, ckpt_path, _ = probe_fixtures
        samples = dp.load_manifest(data_dir / "manifest.csv").samples
        odd = samples[5]
        nk.save_tensor(np.zeros((1, 8, 9), np.float32), data_dir / odd.source)
        out = tmp_path / "probe"
        code = cli.main(["probe", "--checkpoint", str(ckpt_path),
                         "--manifest", str(data_dir / "manifest.csv"),
                         "--images", str(data_dir), "--n-train", "2",
                         "--seed", "33", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert (f"error: image {odd.sample_id!r} has shape (1, 8, 9), but "
                f"{samples[0].sample_id!r} has (1, 8, 8)") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("images,input_shape,got", [
        ("2-D", [1, 8, 8], "(8, 8)"),
        ("8x8", [1, 16, 16], "(1, 8, 8)"),
    ])
    def test_images_not_of_the_model_input_shape_exit_2(
            self, probe_fixtures, tmp_path, capsys, images, input_shape, got):
        data_dir, _, _ = probe_fixtures
        if images == "2-D":
            for path in (data_dir / "tensors").iterdir():
                nk.save_tensor(nk.load_tensor(path)[0], path)
        config = file_backed_config(
            data_dir, tmp_path, regime={"kind": "Reference", "phase_b": phase()},
            model={"name": "benchmark", "input_shape": input_shape,
                   "init": "scaled"})
        out = tmp_path / "run"
        code = cli.main(["train", "--config", str(config), "--out", str(out)])
        assert code == EXIT_VALIDATION
        # an image that is not CxHxW is rejected as it loads
        assert (f"has shape {got}, not a non-empty CxHxW tensor" if images == "2-D"
                else f"error: images of shape {got} do not fit model input_shape "
                     f"{tuple(input_shape)}") in capsys.readouterr().err
        assert not (out / "MANIFEST.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_dedup_of_a_non_finite_image_exits_2(self, probe_fixtures, tmp_path,
                                                  capsys, bad):
        data_dir, _, _ = probe_fixtures
        sample = _poison(data_dir, 6, bad)
        out = tmp_path / "dedup"
        code = cli.main(["dedup", "--manifest-a", str(data_dir / "manifest.csv"),
                         "--images-a", str(data_dir), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert (f"error: image {sample.sample_id!r} holds NaN or Inf"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_dedup_of_zero_size_images_exits_2(self, probe_fixtures, tmp_path,
                                               capsys):
        data_dir, _, _ = probe_fixtures
        samples = dp.load_manifest(data_dir / "manifest.csv").samples
        for sample in samples:
            nk.save_tensor(np.zeros((3, 0, 16), np.float32), data_dir / sample.source)
        out = tmp_path / "dedup"
        code = cli.main(["dedup", "--manifest-a", str(data_dir / "manifest.csv"),
                         "--images-a", str(data_dir), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert (f"error: image {samples[0].sample_id!r} has shape (3, 0, 16), not "
                f"a non-empty CxHxW tensor") in capsys.readouterr().err
        assert not out.exists()

    def test_probe_of_a_nan_image_exits_2(self, probe_fixtures, tmp_path, capsys):
        data_dir, ckpt_path, _ = probe_fixtures
        sample = _poison(data_dir, 9, np.nan)
        out = tmp_path / "probe"
        code = cli.main(["probe", "--checkpoint", str(ckpt_path),
                         "--manifest", str(data_dir / "manifest.csv"),
                         "--images", str(data_dir), "--n-train", "2",
                         "--seed", "33", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert (f"error: image {sample.sample_id!r} holds NaN or Inf"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_train_on_a_nan_image_exits_2_and_writes_no_manifest(
            self, probe_fixtures, tmp_path, capsys):
        data_dir, _, _ = probe_fixtures
        (train, _), = dp.random_class_splits(
            dp.load_manifest(data_dir / "manifest.csv"), 4, 2, 1, seed=6)
        sample = train.samples[0]
        nk.save_tensor(np.full((1, 8, 8), np.nan, np.float32), data_dir / sample.source)
        config = file_backed_config(data_dir, tmp_path, regime={
            "kind": "Reference", "phase_b": phase()})
        out = tmp_path / "run"
        code = cli.main(["train", "--config", str(config), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert (f"error: image {sample.sample_id!r} holds NaN or Inf"
                in capsys.readouterr().err)
        assert not (out / "MANIFEST.json").exists()

    @pytest.mark.parametrize("command,layer,message", [
        ("probe", "nope", "no layer named 'nope'"),
        ("probe", "fc2", "feature layer must precede the output head"),
        ("sweep", "nope", "no layer named 'nope'"),
    ])
    def test_bad_layer_exits_2_before_any_load(self, probe_fixtures, tmp_path,
                                               monkeypatch, capsys, command,
                                               layer, message):
        data_dir, ckpt_path, model_spec = probe_fixtures
        assert model_spec.head_name == "fc2"
        loads = []
        load = dp.RawFileStore.load
        monkeypatch.setattr(dp.RawFileStore, "load",
                            lambda store, sample: loads.append(sample) or load(store, sample))
        where = (["--checkpoint", str(ckpt_path)] if command == "probe"
                 else ["--checkpoints", str(ckpt_path)])
        out = tmp_path / command
        code = cli.main([command, *where, "--manifest", str(data_dir / "manifest.csv"),
                         "--images", str(data_dir), "--n-train", "2",
                         "--seed", "33", "--layer", layer, "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert f"error: {message}" in capsys.readouterr().err
        assert loads == []
        assert not out.exists()


class TestCsvQuoting:
    def test_comma_ids_round_trip_rfc4180(self, tmp_path):
        tricky = 'sample "one", with commas'
        manifest = dp.DatasetManifest((
            dp.Sample(tricky, "p/x.tnsr", "leaf,a"),
            dp.Sample("plain", "p/y.tnsr", "leaf,a")))
        path = tmp_path / "m.csv"
        dp.save_manifest(manifest, path)
        text = path.read_text()
        assert '"sample ""one"", with commas"' in text
        back = dp.load_manifest(path)
        assert back.samples == manifest.samples

    def test_overlap_report_quotes_comma_ids(self, tmp_path):
        path = tmp_path / "o.csv"
        dp.overlap_report_csv([("a,1", "b,2", 1.0)], path)
        assert path.read_text() == 'id_a,id_b,score\n"a,1","b,2",1.000000\n'


class TestTextInputs:
    @pytest.mark.parametrize("target", ["synsets", "marks", "config",
                                        "manifest", "labelmap"])
    def test_non_utf8_input_exits_2(self, tmp_path, animal_file, marks_file,
                                    capsys, target):
        config_path, _ = train_config(tmp_path)
        graph = taxonomy.validate_basic_marks(
            taxonomy.parse_synset_file(animal_file), {"dog", "fish", "car"})
        taxonomy.labelmap_to_csv(taxonomy.allocate_descendants(graph),
                                 tmp_path / "lm.csv")
        dp.save_manifest(dp.DatasetManifest(
            (dp.Sample("s0", "t/0.tnsr", "poodle"),)), tmp_path / "m.csv")
        out = str(tmp_path / "out")
        cases = {
            "synsets": (animal_file, ["taxonomy", "--synsets", str(animal_file),
                                      "--marks", str(marks_file), "--out", out]),
            "config": (config_path, ["train", "--config", str(config_path),
                                     "--dry-run"]),
            "manifest": (tmp_path / "m.csv", [
                "prepare", "--manifest", str(tmp_path / "m.csv"),
                "--labelmap", str(tmp_path / "lm.csv"), "--cap", "1",
                "--seed", "1", "--out", out]),
        }
        cases["marks"] = (marks_file, cases["synsets"][1])
        cases["labelmap"] = (tmp_path / "lm.csv", cases["manifest"][1])
        path, argv = cases[target]
        # a Latin-1 "ö" where the file had its first "o"
        path.write_bytes(path.read_bytes().replace(b"o", b"\xf6", 1))
        assert cli.main(argv) == EXIT_VALIDATION
        assert f"{path} is not UTF-8 text" in capsys.readouterr().err


DEEP = 100_000


class TestDeepJson:
    """JSON nested past the parser's recursion limit exits 2, as other
    invalid JSON does, from each of the three JSON inputs."""

    def test_deep_config_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"data": ' + "[" * DEEP + "]" * DEEP + "}")
        assert cli.main(["train", "--config", str(config_path)]) == EXIT_VALIDATION
        assert f"error: {config_path} is not valid JSON" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_deep_run_manifest_exits_2(self, tmp_path, capsys):
        config_path, _ = train_config(tmp_path)
        manifest = tmp_path / "run" / "MANIFEST.json"
        manifest.parent.mkdir()
        manifest.write_text("[" * DEEP + "]" * DEEP)
        assert cli.main(["train", "--config", str(config_path)]) == EXIT_VALIDATION
        assert f"error: {manifest} is not valid JSON" in capsys.readouterr().err
        assert [p.name for p in manifest.parent.iterdir()] == ["MANIFEST.json"]

    def test_deep_checkpoint_manifest_exits_2(self, probe_fixtures, tmp_path,
                                              capsys):
        data_dir, ckpt_path, _ = probe_fixtures
        ckpt_path.write_bytes(replace_manifest(
            ckpt_path.read_bytes(), b"[" * DEEP + b"]" * DEEP))
        out = tmp_path / "probe"
        code = cli.main(["probe", "--checkpoint", str(ckpt_path),
                         "--manifest", str(data_dir / "manifest.csv"),
                         "--images", str(data_dir), "--n-train", "2",
                         "--seed", "33", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "error: corrupt checkpoint manifest" in capsys.readouterr().err
        assert not out.exists()


def _write_run_report(d, variant):
    cu.save_run_report(cu.RunReport(curves=[(variant, "val", "top1", 0.5)]), d)


def _write_probe_result(d, variant):
    transfer.save_probe_result(transfer.ProbeResult(
        per_split=((0, 0.5, np.array([0.5, variant])),),
        aggregate={"mean": 0.5, "std": 0.0}, n_train_per_class=2 + variant), d)


def _write_labelmap(d, variant):
    taxonomy.labelmap_to_csv(taxonomy.LabelMap(
        {"leaf": (0, 0)}, (f"basic{variant}",), ("leaf",)), d / "lm.csv")


def _write_manifest(d, variant):
    dp.save_manifest(dp.DatasetManifest(
        (dp.Sample(f"s{variant}", "t/0.tnsr", "leaf"),)), d / "m.csv")


def _write_overlap_report(d, variant):
    dp.overlap_report_csv([("a", "b", 0.99 + variant / 200)], d / "o.csv")


def _write_run_manifest(d, variant):
    """Variant 0 plants a MANIFEST.json for the same config from an older
    code version; variant 1 lets ``train`` rewrite it."""
    config_path, _ = train_config(d)
    if variant == 0:
        (d / "run").mkdir()
        digest = cf.config_hash(cf.load_config(config_path))
        (d / "run" / "MANIFEST.json").write_text(json.dumps(
            {"config_hash": digest, "code_version": "0.0.0", "config": {}}))
    else:
        cli.cmd_train(cli.build_parser().parse_args(
            ["train", "--config", str(config_path)]))


class TestAtomicWrites:
    @pytest.mark.parametrize("write", [
        _write_run_report, _write_probe_result, _write_labelmap,
        _write_manifest, _write_overlap_report, _write_run_manifest,
    ], ids=["run-report", "probe-result", "labelmap", "manifest",
            "overlap-report", "run-manifest"])
    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch, write):
        def tree():
            return {p.relative_to(tmp_path): p.read_bytes()
                    for p in sorted(tmp_path.rglob("*")) if p.is_file()}

        def fail(*args):
            raise OSError("disk full")

        write(tmp_path, 0)
        before = tree()
        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write(tmp_path, 1)
        assert tree() == before


class TestKilledRun:
    @pytest.mark.parametrize("matrix", [False, True], ids=["single", "jobs-2-matrix"])
    def test_killed_train_leaves_loadable_files_and_reruns_clean(self, tmp_path,
                                                                 matrix):
        """SIGKILL a ``train`` subprocess once its first checkpoint is on
        disk: every checkpoint left loads, each regime (one writer thread)
        leaves at most one stray ``.tmp``, and a rerun into the same
        directory writes the tree of a clean run."""
        long = {"kind": "FacilitatedReplicatedHead",
                "phase_a": phase(iters=500, seed=8, eval_every=100,
                                 checkpoint_every=20),
                "phase_b": phase(iters=500, eval_every=100, checkpoint_every=100)}
        if matrix:
            config_path, _ = train_config(tmp_path, regimes=[
                dict(long, name="a"), dict(long, name="b", kind="FacilitatedRandomHead")])
        else:
            config_path, _ = train_config(tmp_path, regime=long)
        argv = ["train", "--config", str(config_path)]
        run = tmp_path / "run"
        proc = subprocess.Popen(
            [sys.executable, "-m", "hiercurric.cli", *argv],
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            while not any(run.rglob("*.ckpt")) and proc.poll() is None:
                time.sleep(0.001)
        finally:
            proc.kill()
            proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL, "train ended before the kill"

        for path in run.rglob("*.ckpt"):
            md.load_checkpoint(path)
        stray = Counter(p.relative_to(run).parts[0] if matrix else "run"
                        for p in run.rglob("*.tmp"))
        assert all(n <= 1 for n in stray.values()), stray

        assert cli.main(argv) == EXIT_OK
        assert cli.main([*argv, "--out", str(tmp_path / "clean")]) == EXIT_OK
        rerun = {k: v for k, v in _tree(run).items() if k.suffix != ".tmp"}
        assert rerun == _tree(tmp_path / "clean")


class TestInterruptedRun:
    @pytest.mark.parametrize("matrix", [False, True], ids=["single", "matrix"])
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                             ids=["SIGINT", "SIGTERM"])
    def test_signal_exits_130_and_leaves_loadable_files(self, tmp_path, signum,
                                                        matrix):
        """SIGINT or SIGTERM a ``train`` subprocess once its first checkpoint
        is on disk: it prints ``interrupted`` and no traceback, exits 130,
        and leaves no ``.tmp`` file and only checkpoints that load."""
        long = {"kind": "FacilitatedReplicatedHead",
                "phase_a": phase(iters=500, seed=8, eval_every=100,
                                 checkpoint_every=20),
                "phase_b": phase(iters=500, eval_every=100, checkpoint_every=100)}
        if matrix:
            config_path, _ = train_config(tmp_path, regimes=[
                dict(long, name="a"), dict(long, name="b", kind="FacilitatedRandomHead")])
        else:
            config_path, _ = train_config(tmp_path, regime=long)
        run = tmp_path / "run"
        proc = subprocess.Popen(
            [sys.executable, "-m", "hiercurric.cli", "train", "--config",
             str(config_path)],
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            # a shell's background job ignores SIGINT, and its children inherit that
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        try:
            while not any(run.rglob("*.ckpt")) and proc.poll() is None:
                time.sleep(0.001)
            proc.send_signal(signum)
            err = proc.communicate(timeout=60)[1]
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == cli.EXIT_INTERRUPTED, err
        assert "Traceback" not in err and err.splitlines()[-1] == "interrupted", err
        assert not list(run.rglob("*.tmp"))
        for path in run.rglob("*.ckpt"):
            md.load_checkpoint(path)


@pytest.fixture(scope="module")
def reader_inputs(tmp_path_factory):
    """The bytes of a valid synset, marks, manifest, label-map and config file."""
    d = tmp_path_factory.mktemp("readers")
    (d / "synsets.txt").write_text(ANIMAL_EDGES)
    (d / "marks.txt").write_text(MARKS)
    graph = taxonomy.validate_basic_marks(taxonomy.parse_synset_file(d / "synsets.txt"),
                                          {"dog", "fish", "car"})
    taxonomy.labelmap_to_csv(taxonomy.allocate_descendants(graph), d / "labelmap.csv")
    dp.save_manifest(dp.DatasetManifest(tuple(
        dp.Sample(f"s{i:03d}", f"t/{i}.tnsr", ["poodle", "beagle", "fish", "suv"][i % 4])
        for i in range(40))), d / "manifest.csv")
    train_config(d)
    return {p.name: p.read_bytes() for p in d.iterdir()}


def _reader_command(d, target):
    """The command that reads input file ``target`` in ``d``."""
    if target in ("synsets.txt", "marks.txt"):
        return ["taxonomy", "--synsets", str(d / "synsets.txt"), "--marks",
                str(d / "marks.txt"), "--out", str(d / "tax")]
    if target in ("manifest.csv", "labelmap.csv"):
        return ["prepare", "--manifest", str(d / "manifest.csv"), "--labelmap",
                str(d / "labelmap.csv"), "--level", "sub", "--cap", "5",
                "--seed", "1", "--splits", "1", "--train-per-class", "2",
                "--out", str(d / "prep")]
    return ["train", "--config", str(d / "config.json"), "--dry-run"]


READERS = ["synsets.txt", "marks.txt", "manifest.csv", "labelmap.csv", "config.json"]


class TestReaderFuzz:
    """Each mutant's files are written once, into a fresh directory: ext4
    flushes a file rewritten in place, and on a discard mount deleting a
    flushed file takes tens of milliseconds."""

    @pytest.mark.parametrize("target", READERS)
    def test_unmutated_input_passes(self, reader_inputs, tmp_path, target):
        for name, data in reader_inputs.items():
            (tmp_path / name).write_bytes(data)
        assert cli.main(_reader_command(tmp_path, target)) == EXIT_OK

    @given(target=st.sampled_from(READERS),
           edits=st.lists(st.tuples(st.integers(0, 10 ** 4), st.integers(-1, 255)),
                          min_size=1, max_size=3),
           cut=st.none() | st.integers(0, 10 ** 4))
    @settings(max_examples=150, deadline=None)
    def test_mutated_input_exits_0_or_2(self, reader_inputs, target, edits, cut):
        """Byte edits (a byte of -1 deletes) and an optional truncation of one
        input file: the command reading it succeeds or exits 2, never with an
        uncaught exception."""
        data = bytearray(reader_inputs[target])
        for pos, byte in edits:
            pos %= len(data) or 1
            if byte < 0:
                del data[pos:pos + 1]
            else:
                data[pos:pos + 1] = bytes([byte])
        if cut is not None:
            del data[cut % (len(data) + 1):]
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            for name, original in reader_inputs.items():
                (d / name).write_bytes(bytes(data) if name == target else original)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(_reader_command(d, target))
        assert code in (EXIT_OK, EXIT_VALIDATION)


def test_cli_import_leaves_jsonschema_out():
    src = Path(cli.__file__).parents[1]
    result = subprocess.run(
        [sys.executable, "-c", "import sys, hiercurric.cli; "
         "print('jsonschema' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, check=True)
    assert result.stdout.strip() == "False"


def test_package_import_loads_no_submodule_and_no_numpy():
    src = Path(cli.__file__).parents[1]
    result = subprocess.run(
        [sys.executable, "-c", "import sys, hiercurric; print(sorted(m for m in "
         "sys.modules if m.startswith('hiercurric') or m == 'numpy'))"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, check=True)
    assert result.stdout.strip() == "['hiercurric']"


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("command, given, expected", [
    ("train", {}, ["1", "1", "1"]),
    ("train", {"OMP_NUM_THREADS": "3"}, [None, "3", None]),
    ("train", {"OPENBLAS_NUM_THREADS": "2"}, ["2", None, None]),
    ("probe", {}, [None, None, None]),
    ("sweep", {}, [None, None, None]),
    ("dedup", {}, [None, None, None]),
], ids=["train-unset", "train-omp-only", "train-openblas", "probe", "sweep",
        "dedup"])
def test_cli_import_pins_blas_threads_for_train_unless_user_sets_one(
        command, given, expected):
    """Importing the CLI under `train` sets all three thread variables to 1
    when none is set, and leaves them alone when the user set any one. The
    single-threaded commands keep the BLAS's own thread count."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    result = subprocess.run(
        [sys.executable, "-c", "import hiercurric.cli, os; print([os.environ.get(k) "
         f"for k in {BLAS_THREADS!r}])", command],
        env={**env, **given, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        capture_output=True, text=True, check=True)
    assert result.stdout.strip() == repr(expected)


class FakeLibc:
    """Records mallopt calls; like a ctypes function, it takes argtypes."""
    def __init__(self):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return 1
        self.mallopt = mallopt


MALLOC_VARIABLES = ("MALLOC_ARENA_MAX", "MALLOC_MMAP_THRESHOLD_",
                    "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")


class TestKeepFreedMemory:
    @pytest.fixture
    def fake_libc(self, monkeypatch):
        """A libc that records mallopt calls, with no malloc variable set;
        the helper's once-per-process memo is cleared around the test."""
        import ctypes
        libc = FakeLibc()
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        for name in MALLOC_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        cli._keep_freed_memory.cache_clear()
        yield libc
        cli._keep_freed_memory.cache_clear()

    def test_sets_three_parameters_once_per_process(self, fake_libc, tmp_path):
        argv = ["taxonomy", "--synsets", str(tmp_path / "none.txt"),
                "--marks", str(tmp_path / "none.txt"), "--out", str(tmp_path)]
        assert cli.main(argv) == EXIT_VALIDATION
        assert cli.main(argv) == EXIT_VALIDATION
        # M_ARENA_MAX 1, M_MMAP_THRESHOLD 256 MiB, M_TRIM_THRESHOLD 1 GiB
        assert fake_libc.calls == [(-8, 1), (-3, 256 << 20), (-1, 1 << 30)]

    @pytest.mark.parametrize("name", MALLOC_VARIABLES)
    def test_user_setting_wins(self, fake_libc, monkeypatch, name):
        monkeypatch.setenv(name, "glibc.malloc.arena_max=2" if name == "GLIBC_TUNABLES"
                           else "2")
        cli._keep_freed_memory()
        assert fake_libc.calls == []

    def test_no_mallopt_is_a_no_op(self, fake_libc, monkeypatch):
        import ctypes
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        cli._keep_freed_memory()
        assert fake_libc.calls == []

    def test_train_bytes_do_not_depend_on_malloc_settings(self, tmp_path):
        """The same `train` in two processes, once under the CLI's malloc
        settings and once under a user's MALLOC_ARENA_MAX=8."""
        config_path, _ = train_config(tmp_path, iters=12)
        env = {k: v for k, v in os.environ.items() if k not in MALLOC_VARIABLES}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        for out, given in (("as-is", {}), ("user", {"MALLOC_ARENA_MAX": "8"})):
            subprocess.run(
                [sys.executable, "-m", "hiercurric.cli", "train", "--config",
                 str(config_path), "--out", str(tmp_path / out)],
                env={**env, **given}, capture_output=True, check=True, timeout=120)
        assert _tree(tmp_path / "as-is") == _tree(tmp_path / "user")


def test_cli_module_runs_without_warnings():
    src = Path(cli.__file__).parents[1]
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "hiercurric.cli",
         "--help"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
