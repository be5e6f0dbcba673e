import json
import os

import numpy as np
import pytest

from hiercurric import cli, config as cf, curriculum as cu, dataprep as dp
from hiercurric import model as md, taxonomy, transfer
from hiercurric import nnkernel as nk
from hiercurric.cli import EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION

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
        src = dp.RawFileStore(a_dir).path_for(man_a.samples[0])
        dst = dp.RawFileStore(b_dir).path_for(man_b.samples[5])
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
    ], ids=["missing-column", "short-row"])
    def test_malformed_manifest_exits_2(self, tmp_path, capsys, text, match):
        (tmp_path / "m.csv").write_text(text)
        code = cli.main(["dedup", "--manifest-a", str(tmp_path / "m.csv"),
                         "--images-a", str(tmp_path),
                         "--out", str(tmp_path / "dedup")])
        assert code == EXIT_VALIDATION
        assert match in capsys.readouterr().err
        assert not (tmp_path / "dedup").exists()


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
         "'c1': conv missing field 'kh'"),
        (None, [{"kind": "relu", "name": "r1", "rate": 0.5},
                {"kind": "fc", "name": "out", "units": 2}],
         "'r1': relu unknown field 'rate'"),
        ({"kind": "FacilitatedReplicatedHead", "phase_a": phase(seed=8),
          "phase_b": phase(), "pretrain_categories": ["sub_00_00"]}, None,
         "takes no pretrain_categories"),
        ({"kind": "RandomSubsetPretrain", "phase_a": phase(seed=8),
          "phase_b": phase(), "pretrain_categories": ["sub_00_00"],
          "pretrain_sample": {"count": 1, "seed": 3}}, None, "not both"),
    ], ids=["missing-field", "unknown-field", "pretrain-on-facilitated",
            "both-pretrain-keys"])
    def test_malformed_or_no_effect_config_exits_2(self, tmp_path, capsys,
                                                   regime, layers, match):
        config_path, config = train_config(tmp_path, regime=regime)
        if layers is not None:
            config["model"] = {"input_shape": [1, 8, 8], "layers": layers}
            config_path.write_text(json.dumps(config))
        code = cli.main(["train", "--config", str(config_path), "--dry-run"])
        assert code == EXIT_VALIDATION
        assert match in capsys.readouterr().err

    def test_unchecked_run_restores_checked_mode(self, tmp_path):
        config_path, _ = train_config(tmp_path, iters=2)
        assert nk.checked_enabled()
        assert cli.main(["train", "--config", str(config_path),
                         "--unchecked"]) == EXIT_OK
        assert nk.checked_enabled()

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

    def test_transfer_section_runs_probe(self, tmp_path):
        extra = {"transfer": {"n_train_per_class": 4, "max_test_per_class": 4,
                              "n_splits": 2, "seed": 41, "iters": 20}}
        config_path, _ = train_config(tmp_path, out_name="probe_run",
                                      extra=extra)
        assert cli.main(["train", "--config", str(config_path)]) == EXIT_OK
        assert (tmp_path / "probe_run" / "transfer" / "probe.json").exists()

    def test_hiercurric_out_env_resolves_relative(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HIERCURRIC_OUT", str(tmp_path / "root"))
        config_path, _ = train_config(tmp_path, out_name="ignored")
        code = cli.main(["train", "--config", str(config_path),
                         "--out", "rel_run", "--dry-run"])
        assert code == EXIT_OK
        assert cli.resolve_out("rel_run") == tmp_path / "root" / "rel_run"


@pytest.fixture
def probe_fixtures(tmp_path):
    from hiercurric import benchmark as bm

    data_dir = tmp_path / "data"
    assert cli.main(synth_args(data_dir, seed=31)) == EXIT_OK
    model_spec = md.ModelSpec((1, 8, 8), bm.model_spec(4).layers)
    ckpt = md.build_model(model_spec, seed=32, init="scaled")
    ckpt_path = tmp_path / "model.ckpt"
    md.save_checkpoint(ckpt, ckpt_path)
    return data_dir, ckpt_path, model_spec


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
