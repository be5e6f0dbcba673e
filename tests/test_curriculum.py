import weakref
from dataclasses import replace

import numpy as np
import pytest

from hiercurric import benchmark as bm
from hiercurric import curriculum as cu
from hiercurric import dataprep as dp
from hiercurric import model as md
from hiercurric import nnkernel as nk
from hiercurric import transfer
from hiercurric.errors import ValidationError


@pytest.fixture(scope="module")
def bundle_pair():
    return bm.make_bundle(seed=1)


def tiny_cfg(iters=1, seed=0, level="sub", lr=0.01, **kw):
    sgd = nk.SgdConfig(base_lr=lr, momentum=0.9, weight_decay=0.0005,
                       lr_gamma=1.0, lr_step=10_000, batch_size=32)
    defaults = dict(eval_every=1000, checkpoint_every=1000)
    defaults.update(kw)
    return cu.TrainConfig(sgd=sgd, max_iterations=iters, seed=seed,
                          task_level=level, **defaults)


class TestTopk:
    def test_k_equals_classes(self):
        logits = np.random.default_rng(0).standard_normal((6, 4))
        labels = np.array([0, 1, 2, 3, 0, 1])
        assert cu.topk_accuracy(logits, labels, 4) == 1.0

    def test_onehot_top1(self):
        logits = np.eye(3) * 10
        assert cu.topk_accuracy(logits, np.array([0, 1, 2]), 1) == 1.0

    def test_hand_ranked_case(self):
        logits = np.array([[3.0, 2.0, 1.0]] * 3)
        labels = np.array([0, 1, 2])
        assert cu.topk_accuracy(logits, labels, 2) == pytest.approx(2 / 3)

    def test_ties_break_by_class_index(self):
        logits = np.zeros((1, 4))
        assert cu.topk_accuracy(logits, np.array([1]), 2) == 1.0
        assert cu.topk_accuracy(logits, np.array([3]), 2) == 0.0

    def test_k_too_large(self):
        with pytest.raises(ValidationError):
            cu.topk_accuracy(np.zeros((2, 3)), np.array([0, 1]), 4)


class TestRegimeValidation:
    def test_reference_rejects_phase_a(self):
        with pytest.raises(ValidationError, match="phase A"):
            cu.Regime(kind="Reference", phase_b=tiny_cfg(),
                      phase_a=tiny_cfg(level="basic"))

    def test_pretrain_needs_categories(self):
        with pytest.raises(ValidationError, match="categories"):
            cu.Regime(kind="RandomSubsetPretrain", phase_b=tiny_cfg(),
                      phase_a=tiny_cfg(level="basic"))

    def test_phase_b_level_fixed(self):
        with pytest.raises(ValidationError, match="subordinate"):
            cu.Regime(kind="Reference", phase_b=tiny_cfg(level="basic"))

    def test_facilitated_phase_a_level(self):
        with pytest.raises(ValidationError, match="basic"):
            cu.Regime(kind="FacilitatedReplicatedHead",
                      phase_a=tiny_cfg(level="sub"), phase_b=tiny_cfg())

    @pytest.mark.parametrize("kind, phase_a, phase_b, categories, match", [
        ("Reference", None, dict(lowered_prefix=1), (), "lowers no conv"),
        ("ReferenceExtended", dict(level="sub"), dict(lowered_prefix=1), (),
         "lowers no conv"),
        ("FacilitatedRandomHead", dict(level="basic", lowered_prefix=1), {}, (),
         "only on phase B"),
        ("FacilitatedReplicatedHead", dict(level="basic"), {}, ("b0",),
         "takes no pretrain categories"),
        ("FacilitatedReplicatedHead", dict(level="basic"),
         dict(lowered_prefix=0, lowered_mult=0.1), (), "lowers nothing"),
        ("FacilitatedReplicatedHead", dict(level="basic"),
         dict(lowered_prefix=2, lowered_mult=1.0), (), "lowers nothing"),
    ], ids=["reference-phase-b", "extended-phase-b", "phase-a",
            "pretrain-on-facilitated", "lowering-prefix-zero",
            "lowering-mult-one"])
    def test_no_effect_settings_rejected(self, kind, phase_a, phase_b,
                                         categories, match):
        with pytest.raises(ValidationError, match=match):
            cu.Regime(kind=kind, phase_b=tiny_cfg(**phase_b),
                      phase_a=None if phase_a is None else tiny_cfg(**phase_a),
                      pretrain_categories=categories)


class TestTrainPhase:
    def test_zero_lr_one_iter_bit_identical(self, bundle_pair):
        _, bundle = bundle_pair
        ckpt = md.build_model(bundle.model_spec.with_outputs(12), seed=3,
                              init="scaled")
        final, report = cu.train_phase(ckpt, tiny_cfg(iters=1, lr=0.0),
                                       bundle.train, bundle.val,
                                       bundle.labelmap, bundle.images,
                                       bundle.rows)
        for name in ckpt.params:
            np.testing.assert_array_equal(final.params[name].weight,
                                          ckpt.params[name].weight)
        losses = [row for row in report.curves if row[2] == "loss"]
        assert len(losses) == 1

    def test_step_arrays_freed_before_next_forward_or_eval(self, bundle_pair,
                                                            monkeypatch):
        """A step's batch, logits, caches and gradients are all gone when
        the next training forward or an evaluation forward starts."""
        _, bundle = bundle_pair
        ckpt = md.build_model(bundle.model_spec.with_outputs(12), seed=3,
                              init="scaled")
        forward, forward_eval, backward = md.forward, md.forward_eval, md.backward
        refs, starts = [], []

        def check_freed(what):
            starts.append(what)
            alive = sum(r() is not None for r in refs)
            assert alive == 0, f"{alive} step arrays alive at {what} start"

        def spy_forward(spec, params, x, *args, **kwargs):
            check_freed("forward")
            logits, caches = forward(spec, params, x, *args, **kwargs)
            made = [x, logits] + [cache for _, cache in caches if cache is not None]
            refs.extend(weakref.ref(a) for a in made)
            return logits, caches

        def spy_eval(*args, **kwargs):
            check_freed("eval")
            return forward_eval(*args, **kwargs)

        def spy_backward(*args, **kwargs):
            grads = backward(*args, **kwargs)
            refs.extend(weakref.ref(g) for g in grads.values())
            return grads

        monkeypatch.setattr(md, "forward", spy_forward)
        monkeypatch.setattr(md, "forward_eval", spy_eval)
        monkeypatch.setattr(md, "backward", spy_backward)
        cu.train_phase(ckpt, tiny_cfg(iters=3, eval_every=1), bundle.train,
                       bundle.val, bundle.labelmap, bundle.images, bundle.rows)
        assert starts.count("forward") == 3
        assert [w for w, nxt in zip(starts, starts[1:]) if nxt == "forward"] == [
            "eval", "eval"]
        assert len(refs) > 3 * len(ckpt.params)

    def test_one_eval_forward_per_evaluation(self, bundle_pair, monkeypatch):
        """With an SGD batch of 8, each evaluation of a 33-image val set is
        one md.forward_eval over all 33 rows."""
        _, bundle = bundle_pair
        ckpt = md.build_model(bundle.model_spec.with_outputs(12), seed=3,
                              init="scaled")
        val = bundle.val.subset(s.sample_id for s in bundle.val.samples[:33])
        cfg = tiny_cfg(iters=6, eval_every=2)
        cfg = replace(cfg, sgd=replace(cfg.sgd, batch_size=8))
        forward_eval, calls = md.forward_eval, []

        def spy_eval(ckpt, images, layer=None, rows=None):
            calls.append(len(images) if rows is None else len(rows))
            return forward_eval(ckpt, images, layer, rows)

        monkeypatch.setattr(md, "forward_eval", spy_eval)
        _, report = cu.train_phase(ckpt, cfg, bundle.train, val, bundle.labelmap,
                                   bundle.images, bundle.rows)
        assert calls == [33, 33, 33]
        assert [row[0] for row in report.curves if row[2] == "top1"] == [2, 4, 6]

    def test_float32_model_trains_in_float32(self, bundle_pair):
        _, bundle = bundle_pair
        ckpt = md.build_model(bundle.model_spec.with_outputs(12), seed=3,
                              init="scaled", dtype=np.float32)
        final, _ = cu.train_phase(ckpt, tiny_cfg(iters=1), bundle.train,
                                  bundle.val, bundle.labelmap, bundle.images,
                                  bundle.rows)
        for name in final.params:
            entry = final.params[name]
            assert entry.weight.dtype == entry.momentum.dtype == np.float32, name
            assert entry.momentum.any(), name
            assert not np.array_equal(entry.weight, ckpt.params[name].weight), name

    def test_input_checkpoint_not_mutated(self, bundle_pair):
        _, bundle = bundle_pair
        ckpt = md.build_model(bundle.model_spec.with_outputs(12), seed=3,
                              init="scaled")
        before = md.checkpoint_to_bytes(ckpt)
        cu.train_phase(ckpt, tiny_cfg(iters=3), bundle.train, bundle.val,
                       bundle.labelmap, bundle.images, bundle.rows)
        assert md.checkpoint_to_bytes(ckpt) == before

    def test_lowered_mult_zero_freezes_conv_prefix(self, bundle_pair):
        _, bundle = bundle_pair
        ckpt = md.build_model(bundle.model_spec.with_outputs(12), seed=3,
                              init="scaled")
        final, _ = cu.train_phase(
            ckpt, tiny_cfg(iters=3, lowered_prefix=2, lowered_mult=0.0),
            bundle.train, bundle.val, bundle.labelmap, bundle.images,
            bundle.rows)
        for name in ("conv1.weight", "conv1.bias", "conv2.weight", "conv2.bias"):
            assert (final.params[name].weight.tobytes()
                    == ckpt.params[name].weight.tobytes()), name
        assert not np.array_equal(final.params["fc1.weight"].weight,
                                  ckpt.params["fc1.weight"].weight)

    @pytest.mark.parametrize("prefix,mult", [(1, 0.1), (2, 0.1), (0, 1.0)])
    def test_returned_lr_mults_come_from_cfg(self, bundle_pair, prefix, mult):
        """Each entry's lr_mult is set from cfg; a stale input value is not kept."""
        _, bundle = bundle_pair
        ckpt = md.build_model(bundle.model_spec.with_outputs(12), seed=3,
                              init="scaled")
        for name in ("conv2.weight", "fc1.weight"):
            ckpt.params[name].lr_mult = 0.5
        final, _ = cu.train_phase(
            ckpt, tiny_cfg(lowered_prefix=prefix, lowered_mult=mult),
            bundle.train, bundle.val, bundle.labelmap, bundle.images,
            bundle.rows)
        lowered = ckpt.spec.conv_names()[:prefix]
        assert {n: e.lr_mult for n, e in final.params.items()} == {
            n: mult if n.split(".")[0] in lowered else 1.0 for n in ckpt.params}

    @pytest.mark.parametrize("level,tag", [("basic", "basic"), ("sub", "subordinate")])
    @pytest.mark.parametrize("held", md.PHASE_TAGS)
    def test_phase_tag_comes_from_task_level(self, bundle_pair, tmp_path,
                                             level, tag, held):
        """The returned and the saved phase_tag name cfg.task_level's phase;
        the input's tag is not kept."""
        _, bundle = bundle_pair
        lm = bundle.labelmap
        ckpt = md.build_model(bundle.model_spec.with_outputs(
            lm.n_basic if level == "basic" else lm.n_sub), seed=3, init="scaled")
        ckpt.phase_tag = held
        final, report = cu.train_phase(
            ckpt, tiny_cfg(level=level, checkpoint_every=1), bundle.train,
            bundle.val, lm, bundle.images, bundle.rows, tmp_path)
        assert final.phase_tag == tag
        assert md.load_checkpoint(report.checkpoints[0]).phase_tag == tag
        assert ckpt.phase_tag == held

    def test_lowered_prefix_beyond_convs_rejected_before_any_step(
            self, bundle_pair, monkeypatch):
        _, bundle = bundle_pair
        ckpt = md.build_model(bundle.model_spec.with_outputs(12), seed=3)
        steps = []
        monkeypatch.setattr(cu, "_step", lambda *args: steps.append(args))
        with pytest.raises(ValidationError,
                           match="lowered_prefix 3 exceeds 2 conv layers"):
            cu.train_phase(ckpt, tiny_cfg(lowered_prefix=3, lowered_mult=0.1),
                           bundle.train, bundle.val, bundle.labelmap,
                           bundle.images, bundle.rows)
        assert steps == []

    def test_loss_curve_smoothed_decreasing(self, bundle_pair):
        # Moving-average oracle over the first 200 iterations: block means
        # over 20-iteration windows must trend down on separable data.
        _, bundle = bundle_pair
        ckpt = md.build_model(bundle.model_spec.with_outputs(12), seed=3,
                              init="scaled")
        _, report = cu.train_phase(ckpt, tiny_cfg(iters=200, seed=5),
                                   bundle.train, bundle.val,
                                   bundle.labelmap, bundle.images, bundle.rows)
        losses = np.array([v for it, s, m, v in report.curves if m == "loss"])
        blocks = losses.reshape(10, 20).mean(axis=1)
        assert blocks[-1] < blocks[0]
        assert np.all(np.diff(blocks) < 0.05)

    def test_empty_manifest_rejected(self, bundle_pair):
        _, bundle = bundle_pair
        ckpt = md.build_model(bundle.model_spec.with_outputs(12), seed=3)
        empty = dp.DatasetManifest(())
        with pytest.raises(ValidationError, match="empty"):
            cu.train_phase(ckpt, tiny_cfg(), empty, bundle.val,
                           bundle.labelmap, bundle.images, bundle.rows)
        with pytest.raises(ValidationError, match="empty"):
            cu.train_phase(ckpt, tiny_cfg(), bundle.train, empty,
                           bundle.labelmap, bundle.images, bundle.rows)

    def test_label_out_of_head_range(self, bundle_pair):
        _, bundle = bundle_pair
        ckpt = md.build_model(bundle.model_spec.with_outputs(3), seed=3)
        with pytest.raises(ValidationError, match="head width"):
            cu.train_phase(ckpt, tiny_cfg(), bundle.train, bundle.val,
                           bundle.labelmap, bundle.images, bundle.rows)

    def test_eval_cadence_and_metrics(self, bundle_pair):
        _, bundle = bundle_pair
        ckpt = md.build_model(bundle.model_spec.with_outputs(12), seed=3,
                              init="scaled")
        _, report = cu.train_phase(ckpt, tiny_cfg(iters=40, eval_every=20),
                                   bundle.train, bundle.val,
                                   bundle.labelmap, bundle.images, bundle.rows)
        top1_iters = [it for it, s, m, v in report.curves if m == "top1"]
        assert top1_iters == [20, 40]
        assert any(m == "top5" for _, _, m, _ in report.curves)


class TestRunRegime:
    @pytest.mark.parametrize("kind", ["Reference", "ReferenceExtended",
                                      "FacilitatedReplicatedHead"])
    def test_each_phase_trains_the_checkpoint_made_for_it(self, bundle_pair,
                                                          monkeypatch, kind):
        """run_regime makes every checkpoint a phase starts from (a fresh
        model, or replace_head's result) and trains it in place: the final
        checkpoint is the last one made, and replace_head reads phase A's
        fresh model itself."""
        _, bundle = bundle_pair
        build_model, replace_head = md.build_model, md.replace_head
        made, heads_from = [], []

        def spy_build(*args, **kwargs):
            made.append(build_model(*args, **kwargs))
            return made[-1]

        def spy_replace(ckpt, *args, **kwargs):
            heads_from.append(ckpt)
            made.append(replace_head(ckpt, *args, **kwargs))
            return made[-1]

        monkeypatch.setattr(md, "build_model", spy_build)
        monkeypatch.setattr(md, "replace_head", spy_replace)
        phase_a = None
        if kind != "Reference":
            phase_a = tiny_cfg(iters=2, seed=1,
                               level="sub" if kind == "ReferenceExtended" else "basic")
        regime = cu.Regime(kind=kind, phase_a=phase_a,
                           phase_b=tiny_cfg(iters=2, seed=2))
        final, _ = cu.run_regime(regime, bundle)
        assert final is made[-1]
        assert final.iteration == 2
        assert all(a is b for a, b in zip(heads_from, made))
        assert len(heads_from) == (kind == "FacilitatedReplicatedHead")

    @pytest.mark.parametrize("kind", cu.REGIME_KINDS)
    def test_checkpoint_files_name_their_phase(self, bundle_pair, tmp_path, kind):
        """Phase A's files carry its task level's tag (ReferenceExtended's
        phase A trains the subordinate task); phase B's are subordinate."""
        _, bundle = bundle_pair
        recipe = cu.RECIPES[kind]
        regime = cu.Regime(
            kind=kind, phase_b=tiny_cfg(iters=1, seed=2, checkpoint_every=1),
            phase_a=recipe.phase_a and tiny_cfg(iters=1, seed=1, checkpoint_every=1,
                                                level=recipe.phase_a_level),
            pretrain_categories=tuple(sorted(bundle.graph.leaf_set)[:4])
            if recipe.phase_a == "subset" else ())
        _, report = cu.run_regime(regime, bundle, tmp_path)
        tags = {ref.split("/")[-2]: md.load_checkpoint(ref).phase_tag
                for ref in report.checkpoints}
        want = {"phase_b": "subordinate"}
        if recipe.phase_a:
            want["phase_a"] = "subordinate" if kind == "ReferenceExtended" else "basic"
        assert tags == want

    def test_reference_equals_single_phase(self, bundle_pair):
        _, bundle = bundle_pair
        regime = cu.Regime(kind="Reference", phase_b=tiny_cfg(iters=5, seed=7))
        ckpt_r, report_r = cu.run_regime(regime, bundle)
        start = md.build_model(bundle.model_spec.with_outputs(12), seed=7,
                               init="scaled")
        ckpt_p, report_p = cu.train_phase(start, tiny_cfg(iters=5, seed=7),
                                          bundle.train, bundle.val,
                                          bundle.labelmap, bundle.images,
                                          bundle.rows)
        assert md.checkpoint_to_bytes(ckpt_r) == md.checkpoint_to_bytes(ckpt_p)
        assert report_r.curves == [(it, s, f"phase_b.{m}", v)
                                   for it, s, m, v in report_p.curves]

    def test_replicated_head_sibling_equality_at_phase_b_start(self, bundle_pair):
        _, bundle = bundle_pair
        lm = bundle.labelmap
        regime = cu.Regime(
            kind="FacilitatedReplicatedHead",
            phase_a=tiny_cfg(iters=5, seed=1, level="basic"),
            phase_b=tiny_cfg(iters=1, seed=2, lr=0.0))  # phase B is a no-op
        final, _ = cu.run_regime(regime, bundle)
        batch = np.random.default_rng(3).random((4,) + bundle.model_spec.input_shape)
        logits = md.forward_eval(final, batch)
        groups = {}
        for j, leaf in enumerate(lm.sub_names):
            groups.setdefault(lm.basic_index(leaf), []).append(j)
        for cols in groups.values():
            spread = logits[:, cols].max(axis=1) - logits[:, cols].min(axis=1)
            assert spread.max() <= 1e-12

    def test_phase_handoff_body_bit_identical(self, bundle_pair):
        _, bundle = bundle_pair
        cfg_a = tiny_cfg(iters=5, seed=11, level="basic")
        regime = cu.Regime(kind="FacilitatedReplicatedHead", phase_a=cfg_a,
                           phase_b=tiny_cfg(iters=1, seed=12, lr=0.0))
        final, _ = cu.run_regime(regime, bundle)
        start = md.build_model(bundle.model_spec.with_outputs(
            bundle.labelmap.n_basic), seed=11, init="scaled")
        phase_a_final, _ = cu.train_phase(start, cfg_a, bundle.train, bundle.val,
                                          bundle.labelmap, bundle.images,
                                          bundle.rows)
        for name in final.params:
            if name.startswith("fc2."):
                continue
            np.testing.assert_array_equal(final.params[name].weight,
                                          phase_a_final.params[name].weight)

    def test_lowered_mult_zero_freezes_prefix(self, bundle_pair):
        _, bundle = bundle_pair
        cfg_a = tiny_cfg(iters=5, seed=21, level="basic")
        regime = cu.Regime(
            kind="FacilitatedReplicatedHead", phase_a=cfg_a,
            phase_b=tiny_cfg(iters=10, seed=22, lowered_prefix=2,
                             lowered_mult=0.0))
        final, _ = cu.run_regime(regime, bundle)
        start = md.build_model(bundle.model_spec.with_outputs(
            bundle.labelmap.n_basic), seed=21, init="scaled")
        phase_a_final, _ = cu.train_phase(start, cfg_a, bundle.train, bundle.val,
                                          bundle.labelmap, bundle.images,
                                          bundle.rows)
        for conv in ("conv1", "conv2"):
            np.testing.assert_array_equal(
                final.params[f"{conv}.weight"].weight,
                phase_a_final.params[f"{conv}.weight"].weight)
        assert not np.array_equal(final.params["fc1.weight"].weight,
                                  phase_a_final.params["fc1.weight"].weight)

    def test_random_subset_pretrain_runs_and_respects_disjointness(self, bundle_pair):
        _, bundle = bundle_pair
        leaves = sorted(bundle.graph.leaf_set)[:4]
        regime = cu.Regime(kind="RandomSubsetPretrain",
                           phase_a=tiny_cfg(iters=3, seed=31, level="basic"),
                           phase_b=tiny_cfg(iters=3, seed=32),
                           pretrain_categories=tuple(leaves))
        final, report = cu.run_regime(regime, bundle)
        assert final.spec.n_outputs == bundle.labelmap.n_sub
        assert any(m.startswith("phase_a.") for _, _, m, _ in report.curves)

    def test_random_subset_overlap_rejected(self, bundle_pair):
        _, bundle = bundle_pair
        overlap = (sorted(bundle.graph.basic_marks)[0],)
        regime = cu.Regime(kind="RandomSubsetPretrain",
                           phase_a=tiny_cfg(iters=3, seed=31, level="basic"),
                           phase_b=tiny_cfg(iters=3, seed=32),
                           pretrain_categories=overlap)
        with pytest.raises(ValidationError, match="overlap"):
            cu.run_regime(regime, bundle)

    def test_reference_extended_keeps_head(self, bundle_pair):
        _, bundle = bundle_pair
        regime = cu.Regime(kind="ReferenceExtended",
                           phase_a=tiny_cfg(iters=4, seed=41),
                           phase_b=tiny_cfg(iters=4, seed=42))
        final, report = cu.run_regime(regime, bundle)
        assert final.spec.n_outputs == bundle.labelmap.n_sub
        assert all(e.lr_mult == 1.0 for e in
                   (final.params[n] for n in final.params))

    def test_regime_determinism(self, bundle_pair):
        _, bundle = bundle_pair
        def run():
            regime = cu.Regime(
                kind="FacilitatedReplicatedHead",
                phase_a=tiny_cfg(iters=4, seed=51, level="basic"),
                phase_b=tiny_cfg(iters=4, seed=52))
            return cu.run_regime(regime, bundle)
        a_ckpt, a_rep = run()
        b_ckpt, b_rep = run()
        assert md.checkpoint_to_bytes(a_ckpt) == md.checkpoint_to_bytes(b_ckpt)
        assert a_rep.curves == b_rep.curves
        assert a_rep.final == b_rep.final

    def test_merged_iterations_increase_per_series(self, bundle_pair):
        _, bundle = bundle_pair
        regime = cu.Regime(kind="FacilitatedReplicatedHead",
                           phase_a=tiny_cfg(iters=4, seed=61, level="basic"),
                           phase_b=tiny_cfg(iters=4, seed=62))
        _, report = cu.run_regime(regime, bundle)
        series = {}
        for it, split, metric, _ in report.curves:
            series.setdefault((split, metric), []).append(it)
        for its in series.values():
            assert all(b > a for a, b in zip(its, its[1:]))


class TestCheckpointSweep:
    def test_single_point_and_iteration_keys(self, bundle_pair, tmp_path):
        data, bundle = bundle_pair
        ckpt = md.build_model(bundle.model_spec.with_outputs(12), seed=71,
                              init="scaled")
        ckpt.iteration = 640
        probe = bm.probe_spec(seed=1)
        report = cu.checkpoint_sweep([ckpt], data.manifest, bundle.images,
                                     probe, bundle.labelmap)
        assert len(report.curves) == 1
        assert report.curves[0][0] == 640
        assert report.curves[0][1:3] == ("transfer", "mean_class_recall")

    def test_three_checkpoints_equal_three_one_checkpoint_sweeps(self, bundle_pair):
        data, bundle = bundle_pair
        ckpts = []
        for i, seed in enumerate((91, 92, 93)):
            ckpt = md.build_model(bundle.model_spec.with_outputs(12), seed=seed,
                                  init="scaled")
            ckpt.iteration = 10 * (i + 1)
            ckpts.append(ckpt)
        probe = bm.probe_spec(seed=4)
        report = cu.checkpoint_sweep(ckpts, data.manifest, bundle.images, probe,
                                     bundle.labelmap)
        alone = [cu.checkpoint_sweep([ckpt], data.manifest, bundle.images, probe,
                                     bundle.labelmap).curves[0] for ckpt in ckpts]
        assert [(it, split, metric, repr(v)) for it, split, metric, v in report.curves] \
            == [(it, split, metric, repr(v)) for it, split, metric, v in alone]

    def test_descending_iterations_rejected(self, bundle_pair):
        data, bundle = bundle_pair
        a = md.build_model(bundle.model_spec.with_outputs(12), seed=1)
        b = md.build_model(bundle.model_spec.with_outputs(12), seed=2)
        a.iteration, b.iteration = 10, 5
        with pytest.raises(ValidationError, match="ascend"):
            cu.checkpoint_sweep([a, b], data.manifest, bundle.images,
                                bm.probe_spec(seed=1), bundle.labelmap)

    def test_trained_point_above_untrained(self, bundle_pair):
        data, bundle = bundle_pair
        untrained = md.build_model(bundle.model_spec.with_outputs(12), seed=81,
                                   init="scaled")
        regime = cu.Regime(kind="Reference",
                           phase_b=bm.train_config(300, 82, "sub"))
        trained, _ = cu.run_regime(regime, bundle)
        trained.iteration = 300
        report = cu.checkpoint_sweep([untrained, trained], data.manifest,
                                     bundle.images, bm.probe_spec(seed=2),
                                     bundle.labelmap)
        assert report.curves[1][3] > report.curves[0][3]


class TestReportFiles:
    def test_save_run_report_round_stable(self, tmp_path):
        report = cu.RunReport(
            curves=[(0, "train", "loss", 1.25), (1, "val", "top1", 0.5)],
            final={"top1": 0.5}, regime={"kind": "Reference"},
            checkpoints=["x.ckpt"])
        cu.save_run_report(report, tmp_path / "a")
        cu.save_run_report(report, tmp_path / "b")
        for name in ("curves.csv", "final.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())
        text = (tmp_path / "a" / "curves.csv").read_text()
        assert text.startswith("iteration,split,metric,value\n0,train,loss,1.25\n")
