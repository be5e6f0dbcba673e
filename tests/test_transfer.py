import numpy as np
import pytest

from hiercurric import benchmark as bm
from hiercurric import curriculum as cu
from hiercurric import dataprep as dp
from hiercurric import model as md
from hiercurric import nnkernel as nk
from hiercurric import transfer
from hiercurric.errors import NumericFault, ValidationError


@pytest.fixture(scope="module")
def bundle_pair():
    return bm.make_bundle(seed=2)


@pytest.fixture(scope="module")
def desk_ckpt():
    return md.build_model(md.desk_spec(4), seed=1, init="scaled")


def rows_of(bundle, samples):
    """The bundle's loaded images of ``samples``, in their order."""
    return bundle.images[[bundle.rows[s.sample_id] for s in samples]]


def small_manifest(data, per_class=6):
    keep = []
    seen: dict[str, int] = {}
    for s in data.manifest.samples:
        if seen.get(s.leaf_id, 0) < per_class:
            seen[s.leaf_id] = seen.get(s.leaf_id, 0) + 1
            keep.append(s.sample_id)
    return data.manifest.subset(keep)


class TestExtractFeatures:
    def test_desk_default_layer_is_head_input_width(self, desk_ckpt):
        images = np.random.default_rng(0).random((5, 3, 32, 32))
        rows = transfer.extract_features(desk_ckpt, images)
        assert rows.shape == (5, 256)
        np.testing.assert_array_equal(
            rows, md.forward_eval(desk_ckpt, images, "drop1"))

    def test_batches_match_per_image_forwards(self, desk_ckpt):
        """70 images run as 32 + 32 + 6 padded to 32. Conv features equal
        each image's own forward. fc1's equal it to float64 rounding and one
        70-image forward exactly."""
        assert 70 % md.EVAL_BATCH
        images = np.random.default_rng(40).random((70, 3, 32, 32))
        for layer, exact in (("pool2", True), ("fc1", False)):
            rows = transfer.extract_features(desk_ckpt, images, layer)
            alone = np.concatenate([md.forward_eval(desk_ckpt, image[None], layer)
                                    .reshape(1, -1) for image in images])
            if exact:
                np.testing.assert_array_equal(rows, alone)
            else:
                np.testing.assert_allclose(rows, alone, rtol=1e-12, atol=1e-12)
                np.testing.assert_array_equal(
                    rows, md.forward_eval(desk_ckpt, images, layer).reshape(70, -1))

    def test_one_image_tail_joins_the_batch_before(self, desk_ckpt):
        """33 images run as 32 + 1 padded to 32, so the last image's fc1
        features keep the bytes they have inside a batch of 32."""
        images = np.random.default_rng(41).random((64, 3, 32, 32))
        assert md.EVAL_BATCH == 32
        for layer in ("pool2", "fc1"):
            whole = transfer.extract_features(desk_ckpt, images, layer)
            head = transfer.extract_features(desk_ckpt, images[:33], layer)
            assert head.tobytes() == whole[:33].tobytes()

    def test_bit_identical_on_rerun(self, desk_ckpt):
        images = np.random.default_rng(10).random((4, 3, 32, 32))
        a = transfer.extract_features(desk_ckpt, images)
        b = transfer.extract_features(desk_ckpt, images)
        np.testing.assert_array_equal(a, b)

    def test_post_relu_layer_nonnegative(self, desk_ckpt):
        images = np.random.default_rng(20).random((3, 3, 32, 32))
        rows = transfer.extract_features(desk_ckpt, images, "relu3")
        assert rows.min() >= 0.0

    def test_empty_selection_rejected(self, desk_ckpt):
        with pytest.raises(ValidationError, match="no images"):
            transfer.extract_features(desk_ckpt, np.zeros((0, 3, 32, 32)))

    def test_unknown_layer(self, desk_ckpt):
        with pytest.raises(ValidationError, match="nope"):
            transfer.extract_features(desk_ckpt, np.zeros((1, 3, 32, 32)), "nope")

    def test_head_not_a_feature_layer(self, desk_ckpt):
        with pytest.raises(ValidationError, match="precede"):
            transfer.extract_features(desk_ckpt, np.zeros((1, 3, 32, 32)), "fc2")

    def test_non_finite_features_rejected(self, desk_ckpt, monkeypatch):
        """extract_features' own check, reached past the kernels' scan."""
        ckpt = desk_ckpt.copy()
        ckpt.params["fc1.weight"].weight[0, 0] = np.nan
        images = np.random.default_rng(30).random((2, 3, 32, 32))
        monkeypatch.setattr(nk, "_guard", lambda *arrays: None)
        with pytest.raises(ValidationError, match="non-finite"):
            transfer.extract_features(ckpt, images, "fc1")


def separable_features(n_per_class=40, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal((2.0, 0.0), 0.3, size=(n_per_class, 2))
    b = rng.normal((-2.0, 0.0), 0.3, size=(n_per_class, 2))
    rows = np.concatenate([a, b])
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    return rows, labels


class TestProbeTraining:
    def test_separable_two_class_reaches_full_accuracy(self):
        feats, labels = separable_features()
        cfg = nk.SgdConfig(base_lr=0.1, momentum=0.9, weight_decay=0.0,
                           lr_gamma=1.0, lr_step=1000, batch_size=16)
        w, b = transfer.train_softmax_probe(feats[None], labels[None], cfg,
                                            iters=500, seeds=[0])
        predictions = (feats @ w[0].T + b[0]).argmax(axis=1)
        assert (predictions == labels).mean() == 1.0

    def test_zero_lr_leaves_weights_at_init(self):
        feats, labels = separable_features(seed=1)
        cfg = nk.SgdConfig(base_lr=0.0, momentum=0.9, weight_decay=0.0,
                           lr_gamma=1.0, lr_step=1000, batch_size=16)
        w, b = transfer.train_softmax_probe(feats[None], labels[None], cfg,
                                            iters=50, seeds=[5])
        expected = nk.default_init((2, 2), np.random.default_rng(5))
        np.testing.assert_array_equal(w[0], expected)
        assert not b.any()

    def test_seeded_shuffles_reproduce_weights(self):
        feats, labels = separable_features(seed=2)
        cfg = nk.SgdConfig(base_lr=0.05, momentum=0.9, weight_decay=0.0,
                           lr_gamma=1.0, lr_step=1000, batch_size=8)
        w1, b1 = transfer.train_softmax_probe(feats[None], labels[None], cfg, 100, [7])
        w2, b2 = transfer.train_softmax_probe(feats[None], labels[None], cfg, 100, [7])
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(b1, b2)

    def test_single_class_rejected(self):
        feats, _ = separable_features(seed=3)
        labels = np.zeros(len(feats), dtype=int)
        cfg = nk.SgdConfig(base_lr=0.1)
        with pytest.raises(ValidationError, match="two classes"):
            transfer.train_softmax_probe(feats[None], labels[None], cfg, 10, [0])

    def test_misaligned_labels_rejected(self):
        feats, labels = separable_features(seed=4)
        cfg = nk.SgdConfig(base_lr=0.1)
        with pytest.raises(ValidationError, match="not aligned"):
            transfer.train_softmax_probe(feats[None], labels[:-1][None], cfg, 10, [0])


def kernel_path_probe(rows, labels, cfg, iters, seed):
    """One probe head trained step by step through the nnkernel kernels."""
    rng = np.random.default_rng(seed)
    n_classes = int(labels.max()) + 1
    params = {"w": nk.ParamEntry(nk.default_init((n_classes, rows.shape[1]), rng)),
              "b": nk.ParamEntry(np.zeros(n_classes))}
    batches = dp.epoch_batches(rng, len(rows), cfg.batch_size)
    for it, idx in zip(range(iters), batches):
        logits, cache = nk.fc_forward(rows[idx], params["w"].weight,
                                      params["b"].weight)
        _, dlogits = nk.softmax_xent(logits, labels[idx])
        _, dw, db = nk.fc_backward(dlogits, cache)
        nk.sgd_step(params, {"w": dw, "b": db}, cfg, it)
    return params["w"].weight, params["b"].weight


class TestStackedProbe:
    # (P, N, D, K, batch size): 100 % 32 and 45 % 8 leave a partial batch
    CASES = [(3, 64, 16, 4, 32), (5, 100, 64, 12, 32), (2, 45, 1024, 9, 8),
             (4, 37, 3, 2, 37)]

    @staticmethod
    def problems(n_problems, n, d, k, seed):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(n_problems, n, d))
        labels = np.stack([rng.permutation(np.arange(n) % k)
                           for _ in range(n_problems)])
        return rows, labels

    # the CASES give each problem its own seed, 11, 12, ..; the repeated
    # seeds share a generator, as a sweep's checkpoints repeat their splits'
    REPEATED = [(5, 100, 64, 12, 32, [11, 12, 11, 12, 11]),
                (3, 64, 16, 4, 32, [12, 11, 12]), (4, 37, 3, 2, 37, [7, 7, 7, 7])]
    HEAD_CASES = (
        [pytest.param(*case, None, id="-".join(map(str, case))) for case in CASES]
        + [pytest.param(*case, id="-".join(map(str, case[:5])) + "-seeds-"
                        + "-".join(map(str, case[5]))) for case in REPEATED])

    @pytest.mark.parametrize("n_problems,n,d,k,batch,seeds", HEAD_CASES)
    def test_each_head_equals_its_problem_alone(self, n_problems, n, d, k, batch,
                                                seeds):
        rows, labels = self.problems(n_problems, n, d, k, seed=d)
        cfg = nk.SgdConfig(base_lr=0.05, momentum=0.9, weight_decay=0.001,
                           lr_gamma=0.5, lr_step=20, batch_size=batch)
        seeds = seeds or [11 + p for p in range(n_problems)]
        w, b = transfer.train_softmax_probe(rows, labels, cfg, 60, seeds)
        assert w.shape == (n_problems, k, d) and b.shape == (n_problems, k)
        for p in range(n_problems):
            w1, b1 = transfer.train_softmax_probe(rows[p:p + 1], labels[p:p + 1],
                                                  cfg, 60, seeds[p:p + 1])
            assert w[p].tobytes() == w1[0].tobytes()
            assert b[p].tobytes() == b1[0].tobytes()

    def test_one_batch_stream_per_distinct_seed(self, monkeypatch):
        rows, labels = self.problems(5, 40, 6, 3, seed=2)
        epoch_batches, drawn = dp.epoch_batches, []

        def spy(rng, n, batch_size):
            drawn.append(n)
            return epoch_batches(rng, n, batch_size)

        monkeypatch.setattr(dp, "epoch_batches", spy)
        w, _ = transfer.train_softmax_probe(rows, labels, nk.SgdConfig(batch_size=8),
                                            30, [11, 12, 11, 12, 11])
        assert drawn == [40, 40]
        assert w[0].tobytes() != w[2].tobytes()  # same seed, other rows

    def test_heads_are_views_of_one_entry(self):
        rows, labels = self.problems(3, 20, 5, 4, seed=3)
        w, b = transfer.train_softmax_probe(rows, labels, nk.SgdConfig(batch_size=8),
                                            5, [1, 2, 1])
        assert w.base is not None and w.base is b.base
        assert w.base.shape == (3, 4 * (5 + 1))

    @pytest.mark.parametrize("n_problems,n,d,k,batch", CASES[:3])
    def test_heads_equal_the_kernel_path(self, n_problems, n, d, k, batch):
        rows, labels = self.problems(n_problems, n, d, k, seed=k)
        cfg = nk.SgdConfig(base_lr=0.05, momentum=0.9, weight_decay=0.0,
                           lr_gamma=1.0, lr_step=10_000, batch_size=batch)
        seeds = [3 * p for p in range(n_problems)]
        w, b = transfer.train_softmax_probe(rows, labels, cfg, 40, seeds)
        for p in range(n_problems):
            w1, b1 = kernel_path_probe(rows[p], labels[p], cfg, 40, seeds[p])
            assert w[p].tobytes() == w1.tobytes()
            assert b[p].tobytes() == b1.tobytes()

    def test_different_row_counts_rejected(self):
        rows, labels = self.problems(2, 40, 5, 3, seed=0)
        with pytest.raises(ValidationError, match="row shape"):
            transfer.train_softmax_probe([rows[0], rows[1][:-1]],
                                         [labels[0], labels[1][:-1]],
                                         nk.SgdConfig(batch_size=8), 5, [0, 1])

    def test_different_class_counts_rejected(self):
        rows, labels = self.problems(2, 40, 5, 3, seed=1)
        labels[1] = np.arange(40) % 4
        with pytest.raises(ValidationError, match="class count"):
            transfer.train_softmax_probe(rows, labels,
                                         nk.SgdConfig(batch_size=8), 5, [0, 1])

    def test_checked_mode_faults_on_blow_up(self):
        feats, labels = separable_features(seed=6)
        cfg = nk.SgdConfig(base_lr=1e305, momentum=0.9, weight_decay=0.0,
                           lr_gamma=1.0, lr_step=1000, batch_size=16)
        with pytest.raises(NumericFault), np.errstate(over="ignore"):
            transfer.train_softmax_probe((feats * 1e3)[None], labels[None],
                                         cfg, 50, [0])


class TestMeanClassRecall:
    def test_perfect(self):
        mean, per = transfer.mean_class_recall([0, 1, 2], [0, 1, 2], 3)
        assert mean == 1.0
        np.testing.assert_array_equal(per, [1.0, 1.0, 1.0])

    def test_hand_counted_case(self):
        mean, per = transfer.mean_class_recall([0, 1, 1], [0, 0, 1], 2)
        assert per[0] == 0.5 and per[1] == 1.0
        assert mean == pytest.approx(0.75)

    def test_constant_predictor_balanced(self):
        mean, _ = transfer.mean_class_recall([0, 0, 0, 0], [0, 0, 1, 1], 2)
        assert mean == pytest.approx(0.5)

    def test_absent_class_excluded_and_logged(self, caplog):
        with caplog.at_level("WARNING"):
            mean, per = transfer.mean_class_recall([0, 0], [0, 0], 3)
        assert mean == 1.0
        assert np.isnan(per[1]) and np.isnan(per[2])
        assert "absent" in caplog.text

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            transfer.mean_class_recall([], [], 2)


class TestEvaluateProbe:
    def test_deterministic_aggregate(self, bundle_pair):
        data, bundle = bundle_pair
        ckpt = md.build_model(bundle.model_spec.with_outputs(12), seed=9,
                              init="scaled")
        manifest = small_manifest(data, per_class=8)
        images = rows_of(bundle, manifest.samples)
        probe = transfer.ProbeSpec(n_train_per_class=4, max_test_per_class=4,
                                   n_splits=3, seed=3, iters=60)
        (a,) = transfer.evaluate_probe([ckpt], manifest, images, [probe],
                                       bundle.labelmap)
        (b,) = transfer.evaluate_probe([ckpt], manifest, images, [probe],
                                       bundle.labelmap)
        assert a.aggregate == b.aggregate
        assert a.per_split[0][1] == b.per_split[0][1]

    def test_results_do_not_read_momentum(self, bundle_pair, tmp_path):
        """A checkpoint file holds no momentum, so the probe must not read it:
        randomizing every momentum buffer leaves the written results
        byte-equal."""
        data, bundle = bundle_pair
        ckpt = md.build_model(bundle.model_spec.with_outputs(12), seed=9,
                              init="scaled")
        noisy = ckpt.copy()
        rng = np.random.default_rng(4)
        for e in noisy.params.values():
            e.momentum[...] = rng.standard_normal(e.momentum.shape)
        manifest = small_manifest(data, per_class=8)
        images = rows_of(bundle, manifest.samples)
        probe = transfer.ProbeSpec(n_train_per_class=4, max_test_per_class=4,
                                   n_splits=2, seed=3, iters=30)
        results = transfer.evaluate_probe([ckpt, noisy], manifest, images,
                                          [probe], bundle.labelmap)
        for name, result in zip(("plain", "noisy"), results):
            transfer.save_probe_result(result, tmp_path / name)
        for name in ("probe.json", "per_class_recall.csv"):
            assert ((tmp_path / "plain" / name).read_bytes()
                    == (tmp_path / "noisy" / name).read_bytes())

    def test_extracts_only_the_rows_splits_read(self, bundle_pair, monkeypatch):
        """One eval forward per checkpoint, over the 2 train and 2 test
        images per class that the one split reads, in manifest order."""
        data, bundle = bundle_pair
        ckpt = md.build_model(bundle.model_spec.with_outputs(12), seed=9,
                              init="scaled")
        manifest = small_manifest(data, per_class=8)
        images = rows_of(bundle, manifest.samples)
        probe = transfer.ProbeSpec(n_train_per_class=2, max_test_per_class=2,
                                   n_splits=1, seed=3, iters=10)
        forward_eval, selections = md.forward_eval, []

        def spy_eval(ckpt, images, layer=None, rows=None):
            selections.append(rows)
            return forward_eval(ckpt, images, layer, rows)

        monkeypatch.setattr(md, "forward_eval", spy_eval)
        transfer.evaluate_probe([ckpt], manifest, images, [probe], bundle.labelmap)
        (rows,) = selections
        assert len(rows) == 12 * 4 < len(images)
        assert np.all(np.diff(rows) > 0)

    def test_aggregate_is_mean_of_splits(self, bundle_pair):
        data, bundle = bundle_pair
        ckpt = md.build_model(bundle.model_spec.with_outputs(12), seed=9,
                              init="scaled")
        manifest = small_manifest(data, per_class=8)
        images = rows_of(bundle, manifest.samples)
        probe = transfer.ProbeSpec(n_train_per_class=4, max_test_per_class=4,
                                   n_splits=3, seed=4, iters=60)
        (result,) = transfer.evaluate_probe([ckpt], manifest, images, [probe],
                                            bundle.labelmap)
        means = np.array([m for _, m, _ in result.per_split])
        assert abs(result.aggregate["mean"] - means.mean()) <= 1e-12
        assert abs(result.aggregate["std"] - means.std()) <= 1e-12
        assert all(0 <= r <= 1 for r in means)

    def test_backbone_unchanged(self, bundle_pair):
        data, bundle = bundle_pair
        ckpt = md.build_model(bundle.model_spec.with_outputs(12), seed=9,
                              init="scaled")
        before = md.body_hash(ckpt)
        manifest = small_manifest(data, per_class=8)
        images = rows_of(bundle, manifest.samples)
        probe = transfer.ProbeSpec(n_train_per_class=4, max_test_per_class=4,
                                   n_splits=2, seed=5, iters=40)
        transfer.evaluate_probe([ckpt], manifest, images, [probe],
                                bundle.labelmap)
        assert md.body_hash(ckpt) == before

    def test_external_labels_from_leaf_ids(self, bundle_pair):
        data, bundle = bundle_pair
        ckpt = md.build_model(bundle.model_spec.with_outputs(12), seed=9,
                              init="scaled")
        manifest = small_manifest(data, per_class=8)
        images = rows_of(bundle, manifest.samples)
        probe = transfer.ProbeSpec(n_train_per_class=4, max_test_per_class=4,
                                   n_splits=2, seed=6, iters=40)
        (result,) = transfer.evaluate_probe([ckpt], manifest, images, [probe],
                                            labelmap=None)
        assert 0 <= result.aggregate["mean"] <= 1

    def test_trained_beats_random(self, bundle_pair):
        data, bundle = bundle_pair
        regime = cu.Regime(kind="Reference",
                           phase_b=bm.train_config(300, 99, "sub"))
        trained, _ = cu.run_regime(regime, bundle)
        random_ckpt = md.build_model(bundle.model_spec.with_outputs(12),
                                     seed=100, init="scaled")
        probe = bm.probe_spec(seed=7)
        (t,) = transfer.evaluate_probe([trained], data.manifest, bundle.images,
                                       [probe], bundle.labelmap)
        (r,) = transfer.evaluate_probe([random_ckpt], data.manifest, bundle.images,
                                       [probe], bundle.labelmap)
        assert t.aggregate["mean"] > r.aggregate["mean"]

    def test_n_train_sweep_non_decreasing_median(self, bundle_pair):
        data, bundle = bundle_pair
        regime = cu.Regime(kind="Reference",
                           phase_b=bm.train_config(200, 101, "sub"))
        ckpt, _ = cu.run_regime(regime, bundle)
        images = bundle.images
        medians = []
        for n_train in (5, 10, 15):
            probe = transfer.ProbeSpec(n_train_per_class=n_train,
                                       max_test_per_class=20, n_splits=3,
                                       seed=8, iters=200)
            (result,) = transfer.evaluate_probe([ckpt], data.manifest, images,
                                                [probe], bundle.labelmap)
            medians.append(float(np.median([m for _, m, _ in result.per_split])))
        assert medians[0] <= medians[1] + 1e-9
        assert medians[1] <= medians[2] + 1e-9

    def test_cross_split_duplicate_refused(self, bundle_pair):
        _, bundle = bundle_pair
        rng = np.random.default_rng(0)
        base = {f"c{j}_{i}": rng.random((3, 16, 16))
                for j in range(2) for i in range(5)}
        base["c0_4"] = base["c0_0"].copy()  # exact duplicate pair in class 0
        manifest = dp.DatasetManifest(tuple(
            dp.Sample(k, k, f"leaf{k.split('_')[0][1]}") for k in sorted(base)))
        images = np.stack([base[s.sample_id] for s in manifest.samples])
        ckpt = md.build_model(bm.model_spec(2), seed=1)
        probe = transfer.ProbeSpec(n_train_per_class=4, max_test_per_class=1,
                                   n_splits=3, seed=2, iters=10)
        with pytest.raises(ValidationError, match="duplicate"):
            transfer.evaluate_probe([ckpt], manifest, images, [probe],
                                    labelmap=None)

    def test_images_not_aligned_to_manifest_rejected(self, bundle_pair):
        data, bundle = bundle_pair
        ckpt = md.build_model(bundle.model_spec.with_outputs(12), seed=9)
        manifest = small_manifest(data, per_class=8)
        images = rows_of(bundle, manifest.samples[1:])
        probe = transfer.ProbeSpec(n_train_per_class=4)
        with pytest.raises(ValidationError, match="manifest samples"):
            transfer.evaluate_probe([ckpt], manifest, images, [probe],
                                    bundle.labelmap)

    def test_specs_in_one_call_equal_one_call_each(self, bundle_pair):
        data, bundle = bundle_pair
        ckpts = [md.build_model(bundle.model_spec.with_outputs(12), seed=seed,
                                init="scaled") for seed in (9, 10)]
        manifest = small_manifest(data, per_class=8)
        images = rows_of(bundle, manifest.samples)
        probes = [transfer.ProbeSpec(n_train_per_class=n, max_test_per_class=4,
                                     n_splits=2, seed=6, iters=40) for n in (2, 4)]
        together = transfer.evaluate_probe(ckpts, manifest, images, probes,
                                           bundle.labelmap)
        alone = [result for probe in probes for result in transfer.evaluate_probe(
            ckpts, manifest, images, [probe], bundle.labelmap)]
        assert [r.n_train_per_class for r in together] == [2, 2, 4, 4]
        for a, b in zip(together, alone):
            assert a.aggregate == b.aggregate
            assert [m for _, m, _ in a.per_split] == [m for _, m, _ in b.per_split]

    def test_specs_on_different_layers_rejected(self, bundle_pair):
        data, bundle = bundle_pair
        ckpt = md.build_model(bundle.model_spec.with_outputs(12), seed=9)
        manifest = small_manifest(data, per_class=8)
        probes = [transfer.ProbeSpec(n_train_per_class=4, layer=layer)
                  for layer in (None, bundle.model_spec.layers[0].name)]
        with pytest.raises(ValidationError, match="one layer"):
            transfer.evaluate_probe([ckpt], manifest,
                                    rows_of(bundle, manifest.samples), probes,
                                    bundle.labelmap)

    def test_save_probe_result_files(self, bundle_pair, tmp_path):
        data, bundle = bundle_pair
        ckpt = md.build_model(bundle.model_spec.with_outputs(12), seed=9,
                              init="scaled")
        manifest = small_manifest(data, per_class=8)
        images = rows_of(bundle, manifest.samples)
        probe = transfer.ProbeSpec(n_train_per_class=4, max_test_per_class=4,
                                   n_splits=2, seed=6, iters=40)
        (result,) = transfer.evaluate_probe([ckpt], manifest, images, [probe],
                                            bundle.labelmap)
        transfer.save_probe_result(result, tmp_path)
        assert (tmp_path / "probe.json").exists()
        text = (tmp_path / "per_class_recall.csv").read_text()
        assert text.startswith("split,class_index,recall\n")
