import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiercurric import dataprep as dp
from hiercurric import taxonomy
from hiercurric.errors import ParseError, ValidationError, ZeroVarianceError


def make_manifest(counts: dict[str, int]) -> dp.DatasetManifest:
    samples = []
    for leaf, n in counts.items():
        for k in range(n):
            samples.append(dp.Sample(f"{leaf}_{k:04d}", f"x/{leaf}_{k}.tnsr", leaf))
    return dp.DatasetManifest(tuple(samples))


@pytest.fixture
def animal_labelmap(animal_marked):
    return taxonomy.allocate_descendants(animal_marked)


class TestCap:
    def test_over_cap_thinned_exactly(self, animal_labelmap):
        manifest = make_manifest({"poodle": 30, "beagle": 40, "fish": 3, "suv": 5})
        capped = dp.cap_per_category(manifest, animal_labelmap, "basic", 10, seed=0)
        by_basic = {}
        for s in capped.samples:
            bi = animal_labelmap.basic_index(s.leaf_id)
            by_basic[bi] = by_basic.get(bi, 0) + 1
        # dog group (poodle+beagle) capped at 10, others under cap untouched
        dog = animal_labelmap.basic_names.index("dog")
        assert by_basic[dog] == 10
        assert by_basic[animal_labelmap.basic_names.index("fish")] == 3
        assert by_basic[animal_labelmap.basic_names.index("car")] == 5

    def test_under_cap_kept_bitwise(self, animal_labelmap):
        manifest = make_manifest({"poodle": 4, "beagle": 2, "fish": 3, "suv": 5})
        capped = dp.cap_per_category(manifest, animal_labelmap, "sub", 100, seed=1)
        assert capped.samples == manifest.samples

    def test_order_preserved(self, animal_labelmap):
        manifest = make_manifest({"poodle": 50, "fish": 2, "beagle": 1, "suv": 1})
        capped = dp.cap_per_category(manifest, animal_labelmap, "sub", 10, seed=2)
        poodles = [s.sample_id for s in capped.samples if s.leaf_id == "poodle"]
        assert poodles == sorted(poodles)

    def test_cap_one_deterministic(self, animal_labelmap):
        manifest = make_manifest({"poodle": 5, "beagle": 1, "fish": 1, "suv": 1})
        first = dp.cap_per_category(manifest, animal_labelmap, "sub", 1, seed=3)
        second = dp.cap_per_category(manifest, animal_labelmap, "sub", 1, seed=3)
        assert first.samples == second.samples

    def test_unknown_leaf_rejected(self, animal_labelmap):
        manifest = make_manifest({"dragon": 2})
        with pytest.raises(ValidationError, match="dragon"):
            dp.cap_per_category(manifest, animal_labelmap, "basic", 10, seed=0)

    def test_never_increases_counts(self, animal_labelmap):
        manifest = make_manifest({"poodle": 7, "beagle": 9, "fish": 2, "suv": 6})
        capped = dp.cap_per_category(manifest, animal_labelmap, "sub", 5, seed=4)
        before = {leaf: 0 for leaf in animal_labelmap.sub_names}
        after = dict(before)
        for s in manifest.samples:
            before[s.leaf_id] += 1
        for s in capped.samples:
            after[s.leaf_id] += 1
        assert all(after[leaf] <= min(before[leaf], 5) for leaf in before)


class TestGenerateSynthetic:
    def test_counting(self):
        spec = dp.SynthSpec(n_basic=4, subs_per_basic=3, noise_scale=0.05,
                            samples_per_sub=50, seed=1)
        data = dp.generate_synthetic(spec)
        assert len(data.manifest) == 600
        assert len(data.graph.leaf_set) == 12
        assert len(data.basic_marks) == 4

    def test_zero_variance_collapse(self):
        spec = dp.SynthSpec(n_basic=2, subs_per_basic=2, samples_per_sub=5,
                            subordinate_scale=0.0, noise_scale=0.0, seed=2)
        data = dp.generate_synthetic(spec)
        by_basic = {}
        for s in data.manifest.samples:
            basic = s.leaf_id.rsplit("_", 1)[0].replace("sub", "basic")
            by_basic.setdefault(basic, []).append(data.images[s.sample_id])
        for imgs in by_basic.values():
            for img in imgs[1:]:
                np.testing.assert_array_equal(img, imgs[0])

    def test_fixed_seed_byte_identical(self):
        spec = dp.SynthSpec(n_basic=2, subs_per_basic=2, noise_scale=0.05,
                            samples_per_sub=3, seed=7)
        a = dp.generate_synthetic(spec)
        b = dp.generate_synthetic(spec)
        assert a.manifest == b.manifest
        for sid in a.images:
            assert a.images[sid].tobytes() == b.images[sid].tobytes()

    def test_marks_validate_against_graph(self):
        data = dp.generate_synthetic(dp.SynthSpec(2, 2, noise_scale=0.05,
                                                  samples_per_sub=2, seed=3))
        marked = taxonomy.validate_basic_marks(data.graph, data.basic_marks)
        labelmap = taxonomy.allocate_descendants(marked)
        assert labelmap.n_basic == 2 and labelmap.n_sub == 4

    def test_values_in_unit_interval(self):
        data = dp.generate_synthetic(dp.SynthSpec(2, 2, samples_per_sub=4,
                                                  noise_scale=2.0,
                                                  prototype_scale=3.0,
                                                  subordinate_scale=1.0, seed=4))
        for img in data.images.values():
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_nearest_prototype_accuracy_degrades_with_noise(self):
        # Oracle: classify each sample by nearest basic prototype. Clipping
        # to [0,1] preserves prototype signal until noise swamps it, so the
        # degradation levels sit well above the prototype scale.
        accs = []
        for noise in (0.02, 5.0, 25.0):
            spec = dp.SynthSpec(n_basic=4, subs_per_basic=2, samples_per_sub=20,
                                prototype_scale=0.25, subordinate_scale=0.05,
                                noise_scale=noise, seed=11)
            data = dp.generate_synthetic(spec)
            protos = np.stack([data.basic_prototypes[b]
                               for b in sorted(data.basic_prototypes)])
            names = sorted(data.basic_prototypes)
            correct = 0
            for s in data.manifest.samples:
                img = data.images[s.sample_id]
                dists = ((protos - img) ** 2).sum(axis=(1, 2, 3))
                predicted = names[int(dists.argmin())]
                actual = "basic_" + s.leaf_id.split("_")[1]
                correct += predicted == actual
            accs.append(correct / len(data.manifest))
        assert accs[0] >= 0.99
        assert accs[0] > accs[1] > accs[2]
        assert accs[2] < 0.5  # approaching 4-way chance


class TestSplits:
    def test_large_class_counts(self):
        manifest = make_manifest({"a": 80, "b": 80})
        (train, test), = dp.random_class_splits(manifest, 30, 50, 1, seed=0)
        assert sum(s.leaf_id == "a" for s in train.samples) == 30
        assert sum(s.leaf_id == "a" for s in test.samples) == 50

    def test_small_remainder(self):
        manifest = make_manifest({"a": 40})
        (train, test), = dp.random_class_splits(manifest, 30, 50, 1, seed=1)
        assert len(train) == 30 and len(test) == 10

    def test_three_splits_reproducible_and_distinct(self):
        manifest = make_manifest({"a": 30, "b": 30})
        runs = [dp.random_class_splits(manifest, 10, 10, 3, seed=5)
                for _ in range(2)]
        for (ta, _), (tb, _) in zip(*runs):
            assert ta.samples == tb.samples
        ids = [frozenset(s.sample_id for s in tr.samples) for tr, _ in runs[0]]
        assert len(set(ids)) == 3

    def test_disjoint_within_split(self):
        manifest = make_manifest({"a": 25, "b": 25})
        for train, test in dp.random_class_splits(manifest, 12, 50, 3, seed=9):
            assert not ({s.sample_id for s in train.samples}
                        & {s.sample_id for s in test.samples})

    def test_too_small_class_named(self):
        manifest = make_manifest({"tiny": 5, "big": 50})
        with pytest.raises(ValidationError, match="tiny"):
            dp.random_class_splits(manifest, 5, 10, 1, seed=0)


class TestNcc:
    def test_identical_is_exactly_one(self):
        img = np.random.default_rng(0).random((3, 8, 8))
        assert dp.normalized_correlation(img, img.copy()) == 1.0

    def test_negation_is_minus_one(self):
        img = np.random.default_rng(1).random((1, 8, 8))
        assert dp.normalized_correlation(img, 1.0 - img) == pytest.approx(-1.0, abs=1e-12)

    def test_constant_image_raises(self):
        img = np.full((1, 4, 4), 0.7)
        other = np.random.default_rng(2).random((1, 4, 4))
        with pytest.raises(ZeroVarianceError):
            dp.normalized_correlation(img, other)
        with pytest.raises(ZeroVarianceError):
            dp.normalized_correlation(other, img)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((2, 6, 6))
        b = rng.random((2, 6, 6))
        assert abs(dp.normalized_correlation(a, b)
                   - dp.normalized_correlation(b, a)) <= 1e-12

    @given(st.floats(min_value=0.05, max_value=20.0),
           st.floats(min_value=-5.0, max_value=5.0),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_affine_invariance(self, alpha, beta, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((1, 8, 8))
        b = rng.random((1, 8, 8))
        base = dp.normalized_correlation(a, b)
        scaled = dp.normalized_correlation(a, alpha * b + beta)
        assert abs(base - scaled) <= 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="mismatch"):
            dp.normalized_correlation(np.zeros((1, 4, 4)), np.zeros((1, 5, 5)))


def reference_forms(images):
    """Per image and output pixel: the channel mean, interpolated bilinearly
    between its four nearest pixels on the 32x32 comparison grid."""
    out = np.empty((len(images), 32 * 32))
    for n, image in enumerate(images):
        gray = image.mean(axis=0)
        h, w = gray.shape
        for r, y in enumerate(np.linspace(0, h - 1, 32)):
            y0 = int(np.floor(y))
            y1, fy = min(y0 + 1, h - 1), y - y0
            for c, x in enumerate(np.linspace(0, w - 1, 32)):
                x0 = int(np.floor(x))
                x1, fx = min(x0 + 1, w - 1), x - x0
                top = gray[y0, x0] * (1 - fx) + gray[y0, x1] * fx
                bot = gray[y1, x0] * (1 - fx) + gray[y1, x1] * fx
                out[n, r * 32 + c] = top * (1 - fy) + bot * fy
    return out


class TestComparisonForms:
    @pytest.mark.parametrize("shape", [(3, 16, 16), (1, 32, 32), (3, 32, 32),
                                       (2, 7, 45), (4, 33, 31), (1, 1, 1)])
    def test_batch_bytes_equal_per_pixel_reference(self, shape):
        images = np.random.default_rng(sum(shape)).random((3, *shape))
        assert (dp._comparison_forms(images).tobytes()
                == reference_forms(images).tobytes())

    def test_chunks_equal_one_image_at_a_time(self):
        images = np.random.default_rng(11).random((300, 2, 9, 9)).astype(np.float32)
        alone = np.concatenate([dp._comparison_forms(images[i:i + 1])
                                for i in range(len(images))])
        assert dp._comparison_forms(images).tobytes() == alone.tobytes()

    def test_standardize_equals_one_row_at_a_time(self):
        rows = dp._comparison_forms(np.random.default_rng(12).random((50, 3, 16, 16)))
        centred, norms = dp._standardize(rows)
        for row, got, norm in zip(rows, centred, norms):
            want = row - row.mean()
            assert got.tobytes() == want.tobytes()
            assert norm == np.sqrt(want @ want)

    def test_not_four_dimensional_rejected(self):
        with pytest.raises(ValidationError, match=r"\(N, C, H, W\)"):
            dp._comparison_forms(np.zeros((2, 8, 8)))


def noise_sets(seed, n_a=20, n_b=20, size=(1, 32, 32)):
    rng = np.random.default_rng(seed)
    images_a = np.stack([rng.random(size) for _ in range(n_a)])
    images_b = np.stack([rng.random(size) for _ in range(n_b)])
    man_a = dp.DatasetManifest(tuple(
        dp.Sample(f"a{i:03d}", f"a{i:03d}", "leaf") for i in range(n_a)))
    man_b = dp.DatasetManifest(tuple(
        dp.Sample(f"b{i:03d}", f"b{i:03d}", "leaf") for i in range(n_b)))
    return man_a, man_b, images_a, images_b


class TestFindOverlaps:
    def test_exact_copy_recovered(self):
        man_a, man_b, images_a, images_b = noise_sets(0)
        images_b[5] = images_a[7].copy()
        matches, filtered = dp.find_overlaps(man_a, man_b, 0.99, images_a, images_b)
        assert matches == [("a007", "b005", 1.0)]
        assert len(filtered) == len(man_a) - 1
        assert all(s.sample_id != "a007" for s in filtered.samples)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_disjoint_noise_has_no_matches(self, seed):
        man_a, man_b, images_a, images_b = noise_sets(seed)
        matches, filtered = dp.find_overlaps(man_a, man_b, 0.99, images_a, images_b)
        assert matches == []
        assert filtered.samples == man_a.samples

    def test_threshold_one_equality(self):
        man_a, man_b, images_a, images_b = noise_sets(4)
        images_b[0] = images_a[0].copy()
        matches, _ = dp.find_overlaps(man_a, man_b, 1.0, images_a, images_b)
        assert matches == [("a000", "b000", 1.0)]

    def test_self_pairs_excluded(self):
        man_a, _, images_a, _ = noise_sets(5)
        matches, filtered = dp.find_overlaps(man_a, man_a, 1.0, images_a, images_a)
        assert matches == []
        assert filtered.samples == man_a.samples

    def test_constant_image_skipped_with_warning(self, caplog):
        man_a, man_b, images_a, images_b = noise_sets(6)
        images_a[0] = np.full((1, 32, 32), 0.5)
        with caplog.at_level("WARNING"):
            matches, _ = dp.find_overlaps(man_a, man_b, 0.99, images_a, images_b)
        assert "a000" in caplog.text
        assert matches == []

    def test_self_dedup_warns_once_per_constant_image(self, caplog):
        images = np.random.default_rng(14).random((4, 1, 8, 8))
        images[2] = 0.25
        manifest = dp.DatasetManifest(tuple(
            dp.Sample(f"s{i}", f"s{i}", "leaf") for i in range(4)))
        with caplog.at_level("WARNING"):
            dp.find_overlaps(manifest, manifest, 0.99, images, images)
        assert [r.getMessage() for r in caplog.records] == [
            "skipping constant image s2 in overlap search"]

    def test_self_dedup_equals_a_dedup_against_a_copy(self):
        """Standardized once, the self-comparison scores keep the bytes of
        two sets standardized apart."""
        rng = np.random.default_rng(15)
        images = rng.random((300, 1, 8, 8))
        images[200:] = images[:100] + rng.normal(0, 0.02, (100, 1, 8, 8))
        manifest = dp.DatasetManifest(tuple(
            dp.Sample(f"s{i:03d}", f"s{i:03d}", "leaf") for i in range(300)))
        got = dp.find_overlaps(manifest, manifest, 0.9, images, images)
        want = dp.find_overlaps(manifest, manifest, 0.9, images, images.copy())
        assert len(got[0]) >= 200
        assert got == want

    def test_filtered_never_grows(self):
        man_a, man_b, images_a, images_b = noise_sets(7)
        images_b[1] = images_a[1].copy()
        _, filtered = dp.find_overlaps(man_a, man_b, 0.9, images_a, images_b)
        assert len(filtered) <= len(man_a)

    def test_resampled_copy_across_shapes_found(self):
        man_a, man_b, images_a, _ = noise_sets(8, n_b=3, size=(3, 16, 16))
        images_b = np.random.default_rng(9).random((3, 1, 32, 32))
        # image a002's channel mean, resampled bilinearly to 32x32 one axis
        # at a time
        gray = images_a[2].mean(axis=0)
        grid = np.linspace(0, 15, 32)
        rows = np.stack([np.interp(grid, np.arange(16), col) for col in gray.T], 1)
        images_b[1, 0] = np.stack([np.interp(grid, np.arange(16), row) for row in rows])
        matches, filtered = dp.find_overlaps(man_a, man_b, 0.99, images_a, images_b)
        assert [m[:2] for m in matches] == [("a002", "b001")]
        assert matches[0][2] >= 1 - 1e-12
        assert len(filtered) == len(man_a) - 1

    def test_self_dedup_holds_one_score_matrix(self):
        # 2,000 1x8x8 images: the 2,000 x 2,000 float64 scores are 30.5 MiB
        # and each side's 32x32 comparison rows 15.6 MiB; a clipped copy of
        # the scores on top of them peaked at 107.9 MiB
        n = 2000
        images = np.random.default_rng(13).random((n, 1, 8, 8))
        images[1000] = images[3]
        images[1500] = images[9]
        images[1999] = images[7] * 2.0 + 1.0  # an affine copy scores 1 too
        manifest = dp.DatasetManifest(tuple(
            dp.Sample(f"s{i:04d}", f"s{i:04d}", "leaf") for i in range(n)))
        tracemalloc.start()
        try:
            matches, filtered = dp.find_overlaps(manifest, manifest, 0.99,
                                                 images, images)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 90 * 2**20
        copies = [("s0003", "s1000"), ("s0009", "s1500")]
        assert matches[:4] == sorted([(a, b, 1.0) for a, b in copies]
                                     + [(b, a, 1.0) for a, b in copies])
        assert sorted(m[:2] for m in matches[4:]) == [("s0007", "s1999"),
                                                      ("s1999", "s0007")]
        assert all(1.0 - 1e-12 <= m[2] <= 1.0 for m in matches[4:])
        assert len(filtered) == n - 6

    def test_self_dedup_of_8000_images_holds_tiles_not_scores(self):
        # 8,000 1x32x32 images: the padded unit rows are 64 MiB and a score
        # tile 0.5 MiB; the whole 8,000 x 8,000 score matrix peaked at 738 MiB
        n = 8000
        images = np.random.default_rng(16).random((n, 1, 32, 32))
        copies = [(k * 7, n - 1 - k) for k in range(8)]
        for i, j in copies:
            images[j] = images[i] * 1.5 + 0.25
        manifest = dp.DatasetManifest(tuple(
            dp.Sample(f"s{i:04d}", f"s{i:04d}", "leaf") for i in range(n)))
        tracemalloc.start()
        try:
            matches, filtered = dp.find_overlaps(manifest, manifest, 0.99,
                                                 images, images)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 160 * 2**20
        want = [(f"s{i:04d}", f"s{j:04d}") for i, j in copies]
        assert sorted(m[:2] for m in matches) == sorted(want + [p[::-1] for p in want])
        assert all(1.0 - 1e-12 <= m[2] <= 1.0 for m in matches)
        assert len(filtered) == n - 16

    def test_equal_forms_score_one_and_affine_copies_keep_their_score(self):
        """Images whose channels are swapped have other bytes but equal
        comparison forms, so they score exactly 1.0; an affine copy keeps
        the score its tile gives it, below 1.0, and sorts after."""
        rng = np.random.default_rng(3)
        x, z = rng.random((2, 2, 16, 16))
        man_a = dp.DatasetManifest((dp.Sample("a0", "a0", "leaf"),
                                    dp.Sample("a1", "a1", "leaf")))
        man_b = dp.DatasetManifest((dp.Sample("b0", "b0", "leaf"),
                                    dp.Sample("b1", "b1", "leaf")))
        images_a = np.stack([z, x])
        images_b = np.stack([z * 2.0 + 1.0, x[::-1]])
        assert not np.array_equal(images_a[1], images_b[1])
        matches, _ = dp.find_overlaps(man_a, man_b, 0.99, images_a, images_b)
        assert [m[:2] for m in matches] == [("a1", "b1"), ("a0", "b0")]
        assert matches[0][2] == 1.0
        assert 1.0 - 1e-12 <= matches[1][2] < 1.0
        exact, _ = dp.find_overlaps(man_a, man_b, 1.0, images_a, images_b)
        assert exact == [("a1", "b1", 1.0)]

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_images_not_aligned_to_manifest_rejected(self, side):
        man_a, man_b, images_a, images_b = noise_sets(10)
        if side == "a":
            images_a = images_a[1:]
        else:
            images_b = images_b[:-1]
        with pytest.raises(ValidationError, match=f"set {side}: 19 images for 20"):
            dp.find_overlaps(man_a, man_b, 0.99, images_a, images_b)


def planted_pool(seed):
    """120 filler noise images, then 40 images x_k and their noisy copies
    y_k, interleaved, each pair scoring between about 0.8 and 1."""
    rng = np.random.default_rng(seed)
    images = rng.random((200, 1, 32, 32))
    for k in range(40):
        x = images[120 + 2 * k]
        images[121 + 2 * k] = x + rng.normal(0, 0.005 + 0.005 * k, x.shape)
    ids = [f"f{i:03d}" for i in range(120)] + [
        f"{side}{k:02d}" for k in range(40) for side in "xy"]
    return ids, images


def overlap_scores(ids_a, images_a, ids_b=None, images_b=None):
    """{(id_a, id_b): score as float.hex} of every pair scoring >= 0.5."""
    man_a = dp.DatasetManifest(tuple(dp.Sample(i, i, "leaf") for i in ids_a))
    if ids_b is None:
        man_b, images_b = man_a, images_a
    else:
        man_b = dp.DatasetManifest(tuple(dp.Sample(i, i, "leaf") for i in ids_b))
    matches, _ = dp.find_overlaps(man_a, man_b, 0.5, images_a, images_b)
    return {m[:2]: m[2].hex() for m in matches}


class TestOverlapScoresPerPair:
    """A pair's score bytes depend only on its two images: not on the set's
    size or order, nor on the pair's place in its score tile."""

    @pytest.fixture(scope="class")
    def reference(self):
        ids, images = planted_pool(17)
        scores = overlap_scores(ids, images)
        assert {(f"x{k:02d}", f"y{k:02d}") for k in range(40)} <= scores.keys()
        return ids, images, scores

    @pytest.mark.parametrize("shift", [1, 3, 37, 101, 255, 256])
    def test_row_shift(self, reference, shift):
        ids, images, want = reference
        fill = np.random.default_rng(shift).random((shift, 1, 32, 32))
        got = overlap_scores([f"g{i:03d}" for i in range(shift)] + ids,
                             np.concatenate([fill, images]))
        assert got == want

    def test_reversed_order(self, reference):
        ids, images, want = reference
        assert overlap_scores(ids[::-1], images[::-1]) == want

    def test_subset_of_five_by_nine(self, reference):
        ids, images, want = reference
        pos = {i: n for n, i in enumerate(ids)}
        ids_a = [f"x{k:02d}" for k in (3, 11, 20, 28, 39)]
        ids_b = [f"y{k:02d}" for k in (39, 5, 20, 3, 33, 28, 11, 0, 17)]
        got = overlap_scores(ids_a, images[[pos[i] for i in ids_a]],
                             ids_b, images[[pos[i] for i in ids_b]])
        assert got == {pair: want[pair] for pair in want
                       if pair[0] in ids_a and pair[1] in ids_b}
        assert len(got) == 5

    def test_two_sided_300_by_517(self, reference):
        ids, images, want = reference
        pos = {i: n for n, i in enumerate(ids)}
        rng = np.random.default_rng(18)
        xs, ys = ([f"{side}{k:02d}" for k in range(40)] for side in "xy")
        fill_a, fill_b = rng.random((260, 1, 32, 32)), rng.random((477, 1, 32, 32))
        ids_a = [f"g{i:03d}" for i in range(260)] + xs
        ids_b = ys + [f"h{i:03d}" for i in range(477)]
        order_a, order_b = rng.permutation(300), rng.permutation(517)
        images_a = np.concatenate([fill_a, images[[pos[i] for i in xs]]])[order_a]
        images_b = np.concatenate([images[[pos[i] for i in ys]], fill_b])[order_b]
        got = overlap_scores([ids_a[i] for i in order_a], images_a,
                             [ids_b[i] for i in order_b], images_b)
        assert got == {pair: want[pair] for pair in want
                       if pair[0][0] == "x" and pair[1][0] == "y"}


class TestManifestIO:
    def test_round_trip(self, tmp_path):
        manifest = make_manifest({"a": 3, "b": 2})
        path = tmp_path / "m.csv"
        dp.save_manifest(manifest, path)
        back = dp.load_manifest(path)
        assert back.samples == manifest.samples

    def test_nul_in_path_names_its_line(self, tmp_path):
        (tmp_path / "m.csv").write_text(
            "sample_id,path,leaf_id\ns0,t/0.tnsr,a\ns1,t/1\0.tnsr,a\n")
        with pytest.raises(ParseError, match="line 3: .*NUL"):
            dp.load_manifest(tmp_path / "m.csv")

    def test_load_batch_fills_first_images_dtype(self):
        images = {"s0": np.zeros((1, 2, 2), np.float32), "s1": np.ones((1, 2, 2))}
        samples = [dp.Sample(k, k, "leaf") for k in images]

        class Store:
            def load(self, sample):
                return images[sample.sample_id]

        batch = dp.load_batch(Store(), samples)
        assert batch.dtype == np.float32 and batch.shape == (2, 1, 2, 2)
        assert batch[1].tolist() == np.ones((1, 2, 2)).tolist()
        images["s1"] = np.ones((1, 3, 2))
        with pytest.raises(ValidationError, match="'s1' has shape .*'s0' has"):
            dp.load_batch(Store(), samples)

    def test_save_dataset_reruns_byte_identical(self, tmp_path):
        spec = dp.SynthSpec(2, 2, noise_scale=0.05, samples_per_sub=2, seed=9)
        outs = []
        for run in range(2):
            out = tmp_path / f"run{run}"
            dp.save_dataset(dp.generate_synthetic(spec), out)
            outs.append({p.relative_to(out): p.read_bytes()
                         for p in sorted(out.rglob("*")) if p.is_file()})
        assert outs[0] == outs[1]

    def test_raw_file_store_loads_saved_dataset(self, tmp_path):
        data = dp.generate_synthetic(dp.SynthSpec(2, 2, noise_scale=0.05,
                                                  samples_per_sub=2, seed=10))
        dp.save_dataset(data, tmp_path)
        manifest = dp.load_manifest(tmp_path / "manifest.csv")
        store = dp.RawFileStore(tmp_path)
        sample = manifest.samples[0]
        loaded = store.load(sample)
        np.testing.assert_allclose(
            loaded, data.images[sample.sample_id], atol=1e-7)  # float32 files

    def test_overlap_report_format(self, tmp_path):
        path = tmp_path / "overlap.csv"
        dp.overlap_report_csv([("a", "b", 0.9987654321)], path)
        assert path.read_text() == "id_a,id_b,score\na,b,0.998765\n"
