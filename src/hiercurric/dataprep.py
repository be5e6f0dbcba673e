"""Training-manifest construction, synthetic data, and near-duplicate search.

Synthetic datasets are drawn as clipped Gaussians around mid-gray: basic
prototypes, subordinate prototypes clustered around them at a tighter scale,
and per-sample noise. All randomness flows from explicit 64-bit seeds through
numpy's PCG64 generator so every artifact is reproducible byte for byte.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from . import files
from . import nnkernel as nk
from .errors import ParseError, ValidationError, ZeroVarianceError
from .taxonomy import LabelMap, SynsetGraph, build_graph

log = logging.getLogger(__name__)

MANIFEST_COLUMNS = ("sample_id", "path", "leaf_id")


@dataclass(frozen=True)
class Sample:
    sample_id: str
    source: str        # file path or synth descriptor
    leaf_id: str


@dataclass(frozen=True)
class DatasetManifest:
    samples: tuple[Sample, ...]

    def __post_init__(self):
        ids = [s.sample_id for s in self.samples]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate sample ids in manifest")

    def __len__(self) -> int:
        return len(self.samples)

    def leaf_ids(self) -> list[str]:
        return [s.leaf_id for s in self.samples]

    def positions(self) -> dict[str, int]:
        """Each sample id's position in ``samples``."""
        return {s.sample_id: i for i, s in enumerate(self.samples)}

    def subset(self, keep_ids) -> "DatasetManifest":
        keep = set(keep_ids)
        return replace(self, samples=tuple(
            s for s in self.samples if s.sample_id in keep))


@dataclass(frozen=True)
class SynthSpec:
    n_basic: int
    subs_per_basic: int
    noise_scale: float  # no default: benchmark.synth_spec holds the CLI's value
    image_size: tuple[int, int, int] = (3, 16, 16)
    prototype_scale: float = 0.25
    subordinate_scale: float = 0.1
    samples_per_sub: int = 50
    seed: int = 0

    def __post_init__(self):
        if min(self.n_basic, self.subs_per_basic, self.samples_per_sub) < 1:
            raise ValidationError("all synthetic counts must be >= 1")
        if any(d < 1 for d in self.image_size):
            raise ValidationError("image dims must be >= 1")
        if self.prototype_scale <= 0:
            raise ValidationError("prototype scale must be > 0")
        if not 0 <= self.subordinate_scale < self.prototype_scale:
            raise ValidationError(
                "subordinate scale must satisfy 0 <= s < prototype scale")
        if self.noise_scale < 0:
            raise ValidationError("noise scale must be >= 0")


@dataclass(frozen=True)
class SyntheticData:
    manifest: DatasetManifest
    graph: SynsetGraph
    basic_marks: frozenset[str]
    images: dict[str, np.ndarray] = field(repr=False)
    basic_prototypes: dict[str, np.ndarray] = field(repr=False)


def generate_synthetic(spec: SynthSpec) -> SyntheticData:
    """Draw a seeded two-level dataset: root -> basics -> subordinate leaves.

    Basic prototypes are mid-gray plus Gaussian noise at the prototype scale;
    each subordinate tightens around its basic prototype; each sample adds
    per-sample noise. Everything is clipped to [0, 1].
    """
    rng = np.random.default_rng(spec.seed)
    c, h, w = spec.image_size
    shape = (c, h, w)

    basic_ids = [f"basic_{i:02d}" for i in range(spec.n_basic)]
    edges = [("root", b) for b in basic_ids]
    samples = []
    images: dict[str, np.ndarray] = {}
    basic_protos: dict[str, np.ndarray] = {}

    for b, basic in enumerate(basic_ids):
        proto = np.clip(0.5 + spec.prototype_scale * rng.standard_normal(shape), 0, 1)
        basic_protos[basic] = proto
        for s in range(spec.subs_per_basic):
            leaf = f"sub_{b:02d}_{s:02d}"
            edges.append((basic, leaf))
            sub = np.clip(proto + spec.subordinate_scale * rng.standard_normal(shape), 0, 1)
            for k in range(spec.samples_per_sub):
                sid = f"{leaf}_{k:04d}"
                img = np.clip(sub + spec.noise_scale * rng.standard_normal(shape), 0, 1)
                images[sid] = img
                samples.append(Sample(sid, f"synth:{sid}", leaf))

    graph = build_graph(edges)
    return SyntheticData(
        manifest=DatasetManifest(tuple(samples)),
        graph=graph,
        basic_marks=frozenset(basic_ids),
        images=images,
        basic_prototypes=basic_protos,
    )


def cap_per_category(manifest: DatasetManifest, labelmap: LabelMap,
                     level: str, cap: int, seed: int) -> DatasetManifest:
    """Keep at most ``cap`` samples per category at the chosen level.

    Over-cap categories are thinned by seeded uniform sampling without
    replacement; the relative order of retained samples is preserved.
    """
    if cap < 1:
        raise ValidationError("cap must be >= 1")
    if level not in ("basic", "sub"):
        raise ValidationError(f"unknown level {level!r}")

    groups: dict[int, list[int]] = {}
    for pos, key in enumerate(labelmap.indices(manifest.leaf_ids(), level)):
        groups.setdefault(key, []).append(pos)

    rng = np.random.default_rng(seed)
    keep: set[int] = set()
    for key in sorted(groups):  # fixed order keeps generator use deterministic
        positions = groups[key]
        if len(positions) <= cap:
            keep.update(positions)
        else:
            chosen = rng.choice(len(positions), size=cap, replace=False)
            keep.update(positions[i] for i in chosen)
    return replace(manifest, samples=tuple(
        s for pos, s in enumerate(manifest.samples) if pos in keep))


def random_class_splits(manifest: DatasetManifest, n_train_per_class: int,
                        max_test_per_class: int, n_splits: int,
                        seed: int) -> list[tuple[DatasetManifest, DatasetManifest]]:
    """Seeded per-class train/test partitions; classes are the leaf ids.

    Each split draws exactly ``n_train_per_class`` training samples per class
    and up to ``max_test_per_class`` of the remainder as test samples.
    """
    if n_train_per_class < 1 or max_test_per_class < 1 or n_splits < 1:
        raise ValidationError("split sizes must be >= 1")
    by_class: dict[str, list[int]] = {}
    for pos, sample in enumerate(manifest.samples):
        by_class.setdefault(sample.leaf_id, []).append(pos)
    for leaf, positions in sorted(by_class.items()):
        if len(positions) < n_train_per_class + 1:
            raise ValidationError(
                f"class {leaf!r} has {len(positions)} samples, needs at least "
                f"{n_train_per_class + 1}")

    rng = np.random.default_rng(seed)
    splits = []
    for _ in range(n_splits):
        train_pos: list[int] = []
        test_pos: list[int] = []
        for leaf in sorted(by_class):
            positions = by_class[leaf]
            order = rng.permutation(len(positions))
            train_pos.extend(positions[i] for i in order[:n_train_per_class])
            rest = order[n_train_per_class:n_train_per_class + max_test_per_class]
            test_pos.extend(positions[i] for i in rest)
        train = replace(manifest, samples=tuple(
            manifest.samples[i] for i in sorted(train_pos)))
        test = replace(manifest, samples=tuple(
            manifest.samples[i] for i in sorted(test_pos)))
        splits.append((train, test))
    return splits


# ---------------------------------------------------------------------------
# normalized correlation and overlap search

COMPARISON_RESOLUTION = 32
DEFAULT_OVERLAP_THRESHOLD = 0.99
# rows per side of one score tile: every GEMM multiplies two tiles of this
# many unit rows, so a pair's score bytes do not depend on either set's size,
# order or the pair's place in it
OVERLAP_TILE = 256


def _comparison_forms(images: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each image of the ``(N, C, H, W)`` array averaged over channels, then
    bilinearly resampled to the comparison square: one row per image, written
    into ``out`` (a new array if None) 64 images at a time so that the
    temporaries stay small."""
    if images.ndim != 4:
        raise ValidationError(f"expected (N, C, H, W) images, got shape {images.shape}")
    h, w = images.shape[2:]
    ys, xs = (np.linspace(0, n - 1, COMPARISON_RESOLUTION) for n in (h, w))
    y0, x0 = np.floor(ys).astype(int)[:, None], np.floor(xs).astype(int)
    y1, x1 = np.minimum(y0 + 1, h - 1), np.minimum(x0 + 1, w - 1)
    fy, fx = ys[:, None] - y0, xs - x0
    forms = np.empty((len(images), COMPARISON_RESOLUTION ** 2)) if out is None else out
    for i in range(0, len(images), 64):
        gray = np.asarray(images[i:i + 64], dtype=np.float64).mean(axis=1)
        if (h, w) != (COMPARISON_RESOLUTION,) * 2:
            top = gray[:, y0, x0] * (1 - fx) + gray[:, y0, x1] * fx
            bot = gray[:, y1, x0] * (1 - fx) + gray[:, y1, x1] * fx
            gray = top * (1 - fy) + bot * fy
        forms[i:i + 64] = gray.reshape(len(gray), -1)
    return forms


def _standardize(rows: np.ndarray, out: np.ndarray | None = None):
    """Each row less its own mean, written into ``out`` (a new array if
    None), and the norm of each centred row."""
    centred = np.subtract(rows, np.array([row.mean() for row in rows])[:, None], out=out)
    return centred, np.sqrt([row @ row for row in centred])


def normalized_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of two equal-shape images, in [-1, 1].

    A constant input raises ZeroVarianceError rather than returning NaN.
    Bit-identical inputs score exactly 1.0.
    """
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    (av, bv), (na, nb) = _standardize(np.stack([a.ravel(), b.ravel()]))
    if na == 0.0 or nb == 0.0:
        raise ZeroVarianceError("constant image has no correlation")
    if np.array_equal(a, b):
        return 1.0
    return float(np.clip((av @ bv) / (na * nb), -1.0, 1.0))


def _unit_rows(manifest: DatasetManifest, images: np.ndarray):
    """The images' standardized unit comparison rows in a buffer zero-padded
    to whole tiles, and which rows vary (never a padding row); a constant
    form's row stays zero, with a warning naming its sample."""
    n = len(images)
    rows = np.zeros((-(-n // OVERLAP_TILE) * OVERLAP_TILE, COMPARISON_RESOLUTION ** 2))
    forms = _comparison_forms(images, out=rows[:n])
    _, norms = _standardize(forms, out=forms)
    for i in np.flatnonzero(norms == 0.0):
        log.warning("skipping constant image %s in overlap search",
                    manifest.samples[i].sample_id)
    np.divide(forms, norms[:, None], out=forms, where=norms[:, None] != 0.0)
    varies = np.zeros(len(rows), dtype=bool)
    varies[:n] = norms != 0.0
    return rows, varies


def find_overlaps(set_a: DatasetManifest, set_b: DatasetManifest,
                  threshold: float, images_a: np.ndarray, images_b: np.ndarray):
    """All cross-set pairs whose correlation reaches ``threshold``.

    ``images_a`` and ``images_b`` are ``(N, C, H, W)`` arrays of each set's
    samples, in order, compared in their channel means resampled to 32x32,
    so the two may differ in image shape. Returns (matches, filtered_set_a):
    matches are (id_a, id_b, score) sorted by descending score then ids;
    filtered_set_a drops every matched a-sample. Pairs sharing a sample_id
    are skipped (self-comparison). Constant images are skipped with a warning;
    an image that is not a finite, non-empty CxHxW tensor raises
    ValidationError naming its set and sample, before any scoring.

    Scores are computed one ``OVERLAP_TILE`` x ``OVERLAP_TILE`` tile at a
    time, each one GEMM of two zero-padded tiles of unit rows, so a pair's
    score depends only on its two images, and memory holds each side's unit
    rows and one tile of scores. A self-comparison (``images_b is
    images_a``) runs only the tiles on and above the diagonal and takes
    each pair below from its mirror's score (tile (I, J) and tile (J, I)
    transposed held the same bytes wherever tested). A pair whose
    comparison forms are equal scores exactly 1.0; its forms are made again
    from its two images to check that.
    """
    if not 0 < threshold <= 1:
        raise ValidationError("threshold must be in (0, 1]")
    for name, manifest, images in (("a", set_a, images_a), ("b", set_b, images_b)):
        if len(images) != len(manifest):
            raise ValidationError(f"set {name}: {len(images)} images for "
                                  f"{len(manifest)} manifest samples")
        if images.ndim != 4 or not images.size or not np.isfinite(images).all():
            # name the first image that fails (an empty set has none)
            for sample, image in zip(manifest.samples, images):
                _check_image(image, f"set {name}: image {sample.sample_id!r}")

    same = images_b is images_a
    mat_a, varies_a = _unit_rows(set_a, images_a)
    mat_b, varies_b = (mat_a, varies_a) if same else _unit_rows(set_b, images_b)
    tile = OVERLAP_TILE
    scores = np.empty((tile, tile))
    candidates = np.empty((tile, tile), dtype=bool)
    # candidate band below threshold absorbs float rounding, so that
    # bit-identical pairs cannot be lost at threshold 1.0
    band = threshold - 1e-9
    matches = []

    def keep(i, j, score):
        id_a, id_b = set_a.samples[i].sample_id, set_b.samples[j].sample_id
        if id_a == id_b:
            return
        # equal forms give equal unit rows, whose dot is within rounding of
        # 1, so only such a score can need the check
        if score >= 1.0 - 1e-9 and np.array_equal(
                _comparison_forms(images_a[i:i + 1]),
                _comparison_forms(images_b[j:j + 1])):
            score = 1.0
        if score >= threshold:
            matches.append((id_a, id_b, score))

    for a0 in range(0, len(mat_a), tile):
        for b0 in range(a0 if same else 0, len(mat_b), tile):
            rows_b = mat_b[b0:b0 + tile]
            if same and a0 == b0:
                # a copy: numpy sends A @ A.T on one buffer to syrk, whose
                # bytes can differ from gemm's
                rows_b = rows_b.copy()
            np.matmul(mat_a[a0:a0 + tile], rows_b.T, out=scores)
            np.clip(scores, -1.0, 1.0, out=scores)
            np.greater_equal(scores, band, out=candidates)
            candidates &= varies_a[a0:a0 + tile, None]
            candidates &= varies_b[b0:b0 + tile]
            if not candidates.any():  # most tiles; far cheaper than nonzero
                continue
            for i, j in zip(*np.nonzero(candidates)):
                keep(a0 + i, b0 + j, float(scores[i, j]))
                if same and b0 > a0:  # the mirror tile's pair
                    keep(b0 + j, a0 + i, float(scores[i, j]))
    matches.sort(key=lambda m: (-m[2], m[0], m[1]))
    matched_a = {m[0] for m in matches}
    filtered = set_a.subset(s.sample_id for s in set_a.samples
                            if s.sample_id not in matched_a)
    return matches, filtered


# ---------------------------------------------------------------------------
# image stores and file formats

class InMemoryStore:
    """Images held as a plain dict, keyed by sample_id."""

    def __init__(self, images: Mapping[str, np.ndarray]):
        self._images = images

    def load(self, sample: Sample) -> np.ndarray:
        return np.asarray(self._images[sample.sample_id], dtype=np.float64)


class RawFileStore:
    """Tensor files addressed by each sample's source path under a root."""

    def __init__(self, root):
        self.root = Path(root)

    def load(self, sample: Sample) -> np.ndarray:
        return nk.load_tensor(self.root / sample.source).astype(np.float64)


def _check_image(image: np.ndarray, what: str) -> np.ndarray:
    """``image``, checked to be a finite, non-empty CxHxW tensor; an error
    names it ``what``."""
    if image.ndim != 3 or not image.size:
        raise ValidationError(f"{what} has shape {image.shape}, "
                              f"not a non-empty CxHxW tensor")
    if not np.isfinite(image).all():
        raise ValidationError(f"{what} holds NaN or Inf")
    return image


def _load_image(store, sample: Sample) -> np.ndarray:
    """A sample's image, checked by :func:`_check_image`."""
    return _check_image(store.load(sample), f"image {sample.sample_id!r}")


def load_batch(store, samples) -> np.ndarray:
    """The samples' images in one ``(N, C, H, W)`` array, filled as they
    load; each image is checked as it loads, must have the first one's
    shape, and takes its dtype."""
    if not samples:
        raise ValidationError("no samples to load: the manifest is empty")
    first = _load_image(store, samples[0])
    batch = np.empty((len(samples), *first.shape), first.dtype)
    for i, sample in enumerate(samples):
        image = _load_image(store, sample) if i else first
        if image.shape != first.shape:
            raise ValidationError(
                f"image {sample.sample_id!r} has shape {image.shape}, but "
                f"{samples[0].sample_id!r} has {first.shape}")
        batch[i] = image
    return batch


def epoch_batches(rng: np.random.Generator, n: int, batch_size: int):
    """Endless mini-batches of indices into ``n`` rows: a fresh seeded
    shuffle per epoch, the last partial batch kept."""
    if n < 1:
        raise ValidationError("no rows to batch")
    while True:
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            yield order[start:start + batch_size]


def save_manifest(manifest: DatasetManifest, path) -> None:
    """CSV with header ``sample_id,path,leaf_id``."""
    files.write_csv(path, MANIFEST_COLUMNS,
                    [(s.sample_id, s.source, s.leaf_id) for s in manifest.samples])


def load_manifest(path) -> DatasetManifest:
    samples = []
    for line, row in files.read_csv(path, MANIFEST_COLUMNS):
        if "\0" in row["path"]:
            raise ParseError("path holds a NUL byte", line)
        samples.append(Sample(row["sample_id"], row["path"], row["leaf_id"]))
    return DatasetManifest(tuple(samples))


def save_dataset(data: SyntheticData, out_dir) -> None:
    """Persist a synthetic dataset: manifest, graph, marks, one tensor/sample."""
    out = Path(out_dir)
    rows = []
    for s in data.manifest.samples:
        rel = f"tensors/{s.sample_id}.tnsr"
        nk.save_tensor(data.images[s.sample_id].astype(np.float32), out / rel)
        rows.append(Sample(s.sample_id, rel, s.leaf_id))
    save_manifest(replace(data.manifest, samples=tuple(rows)), out / "manifest.csv")
    files.write_bytes(out / "synsets.txt", "".join(
        f"{parent}>{child}\n" for parent, child in data.graph.edges).encode("utf-8"))
    files.write_bytes(out / "basic_marks.txt", "".join(
        mark + "\n" for mark in sorted(data.basic_marks)).encode("utf-8"))


def overlap_report_csv(matches, path) -> None:
    """CSV ``id_a,id_b,score`` with scores at 6 decimal places."""
    files.write_csv(path, ["id_a", "id_b", "score"],
                    [(id_a, id_b, f"{score:.6f}") for id_a, id_b, score in matches])
