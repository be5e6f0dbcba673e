"""Frozen-feature transfer evaluation with a linear softmax probe.

The backbone stays fixed: features are read at a named layer in eval mode,
a fresh softmax head is trained on them per split, and quality is reported
as mean class recall averaged over random splits.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataprep as dp
from . import files
from . import model as md
from . import nnkernel as nk
from .errors import ValidationError
from .taxonomy import LabelMap

log = logging.getLogger(__name__)

# the probe's optimizer: a constant rate, no weight decay
PROBE_SGD = nk.SgdConfig(base_lr=0.05, momentum=0.9, weight_decay=0.0,
                         lr_gamma=1.0, lr_step=10_000, batch_size=32)


@dataclass(frozen=True)
class ProbeSpec:
    """Settings for one probe evaluation run."""
    n_train_per_class: int
    max_test_per_class: int = 50
    n_splits: int = 3
    seed: int = 0
    iters: int = 1000
    layer: str | None = None       # None: input of the output head

    def __post_init__(self):
        if min(self.n_train_per_class, self.max_test_per_class, self.n_splits,
               self.iters) < 1:
            raise ValidationError("n_train_per_class, max_test_per_class, "
                                  "n_splits and iters must be >= 1")


@dataclass(frozen=True)
class ProbeResult:
    per_split: tuple                      # (split index, mean recall, per-class)
    aggregate: dict                       # {"mean": .., "std": ..}
    n_train_per_class: int


def feature_layer(spec: md.ModelSpec, layer: str | None) -> str:
    """The probed layer: ``layer`` (never the head), or the head's input."""
    if layer is None:
        return spec.layers[-2].name
    if spec.layer_index(layer) == len(spec.layers) - 1:
        raise ValidationError("feature layer must precede the output head")
    return layer


def extract_features(ckpt: md.Checkpoint, images: np.ndarray,
                     layer: str | None = None) -> np.ndarray:
    """Eval-mode outputs of ``layer`` (default: the output head's input),
    flattened to one row per image of the ``(N, C, H, W)`` array."""
    name = feature_layer(ckpt.spec, layer)
    batches = (images[i:i + 256] for i in range(0, len(images), 256))
    rows = np.concatenate([md.forward_eval(ckpt, batch, name).reshape(len(batch), -1)
                           for batch in batches])
    if not np.all(np.isfinite(rows)):
        raise ValidationError("non-finite feature values")
    return rows


def train_softmax_probe(rows, labels, cfg: nk.SgdConfig, iters: int, seeds):
    """Train P fc + softmax heads as one stacked problem per step; problem p
    has rows[p] (N, D) and labels[p] (N,), and draws its initial weights,
    then its batches, from seeds[p]. Returns (W, b), (P, K, D) and (P, K),
    each head's bytes equal to those of its problem trained alone."""
    if len({np.shape(r) for r in rows}) != 1:
        raise ValidationError("stacked probe problems differ in row shape")
    x, labels = np.asarray(rows), np.asarray(labels)
    if labels.shape != x.shape[:2] or len(seeds) != len(x):
        raise ValidationError("labels not aligned to feature rows")
    counts = {int(y.max()) + 1 for y in labels}
    if len(counts) != 1:
        raise ValidationError(f"stacked probe problems differ in class count {counts}")
    if labels.min() < 0 or any(len(np.unique(y)) < 2 for y in labels):
        raise ValidationError("probe needs labels >= 0 and at least two classes")

    rngs = [np.random.default_rng(seed) for seed in seeds]
    w = nk.ParamEntry(np.stack([nk.default_init((*counts, x.shape[2]), rng)
                                for rng in rngs]))
    b = nk.ParamEntry(np.zeros(w.weight.shape[:2]))
    problem = np.arange(len(x))[:, None]
    batches = zip(*(dp.epoch_batches(rng, x.shape[1], cfg.batch_size) for rng in rngs))
    for it, idx in zip(range(iters), map(np.stack, batches)):
        xb = x[problem, idx]
        logits = np.matmul(xb, w.weight.transpose(0, 2, 1)) + b.weight[:, None]
        nk._guard(logits)
        _, grad = nk._xent_grad(logits, labels[problem, idx])
        lr = nk.lr_schedule(cfg, it)
        nk._momentum_step(w, np.matmul(grad.transpose(0, 2, 1), xb), lr, cfg)
        nk._momentum_step(b, grad.sum(axis=1), lr, cfg)
    return w.weight, b.weight


def mean_class_recall(predictions, labels, n_classes: int):
    """Mean over classes of per-class recall; absent classes are excluded.

    Returns (mean, per-class vector) where absent classes hold NaN and are
    logged rather than counted as zero.
    """
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if len(labels) == 0:
        raise ValidationError("empty evaluation set")
    if predictions.shape != labels.shape:
        raise ValidationError("predictions and labels differ in length")
    per_class = np.full(n_classes, np.nan)
    for c in range(n_classes):
        mask = labels == c
        if mask.any():
            per_class[c] = float((predictions[mask] == c).mean())
    absent = np.isnan(per_class)
    if absent.any():
        log.warning("classes absent from evaluation set excluded from mean "
                    "class recall: %s", np.nonzero(absent)[0].tolist())
    return float(np.nanmean(per_class)), per_class


def _class_labels(manifest: dp.DatasetManifest, labelmap: LabelMap | None):
    if labelmap is not None:
        return np.array(labelmap.indices(manifest.leaf_ids(), "sub")), labelmap.n_sub
    classes, labels = np.unique(manifest.leaf_ids(), return_inverse=True)
    return labels, len(classes)


def evaluate_probe(ckpts, manifest: dp.DatasetManifest, images: np.ndarray,
                   probe: ProbeSpec,
                   labelmap: LabelMap | None = None) -> list[ProbeResult]:
    """Random-split probe protocol on frozen backbone features, one result
    per checkpoint. ``images`` is the ``(N, C, H, W)`` array of
    ``manifest.samples``, in order. Per checkpoint and split, one head of a
    single stacked probe trains on n_train_per_class features per class and
    is scored by mean class recall on up to max_test_per_class held-out
    samples. Classes come from the label map's subordinate index, or from
    sorted leaf ids when no map is given (external datasets).
    """
    backbones_before = [md.body_hash(ckpt) for ckpt in ckpts]
    labels, n_classes = _class_labels(manifest, labelmap)
    if len(images) != len(manifest):
        raise ValidationError(f"{len(images)} images for {len(manifest)} manifest samples")
    digests = [hashlib.sha256(image.tobytes()).hexdigest() for image in images]
    position = manifest.positions()
    splits = [[[position[s.sample_id] for s in part.samples] for part in split]
              for split in dp.random_class_splits(
                  manifest, probe.n_train_per_class, probe.max_test_per_class,
                  probe.n_splits, probe.seed)]
    for train_idx, test_idx in splits:
        if {digests[i] for i in train_idx} & {digests[i] for i in test_idx}:
            raise ValidationError("exact-duplicate images span train and test within "
                                  "a split; run overlap removal first")

    # only the rows some split reads outlive extraction, renumbered in order
    used = np.unique(np.concatenate([idx for split in splits for idx in split]))
    splits = [[np.searchsorted(used, idx) for idx in split] for split in splits]
    labels = labels[used]
    features = [extract_features(ckpt, images, probe.layer)[used] for ckpt in ckpts]
    w, b = train_softmax_probe(
        [rows[train_idx] for rows in features for train_idx, _ in splits],
        [labels[train_idx] for _ in features for train_idx, _ in splits],
        PROBE_SGD, probe.iters,
        [probe.seed + split_i for _ in features for split_i in range(len(splits))])

    results = []
    for ckpt_i, (ckpt, rows) in enumerate(zip(ckpts, features)):
        per_split = []
        for split_i, (_, test_idx) in enumerate(splits):
            p = ckpt_i * len(splits) + split_i
            logits = rows[test_idx] @ w[p].T + b[p]
            per_split.append((split_i, *mean_class_recall(
                logits.argmax(axis=1), labels[test_idx], n_classes)))
        means = np.array([m for _, m, _ in per_split])
        results.append(ProbeResult(
            per_split=tuple(per_split),
            aggregate={"mean": float(means.mean()), "std": float(means.std())},
            n_train_per_class=probe.n_train_per_class))
        if md.body_hash(ckpt) != backbones_before[ckpt_i]:
            raise AssertionError("probe evaluation mutated the backbone")
    return results


def save_probe_result(result: ProbeResult, out_dir) -> None:
    """probe.json with per-split and aggregate, per_class_recall.csv rows."""
    out = Path(out_dir)
    files.write_json(out / "probe.json", {
        "n_train_per_class": result.n_train_per_class,
        "aggregate": result.aggregate,
        "per_split": [{"split": i, "mean_class_recall": m}
                      for i, m, _ in result.per_split],
    })
    files.write_csv(out / "per_class_recall.csv", ["split", "class_index", "recall"],
                    [(i, c, "" if np.isnan(r) else repr(float(r)))
                     for i, _, per_class in result.per_split
                     for c, r in enumerate(per_class)])
