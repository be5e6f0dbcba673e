"""Frozen-feature transfer evaluation with a linear softmax probe.

The backbone stays fixed: features are read at a named layer in eval mode,
a fresh softmax head is trained on them per split, and quality is reported
as mean class recall averaged over random splits.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dataprep as dp
from . import files
from . import model as md
from . import nnkernel as nk
from .errors import ValidationError
from .taxonomy import LabelMap

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ProbeSpec:
    """Settings for one probe evaluation run."""
    n_train_per_class: int
    max_test_per_class: int = 50
    n_splits: int = 3
    seed: int = 0
    iters: int = 1000
    layer: str | None = None       # None: input of the output head
    sgd: nk.SgdConfig = field(default_factory=lambda: nk.SgdConfig(
        base_lr=0.05, momentum=0.9, weight_decay=0.0, lr_gamma=1.0,
        lr_step=10_000, batch_size=32))

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


def train_softmax_probe(rows: np.ndarray, labels, cfg: nk.SgdConfig,
                        iters: int, seed: int):
    """Train a single fc + softmax head on frozen rows; returns (W, b)."""
    labels = np.asarray(labels)
    if labels.shape[0] != rows.shape[0]:
        raise ValidationError("labels not aligned to feature rows")
    n_classes = int(labels.max()) + 1
    if len(np.unique(labels)) < 2:
        raise ValidationError("probe needs at least two classes")

    rng = np.random.default_rng(seed)
    head = md.Fc("probe", n_classes)
    params = nk.ParamSet()
    params.add("probe.weight", nk.default_init((n_classes, rows.shape[1]), rng))
    params.add("probe.bias", np.zeros(n_classes))

    batches = dp.epoch_batches(rng, len(rows), cfg.batch_size)
    for it, idx in zip(range(iters), batches):
        logits, cache = head.forward(params, rows[idx], "train", rng)
        _, dlogits = nk.softmax_xent(logits, labels[idx])
        nk.sgd_step(params, head.backward(dlogits, cache, need_dx=False)[1],
                    cfg, it)
    return params["probe.weight"].weight, params["probe.bias"].weight


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
    classes = sorted(set(manifest.leaf_ids()))
    index = {c: i for i, c in enumerate(classes)}
    return np.array([index[l] for l in manifest.leaf_ids()]), len(classes)


def evaluate_probe(ckpt: md.Checkpoint, manifest: dp.DatasetManifest,
                   images: np.ndarray, probe: ProbeSpec,
                   labelmap: LabelMap | None = None) -> ProbeResult:
    """Random-split probe protocol on frozen backbone features.

    ``images`` is the ``(N, C, H, W)`` array of ``manifest.samples``, in
    order. Per split: train a softmax head on n_train_per_class features per
    class, evaluate mean class recall on up to max_test_per_class held-out
    samples. Classes come from the label map's subordinate index, or from
    sorted leaf ids when no map is given (external datasets).
    """
    backbone_before = md.body_hash(ckpt)
    labels, n_classes = _class_labels(manifest, labelmap)
    if len(images) != len(manifest):
        raise ValidationError(
            f"{len(images)} images for {len(manifest)} manifest samples")
    features = extract_features(ckpt, images, probe.layer)
    digests = [hashlib.sha256(image.tobytes()).hexdigest() for image in images]
    position = manifest.positions()

    splits = dp.random_class_splits(manifest, probe.n_train_per_class,
                                    probe.max_test_per_class,
                                    probe.n_splits, probe.seed)
    per_split = []
    for split_i, (train, test) in enumerate(splits):
        train_idx = [position[s.sample_id] for s in train.samples]
        test_idx = [position[s.sample_id] for s in test.samples]
        if {digests[i] for i in train_idx} & {digests[i] for i in test_idx}:
            raise ValidationError(
                "exact-duplicate images span train and test within a split; "
                "run overlap removal first")
        w, b = train_softmax_probe(features[train_idx], labels[train_idx],
                                   probe.sgd, probe.iters, probe.seed + split_i)
        logits = features[test_idx] @ w.T + b
        mean, per_class = mean_class_recall(logits.argmax(axis=1),
                                            labels[test_idx], n_classes)
        per_split.append((split_i, mean, per_class))

    means = np.array([m for _, m, _ in per_split])
    result = ProbeResult(
        per_split=tuple(per_split),
        aggregate={"mean": float(means.mean()), "std": float(means.std())},
        n_train_per_class=probe.n_train_per_class)
    if md.body_hash(ckpt) != backbone_before:
        raise AssertionError("probe evaluation mutated the backbone")
    return result


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
