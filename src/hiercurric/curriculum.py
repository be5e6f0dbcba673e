"""Two-phase curriculum training and the pretraining control regimes.

A regime is one complete training recipe: an optional pretraining phase A
(basic-level, same-task, or a random category subset), a head transition,
and a subordinate-level phase B. Reports collect per-iteration loss and
validation accuracy curves plus final metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dataprep as dp
from . import files
from . import model as md
from . import nnkernel as nk
from . import transfer
from .errors import NumericFault, ValidationError
from .taxonomy import LabelMap, SynsetGraph, first_marks


@dataclass(frozen=True)
class Recipe:
    """What one regime kind does around its subordinate phase B."""
    phase_a: str | None   # phase-A labels: "sub", "basic", "subset"; None: no phase A
    head: str | None      # head into phase B: "keep", or a replace_head init
    lowers: bool          # phase B lowers the first lowered_prefix conv layers

    @property
    def phase_a_level(self) -> str:
        """TrainConfig.task_level of phase A (subset labels count as basic)."""
        return "sub" if self.phase_a == "sub" else "basic"


RECIPES = {
    "Reference": Recipe(None, None, False),
    "ReferenceExtended": Recipe("sub", "keep", False),
    "RandomSubsetPretrain": Recipe("subset", "random", True),
    "FacilitatedRandomHead": Recipe("basic", "random", True),
    "FacilitatedReplicatedHead": Recipe("basic", "replicate", True),
}
REGIME_KINDS = tuple(RECIPES)


@dataclass(frozen=True)
class TrainConfig:
    sgd: nk.SgdConfig
    max_iterations: int
    eval_every: int
    checkpoint_every: int
    seed: int
    task_level: str                 # "basic" or "sub"
    lowered_prefix: int = 0
    lowered_mult: float = 1.0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if self.eval_every < 1 or self.checkpoint_every < 1:
            raise ValidationError("eval_every and checkpoint_every must be >= 1")
        if self.task_level not in ("basic", "sub"):
            raise ValidationError(f"unknown task level {self.task_level!r}")
        if self.lowered_prefix < 0:
            raise ValidationError("lowered_prefix must be >= 0")
        if not 0 <= self.lowered_mult <= 1:
            raise ValidationError("lowered_mult must be in [0, 1]")


@dataclass(frozen=True)
class Regime:
    kind: str
    phase_b: TrainConfig
    phase_a: TrainConfig | None = None
    pretrain_categories: tuple[str, ...] = ()

    def __post_init__(self):
        recipe = RECIPES.get(self.kind)
        if recipe is None:
            raise ValidationError(f"unknown regime kind {self.kind!r}")
        if recipe.phase_a is None and self.phase_a is not None:
            raise ValidationError(f"{self.kind} takes no phase A")
        if recipe.phase_a is not None and self.phase_a is None:
            raise ValidationError(f"{self.kind} needs a phase A config")
        if self.phase_b.task_level != "sub":
            raise ValidationError("phase B always trains the subordinate task")
        if self.phase_a is not None:
            if self.phase_a.task_level != recipe.phase_a_level:
                raise ValidationError(
                    f"{self.kind} phase A trains at level {recipe.phase_a_level!r}")
            if _lowers(self.phase_a):
                raise ValidationError(
                    "lowered_prefix and lowered_mult act only on phase B")
        if _lowers(self.phase_b) and not recipe.lowers:
            raise ValidationError(
                f"{self.kind} lowers no conv layers: phase B takes no "
                f"lowered_prefix or lowered_mult")
        if _lowers(self.phase_b) and (self.phase_b.lowered_prefix < 1
                                      or self.phase_b.lowered_mult >= 1):
            raise ValidationError("phase B lowering lowers nothing: it needs "
                                  "lowered_prefix >= 1 and lowered_mult < 1")
        if recipe.phase_a == "subset" and not self.pretrain_categories:
            raise ValidationError(f"{self.kind} needs pretrain categories")
        if recipe.phase_a != "subset" and self.pretrain_categories:
            raise ValidationError(f"{self.kind} takes no pretrain categories")


def _lowers(cfg: TrainConfig) -> bool:
    return cfg.lowered_prefix != 0 or cfg.lowered_mult != 1.0


@dataclass
class RunReport:
    curves: list[tuple[int, str, str, float]] = field(default_factory=list)
    final: dict[str, float] = field(default_factory=dict)
    regime: dict | None = None
    checkpoints: list[str] = field(default_factory=list)


@dataclass
class DataBundle:
    """Everything a regime needs: splits, labels, graph, model shape, images."""
    train: dp.DatasetManifest
    val: dp.DatasetManifest
    phase_a_train: dp.DatasetManifest  # train, or train capped per category
    labelmap: LabelMap
    graph: SynsetGraph
    images: np.ndarray                 # (N, C, H, W): one row per loaded sample
    rows: dict[str, int]               # sample_id -> its row of images
    model_spec: md.ModelSpec
    init: str = "fixed"                # weight init scheme for fresh models


def topk_accuracy(logits, labels, k: int) -> float:
    """Fraction of rows whose label ranks in the top k logits.

    Equal logits rank by class index, lowest first, so results do not
    depend on sort implementation details.
    """
    labels = np.asarray(labels)
    n, n_classes = logits.shape
    if k > n_classes:
        raise ValidationError(f"k={k} exceeds {n_classes} classes")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValidationError("labels out of range")
    ranked = np.argsort(-logits, axis=1, kind="stable")[:, :k]
    return float((ranked == labels[:, None]).any(axis=1).mean())


def _step(work, sgd, batch, labels, rng, iteration: int) -> float:
    """One SGD iteration; returns its loss. Its logits, caches and gradients
    are freed on return, before the next forward or an evaluation runs."""
    logits, caches = md.forward(work.spec, work.params, batch, mode="train", rng=rng)
    loss, dlogits = nk.softmax_xent(logits, labels)
    nk.sgd_step(work.params, md.backward(work.params, caches, dlogits), sgd, iteration)
    return loss


def train_phase(ckpt: md.Checkpoint, cfg: TrainConfig,
                train: dp.DatasetManifest, val: dp.DatasetManifest,
                labelmap: LabelMap, images: np.ndarray, rows: dict[str, int],
                out_dir=None, *, _in_place=False) -> tuple[md.Checkpoint, RunReport]:
    """Seeded mini-batch SGD at cfg.task_level; returns final state + curves.

    Each batch and each evaluation read ``images`` through ``rows`` (sample
    id -> row), so no split is copied. The input checkpoint is not mutated
    (``run_regime`` trains the checkpoints it makes in place: ``_in_place``).
    Every entry's ``lr_mult`` comes from ``cfg``, whatever the input held:
    the first ``cfg.lowered_prefix`` conv layers learn at
    ``cfg.lowered_mult`` and every other entry at 1.0. Batches come from a
    full seeded shuffle per epoch with the last partial batch kept; the
    learning-rate schedule restarts at iteration 0 for the phase.
    """
    train_labels = np.array(labelmap.indices(train.leaf_ids(), cfg.task_level))
    val_labels = np.array(labelmap.indices(val.leaf_ids(), cfg.task_level))
    if len(train) == 0 or len(val) == 0:
        raise ValidationError("empty training or validation manifest")
    n_out = ckpt.spec.n_outputs
    for arr, which in ((train_labels, "train"), (val_labels, "val")):
        if arr.min() < 0 or arr.max() >= n_out:
            raise ValidationError(f"{which} labels exceed head width {n_out}")
    conv_names = ckpt.spec.conv_names()
    if cfg.lowered_prefix > len(conv_names):
        raise ValidationError(f"lowered_prefix {cfg.lowered_prefix} exceeds "
                              f"{len(conv_names)} conv layers")

    work = ckpt if _in_place else ckpt.copy()
    lowered = set(conv_names[:cfg.lowered_prefix])
    for name, e in work.params.items():
        e.lr_mult = cfg.lowered_mult if name.rsplit(".", 1)[0] in lowered else 1.0
    train_rows, val_rows = (np.array([rows[s.sample_id] for s in split.samples])
                            for split in (train, val))
    rng = np.random.default_rng(cfg.seed)
    report = RunReport()
    out_path = Path(out_dir) if out_dir is not None else None

    batches = dp.epoch_batches(rng, len(train_rows), cfg.sgd.batch_size)
    for it, batch_idx in zip(range(cfg.max_iterations), batches):
        try:
            loss = _step(work, cfg.sgd, images[train_rows[batch_idx]],
                         train_labels[batch_idx], rng, it)
        except NumericFault as exc:
            raise NumericFault(f"iteration {it}: {exc}") from exc
        report.curves.append((it, "train", "loss", loss))

        done = it + 1
        if done % cfg.eval_every == 0 or done == cfg.max_iterations:
            logits = md.forward_eval(work, images, rows=val_rows)
            metrics = {f"top{k}": topk_accuracy(logits, val_labels, k)
                       for k in (1, 5) if k <= logits.shape[1]}
            for name, value in metrics.items():
                report.curves.append((done, "val", name, value))
        if done % cfg.checkpoint_every == 0 or done == cfg.max_iterations:
            work.iteration = done
            if out_path is not None:
                ref = out_path / f"ckpt_{done:08d}.ckpt"
                md.save_checkpoint(work, ref)
                report.checkpoints.append(str(ref))

    # the loop evaluated at done == max_iterations: those are the final metrics
    final = {**metrics, "loss": loss}
    report.final = {k: float(v) for k, v in sorted(final.items())}
    return work, report


def check_pretrain_categories(graph: SynsetGraph, categories) -> None:
    """Reject pretrain categories that are basic marks or not graph nodes."""
    overlap = sorted(set(categories) & graph.basic_marks)
    if overlap:
        raise ValidationError(
            f"pretrain categories overlap basic marks: {', '.join(overlap)}")
    unknown = sorted(set(categories) - graph.nodes)
    if unknown:
        raise ValidationError(f"unknown pretrain categories: {', '.join(unknown)}")


def _subset_task(graph: SynsetGraph, categories,
                 manifests) -> tuple[LabelMap, list[dp.DatasetManifest]]:
    """Pretraining task over a category set disjoint from the basic marks.

    The categories act as basic marks: each is one basic class, and leaves
    reach their class through the same first-marked-ancestor rule used for
    basic labels. Returns that label map and the manifests without the
    samples under no category.
    """
    check_pretrain_categories(graph, categories)
    cats = sorted(set(categories))
    leaves = sorted({leaf for m in manifests for leaf in m.leaf_ids()})
    entries: dict[str, tuple[int, int]] = {}
    for leaf, hit in first_marks(graph, cats, leaves).items():
        if hit is not None:
            entries[leaf] = (len(entries), cats.index(hit))
    kept = [m.subset(s.sample_id for s in m.samples if s.leaf_id in entries)
            for m in manifests]
    if not all(len(m) for m in kept):
        raise ValidationError("no samples fall under the pretrain categories")
    return LabelMap(entries, tuple(cats), tuple(entries)), kept


def _merge(report: RunReport, phase: str, sub: RunReport) -> None:
    report.curves.extend(
        (it, split, f"{phase}.{metric}", value)
        for it, split, metric, value in sub.curves)
    report.final.update({f"{phase}.{k}": v for k, v in sub.final.items()})
    report.checkpoints.extend(sub.checkpoints)


def _fresh_model(bundle: DataBundle, n_outputs: int, seed: int,
                 phase_tag: str) -> md.Checkpoint:
    return md.build_model(bundle.model_spec.with_outputs(n_outputs), seed=seed,
                          phase_tag=phase_tag, init=bundle.init)


def _train_phase_a(regime: Regime, bundle: DataBundle,
                   out_dir) -> tuple[md.Checkpoint, RunReport]:
    """Phase A on the labels its recipe names, from a fresh phase_a.seed model."""
    task, lm = RECIPES[regime.kind].phase_a, bundle.labelmap
    train, val = bundle.phase_a_train, bundle.val
    if task == "subset":
        lm, (train, val) = _subset_task(
            bundle.graph, regime.pretrain_categories, (train, val))
    width, tag = lm.n_basic, "basic"
    if task == "sub":  # the phase-B task, on the uncapped training set
        train, width, tag = bundle.train, lm.n_sub, "subordinate"
    start = _fresh_model(bundle, width, regime.phase_a.seed, tag)
    return train_phase(start, regime.phase_a, train, val, lm, bundle.images,
                       bundle.rows, out_dir, _in_place=True)


def run_regime(regime: Regime, bundle: DataBundle,
               out_dir=None) -> tuple[md.Checkpoint, RunReport]:
    """Execute one full training recipe and merge the phase reports.

    The regime's entry in RECIPES decides what phase A trains on and how the
    head passes into phase B (kept, replicated or drawn at phase_b.seed).
    Each phase's train_phase sets its own lr_mults from its config.
    Without a phase A, phase B starts from a fresh phase_b.seed model.
    """
    recipe = RECIPES[regime.kind]
    lm = bundle.labelmap
    out_path = Path(out_dir) if out_dir is not None else None
    report = RunReport(regime={"kind": regime.kind})

    if recipe.phase_a is None:
        ckpt = _fresh_model(bundle, lm.n_sub, regime.phase_b.seed, "subordinate")
    else:
        ckpt, rep_a = _train_phase_a(regime, bundle,
                                     out_path and out_path / "phase_a")
        _merge(report, "phase_a", rep_a)
        if recipe.head != "keep":
            ckpt = md.replace_head(ckpt, lm.n_sub, recipe.head, lm,
                                   seed=regime.phase_b.seed)

    final, rep_b = train_phase(ckpt, regime.phase_b, bundle.train, bundle.val,
                               lm, bundle.images, bundle.rows,
                               out_path and out_path / "phase_b", _in_place=True)
    _merge(report, "phase_b", rep_b)
    return final, report


def checkpoint_sweep(checkpoints, manifest: dp.DatasetManifest,
                     images: np.ndarray, probe,
                     labelmap: LabelMap | None = None) -> RunReport:
    """Probe a run's checkpoints, all in one stacked probe, on the manifest's
    ``images`` array; series keyed by each checkpoint's iteration, which
    must ascend. ``checkpoints`` is consumed as by :func:`transfer.evaluate_probe`."""
    iterations = []

    def ascending(ckpt):  # checked as each checkpoint arrives
        iterations.append(ckpt.iteration)
        if len(iterations) > 1 and iterations[-1] <= iterations[-2]:
            raise ValidationError(f"checkpoint iterations must ascend, got {iterations}")
        return ckpt

    results = transfer.evaluate_probe(map(ascending, checkpoints), manifest,
                                      images, [probe], labelmap)
    report = RunReport(curves=[(it, "transfer", "mean_class_recall",
                                r.aggregate["mean"]) for it, r in zip(iterations, results)])
    report.final["last_mean_class_recall"] = report.curves[-1][3]
    return report


# ---------------------------------------------------------------------------
# report files

def save_run_report(report: RunReport, out_dir) -> None:
    """curves.csv (iteration,split,metric,value) and final.json."""
    out = Path(out_dir)
    files.write_csv(out / "curves.csv", ["iteration", "split", "metric", "value"],
                    [(it, split, metric, repr(float(value)))
                     for it, split, metric, value in report.curves])
    payload = {"final": report.final}
    if report.regime is not None:
        payload["regime"] = report.regime
    if report.checkpoints:
        payload["checkpoints"] = report.checkpoints
    files.write_json(out / "final.json", payload)
