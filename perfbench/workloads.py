"""Benchmark workloads: seeded inputs, the CLI commands each one runs, and
the oracle every command's output is checked against.

A workload is built in two steps. ``setup(root, seed)`` writes every input
under ``root`` (this is what ``setup_s`` times). ``ops(inputs, out)`` lists
the commands of one measured repetition, each with the check that decides
whether it succeeded. Commands write only under ``out``, so two repetitions
of the same inputs can be compared file by file.

The oracles are computed from how the inputs were generated, never by
calling the code under test on the same inputs.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from hiercurric import nnkernel as nk

BATCH = 32
N_SUB = 12                       # 4 basic x 3 subordinate leaves
CHANCE = 1.0 / N_SUB


@dataclass
class Op:
    """One CLI command of a repetition and the oracle for its outputs."""
    name: str
    argv: list[str]
    check: Callable[[], list[str]]      # problems found; empty means correct


@dataclass
class Inputs:
    seed: int
    facts: dict = field(default_factory=dict)   # what the generators planted


# ---------------------------------------------------------------------------
# training configs

def _sgd(iterations: int, base_lr: float = 0.01,
         lr_step: int | None = None) -> dict:
    # Spelled out: SgdConfig's own defaults are batch 256 and no lr step.
    return {"base_lr": base_lr, "momentum": 0.9, "weight_decay": 0.0005,
            "lr_gamma": 0.1, "lr_step": lr_step or max(1, iterations // 2),
            "batch_size": BATCH}


def _phase(iterations: int, seed: int, checkpoint_every: int | None = None,
           eval_every: int = 100, sgd: dict | None = None, **extra) -> dict:
    return {"iterations": iterations, "seed": seed, "eval_every": eval_every,
            "checkpoint_every": checkpoint_every or iterations,
            "sgd": sgd or _sgd(iterations), **extra}


def _synthetic(seed: int, image_size, subordinate_scale: float,
               noise_scale: float) -> dict:
    return {"n_basic": 4, "subs_per_basic": 3, "image_size": list(image_size),
            "prototype_scale": 0.25, "subordinate_scale": subordinate_scale,
            "noise_scale": noise_scale, "samples_per_sub": 50, "seed": seed}


def facilitated_config(seed: int, phase_a_iterations: int = 500,
                       phase_b_iterations: int = 400,
                       phase_b_checkpoint_every: int | None = None) -> dict:
    """CLI config equal to ``benchmark.facilitated_regime(seed)`` and
    ``benchmark.make_bundle(seed)`` at the given iteration counts."""
    return {
        "data": {"synthetic": _synthetic(seed, (3, 16, 16), 0.1, 0.2),
                 "split": {"n_train_per_class": 40, "max_test_per_class": 10,
                           "seed": seed + 1000}},
        "model": {"name": "benchmark", "init": "scaled"},
        "regime": {
            "kind": "FacilitatedReplicatedHead",
            "phase_a": _phase(phase_a_iterations, seed * 10 + 1),
            "phase_b": _phase(phase_b_iterations, seed * 10 + 2,
                              phase_b_checkpoint_every,
                              lowered_prefix=2, lowered_mult=0.1),
        },
    }


DESK_ITERATIONS = 48


def desk_config(seed: int) -> dict:
    """Reference regime on the desk spec, set up so that a short run learns
    on every seed (the oracle needs val top-1 above 2x chance). The
    subordinate prototypes sit further apart and the noise is lower than in
    the 16x16 set. The learning rate is half the benchmark's and does not
    step down: at 0.01 some seeds stalled at chance-level loss."""
    return {
        "data": {"synthetic": _synthetic(seed, (3, 32, 32), 0.2, 0.1),
                 "split": {"n_train_per_class": 40, "max_test_per_class": 10,
                           "seed": seed + 1000}},
        "model": {"name": "desk", "init": "scaled"},
        "regime": {"kind": "Reference",
                   "phase_b": _phase(DESK_ITERATIONS, seed * 10 + 3,
                                     eval_every=DESK_ITERATIONS,
                                     sgd=_sgd(DESK_ITERATIONS, base_lr=0.005,
                                              lr_step=DESK_ITERATIONS))},
    }


def _write_json(path: Path, obj) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return path


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _missing(out: Path, names) -> list[str]:
    return [f"missing {name}" for name in names if not (out / name).is_file()]


# ---------------------------------------------------------------------------
# facilitated and desk: one `train` command per repetition

def _train_checks(out: Path, phase_iterations: dict[str, int]) -> list[str]:
    expected = ["MANIFEST.json", "curves.csv", "final.json"] + [
        f"{phase}/ckpt_{iters:08d}.ckpt"
        for phase, iters in phase_iterations.items()]
    problems = _missing(out, expected)
    if problems:
        return problems
    listed = json.loads((out / "final.json").read_text()).get("checkpoints", [])
    problems += [f"listed checkpoint {p} is missing"
                 for p in listed if not (out / p).is_file()]
    if not listed:
        problems.append("final.json lists no checkpoints")
    return problems


def _final(out: Path) -> dict:
    return json.loads((out / "final.json").read_text())["final"]


def facilitated_setup(root: Path, seed: int, run_cli=None) -> Inputs:
    config = _write_json(root / "facilitated.json", facilitated_config(seed))
    return Inputs(seed, {"config": config})


def facilitated_ops(inputs: Inputs, out: Path) -> list[Op]:
    run = out / "train"

    def check():
        problems = _train_checks(run, {"phase_a": 500, "phase_b": 400})
        if problems:
            return problems
        final = _final(run)
        if not final["phase_a.top1"] >= 0.95:
            problems.append(f"phase-A basic top-1 {final['phase_a.top1']} < 0.95")
        if not final["phase_b.top1"] >= 4 * CHANCE:
            problems.append(
                f"phase-B top-1 {final['phase_b.top1']} not above 4x chance")
        return problems

    return [Op("train", ["train", "--config", str(inputs.facts["config"]),
                         "--out", str(run)], check)]


def desk_setup(root: Path, seed: int, run_cli=None) -> Inputs:
    config = _write_json(root / "desk.json", desk_config(seed))
    return Inputs(seed, {"config": config})


def desk_ops(inputs: Inputs, out: Path) -> list[Op]:
    run = out / "train"

    def check():
        problems = _train_checks(run, {"phase_b": DESK_ITERATIONS})
        if problems:
            return problems
        losses = [float(r["value"]) for r in _read_csv(run / "curves.csv")
                  if r["split"] == "train" and r["metric"] == "phase_b.loss"]
        if len(losses) != DESK_ITERATIONS:
            problems.append(f"{len(losses)} loss rows, want {DESK_ITERATIONS}")
        elif not all(math.isfinite(v) for v in losses):
            problems.append("non-finite training loss")
        elif not losses[-1] < losses[0]:
            problems.append(f"final loss {losses[-1]} not below first {losses[0]}")
        top1 = _final(run)["phase_b.top1"]
        if not top1 > 2 * CHANCE:
            problems.append(f"val top-1 {top1} not above twice chance")
        return problems

    return [Op("train", ["train", "--config", str(inputs.facts["config"]),
                         "--out", str(run)], check)]


# ---------------------------------------------------------------------------
# prep-eval: generated taxonomy, planted duplicates, a checkpoint series

PREP_PHASE_A, PREP_PHASE_B, PREP_CKPT_EVERY = 30, 50, 5
N_EXACT_DUPS = N_AFFINE_DUPS = 8
PROBE_N_TRAIN = (5, 10, 20)
TAX_CAP, TAX_TRAIN, TAX_TEST, TAX_SPLITS = 10, 3, 5, 2

# Size of the generated hierarchy. The basic count is the paper's, as in
# model.alexnet_spec. The leaf count and the images per leaf are ILSVRC-2012's
# published figures (1000 classes of 732-1300 training images; Russakovsky
# et al. 2015, arXiv:1409.0575), the images scaled down 100x. The shape
# parameters in generate_taxonomy are unverified; see README.md.
TAX_BASICS, TAX_LEAVES = 308, 1000
TAX_IMAGES_PER_LEAF = (732, 1300)
TAX_IMAGE_SCALE = 100


def _split(rng: np.random.Generator, total: int, parts: int) -> list[int]:
    """``total`` as ``parts`` positive integers, cut at random."""
    cuts = np.sort(rng.choice(np.arange(1, total), size=parts - 1, replace=False))
    return np.diff(np.concatenate([[0], cuts, [total]])).astype(int).tolist()


def generate_taxonomy(rng: np.random.Generator, n_basic: int = TAX_BASICS,
                      n_leaves: int = TAX_LEAVES):
    """A WordNet-shaped DAG over synset-style ids.

    Each basic category gets at least one of the ``n_leaves`` leaves, the
    rest spread unevenly, so a few basics have dozens. A basic with one
    leaf is itself that leaf. Under a basic with k > 1 leaves they all sit
    at depth ceil(log4 k), below inner nodes with two to four children
    (fewer where leaves run out, giving unary chains). Basics are joined
    upward into a tree of groups with unary chains, as WordNet's upper
    levels are. About a tenth of the leaves get a second parent inside
    another basic's subtree, placed so that the planted basic still wins
    the upward breadth-first search: either the second path is longer (and
    its edge is listed first, so file order alone would pick the wrong
    basic) or the paths tie and the planted parent's edge is listed first.

    Returns (edges, marks, planted leaf->basic, basic height histogram).
    """
    counter = iter(range(1, 10 ** 7))

    def new_id() -> str:
        return f"n{next(counter) * 7919 % 10 ** 8:08d}"

    basics = [new_id() for _ in range(n_basic)]
    leaf_counts = 1 + rng.multinomial(n_leaves - n_basic,
                                      rng.dirichlet(np.full(n_basic, 0.5)))
    depth_of = {b: 0 if k == 1 else math.ceil(math.log(k, 4) - 1e-9)
                for b, k in zip(basics, leaf_counts)}
    subtree_edges: dict[str, list] = {}
    levels: dict[str, list[list[str]]] = {}     # basic -> nodes by depth
    planted: dict[str, str] = {}
    for basic, k in zip(basics, leaf_counts):
        edges, layer = [], [(basic, int(k))]    # (node, leaves below it)
        levels[basic] = [[basic]]
        for depth in range(depth_of[basic], 0, -1):
            nxt = []
            for node, below in layer:
                fan = below if depth == 1 else int(rng.integers(
                    min(2, below), min(4, below) + 1))
                for part in _split(rng, below, fan):
                    child = new_id()
                    edges.append((node, child))
                    nxt.append((child, part))
            layer = nxt
            levels[basic].append([node for node, _ in layer])
        subtree_edges[basic] = edges
        for node, _ in layer:            # depth 0: the basic is the leaf
            planted[node] = basic

    # second parents
    extra_before: dict[str, tuple] = {}      # leaf -> edge listed before its own
    extra_after: dict[str, tuple] = {}
    candidates = sorted(leaf for leaf, b in planted.items() if depth_of[b] >= 1)
    for leaf in candidates:
        if rng.random() >= 0.1:
            continue
        own = int(depth_of[planted[leaf]])
        nearer = rng.random() < 0.5
        # nearer: other path length 1 + d >= own + 1, i.e. d >= own
        # tie:    other path length 1 + d == own,     i.e. d == own - 1
        others = [b for b in basics if b != planted[leaf]
                  and (depth_of[b] > own if nearer else depth_of[b] >= own)]
        if not others:
            continue
        other = others[int(rng.integers(len(others)))]
        d = (int(rng.integers(own, int(depth_of[other]))) if nearer else own - 1)
        level = levels[other][d]
        parent = level[int(rng.integers(len(level)))]
        (extra_before if nearer else extra_after)[leaf] = (parent, leaf)

    # upper levels: group nodes under new parents until one root is left
    upper: list[tuple[str, str]] = []
    nodes = [basics[i] for i in rng.permutation(n_basic)]
    while len(nodes) > 1:
        grouped, i = [], 0
        while i < len(nodes):
            size = int(rng.integers(2, 5))
            parent = new_id()
            for child in nodes[i:i + size]:
                if rng.random() < 0.3:            # unary chain step
                    link = new_id()
                    upper.append((parent, link))
                    upper.append((link, child))
                else:
                    upper.append((parent, child))
            grouped.append(parent)
            i += size
        nodes = grouped
    upper.reverse()                               # root's edges first

    edges = list(upper)
    for basic in basics:
        for parent, child in subtree_edges[basic]:
            if child in extra_before:
                edges.append(extra_before[child])
            edges.append((parent, child))
            if child in extra_after:
                edges.append(extra_after[child])
    heights = Counter(int(depth_of[b]) for b in basics)
    return edges, basics, planted, dict(heights)


def _write_taxonomy(root: Path, rng) -> dict:
    edges, marks, planted, heights = generate_taxonomy(rng)
    synsets = root / "synsets.txt"
    with open(synsets, "w", encoding="utf-8") as fh:
        fh.write("# generated WordNet-shaped hierarchy: parent>child\n")
        for i, (parent, child) in enumerate(edges):
            if i % 997 == 0:
                fh.write("\n# block\n")
            fh.write(f"{parent}>{child}\n")
    marks_path = root / "marks.txt"
    marks_path.write_text("".join(f"{m}\n" for m in sorted(marks)))

    lo, hi = TAX_IMAGES_PER_LEAF
    per_leaf = {leaf: int(n) // TAX_IMAGE_SCALE for leaf, n in zip(
        sorted(planted), rng.integers(lo, hi + 1, size=len(planted)))}
    manifest = root / "tax_manifest.csv"
    with open(manifest, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "path", "leaf_id"])
        for leaf, n in per_leaf.items():
            for k in range(n):
                writer.writerow([f"{leaf}_{k:03d}", f"img/{leaf}/{k:03d}.jpg", leaf])
    return {"synsets": synsets, "marks": marks_path, "tax_manifest": manifest,
            "planted": planted, "heights": heights, "per_leaf": per_leaf}


def _plant_duplicates(data: Path, rng) -> dict:
    """Copy some tensors exactly and some under a positive affine map; the
    dedup manifest lists the originals plus the copies."""
    rows = _read_csv(data / "manifest.csv")
    chosen = rng.choice(len(rows), size=N_EXACT_DUPS + N_AFFINE_DUPS,
                        replace=False)
    extra, pairs = [], set()
    for k, i in enumerate(chosen):
        row = rows[int(i)]
        exact = k < N_EXACT_DUPS
        dup_id = f"dup_{'exact' if exact else 'affine'}_{k:02d}"
        rel = f"tensors/{dup_id}.tnsr"
        if exact:
            shutil.copyfile(data / row["path"], data / rel)
        else:
            scale = 0.6 + 0.3 * rng.random()
            shift = (1.0 - scale) * rng.random()     # stays inside [0, 1]
            image = nk.load_tensor(data / row["path"]).astype(np.float64)
            nk.save_tensor((scale * image + shift).astype(np.float32), data / rel)
        extra.append({"sample_id": dup_id, "path": rel, "leaf_id": row["leaf_id"]})
        pairs |= {(row["sample_id"], dup_id), (dup_id, row["sample_id"])}
    dedup_manifest = data / "dedup_manifest.csv"
    with open(dedup_manifest, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, ["sample_id", "path", "leaf_id"],
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows + extra)
    return {"dedup_manifest": dedup_manifest, "dup_pairs": pairs,
            "dedup_size": len(rows) + len(extra)}


def prep_eval_setup(root: Path, seed: int, run_cli) -> Inputs:
    rng = np.random.default_rng([seed, 2])
    data = root / "data"
    facts = {"data": data, "manifest": data / "manifest.csv"}
    _expect_ok(run_cli(["synth", "--seed", str(seed), "--out", str(data)]),
               "synth")
    facts.update(_plant_duplicates(data, rng))
    config = _write_json(root / "series.json", facilitated_config(
        seed, PREP_PHASE_A, PREP_PHASE_B, PREP_CKPT_EVERY))
    _expect_ok(run_cli(["train", "--config", str(config),
                        "--out", str(root / "series")]), "train")
    facts["checkpoints"] = [
        root / "series" / "phase_b" / f"ckpt_{it:08d}.ckpt"
        for it in range(PREP_CKPT_EVERY, PREP_PHASE_B + 1, PREP_CKPT_EVERY)]
    facts.update(_write_taxonomy(root, rng))
    return Inputs(seed, facts)


def _expect_ok(result, what: str) -> None:
    code, _ = result
    if code != 0:
        raise RuntimeError(f"set-up command {what} exited with {code}")


def prep_eval_ops(inputs: Inputs, out: Path) -> list[Op]:
    f, seed = inputs.facts, inputs.seed
    tax, prep, dedup = out / "taxonomy", out / "prepare", out / "dedup"
    probe, sweep = out / "probe", out / "sweep"

    def check_taxonomy():
        problems = []
        got = {r["leaf_id"]: r["basic_id"]
               for r in _read_csv(tax / "labelmap.csv")}
        if set(got) != set(f["planted"]):
            problems.append(f"label map has {len(got)} leaves, "
                            f"generator planted {len(f['planted'])}")
        wrong = sorted(l for l in got if got[l] != f["planted"].get(l))
        if wrong:
            problems.append(f"{len(wrong)} leaves on the wrong basic, "
                            f"e.g. {wrong[0]}")
        hist = {int(r["height"]): int(r["count"])
                for r in _read_csv(tax / "height_histogram.csv")}
        if hist != f["heights"]:
            problems.append(f"height histogram {hist} != {f['heights']}")
        return problems

    def check_prepare():
        problems = []
        kept = {leaf: min(n, TAX_CAP) for leaf, n in f["per_leaf"].items()}
        counts = {r["category"]: int(r["retained"])
                  for r in _read_csv(prep / "category_counts.csv")}
        if counts != kept:
            problems.append("category counts differ from min(samples, cap)")
        for i in range(TAX_SPLITS):
            train = _read_csv(prep / f"train_{i}.csv")
            test = _read_csv(prep / f"test_{i}.csv")
            if {r["sample_id"] for r in train} & {r["sample_id"] for r in test}:
                problems.append(f"split {i}: train and test overlap")
            if Counter(r["leaf_id"] for r in train) != {
                    leaf: TAX_TRAIN for leaf in kept}:
                problems.append(f"split {i}: wrong train count per class")
            if Counter(r["leaf_id"] for r in test) != {
                    leaf: min(n - TAX_TRAIN, TAX_TEST) for leaf, n in kept.items()}:
                problems.append(f"split {i}: wrong test count per class")
        return problems

    def check_dedup():
        found = {(r["id_a"], r["id_b"]) for r in _read_csv(dedup / "overlap.csv")}
        problems = []
        if found != f["dup_pairs"]:
            problems.append(f"{len(found - f['dup_pairs'])} unplanted and "
                            f"{len(f['dup_pairs'] - found)} missed pairs")
        kept = len(_read_csv(dedup / "filtered_manifest.csv"))
        if kept != f["dedup_size"] - 2 * (N_EXACT_DUPS + N_AFFINE_DUPS):
            problems.append(f"filtered manifest keeps {kept} samples")
        return problems

    def check_probe():
        rows = _read_csv(probe / "aggregates.csv")
        got = [int(r["n_train_per_class"]) for r in rows]
        if got != list(PROBE_N_TRAIN):
            return [f"aggregate rows for n_train {got}"]
        low = [r for r in rows if not float(r["mean_class_recall"]) >= 3 * CHANCE]
        return [f"probe recall {r['mean_class_recall']} at n_train "
                f"{r['n_train_per_class']} not above 3x chance" for r in low]

    def check_sweep():
        rows = _read_csv(sweep / "curves.csv")
        want = list(range(PREP_CKPT_EVERY, PREP_PHASE_B + 1, PREP_CKPT_EVERY))
        problems = []
        if [int(r["iteration"]) for r in rows] != want:
            problems.append(f"sweep rows {len(rows)}, want one per checkpoint")
        if not all(0.0 <= float(r["value"]) <= 1.0 for r in rows):
            problems.append("sweep recall outside [0, 1]")
        return problems

    common = ["--manifest", str(f["manifest"]), "--images", str(f["data"]),
              "--seed", str(seed)]
    return [
        Op("taxonomy", ["taxonomy", "--synsets", str(f["synsets"]),
                        "--marks", str(f["marks"]), "--out", str(tax)],
           check_taxonomy),
        Op("prepare", ["prepare", "--manifest", str(f["tax_manifest"]),
                       "--labelmap", str(tax / "labelmap.csv"),
                       "--level", "sub", "--cap", str(TAX_CAP),
                       "--seed", str(seed), "--splits", str(TAX_SPLITS),
                       "--train-per-class", str(TAX_TRAIN),
                       "--max-test-per-class", str(TAX_TEST),
                       "--out", str(prep)], check_prepare),
        Op("dedup", ["dedup", "--manifest-a", str(f["dedup_manifest"]),
                     "--images-a", str(f["data"]), "--out", str(dedup)],
           check_dedup),
        Op("probe", ["probe", "--checkpoint", str(f["checkpoints"][-1]),
                     *common, *[a for n in PROBE_N_TRAIN
                                for a in ("--n-train", str(n))],
                     "--out", str(probe)], check_probe),
        Op("sweep", ["sweep", "--checkpoints",
                     *[str(p) for p in f["checkpoints"]], *common,
                     "--n-train", str(PROBE_N_TRAIN[0]), "--out", str(sweep)],
           check_sweep),
    ]


# ---------------------------------------------------------------------------
# workload-specific end-to-end metrics, from per-command seconds

def training_extras(samples_per_rep: int):
    def extras(op_seconds: dict[str, float], inputs: Inputs) -> dict:
        return {"train_samples_per_s": (samples_per_rep / op_seconds["train"],
                                        "samples/s")}
    return extras


def prep_eval_extras(op_seconds: dict[str, float], inputs: Inputs) -> dict:
    pairs = inputs.facts["dedup_size"] ** 2
    return {
        "sweep_s": (op_seconds["sweep"], "s"),
        "probe_s": (op_seconds["probe"], "s"),
        "dedup_pairs_per_s": (pairs / op_seconds["dedup"], "pairs/s"),
        "taxonomy_s": (op_seconds["taxonomy"] + op_seconds["prepare"], "s"),
    }


@dataclass(frozen=True)
class Workload:
    setup: Callable            # (root, seed, run_cli) -> Inputs
    ops: Callable              # (inputs, out) -> list[Op]
    extras: Callable           # (op seconds, inputs) -> {metric: (value, unit)}


WORKLOADS = {
    "facilitated": Workload(facilitated_setup, facilitated_ops,
                            training_extras((500 + 400) * BATCH)),
    "desk": Workload(desk_setup, desk_ops,
                     training_extras(DESK_ITERATIONS * BATCH)),
    "prep-eval": Workload(prep_eval_setup, prep_eval_ops, prep_eval_extras),
}
