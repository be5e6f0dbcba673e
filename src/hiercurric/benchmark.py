"""The standard synthetic benchmark: data, model, and regime builders.

Everything here is desk scale: a 4-basic x 3-subordinate dataset of 16x16
images and a two-conv-block classifier that trains in seconds per phase.
Noise is set high enough that the subordinate task is not trivially solved
from raw pixels while the basic task stays easy, which is what makes the
curriculum effects measurable. Iteration budgets and thresholds were pinned
from a 5-seed pilot run.
"""

from __future__ import annotations

from . import curriculum as cu
from . import dataprep as dp
from . import model as md
from . import nnkernel as nk
from . import taxonomy, transfer

N_BASIC = 4
SUBS_PER_BASIC = 3
SAMPLES_PER_SUB = 50
IMAGE_SIZE = (3, 16, 16)
PHASE_A_ITERATIONS = 500
PHASE_B_ITERATIONS = 400
LOWERED_PREFIX = 2
LOWERED_MULT = 0.1


def synth_spec(seed: int) -> dp.SynthSpec:
    return dp.SynthSpec(n_basic=N_BASIC, subs_per_basic=SUBS_PER_BASIC,
                        image_size=IMAGE_SIZE, prototype_scale=0.25,
                        subordinate_scale=0.1, noise_scale=0.2,
                        samples_per_sub=SAMPLES_PER_SUB, seed=seed)


def model_spec(n_outputs: int) -> md.ModelSpec:
    """Benchmark classifier: two conv blocks and a 64-wide feature layer."""
    return md.ModelSpec(IMAGE_SIZE, (
        md.Conv("conv1", 8, 3, 3, stride=1, pad=1),
        md.Relu("relu1"),
        md.MaxPool("pool1", 2, 2),
        md.Conv("conv2", 16, 3, 3, stride=1, pad=1),
        md.Relu("relu2"),
        md.MaxPool("pool2", 2, 2),
        md.Fc("fc1", 64),
        md.Dropout("drop1", 0.5),
        md.Fc("fc2", n_outputs),
    ))


def train_config(iters: int, seed: int, level: str,
                 lowered_prefix: int = 0,
                 lowered_mult: float = 1.0) -> cu.TrainConfig:
    sgd = nk.SgdConfig(base_lr=0.01, momentum=0.9, weight_decay=0.0005,
                       lr_gamma=0.1, lr_step=max(1, iters // 2), batch_size=32)
    return cu.TrainConfig(sgd=sgd, max_iterations=iters, eval_every=100,
                          checkpoint_every=iters, seed=seed, task_level=level,
                          lowered_prefix=lowered_prefix,
                          lowered_mult=lowered_mult)


def make_bundle(seed: int) -> tuple[dp.SyntheticData, cu.DataBundle]:
    """Seeded dataset plus a ready DataBundle (40 train / 10 val per leaf);
    the bundle's images are the whole manifest's, in manifest order."""
    data = dp.generate_synthetic(synth_spec(seed))
    graph = taxonomy.validate_basic_marks(data.graph, data.basic_marks)
    labelmap = taxonomy.allocate_descendants(graph)
    (train, val), = dp.random_class_splits(data.manifest, 40, 10, 1,
                                           seed=seed + 1000)
    images = dp.load_batch(dp.InMemoryStore(data.images), data.manifest.samples)
    bundle = cu.DataBundle(train=train, val=val, phase_a_train=train,
                           labelmap=labelmap, graph=graph, images=images,
                           rows=data.manifest.positions(),
                           model_spec=model_spec(labelmap.n_sub),
                           init="scaled")
    return data, bundle


def regime(kind: str, seed: int, pretrain_categories=()) -> cu.Regime:
    """The benchmark's instance of one recipe: phase A at seed*10+1 and
    phase B at seed*10+2 (seed*10+3 without a phase A), lowering the conv
    prefix where the recipe lowers it."""
    recipe = cu.RECIPES[kind]
    if recipe.phase_a is None:
        return cu.Regime(kind=kind, phase_b=train_config(
            PHASE_B_ITERATIONS, seed * 10 + 3, "sub"))
    lowered = ({"lowered_prefix": LOWERED_PREFIX, "lowered_mult": LOWERED_MULT}
               if recipe.lowers else {})
    return cu.Regime(
        kind=kind,
        phase_a=train_config(PHASE_A_ITERATIONS, seed * 10 + 1,
                             recipe.phase_a_level),
        phase_b=train_config(PHASE_B_ITERATIONS, seed * 10 + 2, "sub",
                             **lowered),
        pretrain_categories=tuple(pretrain_categories))


def facilitated_regime(seed: int) -> cu.Regime:
    return regime("FacilitatedReplicatedHead", seed)


def reference_regime(seed: int) -> cu.Regime:
    return regime("Reference", seed)


def all_regimes(seed: int, pretrain_categories=()) -> dict[str, cu.Regime]:
    """One instance of every control recipe, keyed by kind; the subset
    recipe only when pretrain categories are given."""
    out = {kind: regime(kind, seed) for kind, recipe in cu.RECIPES.items()
           if recipe.phase_a != "subset"}
    if pretrain_categories:
        out["RandomSubsetPretrain"] = regime("RandomSubsetPretrain", seed,
                                             pretrain_categories)
    return out


def probe_spec(seed: int) -> transfer.ProbeSpec:
    """Probe settings sized for the benchmark's 64-wide feature layer."""
    return transfer.ProbeSpec(n_train_per_class=5, max_test_per_class=50,
                              n_splits=3, seed=seed, iters=300)
