"""
Frozen-feature transfer evaluation
==================================

How good are the learned features for a new classifier? The backbone is
frozen, a softmax head is trained on features from the layer under the
output head, and quality is mean class recall averaged over three random
splits. A trained backbone beats a random one by a wide margin, and more
probe training data helps monotonically.
"""

from hiercurric import benchmark as bm
from hiercurric import curriculum as cu
from hiercurric import model as md
from hiercurric import transfer

data, bundle = bm.make_bundle(seed=8)
trained, _ = cu.run_regime(bm.facilitated_regime(8), bundle)
random_ckpt = md.build_model(bundle.model_spec.with_outputs(12), seed=80,
                             init="scaled")

probe = bm.probe_spec(seed=8)
for name, ckpt in (("trained backbone", trained),
                   ("random backbone", random_ckpt)):
    (result,) = transfer.evaluate_probe([ckpt], data.manifest, bundle.images,
                                        [probe], bundle.labelmap)
    per_split = [round(m, 4) for _, m, _ in result.per_split]
    print(f"{name}: splits {per_split} -> "
          f"mean {result.aggregate['mean']:.4f} "
          f"(std {result.aggregate['std']:.4f})")

print("\nmean class recall vs probe training set size (trained backbone):")
for n_train in (5, 15, 30):
    spec = transfer.ProbeSpec(n_train_per_class=n_train, max_test_per_class=20,
                              n_splits=3, seed=9, iters=300)
    (result,) = transfer.evaluate_probe([trained], data.manifest, bundle.images,
                                        [spec], bundle.labelmap)
    print(f"  n_train {n_train:2d}: {result.aggregate['mean']:.4f}")
