"""
Basic-level pretraining with output-head replication
====================================================

The core curriculum move: train on coarse categories first, then transplant
each basic category's trained output unit onto all of its subordinate
classes and continue training on the fine-grained task with the early conv
layers learning at a tenth of the rate.
"""

import numpy as np

from hiercurric import benchmark as bm
from hiercurric import curriculum as cu
from hiercurric import model as md

data, bundle = bm.make_bundle(seed=3)
lm = bundle.labelmap

# phase A: 4-way basic classification
cfg_a = bm.train_config(400, seed=31, level="basic")
start = md.build_model(bundle.model_spec.with_outputs(lm.n_basic), seed=31,
                       phase_tag="basic", init="scaled")
basic_ckpt, report_a = cu.train_phase(start, cfg_a, bundle.train, bundle.val,
                                      lm, bundle.images, bundle.rows)
print(f"phase A (basic, {cfg_a.max_iterations} iters): "
      f"top-1 {report_a.final['top1']:.3f}")

# head replication: each subordinate row starts as a copy of its basic row,
# so sibling subordinates get identical logits at handoff
sub_ckpt = md.replace_head(basic_ckpt, lm.n_sub, "replicate", lm)
batch = np.random.default_rng(0).random((4,) + bundle.model_spec.input_shape)
logits = md.forward_eval(sub_ckpt, batch)
group0 = [j for j, leaf in enumerate(lm.sub_names)
          if lm.basic_index(leaf) == 0]
print(f"sibling logits at handoff (group 0): {logits[0, group0]}")

# phase B: 12-way subordinate task, first two conv layers at 1/10 rate
sub_ckpt = md.set_layer_lr_mults(sub_ckpt, 2, 0.1)
cfg_b = bm.train_config(400, seed=32, level="sub")
final, report_b = cu.train_phase(sub_ckpt, cfg_b, bundle.train, bundle.val,
                                 lm, bundle.images, bundle.rows)
print(f"phase B (subordinate, {cfg_b.max_iterations} iters): "
      f"top-1 {report_b.final['top1']:.3f}")

losses = [v for _, _, m, v in report_b.curves if m == "loss"]
print(f"phase B loss: first 5 {np.round(losses[:5], 3)}, "
      f"last 5 {np.round(losses[-5:], 3)}")
