"""Acceptance suite: one test per criterion, one printed line per result.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The synthetic curriculum experiment (criterion 6) is the long pole
and finishes in a few minutes on a laptop CPU.
"""

import json
import time
import warnings

import numpy as np
import pytest

import test_gradcheck as gc
from hiercurric import benchmark as bm
from hiercurric import cli
from hiercurric import curriculum as cu
from hiercurric import dataprep as dp
from hiercurric import model as md
from hiercurric import nnkernel as nk
from hiercurric import taxonomy, transfer
from hiercurric.errors import ValidationError


def report(criterion, ok, detail=""):
    line = f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line, flush=True)
    assert ok, line


class TestCriterion1GradientFidelity:
    def test_every_layer_and_composed_network_under_a_minute(self):
        start = time.time()
        for stride, pad, groups in ((1, 0, 1), (2, 1, 1), (1, 1, 2)):
            gc.test_conv2d_gradients(stride, pad, groups)
        gc.test_fc_gradients()
        gc.test_relu_gradients()
        gc.test_maxpool_gradients()
        gc.test_dropout_gradients_fixed_mask()
        gc.test_softmax_xent_gradients()
        gc.test_composed_desk_network_gradients()
        elapsed = time.time() - start
        report(1, elapsed < 60,
               f"gradient checks (rel err < 1e-3, eps=1e-3, >=20 coords per "
               f"tensor) in {elapsed:.1f}s")


class TestCriterion2OptimizerOracle:
    def test_momentum_recurrence_and_schedule_step(self):
        mu, eta, g = 0.9, 0.1, 1.0
        cfg = nk.SgdConfig(base_lr=eta, momentum=mu, weight_decay=0.0,
                           lr_gamma=1.0, lr_step=1, batch_size=1)
        params = {"p.weight": nk.ParamEntry(np.array([0.0]))}
        v = w = 0.0
        for it in range(2):
            nk.sgd_step(params, {"p.weight": np.array([g])}, cfg, it)
            v = mu * v - eta * g
            w = w + v
            assert params["p.weight"].momentum[0] == v
            assert params["p.weight"].weight[0] == w
        two_step_ok = (abs(v - -0.19) < 1e-15 and abs(w - -0.29) < 1e-15)

        sched = nk.SgdConfig(base_lr=0.01, lr_gamma=0.1, lr_step=100_000)
        step_ok = (nk.lr_schedule(sched, 0) == 0.01
                   and nk.lr_schedule(sched, 99_999) == 0.01
                   and abs(nk.lr_schedule(sched, 100_000) - 0.001) < 1e-18)
        report(2, two_step_ok and step_ok,
               "v1=-0.1 w1=-0.1 v2=-0.19 w2=-0.29 exact; 0.01 -> 0.001 at "
               "the 100k boundary")


class TestCriterion3TaxonomyOracle:
    def test_fixture_allocations_fail_closed(self, tmp_path):
        start = time.time()
        fixture = tmp_path / "synsets.txt"
        fixture.write_text("root>animal\nroot>vehicle\nanimal>dog\n"
                           "animal>fish\ndog>poodle\ndog>beagle\n"
                           "vehicle>car\ncar>suv\n")
        graph = taxonomy.parse_synset_file(fixture)
        marked = taxonomy.validate_basic_marks(graph, {"dog", "fish", "car"})
        labelmap = taxonomy.allocate_descendants(marked)
        assigned = {leaf: labelmap.basic_names[bi]
                    for leaf, (_, bi) in labelmap.entries.items()}
        fixture_ok = assigned == {"poodle": "dog", "beagle": "dog",
                                  "suv": "car", "fish": "fish"}

        dag = tmp_path / "dag.txt"
        dag.write_text("root>car\nroot>van\ncar>minivan\nvan>minivan\nroot>x\n")
        g2 = taxonomy.validate_basic_marks(
            taxonomy.parse_synset_file(dag), {"car", "van", "x"})
        lm2 = taxonomy.allocate_descendants(g2)
        minivan_ok = lm2.basic_names[lm2.entries["minivan"][1]] == "car"

        try:
            taxonomy.validate_basic_marks(graph, {"dog", "car"})
            closed_ok = False
        except ValidationError as exc:
            closed_ok = "fish" in str(exc)
        elapsed = time.time() - start
        report(3, fixture_ok and minivan_ok and closed_ok and elapsed < 1.0,
               f"fixture map, first-listed parent, fail-closed coverage in "
               f"{elapsed:.3f}s")


class TestCriterion4HeadReplication:
    def test_sibling_logits_and_argmax_containment(self, animal_marked):
        labelmap = taxonomy.allocate_descendants(animal_marked)
        spec = md.desk_spec(labelmap.n_basic, input_shape=(1, 8, 8))
        ckpt = md.build_model(spec, seed=5)
        rng = np.random.default_rng(17)
        for name in ckpt.params:
            e = ckpt.params[name]
            e.weight[...] = rng.standard_normal(e.weight.shape) * 0.05
        replicated = md.replace_head(ckpt, labelmap.n_sub, "replicate", labelmap)

        batch = rng.random((100, 1, 8, 8))
        basic_logits = md.forward_eval(ckpt, batch)
        sub_logits = md.forward_eval(replicated, batch)
        groups = {}
        for j, leaf in enumerate(labelmap.sub_names):
            groups.setdefault(labelmap.basic_index(leaf), []).append(j)
        spread = max(
            float((sub_logits[:, cols].max(axis=1)
                   - sub_logits[:, cols].min(axis=1)).max())
            for cols in groups.values())
        contained = all(
            labelmap.basic_index(labelmap.sub_names[sub_logits[n].argmax()])
            == basic_logits[n].argmax()
            for n in range(100))
        report(4, spread <= 1e-12 and contained,
               f"sibling spread {spread:.2e} <= 1e-12 on 100 inputs, argmax "
               f"contained on all")


class TestCriterion5ParameterCount:
    def test_closed_forms(self):
        full = md.parameter_count(md.alexnet_spec(308))
        # per-layer closed form, grouped conv2/4/5
        expect_full = (96 * 3 * 121 + 96) + (256 * 48 * 25 + 256) \
            + (384 * 256 * 9 + 384) + (384 * 192 * 9 + 384) \
            + (256 * 192 * 9 + 256) + (4096 * 9216 + 4096) \
            + (4096 * 4096 + 4096) + (308 * 4096 + 308)
        desk = md.parameter_count(md.desk_spec(4))
        expect_desk = (32 * 75 + 32) + (64 * 800 + 64) + (64 * 576 + 64) \
            + (256 * 4096 + 256) + (4 * 256 + 4)
        built = sum(e.weight.size
                    for e in md.build_model(md.desk_spec(4), seed=0).params.values())
        ok = (full == expect_full and 55e6 < full < 60e6
              and desk == expect_desk == built)
        report(5, ok, f"full {full:,} (~57M band), desk {desk:,} exact")


@pytest.fixture(scope="module")
def curriculum_experiment():
    """Seeds 1-5 on the standard synthetic benchmark; shared by 6a/6b/6c."""
    results = {}
    start = time.time()
    for seed in range(1, 6):
        data, bundle = bm.make_bundle(seed)
        fac_ckpt, fac_rep = cu.run_regime(bm.facilitated_regime(seed), bundle)
        ref_ckpt, ref_rep = cu.run_regime(bm.reference_regime(seed), bundle)
        probe = bm.probe_spec(seed)
        random_ckpt = md.build_model(
            bundle.model_spec.with_outputs(bundle.labelmap.n_sub),
            seed=seed * 10 + 4, init="scaled")
        (trained,) = transfer.evaluate_probe([fac_ckpt], data.manifest, bundle.images,
                                             [probe], bundle.labelmap)
        (random,) = transfer.evaluate_probe([random_ckpt], data.manifest,
                                            bundle.images, [probe], bundle.labelmap)
        results[seed] = {
            "basic_top1": fac_rep.final["phase_a.top1"],
            "facilitated_sub_top1": fac_rep.final["phase_b.top1"],
            "reference_sub_top1": ref_rep.final["phase_b.top1"],
            "probe_trained": trained.aggregate["mean"],
            "probe_random": random.aggregate["mean"],
        }
    results["elapsed"] = time.time() - start
    return results


class TestCriterion6SyntheticCurriculum:
    def test_a_basic_accuracy_per_seed(self, curriculum_experiment):
        per_seed = {s: curriculum_experiment[s]["basic_top1"]
                    for s in range(1, 6)}
        report("6a", all(v >= 0.95 for v in per_seed.values()),
               f"phase-A basic top-1 per seed: {per_seed}")

    def test_b_facilitated_median_vs_reference(self, curriculum_experiment):
        fac = [curriculum_experiment[s]["facilitated_sub_top1"]
               for s in range(1, 6)]
        ref = [curriculum_experiment[s]["reference_sub_top1"]
               for s in range(1, 6)]
        fac_med, ref_med = float(np.median(fac)), float(np.median(ref))
        detail = (f"facilitated per seed {fac} (median {fac_med:.4f}) vs "
                  f"reference {ref} (median {ref_med:.4f})")
        if fac_med >= ref_med:
            report("6b", True, detail)
        else:
            # tracked expectation: flag loudly rather than silently passing
            line = f"[acceptance 6b] FLAG (expectation violated) {detail}"
            print(line, flush=True)
            warnings.warn(line)

    def test_c_trained_probe_beats_random_every_seed(self, curriculum_experiment):
        pairs = {s: (curriculum_experiment[s]["probe_trained"],
                     curriculum_experiment[s]["probe_random"])
                 for s in range(1, 6)}
        ok = all(t > r for t, r in pairs.values())
        report("6c", ok, f"probe (trained, random) per seed: "
               + str({s: (round(t, 4), round(r, 4))
                      for s, (t, r) in pairs.items()}))

    def test_runtime_bound(self, curriculum_experiment):
        elapsed = curriculum_experiment["elapsed"]
        report("6-runtime", elapsed < 1800,
               f"5-seed experiment in {elapsed:.0f}s (< 30 min)")


class TestCriterion7Determinism:
    def test_cli_rerun_byte_identical(self, tmp_path):
        config = {
            "output": {"directory": str(tmp_path / "run")},
            "data": {"synthetic": {"n_basic": 2, "subs_per_basic": 2,
                                   "image_size": [1, 8, 8],
                                   "samples_per_sub": 12, "noise_scale": 0.1,
                                   "seed": 5},
                     "split": {"n_train_per_class": 8,
                               "max_test_per_class": 4, "seed": 6}},
            "model": {"name": "benchmark", "input_shape": [1, 8, 8],
                      "init": "scaled"},
            "regime": {"kind": "FacilitatedReplicatedHead",
                       "phase_a": {"iterations": 10, "seed": 7,
                                   "eval_every": 5, "checkpoint_every": 5,
                                   "sgd": {"batch_size": 8}},
                       "phase_b": {"iterations": 10, "seed": 8,
                                   "eval_every": 5, "checkpoint_every": 5,
                                   "lowered_prefix": 2, "lowered_mult": 0.1,
                                   "sgd": {"batch_size": 8}}},
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        grabs = []
        for run in range(2):
            out = tmp_path / "run"
            assert cli.main(["train", "--config", str(config_path)]) == 0
            grabs.append({p.relative_to(out): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
            if run == 0:
                for p in sorted(out.rglob("*"), reverse=True):
                    p.unlink() if p.is_file() else p.rmdir()
        same = grabs[0] == grabs[1]
        n_ckpts = sum(1 for p in grabs[0] if str(p).endswith(".ckpt"))
        report(7, same and n_ckpts >= 4,
               f"{len(grabs[0])} files incl. {n_ckpts} checkpoints byte-"
               f"identical across reruns")


class TestCriterion8DedupOracle:
    def test_duplicate_recovery_and_affine_invariance(self):
        recovered = []
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            images_a = np.stack([rng.random((3, 32, 32)) for _ in range(30)])
            images_b = np.stack([rng.random((3, 32, 32)) for _ in range(30)])
            images_b[11] = images_a[4].copy()
            man_a = dp.DatasetManifest(tuple(
                dp.Sample(f"a{i:03d}", f"a{i:03d}", "leaf") for i in range(30)))
            man_b = dp.DatasetManifest(tuple(
                dp.Sample(f"b{i:03d}", f"b{i:03d}", "leaf") for i in range(30)))
            matches, _ = dp.find_overlaps(man_a, man_b, 0.99,
                                          images_a, images_b)
            recovered.append(matches == [("a004", "b011", 1.0)])

        def score(a, b):
            """find_overlaps' score of the pair; b = a + 0.3 noise keeps it
            reported at threshold 0.5 (an IndexError if not)."""
            matches, _ = dp.find_overlaps(pair_a, pair_b, 0.5, a[None], b[None])
            return matches[0][2]

        pair_a, pair_b = (dp.DatasetManifest((dp.Sample(i, i, "leaf"),))
                          for i in "ab")
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(20):
            a = rng.random((1, 16, 16))
            b = a + 0.3 * rng.random((1, 16, 16))
            alpha = float(rng.uniform(0.1, 10.0))
            beta = float(rng.uniform(-3.0, 3.0))
            worst = max(worst, abs(score(a, b) - score(a, alpha * b + beta)))
        report(8, all(recovered) and worst <= 1e-9,
               f"injected duplicates recovered with no false positives on 3 "
               f"seeds; affine drift {worst:.1e} <= 1e-9")
