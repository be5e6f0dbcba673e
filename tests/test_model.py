import json
import os
import re
import struct
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hiercurric import benchmark as bm
from hiercurric import model as md
from hiercurric import nnkernel as nk
from hiercurric import taxonomy
from hiercurric.errors import NumericFault, ValidationError


def padded(images):
    """``images`` zero-padded to one eval batch of ``md.EVAL_BATCH`` rows."""
    batch = np.zeros((md.EVAL_BATCH,) + images.shape[1:])
    batch[:len(images)] = images
    return batch


def desk_param_count_closed_form(n_outputs):
    # Hand-computed per layer: maps*in_ch*kh*kw + maps, units*in + units.
    conv1 = 32 * 3 * 5 * 5 + 32
    conv2 = 64 * 32 * 5 * 5 + 64
    conv3 = 64 * 64 * 3 * 3 + 64
    fc1 = 256 * (64 * 8 * 8) + 256
    fc2 = n_outputs * 256 + n_outputs
    return conv1 + conv2 + conv3 + fc1 + fc2


def alexnet_param_count_closed_form(n_outputs):
    conv1 = 96 * 3 * 11 * 11 + 96
    conv2 = 256 * 48 * 5 * 5 + 256      # 2 groups: 96/2 input channels
    conv3 = 384 * 256 * 3 * 3 + 384
    conv4 = 384 * 192 * 3 * 3 + 384     # 2 groups
    conv5 = 256 * 192 * 3 * 3 + 256     # 2 groups
    fc6 = 4096 * (256 * 6 * 6) + 4096
    fc7 = 4096 * 4096 + 4096
    fc8 = n_outputs * 4096 + n_outputs
    return conv1 + conv2 + conv3 + conv4 + conv5 + fc6 + fc7 + fc8


class TestSpecs:
    def test_desk_parameter_count(self):
        spec = md.desk_spec(4)
        assert md.parameter_count(spec) == desk_param_count_closed_form(4)

    def test_alexnet_parameter_count_near_57m(self):
        spec = md.alexnet_spec(308)
        count = md.parameter_count(spec)
        assert count == alexnet_param_count_closed_form(308)
        assert 55_000_000 < count < 60_000_000

    def test_shape_chain_failure_names_layer(self):
        spec = md.ModelSpec((3, 4, 4), (
            md.Conv("conv1", 8, 3, 3),
            md.MaxPool("pool1", 4, 2),  # 2x2 after conv, window 4 cannot fit
            md.Fc("out", 2),
        ))
        with pytest.raises(ValidationError, match="pool1"):
            spec.shape_chain()

    def test_last_layer_must_be_fc(self):
        spec = md.ModelSpec((3, 4, 4), (md.Conv("conv1", 8, 3, 3),))
        with pytest.raises(ValidationError, match="fc"):
            spec.shape_chain()

    def test_duplicate_names_rejected(self):
        spec = md.ModelSpec((3, 4, 4), (md.Relu("a"), md.Relu("a"), md.Fc("out", 2)))
        with pytest.raises(ValidationError, match="unique"):
            spec.shape_chain()

    def test_spec_dict_round_trip(self):
        spec = md.alexnet_spec(308)
        assert md.ModelSpec.from_dict(spec.to_dict()) == spec


class TestBuild:
    def test_same_seed_bit_identical(self):
        a = md.build_model(md.desk_spec(4), seed=9)
        b = md.build_model(md.desk_spec(4), seed=9)
        assert md.checkpoint_to_bytes(a) == md.checkpoint_to_bytes(b)

    def test_built_param_count_matches_closed_form(self):
        ckpt = md.build_model(md.desk_spec(7), seed=1)
        assert (sum(e.weight.size for e in ckpt.params.values())
                == desk_param_count_closed_form(7))

    def test_biases_zero_weights_gaussian(self):
        ckpt = md.build_model(md.desk_spec(4), seed=3)
        assert not ckpt.params["conv1.bias"].weight.any()
        w = ckpt.params["fc1.weight"].weight
        assert abs(w.std() - nk.INIT_STD) / nk.INIT_STD < 0.05

    def test_float32_storage_round_trips(self, tmp_path):
        ckpt = md.build_model(md.desk_spec(3, input_shape=(1, 8, 8)), seed=2,
                              dtype=np.float32)
        assert ckpt.params["conv1.weight"].weight.dtype == np.float32
        path = tmp_path / "f32.ckpt"
        md.save_checkpoint(ckpt, path)
        loaded = md.load_checkpoint(path)
        assert loaded.params["conv1.weight"].weight.dtype == np.float32
        assert md.checkpoint_to_bytes(loaded) == path.read_bytes()
        logits = md.forward_eval(loaded, np.zeros((2, 1, 8, 8)))
        assert logits.shape == (2, 3)


@pytest.fixture
def tiny_labelmap(animal_marked):
    return taxonomy.allocate_descendants(animal_marked)


@pytest.fixture
def small_ckpt(tiny_labelmap):
    spec = md.desk_spec(tiny_labelmap.n_basic, input_shape=(1, 8, 8))
    ckpt = md.build_model(spec, seed=5)
    rng = np.random.default_rng(17)
    for name in ckpt.params:
        e = ckpt.params[name]
        e.weight[...] = rng.standard_normal(e.weight.shape) * 0.05
        e.momentum[...] = rng.standard_normal(e.weight.shape) * 0.01
    return ckpt


class TestReplaceHead:
    def test_replicated_rows_bitwise(self, small_ckpt, tiny_labelmap):
        new = md.replace_head(small_ckpt, tiny_labelmap.n_sub, "replicate",
                              tiny_labelmap)
        old_w = small_ckpt.params["fc2.weight"].weight
        old_b = small_ckpt.params["fc2.bias"].weight
        for j, leaf in enumerate(tiny_labelmap.sub_names):
            bi = tiny_labelmap.basic_index(leaf)
            np.testing.assert_array_equal(new.params["fc2.weight"].weight[j], old_w[bi])
            assert new.params["fc2.bias"].weight[j] == old_b[bi]

    def test_sibling_logits_equal(self, small_ckpt, tiny_labelmap):
        new = md.replace_head(small_ckpt, tiny_labelmap.n_sub, "replicate",
                              tiny_labelmap)
        rng = np.random.default_rng(23)
        batch = rng.random((8, 1, 8, 8))
        logits = md.forward_eval(new, batch)
        groups = {}
        for j, leaf in enumerate(tiny_labelmap.sub_names):
            groups.setdefault(tiny_labelmap.basic_index(leaf), []).append(j)
        for cols in groups.values():
            spread = logits[:, cols].max(axis=1) - logits[:, cols].min(axis=1)
            assert spread.max() <= 1e-12

    def test_argmax_stays_in_basic_group(self, small_ckpt, tiny_labelmap):
        new = md.replace_head(small_ckpt, tiny_labelmap.n_sub, "replicate",
                              tiny_labelmap)
        rng = np.random.default_rng(29)
        batch = rng.random((100, 1, 8, 8))
        basic_argmax = md.forward_eval(small_ckpt, batch).argmax(axis=1)
        sub_argmax = md.forward_eval(new, batch).argmax(axis=1)
        for n in range(100):
            leaf = tiny_labelmap.sub_names[sub_argmax[n]]
            assert tiny_labelmap.basic_index(leaf) == basic_argmax[n]

    def test_body_untouched_bitwise(self, small_ckpt, tiny_labelmap):
        new = md.replace_head(small_ckpt, tiny_labelmap.n_sub, "replicate",
                              tiny_labelmap)
        for name in small_ckpt.params:
            if name.startswith("fc2."):
                continue
            np.testing.assert_array_equal(
                new.params[name].weight, small_ckpt.params[name].weight)
            np.testing.assert_array_equal(
                new.params[name].momentum, small_ckpt.params[name].momentum)
        assert md.body_hash(new) == md.body_hash(small_ckpt)

    def test_new_head_momentum_zeroed(self, small_ckpt, tiny_labelmap):
        new = md.replace_head(small_ckpt, tiny_labelmap.n_sub, "replicate",
                              tiny_labelmap)
        assert not new.params["fc2.weight"].momentum.any()
        assert not new.params["fc2.bias"].momentum.any()

    def test_phase_tag_advances(self, small_ckpt, tiny_labelmap):
        new = md.replace_head(small_ckpt, tiny_labelmap.n_sub, "replicate",
                              tiny_labelmap)
        assert new.phase_tag == "subordinate"

    def test_random_mode_reproducible(self, small_ckpt):
        a = md.replace_head(small_ckpt, 10, "random", seed=77)
        b = md.replace_head(small_ckpt, 10, "random", seed=77)
        assert md.checkpoint_to_bytes(a) == md.checkpoint_to_bytes(b)
        assert a.params["fc2.weight"].weight.shape == (10, 256)

    def test_replicate_width_mismatch(self, small_ckpt, tiny_labelmap):
        with pytest.raises(ValidationError, match="width"):
            md.replace_head(small_ckpt, 99, "replicate", tiny_labelmap)

    def test_replicate_wrong_head_width(self, tiny_labelmap):
        ckpt = md.build_model(md.desk_spec(7, input_shape=(1, 8, 8)), seed=0)
        with pytest.raises(ValidationError, match="head width"):
            md.replace_head(ckpt, tiny_labelmap.n_sub, "replicate", tiny_labelmap)


class TestForwardEval:
    def test_zero_weight_model_gives_bias_logits(self):
        ckpt = md.build_model(md.desk_spec(3, input_shape=(1, 8, 8)), seed=0)
        for name in ckpt.params:
            ckpt.params[name].weight[...] = 0.0
        ckpt.params["fc2.bias"].weight[...] = [1.0, 2.0, 3.0]
        logits = md.forward_eval(ckpt, np.random.default_rng(0).random((4, 1, 8, 8)))
        np.testing.assert_array_equal(logits, np.tile([1.0, 2.0, 3.0], (4, 1)))

    def test_same_batch_bit_identical(self):
        ckpt = md.build_model(md.desk_spec(4, input_shape=(1, 8, 8)), seed=1)
        batch = np.random.default_rng(2).random((3, 1, 8, 8))
        np.testing.assert_array_equal(
            md.forward_eval(ckpt, batch), md.forward_eval(ckpt, batch))

    def test_train_equals_eval_when_dropout_zero(self):
        spec = md.ModelSpec((1, 6, 6), (
            md.Conv("conv1", 4, 3, 3, pad=1),
            md.Relu("relu1"),
            md.Dropout("drop1", 0.0),
            md.Fc("out", 3),
        ))
        ckpt = md.build_model(spec, seed=4)
        batch = np.random.default_rng(5).random((2, 1, 6, 6))
        train_logits, _ = md.forward(spec, ckpt.params, padded(batch), "train",
                                     np.random.default_rng(0))
        np.testing.assert_array_equal(train_logits[:2], md.forward_eval(ckpt, batch))

    @pytest.mark.parametrize("layer, order", [
        ("relu1", ["conv1", "relu1"]),
        ("pool1", ["conv1", "pool1", "relu1"]),
    ])
    def test_a_slice_that_ends_at_a_relu_keeps_the_spec_order(
            self, layer, order, monkeypatch):
        """pool1 runs before relu1 only when the slice holds it, and either
        slice gives the spec order's bytes."""
        ckpt = md.build_model(md.desk_spec(4), seed=2, init="scaled")
        images = np.random.default_rng(3).standard_normal((md.EVAL_BATCH, 3, 32, 32))
        ran = []
        for cls in (md.Conv, md.Relu, md.MaxPool):
            def spy(step, params, x, mode, rng, forward=cls.forward):
                ran.append(step.name)
                return forward(step, params, x, mode, rng)
            monkeypatch.setattr(cls, "forward", spy)
        got = md.forward_eval(ckpt, images, layer)
        conv = nk.conv2d_forward(images, ckpt.params["conv1.weight"].weight,
                                 ckpt.params["conv1.bias"].weight, 1, 2)[0]
        want = nk.relu_forward(conv)[0]
        if layer == "pool1":
            want = nk.maxpool_forward(want, 2, 2)[0]
        assert ran == order
        assert got.tobytes() == want.tobytes()

    def test_batch_shape_checked(self):
        ckpt = md.build_model(md.desk_spec(4), seed=1)
        with pytest.raises(ValidationError, match="shape"):
            md.forward_eval(ckpt, np.zeros((2, 3, 16, 16)))

    def test_backward_fault_names_layer_and_direction(self, small_ckpt):
        x = np.zeros((2,) + small_ckpt.spec.input_shape)
        logits, caches = md.forward(small_ckpt.spec, small_ckpt.params, x)
        with pytest.raises(NumericFault, match=r"layer 'fc2' backward: non-finite"):
            md.backward(small_ckpt.params, caches, np.full(logits.shape, np.nan))

    @pytest.mark.parametrize("conv", ["conv1", "conv2"])
    def test_conv_input_nan_faults_naming_the_layer(self, small_ckpt, conv):
        """conv2's kernel gradient runs on the worker thread, the first
        layer's on the caller; either way the fault names the layer."""
        x = np.random.default_rng(3).random((2,) + small_ckpt.spec.input_shape)
        logits, caches = md.forward(small_ckpt.spec, small_ckpt.params, x)
        cache = next(c for layer, c in caches if layer.name == conv)
        cache.xp[1, 0, 3, 3] = np.nan
        assert nk.checked_enabled()
        with pytest.raises(NumericFault,
                           match=rf"layer '{conv}' backward: non-finite"):
            md.backward(small_ckpt.params, caches, np.ones(logits.shape))

    @pytest.mark.parametrize("stop", [l.name for l in md.desk_spec(5).layers])
    def test_layer_output_equals_a_hand_chain(self, stop):
        ckpt = md.build_model(md.desk_spec(5), seed=6, init="scaled")
        x = np.random.default_rng(7).standard_normal((3, 3, 32, 32))
        act = x
        for layer in ckpt.spec.layers:
            act, _ = layer.forward(ckpt.params, act, "eval", None)
            if layer.name == stop:
                break
        got = md.forward_eval(ckpt, x, stop)
        assert got.shape == act.shape
        assert got.tobytes() == act.tobytes()

    def test_default_is_forward_logits(self):
        ckpt = md.build_model(md.desk_spec(5), seed=6, init="scaled")
        x = np.random.default_rng(8).standard_normal((3, 3, 32, 32))
        logits, _ = md.forward(ckpt.spec, ckpt.params, padded(x), "eval")
        assert md.forward_eval(ckpt, x).tobytes() == logits[:3].tobytes()

    @pytest.mark.parametrize("make_spec", [bm.model_spec, md.desk_spec])
    def test_image_outputs_do_not_depend_on_the_set(self, make_spec):
        """Every set size from 1 to 69, and a row selection, give each image
        the logits and head-input bytes it has in the whole set. Run at its
        own row count, a batch of 1-18 images rounded differently on the
        benchmark spec."""
        ckpt = md.build_model(make_spec(12), seed=6, init="scaled")
        images = np.random.default_rng(11).random((69,) + ckpt.spec.input_shape)
        rows = np.random.default_rng(12).permutation(69)[:23]
        for layer in (None, ckpt.spec.layers[-2].name):
            whole = md.forward_eval(ckpt, images, layer)
            for n in range(1, 70):
                got = md.forward_eval(ckpt, images[:n], layer)
                assert got.tobytes() == whole[:n].tobytes(), n
            got = md.forward_eval(ckpt, images, layer, rows)
            assert got.tobytes() == whole[rows].tobytes()

    def test_rows_equal_the_gathered_images(self, small_ckpt):
        images = np.random.default_rng(13).random((40,) + small_ckpt.spec.input_shape)
        for rows in ([5], [39, 0, 7, 7, 12], np.arange(38, -1, -1)):
            got = md.forward_eval(small_ckpt, images, rows=rows)
            assert got.tobytes() == md.forward_eval(small_ckpt, images[rows]).tobytes()

    def test_empty_selection_rejected(self, small_ckpt):
        images = np.zeros((3,) + small_ckpt.spec.input_shape)
        for args in ((images[:0],), (images, None, [])):
            with pytest.raises(ValidationError, match="no images"):
                md.forward_eval(small_ckpt, *args)

    def test_unknown_layer_rejected(self, small_ckpt):
        x = np.zeros((2,) + small_ckpt.spec.input_shape)
        with pytest.raises(ValidationError, match="no layer named 'nope'"):
            md.forward_eval(small_ckpt, x, "nope")

    def test_forward_fault_names_layer(self):
        ckpt = md.build_model(md.desk_spec(4, input_shape=(3, 8, 8)), seed=1)
        ckpt.params["conv2.weight"].weight[0, 0, 0, 0] = np.nan
        with pytest.raises(NumericFault, match=r"layer 'conv2' forward: non-finite"):
            md.forward_eval(ckpt, np.ones((2, 3, 8, 8)), "relu3")

    def test_holds_no_caches(self):
        """Peak traced memory over one desk batch of 64 stays below the
        training forward's, which keeps every layer's cache until it returns."""
        ckpt = md.build_model(md.desk_spec(5), seed=6, init="scaled")
        x = np.random.default_rng(9).standard_normal((64, 3, 32, 32))

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        eval_peak = peak(lambda: md.forward_eval(ckpt, x))
        train_peak = peak(lambda: md.forward(ckpt.spec, ckpt.params, x, "eval"))
        assert eval_peak < train_peak


class TestParamCopy:
    def test_copy_after_steps_copies_weight_and_momentum(self):
        ckpt = md.build_model(md.desk_spec(4, input_shape=(3, 8, 8)), seed=2,
                              init="scaled")
        cfg = nk.SgdConfig(base_lr=0.1, momentum=0.9, weight_decay=0.0,
                           lr_gamma=1.0, lr_step=10, batch_size=2)
        rng = np.random.default_rng(3)
        x = rng.random((2, 3, 8, 8))
        for it in range(2):
            logits, caches = md.forward(ckpt.spec, ckpt.params, x, "train", rng)
            _, dlogits = nk.softmax_xent(logits, np.array([0, 3]))
            nk.sgd_step(ckpt.params, md.backward(ckpt.params, caches, dlogits),
                        cfg, it)
        out = ckpt.copy()
        for name in ckpt.params:
            src, dst = ckpt.params[name], out.params[name]
            assert src.momentum.any(), name
            assert dst.weight.tobytes() == src.weight.tobytes(), name
            assert dst.momentum.tobytes() == src.momentum.tobytes(), name
            assert dst.weight is not src.weight and dst.momentum is not src.momentum


class TestBackward:
    def test_grads_equal_a_hand_chain_with_full_first_layer(self):
        ckpt = md.build_model(md.desk_spec(5), seed=3, init="scaled")
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 3, 32, 32))
        labels = np.array([0, 1, 2, 4])
        logits, caches = md.forward(ckpt.spec, ckpt.params, x, "train",
                                    np.random.default_rng(5))
        _, dlogits = nk.softmax_xent(logits, labels)
        kept = list(caches)  # backward consumes caches
        got = md.backward(ckpt.params, caches, dlogits)

        grad, want = dlogits, {}
        for layer, cache in reversed(kept):  # every layer's dx computed
            grad, layer_grads = layer.backward(grad, cache, need_dx=True)
            want.update(layer_grads() if callable(layer_grads) else layer_grads)
        assert grad.shape == x.shape
        assert sorted(got) == sorted(want) == sorted(ckpt.params)
        for name in ckpt.params:
            assert got[name].tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("make_spec", [bm.model_spec, md.desk_spec],
                             ids=["benchmark", "desk"])
    def test_pool_first_keeps_the_spec_order_bytes(self, make_spec):
        """Each pool runs before the relu it follows, and the logits and
        every gradient equal a spec-order step's bytes, with dead windows,
        windows whose max is an exact 0 and signed zeros in the upstream
        gradient, though the gradients reaching the convs differ in the
        sign of some zeros."""
        spec = make_spec(6)
        ckpt = md.build_model(spec, seed=8, init="scaled")
        for name in spec.conv_names():
            bias = ckpt.params[f"{name}.bias"].weight
            bias[::3], bias[1::3] = -0.5, -0.0  # dead and zero-bias maps
        rng = np.random.default_rng(9)
        x = rng.standard_normal((8,) + spec.input_shape)
        x[:, :, :8, :8] = 0.0  # windows whose max is exactly 0
        runs = {}
        for order in ("executed", "spec"):
            step_rng = np.random.default_rng(10)
            if order == "executed":
                logits, caches = md.forward(spec, ckpt.params, x, "train", step_rng)
            else:
                act, caches = x, []
                for layer in spec.layers:
                    act, cache = layer.forward(ckpt.params, act, "train", step_rng)
                    caches.append((layer, cache))
                logits = act
            _, dlogits = nk.softmax_xent(logits, np.arange(8) % 6)
            dlogits[0], dlogits[1], dlogits[2, ::2] = 0.0, -0.0, -0.0
            grad, at_conv = dlogits, {}
            for layer, cache in reversed(list(caches)):
                if layer.kind == "conv":
                    at_conv[layer.name] = grad
                grad = layer.backward(grad, cache, True)[0]
            runs[order] = (logits, md.backward(ckpt.params, caches, dlogits),
                           at_conv)
        (logits, grads, at_conv), (ref_logits, ref_grads, ref_at_conv) = (
            runs["executed"], runs["spec"])
        assert logits.tobytes() == ref_logits.tobytes()
        assert sorted(grads) == sorted(ref_grads) == sorted(ckpt.params)
        for name in ckpt.params:
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name
        assert all(np.array_equal(at_conv[n], ref_at_conv[n]) for n in at_conv)
        assert any(np.signbit(ref_at_conv[n]).sum() > np.signbit(at_conv[n]).sum()
                   for n in at_conv)

    def test_each_cache_is_freed_before_the_layer_below_runs(self, monkeypatch):
        """backward consumes the caches: layer i's cache is dead when layer
        i-1's backward starts, and each entry is left as (layer, None)."""
        ckpt = md.build_model(md.desk_spec(5), seed=3, init="scaled")
        x = np.random.default_rng(4).standard_normal((4, 3, 32, 32))
        logits, caches = md.forward(ckpt.spec, ckpt.params, x, "train",
                                    np.random.default_rng(5))
        _, dlogits = nk.softmax_xent(logits, np.array([0, 1, 2, 4]))
        layers = [layer for layer, _ in caches]
        refs = [weakref.ref(cache) for _, cache in caches]
        alive_above = {}

        for cls in {type(layer) for layer in layers}:
            def spy(layer, grad, cache, need_dx, backward=cls.backward):
                i = layers.index(layer)
                alive_above[layer.name] = [r() is not None for r in refs[i + 1:]]
                return backward(layer, grad, cache, need_dx)
            monkeypatch.setattr(cls, "backward", spy)

        md.backward(ckpt.params, caches, dlogits)
        assert list(alive_above) == [layer.name for layer in reversed(layers)]
        for name, alive in alive_above.items():
            assert not any(alive), f"caches above {name} alive: {alive}"
        assert caches == [(layer, None) for layer in layers]
        assert all(r() is None for r in refs)

    def _desk_step_inputs(self):
        """A desk model at batch 4 after one training forward: (params,
        caches, dlogits)."""
        ckpt = md.build_model(md.desk_spec(5), seed=3, init="scaled")
        x = np.random.default_rng(4).standard_normal((4, 3, 32, 32))
        logits, caches = md.forward(ckpt.spec, ckpt.params, x, "train",
                                    np.random.default_rng(5))
        _, dlogits = nk.softmax_xent(logits, np.array([0, 1, 2, 4]))
        return ckpt.params, caches, dlogits

    def test_no_fc_weight_gradient_is_alive_during_a_conv_backward(
            self, monkeypatch):
        """An fc layer's weight and bias gradients are made after the last
        layer's backward, so none is alive while a conv's backward runs."""
        params, caches, dlogits = self._desk_step_inputs()
        real_fc, made, seen = nk.fc_backward, [], {}

        def fc_spy(*args, **kwargs):
            dx, dw, db = real_fc(*args, **kwargs)
            made.extend(weakref.ref(g) for g in (dw, db) if g.size)
            return dx, dw, db

        def conv_spy(layer, grad, cache, need_dx, backward=md.Conv.backward):
            seen[layer.name] = sum(r() is not None for r in made)
            return backward(layer, grad, cache, need_dx)

        monkeypatch.setattr(nk, "fc_backward", fc_spy)
        monkeypatch.setattr(md.Conv, "backward", conv_spy)
        grads = md.backward(params, caches, dlogits)
        assert seen == {"conv3": 0, "conv2": 0, "conv1": 0}
        assert len(made) == 4  # fc1's and fc2's, made at the tail
        for name in ("fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"):
            assert grads[name].shape == params[name].weight.shape, name

    def test_a_fault_in_a_deferred_fc_gradient_names_the_layer(
            self, monkeypatch):
        """A NaN that reaches only fc1's weight gradient faults after the
        first layer's backward, naming fc1's backward."""
        params, caches, dlogits = self._desk_step_inputs()
        fc1 = next(c for layer, c in caches if layer.name == "fc1")
        fc1.x_flat[1, 7] = np.nan  # read by fc1's dw, not by its dx
        del fc1
        ran = []
        for cls in (md.Conv, md.Relu, md.MaxPool):
            def spy(layer, grad, cache, need_dx, backward=cls.backward):
                ran.append(layer.name)
                return backward(layer, grad, cache, need_dx)
            monkeypatch.setattr(cls, "backward", spy)
        with pytest.raises(NumericFault, match="layer 'fc1' backward"):
            md.backward(params, caches, dlogits)
        assert ran[-1:] == ["conv1"]

    def test_a_first_fc_layer_skips_its_input_gradient(self, monkeypatch):
        """As a first conv does, a first fc layer is not asked for the
        network input's gradient, and its kernel call returns it empty."""
        spec = md.ModelSpec((2, 5, 5), (md.Fc("fc0", 6), md.Relu("relu0"),
                                        md.Fc("out", 3)))
        ckpt = md.build_model(spec, seed=6, init="scaled")
        x = np.random.default_rng(7).standard_normal((6, 2, 5, 5))
        logits, caches = md.forward(spec, ckpt.params, x, "train")
        _, dlogits = nk.softmax_xent(logits, np.arange(6) % 3)
        real_fc, dx_shapes = nk.fc_backward, []

        def fc_spy(*args, **kwargs):
            result = real_fc(*args, **kwargs)
            dx_shapes.append(result[0].shape)
            return result

        monkeypatch.setattr(nk, "fc_backward", fc_spy)
        md.backward(ckpt.params, caches, dlogits)
        # out's and fc0's turns, then their deferred parameter gradients
        assert dx_shapes == [(6, 6), (0, 2, 5, 5), (0, 6), (0, 2, 5, 5)]

    def test_desk_step_traced_peak(self):
        """One desk training step at batch 32 holds no layer's cache past
        its backward, relu keeps a bool mask, fc weight gradients wait for
        the conv layers and a training forward's two chains share one
        im2col budget: the traced peak is at most 36 MiB (about 42 MiB
        with fc1's weight gradient alive through the conv backwards and a
        budget per chain, about 60 MiB with every cache held to the end
        and relu keeping its float input)."""
        ckpt = md.build_model(md.desk_spec(12), seed=1, init="scaled")
        cfg = nk.SgdConfig(base_lr=0.005, momentum=0.9, weight_decay=0.0005,
                           lr_gamma=1.0, lr_step=100, batch_size=32)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((32, 3, 32, 32))
        labels = rng.integers(0, 12, 32)

        tracemalloc.start()
        try:
            logits, caches = md.forward(ckpt.spec, ckpt.params, x, "train", rng)
            _, dlogits = nk.softmax_xent(logits, labels)
            nk.sgd_step(ckpt.params, md.backward(ckpt.params, caches, dlogits),
                        cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 36 * 2**20, f"{peak / 2**20:.1f} MiB"

    def test_desk_step_traced_peak_with_pool_before_relu(self):
        """relu runs after the pool it precedes in the spec, so its output
        and mask are pool-sized, and pool_backward hands each conv a
        channel-major gradient that conv2d_backward reshapes without a
        copy: one desk step at batch 32 peaks at most 30 MiB in tracemalloc
        (33.3 MiB with relu on full-size conv outputs and an NCHW
        gradient)."""
        ckpt = md.build_model(md.desk_spec(12), seed=1, init="scaled")
        cfg = nk.SgdConfig(base_lr=0.005, momentum=0.9, weight_decay=0.0005,
                           lr_gamma=1.0, lr_step=100, batch_size=32)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((32, 3, 32, 32))
        labels = rng.integers(0, 12, 32)

        tracemalloc.start()
        try:
            logits, caches = md.forward(ckpt.spec, ckpt.params, x, "train", rng)
            _, dlogits = nk.softmax_xent(logits, labels)
            nk.sgd_step(ckpt.params, md.backward(ckpt.params, caches, dlogits),
                        cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30 * 2**20, f"{peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("first", [md.Relu("relu0"), md.Fc("fc0", 6)],
                             ids=["relu", "fc"])
    def test_spec_without_a_first_conv_trains(self, first):
        spec = md.ModelSpec((2, 5, 5), (
            first,
            md.Fc("fc1", 8),
            md.Relu("relu1"),
            md.Fc("out", 3),
        ))
        ckpt = md.build_model(spec, seed=6, init="scaled")
        before = {n: ckpt.params[n].weight.copy() for n in ckpt.params}
        cfg = nk.SgdConfig(base_lr=0.1, momentum=0.9, weight_decay=0.0,
                           lr_gamma=1.0, lr_step=10, batch_size=6)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 2, 5, 5))
        labels = np.arange(6) % 3
        losses = []
        for it in range(20):
            logits, caches = md.forward(spec, ckpt.params, x, "train", rng)
            loss, dlogits = nk.softmax_xent(logits, labels)
            nk.sgd_step(ckpt.params, md.backward(ckpt.params, caches, dlogits),
                        cfg, it)
            losses.append(loss)
        assert losses[-1] < losses[0]
        for name in ckpt.params:
            assert not np.array_equal(ckpt.params[name].weight, before[name]), name


def rewrite_manifest(buf: bytes, edit) -> bytes:
    """Checkpoint bytes with ``edit`` applied to the decoded manifest (in
    place), the header's manifest length and the CRC32 trailer updated;
    tensors unchanged."""
    (length,) = struct.unpack_from("<Q", buf, 8)
    manifest = json.loads(buf[16:16 + length])
    edit(manifest)
    return replace_manifest(buf, json.dumps(manifest, sort_keys=True).encode())


def replace_manifest(buf: bytes, payload: bytes) -> bytes:
    """Checkpoint bytes with ``payload`` as the manifest, the header's
    manifest length and the CRC32 trailer updated; tensors unchanged."""
    (length,) = struct.unpack_from("<Q", buf, 8)
    body = buf[:8] + struct.pack("<Q", len(payload)) + payload + buf[16 + length:-4]
    return body + struct.pack("<I", zlib.crc32(body))


def _manifest_paths(node, prefix=()):
    """Every key path below the manifest's root, containers included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _manifest_paths(child, prefix + (key,))


def _at(manifest, path):
    for key in path:
        manifest = manifest[key]
    return manifest


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.just(2 ** 64)
    | st.floats() | st.text(max_size=8)
    | st.sampled_from(["conv1.weight", "conv1.bias", "relu1", "conv", "fc",
                       "maxpool", "basic", "transfer", "bogus.weight"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "name", "maps", "units", "x"]),
                      inner, max_size=3),
    max_leaves=6)

EDIT_SPEC = md.ModelSpec((1, 4, 4), (
    md.Conv("conv1", 2, 2, 2, pad=1), md.Relu("relu1"), md.MaxPool("pool1", 2, 2),
    md.Dropout("drop1", 0.5), md.Fc("fc1", 3), md.Relu("relu2"), md.Fc("out", 2)))


class TestCheckpointManifestChecks:
    def _buf(self):
        ckpt = md.build_model(EDIT_SPEC, seed=1)
        for name in ("conv1.weight", "conv1.bias"):
            ckpt.params[name].lr_mult = 0.5
        return md.checkpoint_to_bytes(ckpt)

    @staticmethod
    def _loads_consistently_or_fails_cleanly(buf):
        """``buf`` raises ValidationError, or loads with its spec's shapes and
        then runs an eval forward that can raise only ValidationError."""
        try:
            ckpt = md.checkpoint_from_bytes(buf)
        except ValidationError:
            return
        shapes = ckpt.spec.param_shapes()
        assert len(ckpt.params) == 2 * len(shapes)
        for layer, shape in shapes.items():
            for name, want in ((f"{layer}.weight", shape), (f"{layer}.bias", shape[:1])):
                assert ckpt.params[name].weight.shape == want
                assert ckpt.params[name].momentum.shape == want
        try:
            md.forward_eval(ckpt, np.zeros((2,) + ckpt.spec.input_shape))
        except ValidationError:
            pass

    def test_unedited_rewrite_loads(self):
        buf = self._buf()
        assert md.checkpoint_to_bytes(md.checkpoint_from_bytes(
            rewrite_manifest(buf, lambda m: None))) == buf

    @pytest.mark.parametrize("edit,match", [
        (lambda m: m["entries"][0].update(name="bogus.weight"), "entries"),
        (lambda m: m["entries"].insert(0, m["entries"].pop(1)), "entries"),
        (lambda m: m["entries"].pop(), "entries"),
        (lambda m: m["spec"]["layers"][0].update(maps=3), "shape"),
        (lambda m: m["spec"]["layers"][4].update(units=4), "shape"),
        (lambda m: m["spec"]["layers"][4].update(units=0),
         "layer 'fc1': units 0 must be >= 1"),
        (lambda m: m["spec"]["layers"][3].update(rate=5),
         r"layer 'drop1': rate 5 must be in \[0, 1\)"),
        (lambda m: m["spec"].update(input_shape=[2, 4, 4]), "shape"),
        (lambda m: m["entries"][0].update(lr_mult="x"), r"lr_mult: must be float in \[0, 1\]"),
        (lambda m: m["entries"][0].update(lr_mult=1.5), "lr_mult"),
        (lambda m: m.update(iteration="abc"), "iteration: must be int >= 0"),
        (lambda m: m.update(iteration=-1), "iteration"),
        (lambda m: m.update(phase_tag="nope"), "phase_tag: must be one of"),
        (lambda m: m.update(rng_state=None), "unknown key 'rng_state'"),
        (lambda m: m.pop("iteration"), "missing key 'iteration'"),
        (lambda m: m.update(extra=1), "unknown key 'extra'"),
        (lambda m: m["spec"].pop("layers"), "missing key 'layers'"),
    ], ids=["renamed", "swapped", "dropped", "maps", "units", "zero-units",
            "dropout-rate", "channels",
            "lr_mult-str", "lr_mult-range", "iteration-str", "iteration-neg",
            "phase_tag", "rng_state-unknown", "no-iteration", "unknown-key",
            "no-layers"])
    def test_mismatch_rejected(self, edit, match):
        with pytest.raises(ValidationError, match=match):
            md.checkpoint_from_bytes(rewrite_manifest(self._buf(), edit))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_single_field_edits_load_consistently_or_fail_cleanly(self, data):
        buf = self._buf()
        manifest = json.loads(buf[16:16 + struct.unpack_from("<Q", buf, 8)[0]])
        path = data.draw(st.sampled_from(list(_manifest_paths(manifest))))
        how = data.draw(st.sampled_from(["replace", "delete", "swap"]))
        value = data.draw(JSON_VALUES)

        def edit(m):
            parent, key = _at(m, path[:-1]), path[-1]
            if how == "replace":
                parent[key] = value
            elif how == "delete":
                del parent[key]
            elif isinstance(parent, list) and len(parent) > 1:
                other = (key + 1) % len(parent)
                parent[key], parent[other] = parent[other], parent[key]

        self._loads_consistently_or_fails_cleanly(rewrite_manifest(buf, edit))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_header_and_manifest_bit_flips_fail_cleanly(self, data):
        buf = bytearray(self._buf())
        end = 16 + struct.unpack_from("<Q", buf, 8)[0]
        at = data.draw(st.integers(0, end - 1))
        buf[at] ^= 1 << data.draw(st.integers(0, 7))
        self._loads_consistently_or_fails_cleanly(bytes(buf))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_bit_flip_rejected(self, data):
        """Header, manifest, tensors or CRC32 trailer: no flip loads."""
        buf = bytearray(self._buf())
        at = data.draw(st.integers(0, len(buf) - 1))
        buf[at] ^= 1 << data.draw(st.integers(0, 7))
        with pytest.raises(ValidationError):
            md.checkpoint_from_bytes(bytes(buf))

    def test_manifest_holds_only_its_four_keys(self):
        buf = self._buf()
        assert struct.unpack_from("<I", buf, 4) == (3,)
        manifest = json.loads(buf[16:16 + struct.unpack_from("<Q", buf, 8)[0]])
        assert sorted(manifest) == ["entries", "iteration", "phase_tag", "spec"]


class TestCheckpointIO:
    def test_manifest_read_needs_only_header_and_manifest(self, small_ckpt,
                                                          tmp_path):
        """load_checkpoint_manifest reads a file cut right after its manifest;
        a file cut inside its header or manifest, or whose manifest length
        runs past its end, gets the full load's error."""
        small_ckpt.iteration = 77
        buf = md.checkpoint_to_bytes(small_ckpt)
        end = 16 + struct.unpack_from("<Q", buf, 8)[0]
        path = tmp_path / "model.ckpt"
        path.write_bytes(buf[:end])
        assert md.load_checkpoint_manifest(path) == (small_ckpt.spec, 77)
        for cut in (b"", buf[:3], buf[:10], buf[:end - 1],
                    buf[:8] + struct.pack("<Q", 1 << 62) + buf[16:]):
            path.write_bytes(cut)
            with pytest.raises(ValidationError) as got:
                md.load_checkpoint_manifest(path)
            with pytest.raises(ValidationError, match=re.escape(str(got.value))):
                md.checkpoint_from_bytes(cut)

    def test_round_trip_byte_identical(self, small_ckpt, tmp_path):
        small_ckpt.iteration = 123
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(small_ckpt, path)
        first = path.read_bytes()
        loaded = md.load_checkpoint(path)
        assert md.checkpoint_to_bytes(loaded) == first
        assert loaded.iteration == 123
        assert loaded.phase_tag == small_ckpt.phase_tag

    def test_file_holds_each_weight_once_and_no_momentum(self, small_ckpt):
        """Header, manifest, one tensor per entry and the CRC32 trailer;
        a loaded entry's momentum is zero, whatever the saved one held."""
        buf = md.checkpoint_to_bytes(small_ckpt)
        (length,) = struct.unpack_from("<Q", buf, 8)
        weights = sum(len(nk.tensor_to_bytes(e.weight))
                      for e in small_ckpt.params.values())
        assert len(buf) == 16 + length + weights + 4
        loaded = md.checkpoint_from_bytes(buf)
        for name, e in loaded.params.items():
            assert small_ckpt.params[name].momentum.any(), name
            assert e.weight.tobytes() == small_ckpt.params[name].weight.tobytes()
            assert e.momentum.shape == e.weight.shape
            assert not e.momentum.any(), name

    def test_lr_mults_survive_round_trip(self, small_ckpt, tmp_path):
        ckpt = small_ckpt
        for name in ("conv1.weight", "conv1.bias", "conv2.weight", "conv2.bias"):
            ckpt.params[name].lr_mult = 0.1
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(ckpt, path)
        loaded = md.load_checkpoint(path)
        assert loaded.params["conv1.weight"].lr_mult == 0.1
        assert loaded.params["fc1.weight"].lr_mult == 1.0

    def test_failed_replace_keeps_old_checkpoint(self, small_ckpt, tmp_path,
                                                 monkeypatch):
        (tmp_path / "run").mkdir()
        path = tmp_path / "run" / "model.ckpt"
        md.save_checkpoint(small_ckpt, path)
        before = path.read_bytes()
        small_ckpt.iteration = 99

        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            md.save_checkpoint(small_ckpt, path)
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == ["model.ckpt"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValidationError, match="magic"):
            md.load_checkpoint(path)

    @settings(max_examples=10, deadline=None)
    @given(maps=st.integers(1, 3), units=st.integers(1, 3),
           seed=st.integers(0, 2 ** 16))
    def test_every_prefix_and_trailing_bytes_rejected(self, maps, units, seed):
        spec = md.ModelSpec((1, 3, 3), (md.Conv("conv1", maps, 2, 2),
                                        md.Relu("relu1"), md.Fc("out", units)))
        ckpt = md.build_model(spec, seed=seed)
        buf = md.checkpoint_to_bytes(ckpt)
        for cut in range(len(buf)):
            with pytest.raises(ValidationError):
                md.checkpoint_from_bytes(buf[:cut])
        with pytest.raises(ValidationError, match="trailing"):
            md.checkpoint_from_bytes(buf + b"\x00")
        assert md.checkpoint_to_bytes(md.checkpoint_from_bytes(buf)) == buf
