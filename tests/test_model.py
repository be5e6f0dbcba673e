import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hiercurric import model as md
from hiercurric import nnkernel as nk
from hiercurric import taxonomy
from hiercurric.errors import NumericFault, ValidationError


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
        assert ckpt.params.n_values() == desk_param_count_closed_form(7)

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
    for name in ckpt.params.names():
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
        for name in small_ckpt.params.names():
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


class TestLrMults:
    def test_prefix_three_lowered(self):
        ckpt = md.build_model(md.desk_spec(4), seed=0)
        out = md.set_layer_lr_mults(ckpt, 3, 0.1)
        for name in ("conv1", "conv2", "conv3"):
            assert out.params[f"{name}.weight"].lr_mult == 0.1
            assert out.params[f"{name}.bias"].lr_mult == 0.1
        for name in ("fc1", "fc2"):
            assert out.params[f"{name}.weight"].lr_mult == 1.0

    def test_prefix_zero_all_ones(self):
        ckpt = md.build_model(md.desk_spec(4), seed=0)
        ckpt.params["conv1.weight"].lr_mult = 0.5
        out = md.set_layer_lr_mults(ckpt, 0, 0.1)
        assert all(out.params[n].lr_mult == 1.0 for n in out.params.names())

    def test_mult_zero_freezes_weights_over_steps(self):
        ckpt = md.build_model(md.desk_spec(4, input_shape=(3, 8, 8)), seed=0)
        ckpt = md.set_layer_lr_mults(ckpt, 3, 0.0)
        before = {n: ckpt.params[n].weight.copy() for n in ckpt.params.names()}
        cfg = nk.SgdConfig(base_lr=0.1, momentum=0.9, weight_decay=0.0,
                           lr_gamma=1.0, lr_step=10, batch_size=2)
        rng = np.random.default_rng(0)
        batch = rng.random((2, 3, 8, 8))
        labels = np.array([0, 1])
        for it in range(3):
            logits, caches, _ = md.forward(ckpt.spec, ckpt.params, batch, "train", rng)
            _, dlogits = nk.softmax_xent(logits, labels)
            md.backward(ckpt.params, caches, dlogits)
            nk.sgd_step(ckpt.params, cfg, it)
        for name in ("conv1", "conv2", "conv3"):
            np.testing.assert_array_equal(
                ckpt.params[f"{name}.weight"].weight, before[f"{name}.weight"])
        assert not np.array_equal(ckpt.params["fc1.weight"].weight, before["fc1.weight"])

    def test_prefix_beyond_convs_rejected(self):
        ckpt = md.build_model(md.desk_spec(4), seed=0)
        with pytest.raises(ValidationError, match="prefix"):
            md.set_layer_lr_mults(ckpt, 4, 0.1)


class TestForwardEval:
    def test_zero_weight_model_gives_bias_logits(self):
        ckpt = md.build_model(md.desk_spec(3, input_shape=(1, 8, 8)), seed=0)
        for name in ckpt.params.names():
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
        train_logits, _, _ = md.forward(spec, ckpt.params, batch, "train",
                                        np.random.default_rng(0))
        np.testing.assert_array_equal(train_logits, md.forward_eval(ckpt, batch))

    def test_batch_shape_checked(self):
        ckpt = md.build_model(md.desk_spec(4), seed=1)
        with pytest.raises(ValidationError, match="shape"):
            md.forward_eval(ckpt, np.zeros((2, 3, 16, 16)))

    def test_backward_fault_names_layer_and_direction(self, small_ckpt):
        x = np.zeros((2,) + small_ckpt.spec.input_shape)
        logits, caches, _ = md.forward(small_ckpt.spec, small_ckpt.params, x)
        with pytest.raises(NumericFault, match=r"layer 'fc2' backward: non-finite"):
            md.backward(small_ckpt.params, caches, np.full(logits.shape, np.nan))


class TestBackward:
    def test_grads_equal_a_hand_chain_with_full_first_layer(self):
        ckpt = md.build_model(md.desk_spec(5), seed=3, init="scaled")
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 3, 32, 32))
        labels = np.array([0, 1, 2, 4])
        logits, caches, _ = md.forward(ckpt.spec, ckpt.params, x, "train",
                                       np.random.default_rng(5))
        _, dlogits = nk.softmax_xent(logits, labels)
        assert md.backward(ckpt.params, caches, dlogits) is None
        got = {n: ckpt.params[n].grad.copy() for n in ckpt.params.names()}

        grad = dlogits
        for layer, cache in reversed(caches):  # every layer's dx computed
            grad = layer.backward(ckpt.params, grad, cache, need_dx=True)
        assert grad.shape == x.shape
        for name in ckpt.params.names():
            assert got[name].tobytes() == ckpt.params[name].grad.tobytes(), name

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
        before = {n: ckpt.params[n].weight.copy() for n in ckpt.params.names()}
        cfg = nk.SgdConfig(base_lr=0.1, momentum=0.9, weight_decay=0.0,
                           lr_gamma=1.0, lr_step=10, batch_size=6)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 2, 5, 5))
        labels = np.arange(6) % 3
        losses = []
        for it in range(20):
            logits, caches, _ = md.forward(spec, ckpt.params, x, "train", rng)
            loss, dlogits = nk.softmax_xent(logits, labels)
            md.backward(ckpt.params, caches, dlogits)
            nk.sgd_step(ckpt.params, cfg, it)
            losses.append(loss)
        assert losses[-1] < losses[0]
        for name in ckpt.params.names():
            assert not np.array_equal(ckpt.params[name].weight, before[name]), name


class TestCheckpointIO:
    def test_round_trip_byte_identical(self, small_ckpt, tmp_path):
        small_ckpt.rng_state = np.random.default_rng(3).bit_generator.state
        small_ckpt.iteration = 123
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(small_ckpt, path)
        first = path.read_bytes()
        loaded = md.load_checkpoint(path)
        assert md.checkpoint_to_bytes(loaded) == first
        assert loaded.iteration == 123
        assert loaded.phase_tag == small_ckpt.phase_tag

    def test_lr_mults_survive_round_trip(self, small_ckpt, tmp_path):
        ckpt = md.set_layer_lr_mults(small_ckpt, 2, 0.1)
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
        ckpt.rng_state = np.random.default_rng(seed).bit_generator.state
        buf = md.checkpoint_to_bytes(ckpt)
        for cut in range(len(buf)):
            with pytest.raises(ValidationError):
                md.checkpoint_from_bytes(buf[:cut])
        with pytest.raises(ValidationError, match="trailing"):
            md.checkpoint_from_bytes(buf + b"\x00")
        assert md.checkpoint_to_bytes(md.checkpoint_from_bytes(buf)) == buf
