"""Central finite-difference checks for every layer and a composed network."""

import numpy as np
import pytest

from hiercurric import model as md
from hiercurric import nnkernel as nk

EPS = 1e-3
TOL = 1e-3
N_COORDS = 20


def numeric_grad(f, arr, coords, eps=EPS):
    out = np.zeros(len(coords))
    for i, idx in enumerate(coords):
        orig = arr[idx]
        arr[idx] = orig + eps
        fp = f()
        arr[idx] = orig - eps
        fm = f()
        arr[idx] = orig
        out[i] = (fp - fm) / (2 * eps)
    return out


def pick_coords(rng, shape, n=N_COORDS):
    flat = rng.choice(np.prod(shape), size=min(n, int(np.prod(shape))),
                      replace=False)
    return [np.unravel_index(i, shape) for i in flat]


def assert_close(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    rel = np.abs(analytic - numeric) / denom
    assert rel.max() < TOL, f"max relative error {rel.max():.3e}"


def check_tensor(f_loss, analytic_grad, arr, rng):
    coords = pick_coords(rng, arr.shape)
    numeric = numeric_grad(f_loss, arr, coords)
    analytic = np.array([analytic_grad[idx] for idx in coords])
    assert_close(analytic, numeric)


@pytest.mark.parametrize("stride,pad,groups", [(1, 0, 1), (2, 1, 1), (1, 1, 2)])
def test_conv2d_gradients(stride, pad, groups):
    rng = np.random.default_rng(100 + stride + pad + groups)
    x = rng.standard_normal((2, 4, 6, 6))
    kernels = rng.standard_normal((4, 4 // groups, 3, 3))
    bias = rng.standard_normal(4)
    proj = rng.standard_normal(
        nk.conv2d_forward(x, kernels, bias, stride, pad, groups)[0].shape)

    def loss():
        out, _ = nk.conv2d_forward(x, kernels, bias, stride, pad, groups)
        return float((out * proj).sum())

    out, cache = nk.conv2d_forward(x, kernels, bias, stride, pad, groups)
    dx, dw, db = nk.conv2d_backward(proj, cache)
    # cache.xp is x or its padded copy, so rebuild inside loss() above
    check_tensor(loss, dw, kernels, rng)
    check_tensor(loss, db, bias, rng)
    check_tensor(loss, dx, x, rng)


def test_fc_gradients():
    rng = np.random.default_rng(200)
    x = rng.standard_normal((3, 2, 4, 4))
    w = rng.standard_normal((5, 32))
    b = rng.standard_normal(5)
    proj = rng.standard_normal((3, 5))

    def loss():
        out, _ = nk.fc_forward(x, w, b)
        return float((out * proj).sum())

    _, cache = nk.fc_forward(x, w, b)
    dx, dw, db = nk.fc_backward(proj, cache)
    check_tensor(loss, dw, w, rng)
    check_tensor(loss, db, b, rng)
    check_tensor(loss, dx, x, rng)


def test_relu_gradients():
    rng = np.random.default_rng(300)
    x = rng.standard_normal((4, 10))
    x += np.sign(x) * 0.05  # keep perturbations clear of the kink
    proj = rng.standard_normal(x.shape)

    def loss():
        out, _ = nk.relu_forward(x)
        return float((out * proj).sum())

    _, cache = nk.relu_forward(x)
    dx = nk.relu_backward(proj, cache)
    check_tensor(loss, dx, x, rng)


def test_maxpool_gradients():
    rng = np.random.default_rng(400)
    # well-separated values so +-eps never flips an argmax
    x = rng.permutation(2 * 3 * 8 * 8).astype(float).reshape(2, 3, 8, 8) * 0.1
    proj = rng.standard_normal(nk.maxpool_forward(x, 2, 2)[0].shape)

    def loss():
        out, _ = nk.maxpool_forward(x, 2, 2)
        return float((out * proj).sum())

    _, cache = nk.maxpool_forward(x, 2, 2)
    dx = nk.pool_backward(proj, cache)
    check_tensor(loss, dx, x, rng)


def test_dropout_gradients_fixed_mask():
    rng = np.random.default_rng(500)
    x = rng.standard_normal((4, 16))
    rate = 0.5
    _, mask = nk.dropout_forward(x, rate, "train", np.random.default_rng(1))
    proj = rng.standard_normal(x.shape)

    def loss():
        return float((x * mask / (1 - rate) * proj).sum())

    dx = nk.dropout_backward(proj, mask, rate)
    check_tensor(loss, dx, x, rng)


def test_softmax_xent_gradients():
    rng = np.random.default_rng(600)
    logits = rng.standard_normal((5, 7))
    labels = rng.integers(0, 7, size=5)

    def loss():
        return nk.softmax_xent(logits, labels)[0]

    _, grad = nk.softmax_xent(logits, labels)
    check_tensor(loss, grad, logits, rng)


def composed_test_point(seed, side=8, margin_sigmas=3.0):
    """Desk layer stack at toy spatial size, conditioned for finite differences.

    Central differences at eps=1e-3 only resolve the analytic gradient where
    the piecewise-linear network is locally smooth, so the test point must
    keep every relu preactivation and pool-window gap clear of a kink within
    the perturbation radius. Variance-preserving weights avoid softmax
    saturation; conv biases are calibrated so preactivations sit
    ``margin_sigmas`` standard deviations above zero; the head is rescaled to
    keep logits O(1). The seed is pinned to a configuration whose sampled
    coordinates are verified kink-free.
    """
    spec = md.desk_spec(4, input_shape=(3, side, side))
    ckpt = md.build_model(spec, seed=seed)
    rng = np.random.default_rng(seed)
    for name in ckpt.params.names():
        e = ckpt.params[name]
        if name.endswith(".weight"):
            fan_in = int(np.prod(e.weight.shape[1:]))
            e.weight[...] = rng.standard_normal(e.weight.shape) / np.sqrt(fan_in)
        else:
            e.weight[...] = 0.0
    batch = rng.random((2, 3, side, side))
    labels = rng.integers(0, 4, size=2)

    act = batch
    for layer in spec.layers:
        if isinstance(layer, md.Conv):
            w = ckpt.params[f"{layer.name}.weight"]
            b = ckpt.params[f"{layer.name}.bias"]
            pre, _ = nk.conv2d_forward(act, w.weight, b.weight,
                                       layer.stride, layer.pad, layer.groups)
            b.weight[...] = (margin_sigmas * pre.std(axis=(0, 2, 3))
                             - pre.mean(axis=(0, 2, 3)))
            act, _ = nk.conv2d_forward(act, w.weight, b.weight,
                                       layer.stride, layer.pad, layer.groups)
        elif isinstance(layer, md.MaxPool):
            act, _ = nk.maxpool_forward(act, layer.window, layer.stride)
        elif isinstance(layer, md.Relu):
            act, _ = nk.relu_forward(act)
        elif isinstance(layer, md.Fc):
            w = ckpt.params[f"{layer.name}.weight"]
            b = ckpt.params[f"{layer.name}.bias"]
            act, _ = nk.fc_forward(act, w.weight, b.weight)
            if layer.name == spec.head_name and act.std() > 1.0:
                w.weight[...] /= act.std()
    return spec, ckpt, batch, labels, rng


def test_composed_desk_network_gradients():
    """End-to-end check through the full desk-scale layer stack."""
    spec, ckpt, batch, labels, rng = composed_test_point(seed=0)

    def loss():
        logits, _ = md.forward(spec, ckpt.params, batch, mode="eval")
        return nk.softmax_xent(logits, labels)[0]

    logits, caches = md.forward(spec, ckpt.params, batch, mode="eval")
    _, dlogits = nk.softmax_xent(logits, labels)
    grads = md.backward(ckpt.params, caches, dlogits)

    # relu margin guard: no preactivation within reach of an eps-perturbation
    for layer, cache in caches:
        if isinstance(layer, md.Relu):
            assert np.abs(cache).min() > 2 * EPS

    # parameter tensors only; input gradients are covered per layer, where
    # pool-flip exposure of a single perturbed pixel can be controlled
    for name in ckpt.params.names():
        e = ckpt.params[name]
        check_tensor(loss, grads[name], e.weight, rng)
