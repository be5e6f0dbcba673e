import math
import os
import struct
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hiercurric import nnkernel as nk
from hiercurric.errors import NumericFault, ValidationError


def naive_conv2d(x, kernels, bias, stride, pad, groups=1):
    """Reference cross-correlation written as plain nested loops."""
    n, c, h, w = x.shape
    k, cg, kh, kw = kernels.shape
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, k, out_h, out_w))
    kpg = k // groups
    for ni in range(n):
        for ki in range(k):
            g = ki // kpg
            for y in range(out_h):
                for xo in range(out_w):
                    acc = bias[ki]
                    for ci in range(cg):
                        for i in range(kh):
                            for j in range(kw):
                                acc += (xp[ni, g * cg + ci, y * stride + i, xo * stride + j]
                                        * kernels[ki, ci, i, j])
                    out[ni, ki, y, xo] = acc
    return out


def naive_conv2d_backward(dout, x, kernels, stride, pad, groups=1):
    """Reference (dx, dkernels): each output's upstream value scattered back
    over its input window and kernel, one output position at a time."""
    n, c, h, w = x.shape
    k, cg, kh, kw = kernels.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(kernels)
    kpg = k // groups
    for ni, ki, y, xo in np.ndindex(dout.shape):
        chans = slice(ki // kpg * cg, (ki // kpg + 1) * cg)
        rows = slice(y * stride, y * stride + kh)
        cols = slice(xo * stride, xo * stride + kw)
        dw[ki] += dout[ni, ki, y, xo] * xp[ni, chans, rows, cols]
        dxp[ni, chans, rows, cols] += dout[ni, ki, y, xo] * kernels[ki]
    return dxp[:, :, pad:pad + h, pad:pad + w], dw


def naive_maxpool(x, window, stride):
    """(out, argmax) by loops: the argmax is the lowest flat offset holding
    the window's max; out is the value at that offset."""
    n, c, h, w = x.shape
    out_h = (h - window) // stride + 1
    out_w = (w - window) // stride + 1
    out = np.zeros((n, c, out_h, out_w), dtype=x.dtype)
    argmax = np.zeros((n, c, out_h, out_w), dtype=np.intp)
    for ni in range(n):
        for ci in range(c):
            for y in range(out_h):
                for xo in range(out_w):
                    patch = x[ni, ci, y * stride:y * stride + window,
                              xo * stride:xo * stride + window].ravel()
                    best = 0
                    for k in range(1, patch.size):
                        if patch[k] > patch[best]:
                            best = k
                    out[ni, ci, y, xo] = patch[best]
                    argmax[ni, ci, y, xo] = best
    return out, argmax


class TestConvForward:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.random((2, 3, 5, 5))
        kernels = np.zeros((3, 3, 1, 1))
        for i in range(3):
            kernels[i, i, 0, 0] = 1.0
        out, _ = nk.conv2d_forward(x, kernels, np.zeros(3))
        np.testing.assert_array_equal(out, x)

    def test_two_by_two_hand_case(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        kernel = np.array([[1.0, 0.0], [0.0, 1.0]]).reshape(1, 1, 2, 2)
        out, _ = nk.conv2d_forward(x, kernel, np.zeros(1))
        np.testing.assert_array_equal(out, [[[[5.0]]]])

    def test_strided_padded_matches_naive(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 8, 8))
        kernels = rng.standard_normal((4, 3, 3, 3))
        bias = rng.standard_normal(4)
        out, _ = nk.conv2d_forward(x, kernels, bias, stride=2, pad=1)
        expected = naive_conv2d(x, kernels, bias, stride=2, pad=1)
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_grouped_matches_naive(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 4, 6, 6))
        kernels = rng.standard_normal((6, 2, 3, 3))  # 2 groups of 3 outputs
        bias = rng.standard_normal(6)
        out, _ = nk.conv2d_forward(x, kernels, bias, stride=1, pad=1, groups=2)
        expected = naive_conv2d(x, kernels, bias, stride=1, pad=1, groups=2)
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_rectangular_kernel_matches_naive(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 2, 5, 7))
        kernels = rng.standard_normal((3, 2, 2, 3))
        bias = rng.standard_normal(3)
        out, cache = nk.conv2d_forward(x, kernels, bias, stride=1, pad=1)
        expected = naive_conv2d(x, kernels, bias, stride=1, pad=1)
        np.testing.assert_allclose(out, expected, atol=1e-6)
        # input gradient of sum(out) equals conv of ones with flipped kernel;
        # check against a finite-difference probe on a few coordinates
        dx, _, _ = nk.conv2d_backward(np.ones_like(out), cache)
        eps = 1e-6
        for idx in [(0, 0, 0, 0), (1, 1, 2, 3), (0, 1, 4, 6)]:
            orig = x[idx]
            x[idx] = orig + eps
            fp = nk.conv2d_forward(x, kernels, bias, stride=1, pad=1)[0].sum()
            x[idx] = orig - eps
            fm = nk.conv2d_forward(x, kernels, bias, stride=1, pad=1)[0].sum()
            x[idx] = orig
            assert abs(dx[idx] - (fp - fm) / (2 * eps)) < 1e-6

    def test_shape_mismatch_names_both(self):
        x = np.zeros((1, 3, 4, 4))
        kernels = np.zeros((2, 4, 3, 3))
        with pytest.raises(ValidationError, match=r"\(1, 3, 4, 4\).*\(2, 4, 3, 3\)"):
            nk.conv2d_forward(x, kernels, np.zeros(2))

    def test_kernel_too_large(self):
        with pytest.raises(ValidationError, match="larger"):
            nk.conv2d_forward(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 5, 5)),
                              np.zeros(1))


class TestConvBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 2, 5, 5))
        kernels = rng.standard_normal((3, 2, 3, 3))
        out, cache = nk.conv2d_forward(x, kernels, np.zeros(3), pad=1)
        dx, dw, db = nk.conv2d_backward(np.zeros_like(out), cache)
        assert not dx.any() and not dw.any() and not db.any()

    def test_upstream_shape_checked(self):
        x = np.zeros((1, 1, 4, 4))
        out, cache = nk.conv2d_forward(x, np.zeros((1, 1, 3, 3)), np.zeros(1))
        with pytest.raises(ValidationError):
            nk.conv2d_backward(np.zeros((1, 1, 4, 4)), cache)

    @pytest.mark.parametrize("x_shape,k_shape,stride,pad,groups", [
        # overlapping strided windows, as AlexNet conv1 (11x11, stride 4)
        ((2, 3, 27, 27), (4, 3, 11, 11), 4, 0, 1),
        # padded input whose H + 2p - k (7) and W + 2p - k (8) leave a
        # remainder at stride 3, so the last rows and columns are unused
        ((2, 2, 8, 9), (3, 2, 3, 3), 3, 1, 1),
        ((2, 4, 7, 7), (6, 2, 3, 3), 2, 1, 2),
    ])
    def test_matches_naive_loops(self, x_shape, k_shape, stride, pad, groups):
        rng = np.random.default_rng(sum(x_shape) + stride)
        x = rng.standard_normal(x_shape)
        kernels = rng.standard_normal(k_shape)
        bias = rng.standard_normal(k_shape[0])
        out, cache = nk.conv2d_forward(x, kernels, bias, stride, pad, groups)
        np.testing.assert_allclose(
            out, naive_conv2d(x, kernels, bias, stride, pad, groups), atol=1e-10)
        dout = rng.standard_normal(out.shape)
        dx, dw, db = nk.conv2d_backward(dout, cache)
        ref_dx, ref_dw = naive_conv2d_backward(dout, x, kernels, stride, pad, groups)
        np.testing.assert_allclose(dx, ref_dx, atol=1e-10)
        np.testing.assert_allclose(dw, ref_dw, atol=1e-10)
        np.testing.assert_allclose(db, dout.sum(axis=(0, 2, 3)), atol=1e-12)

    def test_float32_in_float32_out(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 4, 6, 6)).astype(np.float32)
        kernels = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        out, cache = nk.conv2d_forward(x, kernels, np.zeros(4, np.float32),
                                       stride=2, pad=1, groups=2)
        dx, dw, _ = nk.conv2d_backward(np.ones_like(out), cache)
        assert (out.dtype, dx.dtype, dw.dtype) == (np.float32,) * 3

    @pytest.mark.parametrize("x_shape,k_shape,stride,pad,groups", [
        ((2, 3, 27, 27), (4, 3, 11, 11), 4, 0, 1),
        ((2, 2, 8, 9), (3, 2, 3, 3), 3, 1, 1),
        ((2, 4, 7, 7), (6, 2, 3, 3), 2, 1, 2),
    ])
    def test_no_dx_keeps_weight_gradients(self, x_shape, k_shape, stride, pad,
                                          groups):
        rng = np.random.default_rng(sum(k_shape))
        x = rng.standard_normal(x_shape)
        out, cache = nk.conv2d_forward(x, rng.standard_normal(k_shape),
                                       np.zeros(k_shape[0]), stride, pad, groups)
        dout = rng.standard_normal(out.shape)
        _, dw, db = nk.conv2d_backward(dout, cache)
        dx, dw_only, db_only = nk.conv2d_backward(dout, cache, need_dx=False)
        assert dw_only.tobytes() == dw.tobytes()
        assert db_only.tobytes() == db.tobytes()
        assert dx.shape == (0,) + x_shape[1:] and dx.dtype == dout.dtype

    def test_backward_twice_byte_identical(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 4, 9, 9))
        kernels = rng.standard_normal((6, 2, 5, 5))
        out, cache = nk.conv2d_forward(x, kernels, np.zeros(6), 2, 2, 2)
        dout = rng.standard_normal(out.shape)
        first, second = (nk.conv2d_backward(dout, cache) for _ in range(2))
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()


def column_matrix(xp, kh, kw, stride, groups):
    """The whole (groups, C/groups*kh*kw, N*OH*OW) im2col matrix of xp."""
    win = np.lib.stride_tricks.sliding_window_view(
        xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    c = xp.shape[1]
    return np.ascontiguousarray(win.transpose(1, 4, 5, 0, 2, 3)).reshape(
        groups, c // groups * kh * kw, -1)


def column_conv2d_forward(x, kernels, bias, stride, pad, groups):
    """conv2d_forward as one GEMM of the kernels against the whole im2col
    matrix."""
    n, c, h, w = x.shape
    k, cg, kh, kw = kernels.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out_h, out_w = (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1
    out = kernels.reshape(groups, k // groups, -1) @ column_matrix(
        xp, kh, kw, stride, groups)
    out = out.reshape(k, n, out_h, out_w).transpose(1, 0, 2, 3)
    return out + bias[None, :, None, None]


def column_conv2d_backward(dout, cache, need_dx):
    """conv2d_backward as one full column-gradient GEMM, then col2im, plus a
    single kernel-gradient GEMM over the whole im2col matrix."""
    xp, kernels, stride, pad, groups = (
        cache.xp, cache.kernels, cache.stride, cache.pad, cache.groups)
    n, c, h, w = cache.x_shape
    k, cg, kh, kw = kernels.shape
    hp, wp = xp.shape[2:]
    out_h, out_w = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    db = dout.sum(axis=(0, 2, 3))
    dout_mat = dout.transpose(1, 0, 2, 3).reshape(groups, k // groups, -1)
    cols = column_matrix(xp, kh, kw, stride, groups)
    dw = (dout_mat @ cols.transpose(0, 2, 1)).reshape(kernels.shape)
    dw = dw.astype(kernels.dtype, copy=False)
    if not need_dx:
        return np.empty((0, c, h, w), dtype=dout.dtype), dw, db
    kmat = kernels.reshape(groups, k // groups, -1)
    dcols = (kmat.transpose(0, 2, 1) @ dout_mat).reshape(c, kh, kw, n, out_h, out_w)
    dxp = np.zeros((c, n, hp, wp), dtype=dcols.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + stride * out_h:stride,
                j:j + stride * out_w:stride] += dcols[:, i, j]
    dx = dxp.transpose(1, 0, 2, 3)[:, :, pad:pad + h, pad:pad + w]
    return dx.astype(dout.dtype, copy=False), dw, db


def conv_case(x_shape, k_shape, stride, pad, groups, dtype=np.float64, seed=0):
    """(dout, cache) of a forward pass on random input and kernels."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(x_shape).astype(dtype)
    kernels = (rng.standard_normal(k_shape) * 0.1).astype(dtype)
    out, cache = nk.conv2d_forward(x, kernels, np.zeros(k_shape[0], dtype),
                                   stride, pad, groups)
    return rng.standard_normal(out.shape).astype(dtype), cache


CONV_CASES = {
    # batch 32, as the benchmark and desk workloads train
    "benchmark-conv1": ((32, 3, 16, 16), (8, 3, 3, 3), 1, 1, 1),
    "benchmark-conv2": ((32, 8, 8, 8), (16, 8, 3, 3), 1, 1, 1),
    "desk-conv1": ((32, 3, 32, 32), (32, 3, 5, 5), 1, 2, 1),
    "desk-conv2": ((32, 32, 16, 16), (64, 32, 5, 5), 1, 2, 1),
    "desk-conv3": ((32, 64, 8, 8), (64, 64, 3, 3), 1, 1, 1),
    "stride2-groups2": ((4, 6, 13, 13), (8, 3, 3, 3), 2, 1, 2),
    "11x11-stride4": ((2, 3, 39, 39), (16, 3, 11, 11), 4, 0, 1),
    "float32": ((8, 8, 9, 9), (12, 8, 3, 3), 1, 1, 1, np.float32),
}


class TestConvBackwardBytes:
    """The kernel gradient runs on a worker thread and the input gradient is
    built one kernel offset at a time; neither changes a byte."""

    @staticmethod
    def assert_same_bytes(got, want):
        for a, b in zip(got, want, strict=True):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("need_dx", [True, False])
    @pytest.mark.parametrize("case", list(CONV_CASES))
    def test_equals_column_formulation(self, case, need_dx):
        dout, cache = conv_case(*CONV_CASES[case])
        self.assert_same_bytes(nk.conv2d_backward(dout, cache, need_dx),
                               column_conv2d_backward(dout, cache, need_dx))

    @pytest.mark.parametrize("need_dx", [True, False])
    def test_signed_zeros_in_dout(self, need_dx):
        dout, cache = conv_case((4, 4, 8, 8), (6, 4, 3, 3), 1, 1, 1, seed=4)
        dout[0] = 0.0
        dout[1] = -0.0
        dout[2, :, ::2] = -0.0
        self.assert_same_bytes(nk.conv2d_backward(dout, cache, need_dx),
                               column_conv2d_backward(dout, cache, need_dx))


class TestConvBackwardWorker:
    def test_worker_error_is_reraised_and_the_next_call_is_sound(
            self, monkeypatch):
        dout, cache = conv_case(*CONV_CASES["stride2-groups2"])

        def fail(*args):
            raise RuntimeError("kernel gradient failed")

        monkeypatch.setattr(nk, "_conv_dw", fail)
        for need_dx in (True, False):
            with pytest.raises(RuntimeError, match="kernel gradient failed"):
                nk.conv2d_backward(dout, cache, need_dx)
        monkeypatch.undo()
        TestConvBackwardBytes.assert_same_bytes(
            nk.conv2d_backward(dout, cache),
            column_conv2d_backward(dout, cache, True))

    def test_input_gradient_error_surfaces_after_the_worker_is_done(
            self, monkeypatch):
        dout, cache = conv_case(*CONV_CASES["stride2-groups2"])
        real_dw, finished = nk._conv_dw, []

        def slow_dw(*args):
            time.sleep(0.2)
            real_dw(*args)
            finished.append(True)

        def fail(*args):
            raise RuntimeError("input gradient failed")

        monkeypatch.setattr(nk, "_conv_dw", slow_dw)
        monkeypatch.setattr(nk, "_conv_dx", fail)
        with pytest.raises(RuntimeError, match="input gradient failed"):
            nk.conv2d_backward(dout, cache)
        assert finished == [True]

    def test_only_the_main_thread_uses_the_worker(self, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        dout, cache = conv_case(*CONV_CASES["stride2-groups2"])
        want = column_conv2d_backward(dout, cache, True)
        real_dw, ran_on = nk._conv_dw, []

        def recording_dw(*args):
            ran_on.append(threading.current_thread())
            real_dw(*args)

        monkeypatch.setattr(nk, "_conv_dw", recording_dw)
        TestConvBackwardBytes.assert_same_bytes(
            nk.conv2d_backward(dout, cache), want)
        with ThreadPoolExecutor(1) as pool:
            other = pool.submit(threading.current_thread).result()
            TestConvBackwardBytes.assert_same_bytes(
                pool.submit(nk.conv2d_backward, dout, cache).result(), want)
        assert ran_on[0] not in (threading.main_thread(), other)
        assert ran_on[1] is other

    def test_callers_on_several_threads_get_their_own_gradients(self):
        """More callers than cores, switching often, the main thread's
        worker busy at the same time: each caller still gets its own
        gradients, byte for byte."""
        from concurrent.futures import ThreadPoolExecutor

        cases = [conv_case(*CONV_CASES[name], seed=i)
                 for i, name in enumerate(["desk-conv3", "stride2-groups2",
                                           "benchmark-conv2"])]
        want = [column_conv2d_backward(dout, cache, True) for dout, cache in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(3) as pool:
                jobs = [pool.submit(nk.conv2d_backward, *case) for case in cases * 4]
                on_main = [nk.conv2d_backward(*case) for case in cases * 2]
                got = [job.result(timeout=120) for job in jobs]
        finally:
            sys.setswitchinterval(interval)
        for i, result in enumerate(got + on_main):
            TestConvBackwardBytes.assert_same_bytes(result, want[i % 3])


def forward_case(x_shape, k_shape, stride, pad, groups, dtype=np.float64,
                 batch=None, seed=0):
    """Arguments of conv2d_forward on random input, kernels and bias, at
    ``batch`` samples when one is given."""
    if batch is not None:
        x_shape = (batch,) + x_shape[1:]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(x_shape).astype(dtype)
    kernels = (rng.standard_normal(k_shape) * 0.1).astype(dtype)
    bias = rng.standard_normal(k_shape[0]).astype(dtype)
    return x, kernels, bias, stride, pad, groups


class TestConvForwardBytes:
    """A training forward splits its GEMM by batch half, the second half on
    the worker thread from the main thread; an eval forward is one GEMM."""

    @pytest.mark.parametrize("batch", [None, 1, 33])
    @pytest.mark.parametrize("case", list(CONV_CASES))
    def test_training_forward_same_on_every_thread(self, case, batch):
        """Equal bytes on the main thread and a pool thread, and equal to
        the one-GEMM forward up to rounding; byte for byte at the benchmark
        and desk specs' batch of 32, whose trees must not change."""
        from concurrent.futures import ThreadPoolExecutor

        args = forward_case(*CONV_CASES[case], batch=batch)
        on_main, _ = nk.conv2d_forward(*args, train=True)
        with ThreadPoolExecutor(1) as pool:
            inline, _ = pool.submit(nk.conv2d_forward, *args, train=True).result()
        TestConvBackwardBytes.assert_same_bytes([on_main], [inline])
        whole = column_conv2d_forward(*args)
        rtol = 1e-5 if on_main.dtype == np.float32 else 1e-12
        np.testing.assert_allclose(on_main, whole, rtol=rtol, atol=rtol)
        if batch is None and case.startswith(("benchmark-", "desk-")):
            TestConvBackwardBytes.assert_same_bytes([on_main], [whole])

    @pytest.mark.parametrize("batch", [None, 1, 33])
    @pytest.mark.parametrize("case", list(CONV_CASES))
    def test_eval_forward_equals_one_column_gemm(self, case, batch):
        args = forward_case(*CONV_CASES[case], batch=batch)
        TestConvBackwardBytes.assert_same_bytes(
            [nk.conv2d_forward(*args)[0]], [column_conv2d_forward(*args)])


class TestConvForwardWorker:
    def test_worker_error_is_reraised_and_the_next_call_is_sound(
            self, monkeypatch):
        args = forward_case(*CONV_CASES["stride2-groups2"])
        want = nk.conv2d_forward(*args, train=True)[0]

        def fail(*gemm_args):
            raise RuntimeError("forward half failed")

        monkeypatch.setattr(nk, "_conv_gemm", fail)
        with pytest.raises(RuntimeError, match="forward half failed"):
            nk.conv2d_forward(*args, train=True)
        monkeypatch.undo()
        TestConvBackwardBytes.assert_same_bytes(
            [nk.conv2d_forward(*args, train=True)[0]], [want])

    def test_worker_error_surfaces_after_the_main_half_is_done(
            self, monkeypatch):
        args = forward_case(*CONV_CASES["stride2-groups2"])
        real_gemm, finished = nk._conv_gemm, []

        def second_half_fails(*gemm_args):
            lo = gemm_args[-2]
            if lo > 0:
                assert threading.current_thread() is not threading.main_thread()
                raise RuntimeError("second half failed")
            time.sleep(0.2)
            real_gemm(*gemm_args)
            finished.append(True)

        monkeypatch.setattr(nk, "_conv_gemm", second_half_fails)
        with pytest.raises(RuntimeError, match="second half failed"):
            nk.conv2d_forward(*args, train=True)
        assert finished == [True]

    def test_eval_forwards_and_other_threads_never_use_the_worker(
            self, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        args = forward_case(*CONV_CASES["desk-conv3"])
        want_train = nk.conv2d_forward(*args, train=True)[0]
        want_eval = column_conv2d_forward(*args)

        def no_worker():
            raise AssertionError("the conv worker was asked for")

        monkeypatch.setattr(nk, "_dw_worker", no_worker)
        with pytest.raises(AssertionError, match="worker was asked for"):
            nk.conv2d_forward(*args, train=True)
        TestConvBackwardBytes.assert_same_bytes(
            [nk.conv2d_forward(*args)[0]], [want_eval])
        with ThreadPoolExecutor(1) as pool:
            for train, want in ((True, want_train), (False, want_eval)):
                got = pool.submit(nk.conv2d_forward, *args, train=train).result()
                TestConvBackwardBytes.assert_same_bytes([got[0]], [want])

    def test_callers_on_several_threads_get_their_own_outputs(self):
        """Training forwards from more callers than cores, switching often,
        the main thread's worker running second halves at the same time:
        each caller still gets its own output, byte for byte."""
        from concurrent.futures import ThreadPoolExecutor

        cases = [forward_case(*CONV_CASES[name], seed=i)
                 for i, name in enumerate(["desk-conv3", "stride2-groups2",
                                           "benchmark-conv2"])]
        want = [nk.conv2d_forward(*args, train=True)[0] for args in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(3) as pool:
                jobs = [pool.submit(nk.conv2d_forward, *args, train=True)
                        for args in cases * 4]
                on_main = [nk.conv2d_forward(*args, train=True) for args in cases * 2]
                got = [job.result(timeout=120) for job in jobs]
        finally:
            sys.setswitchinterval(interval)
        for i, (out, _) in enumerate(got + on_main):
            TestConvBackwardBytes.assert_same_bytes([out], [want[i % 3]])


def conv_pass(args):
    """Bytes of a training forward, an eval forward and both backward chains
    of one conv case."""
    out, cache = nk.conv2d_forward(*args, train=True)
    dout = np.random.default_rng(3).standard_normal(out.shape).astype(out.dtype)
    return [out, nk.conv2d_forward(*args)[0], *nk.conv2d_backward(dout, cache)]


def traced_peak(call):
    """tracemalloc's peak in bytes over ``call()``."""
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestConvSpans:
    """Each chain builds its im2col matrix in spans of at most IM2COL_BYTES:
    whole samples in a forward, whole channels of one group in the kernel
    gradient. A span is an N-split of the same GEMM."""

    @pytest.mark.parametrize("case", ["desk-conv1", "desk-conv2", "desk-conv3"])
    def test_desk_shapes_equal_one_span(self, case, monkeypatch):
        args = forward_case(*CONV_CASES[case])
        spanned = conv_pass(args)
        monkeypatch.setattr(nk, "IM2COL_BYTES", 1 << 40)
        TestConvBackwardBytes.assert_same_bytes(spanned, conv_pass(args))

    def test_desk_conv2_takes_several_spans(self):
        x, kernels = forward_case(*CONV_CASES["desk-conv2"])[:2]
        (n, c, h, w), (k, cg, kh, kw) = x.shape, kernels.shape
        assert len(nk._spans(0, n // 2, c * kh * kw * h * w * 8)) >= 2
        assert len(nk._spans(0, cg, kh * kw * n * h * w * 8)) >= 2

    def test_grouped_conv_in_several_spans_equals_one_span(self, monkeypatch):
        args = forward_case((8, 8, 12, 12), (16, 4, 3, 3), 1, 1, 2)
        whole = conv_pass(args)
        # one sample's columns: 72 rows x 144 pixels; one channel's: 9 x 1152
        monkeypatch.setattr(nk, "IM2COL_BYTES", 2 * 72 * 144 * 8)
        assert len(nk._spans(0, 4, 72 * 144 * 8)) == 2
        assert len(nk._spans(0, 4, 9 * 1152 * 8)) == 2
        TestConvBackwardBytes.assert_same_bytes(conv_pass(args), whole)

    @pytest.mark.parametrize("train", [True, False])
    def test_forward_temporaries_bounded_at_desk_conv2(self, train):
        args = forward_case(*CONV_CASES["desk-conv2"])
        (n, c, h, w), (k, cg, kh, kw), pad = args[0].shape, args[1].shape, args[4]
        span = max(nk.IM2COL_BYTES, c * kh * kw * h * w * 8)
        # kept: the padded input and the output
        kept = (c * (h + 2 * pad) * (w + 2 * pad) + k * h * w) * n * 8
        chains = 2 if train else 1
        assert chains * span + kept < c * kh * kw * n * h * w * 8
        peak = traced_peak(lambda: nk.conv2d_forward(*args, train=train))
        assert peak <= chains * span + kept + (1 << 20)

    def test_backward_temporaries_bounded_at_desk_conv2(self):
        dout, cache = conv_case(*CONV_CASES["desk-conv2"])
        n, c, h, w = cache.x_shape
        k, cg, kh, kw = cache.kernels.shape
        hp, wp = cache.xp.shape[2:]
        span = max(nk.IM2COL_BYTES, kh * kw * n * h * w * 8)
        # kept: dout's GEMM copy, the padded input gradient, one offset's
        # column gradient and the kernel gradient
        kept = (k * n * h * w + c * n * hp * wp + c * n * h * w + k * cg * kh * kw) * 8
        assert span + kept < c * kh * kw * n * h * w * 8
        assert traced_peak(lambda: nk.conv2d_backward(dout, cache)) <= span + kept + (1 << 20)

    def test_the_worker_allocates_no_span_buffer(self, monkeypatch):
        real, large = np.empty, []

        def recording(shape, *args, **kwargs):
            arr = real(shape, *args, **kwargs)
            if arr.nbytes >= 1 << 20:
                large.append(threading.current_thread())
            return arr

        monkeypatch.setattr(np, "empty", recording)
        real_gemm, chains = nk._conv_gemm, []

        def recording_gemm(*args):
            chains.append(threading.current_thread())
            real_gemm(*args)

        monkeypatch.setattr(nk, "_conv_gemm", recording_gemm)
        conv_pass(forward_case(*CONV_CASES["desk-conv2"]))
        assert any(t is not threading.main_thread() for t in chains)
        assert large and set(large) == {threading.main_thread()}


class TestMaxPool:
    def test_hand_case(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        out, _ = nk.maxpool_forward(x, 2, 2)
        np.testing.assert_array_equal(out, [[[[4.0]]]])

    def test_constant_input_ties_break_low(self):
        x = np.ones((1, 1, 4, 4))
        out, cache = nk.maxpool_forward(x, 2, 2)
        np.testing.assert_array_equal(out, np.ones((1, 1, 2, 2)))
        assert (cache.argmax == 0).all()

    def test_random_matches_naive(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 7, 7))
        out, cache = nk.maxpool_forward(x, 3, 2)
        ref_out, ref_argmax = naive_maxpool(x, 3, 2)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(cache.argmax, ref_argmax)

    @pytest.mark.parametrize("values", [
        (0.0, -0.0),                                     # signed zeros tie
        (-1.0, 0.0, 1.0),                                # many ties
        (0.0, -0.0, np.inf, -np.inf, 1.0, -1.0),
        (0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0),
        (0.0, -0.0, -np.inf, 1.0, -1.0),                 # finite maxima
    ], ids=["signed-zeros", "ties", "infinities", "nans", "neg-infinities"])
    @pytest.mark.parametrize("window, stride", [(2, 2), (3, 2), (2, 1), (3, 3)])
    @pytest.mark.parametrize("layout", ["nchw", "k-major"])
    def test_bytes_and_argmax_match_naive(self, values, window, stride, layout):
        """Finite pooled outputs match the naive loops byte for byte; a
        window whose max is NaN or infinite faults."""
        rng = np.random.default_rng([window, stride, len(values)])
        x = rng.choice(np.array(values), size=(2, 3, 9, 8))
        if layout == "k-major":  # a conv output: (K, N, H, W) memory, seen as NCHW
            x = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
        windows = np.lib.stride_tricks.sliding_window_view(
            x, (window, window), axis=(2, 3))[:, :, ::stride, ::stride]
        if not np.isfinite(windows.max(axis=(4, 5))).all():  # max propagates NaN
            with pytest.raises(NumericFault):
                nk.maxpool_forward(x, window, stride)
            return
        out, cache = nk.maxpool_forward(x, window, stride)
        ref_out, ref_argmax = naive_maxpool(x, window, stride)
        assert out.tobytes() == ref_out.tobytes()
        np.testing.assert_array_equal(cache.argmax, ref_argmax)

    def test_float32_stays_float32(self):
        x = np.random.default_rng(4).standard_normal((2, 2, 6, 6)).astype(np.float32)
        out, cache = nk.maxpool_forward(x, 3, 2)
        ref_out, ref_argmax = naive_maxpool(x, 3, 2)
        assert out.dtype == np.float32 and out.tobytes() == ref_out.tobytes()
        np.testing.assert_array_equal(cache.argmax, ref_argmax)

    def test_window_too_large(self):
        with pytest.raises(ValidationError, match="window"):
            nk.maxpool_forward(np.zeros((1, 1, 2, 2)), 3, 1)

    def test_backward_routes_to_argmax(self):
        x = np.array([[1.0, 2.0], [4.0, 3.0]]).reshape(1, 1, 2, 2)
        out, cache = nk.maxpool_forward(x, 2, 2)
        dx = nk.pool_backward(np.array([[[[5.0]]]]), cache)
        np.testing.assert_array_equal(dx.reshape(2, 2), [[0, 0], [5.0, 0]])

    @pytest.mark.parametrize("window, stride", [(2, 2), (3, 2), (2, 1), (3, 3)])
    def test_backward_matches_naive_scatter(self, window, stride):
        """Each upstream value lands on its window's argmax, added in pooled
        order, on a plane wider than it is tall."""
        rng = np.random.default_rng([window, stride])
        x = rng.integers(0, 4, size=(2, 3, 9, 11)).astype(float)
        out, cache = nk.maxpool_forward(x, window, stride)
        dout = rng.standard_normal(out.shape)
        ref = np.zeros_like(x)
        for ni, ci, y, xo in np.ndindex(out.shape):
            k = cache.argmax[ni, ci, y, xo]
            ref[ni, ci, y * stride + k // window, xo * stride + k % window] += (
                dout[ni, ci, y, xo])
        assert nk.pool_backward(dout, cache).tobytes() == ref.tobytes()

    def test_backward_accumulates_overlaps(self):
        # window 2 stride 1 on a plane whose max repeats across windows
        x = np.array([[0.0, 0.0, 0.0], [0.0, 9.0, 0.0], [0.0, 0.0, 0.0]])
        out, cache = nk.maxpool_forward(x.reshape(1, 1, 3, 3), 2, 1)
        dx = nk.pool_backward(np.ones((1, 1, 2, 2)), cache)
        assert dx[0, 0, 1, 1] == 4.0


class TestFc:
    def test_scalar_chain_rule(self):
        x = np.array([[3.0]])
        w = np.array([[2.0]])
        out, cache = nk.fc_forward(x, w, np.zeros(1))
        assert out == 6.0
        dx, dw, db = nk.fc_backward(np.array([[10.0]]), cache)
        assert dw == 30.0 and dx == 20.0 and db == 10.0

    def test_zero_upstream(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 5))
        w = rng.standard_normal((2, 5))
        out, cache = nk.fc_forward(x, w, np.zeros(2))
        dx, dw, db = nk.fc_backward(np.zeros_like(out), cache)
        assert not dx.any() and not dw.any() and not db.any()

    def test_flattens_nchw_input(self):
        x = np.arange(24, dtype=float).reshape(2, 3, 2, 2)
        w = np.eye(12)
        out, _ = nk.fc_forward(x, w, np.zeros(12))
        np.testing.assert_array_equal(out, x.reshape(2, 12))


class TestSoftmaxXent:
    def test_uniform_logits(self):
        loss, _ = nk.softmax_xent(np.zeros((4, 3)), np.array([0, 1, 2, 0]))
        assert loss == pytest.approx(math.log(3), rel=1e-12)

    def test_saturated_true_class(self):
        logits = np.array([[50.0, 0.0, 0.0]])
        loss, _ = nk.softmax_xent(logits, np.array([0]))
        assert loss < 1e-20

    def test_grad_rows_sum_to_zero(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((6, 9))
        labels = rng.integers(0, 9, size=6)
        _, grad = nk.softmax_xent(logits, labels)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-9)

    def test_loss_nonnegative_and_rows_normalized(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal((5, 4)) * 10
        labels = rng.integers(0, 4, size=5)
        loss, grad = nk.softmax_xent(logits, labels)
        assert loss >= 0
        softmax = grad * 5
        softmax[np.arange(5), labels] += 1
        np.testing.assert_allclose(softmax.sum(axis=1), 1.0, atol=1e-9)

    def test_out_of_range_label(self):
        with pytest.raises(ValidationError, match="range"):
            nk.softmax_xent(np.zeros((2, 3)), np.array([0, 3]))


def _single_param(w0, g):
    params = {"p.weight": nk.ParamEntry(np.array([w0]))}
    return params, {"p.weight": np.array([g])}


class TestSgd:
    def test_vanilla_step(self):
        cfg = nk.SgdConfig(base_lr=0.5, momentum=0.0, weight_decay=0.0,
                           lr_gamma=1.0, lr_step=1, batch_size=1)
        params, grads = _single_param(1.0, 2.0)
        nk.sgd_step(params, grads, cfg, 0)
        assert params["p.weight"].weight[0] == 1.0 - 0.5 * 2.0

    def test_frozen_entry_untouched(self):
        cfg = nk.SgdConfig(base_lr=0.5, momentum=0.9, weight_decay=0.1,
                           lr_gamma=1.0, lr_step=1, batch_size=1)
        params, grads = _single_param(1.0, 2.0)
        params["p.weight"].lr_mult = 0.0
        params["p.weight"].momentum[...] = 3.0
        nk.sgd_step(params, grads, cfg, 0)
        assert params["p.weight"].weight[0] == 1.0
        assert params["p.weight"].momentum[0] == 3.0

    def test_two_step_momentum_recurrence(self):
        # Hand-rolled recurrence: v <- mu*v - eta*g, w <- w + v, in float64.
        mu, eta, g = 0.9, 0.1, 1.0
        v = mu * 0.0 - eta * g
        w = 0.0 + v
        assert (v, w) == (-0.1, -0.1)
        v2 = mu * v - eta * g
        w2 = w + v2
        assert v2 == pytest.approx(-0.19, abs=1e-15)
        assert w2 == pytest.approx(-0.29, abs=1e-15)

        cfg = nk.SgdConfig(base_lr=eta, momentum=mu, weight_decay=0.0,
                           lr_gamma=1.0, lr_step=1, batch_size=1)
        params, grads = _single_param(0.0, g)
        nk.sgd_step(params, grads, cfg, 0)
        assert params["p.weight"].momentum[0] == v
        assert params["p.weight"].weight[0] == w
        nk.sgd_step(params, grads, cfg, 1)
        assert params["p.weight"].momentum[0] == v2
        assert params["p.weight"].weight[0] == w2

    def test_zero_grad_zero_decay_is_identity(self):
        cfg = nk.SgdConfig(base_lr=0.1, momentum=0.0, weight_decay=0.0,
                           lr_gamma=1.0, lr_step=1, batch_size=1)
        params, grads = _single_param(1.2345, 0.0)
        before = params["p.weight"].weight.copy()
        nk.sgd_step(params, grads, cfg, 0)
        np.testing.assert_array_equal(params["p.weight"].weight, before)


class TestLrSchedule:
    CFG = nk.SgdConfig(base_lr=0.01, momentum=0.9, weight_decay=0.0005,
                       lr_gamma=0.1, lr_step=100_000)

    def test_initial_rate(self):
        assert nk.lr_schedule(self.CFG, 0) == 0.01

    def test_factor_ten_at_boundary(self):
        assert nk.lr_schedule(self.CFG, 99_999) == 0.01
        assert nk.lr_schedule(self.CFG, 100_000) == pytest.approx(0.001, rel=1e-12)

    def test_gamma_one_is_constant(self):
        cfg = nk.SgdConfig(base_lr=0.02, lr_gamma=1.0, lr_step=10)
        assert nk.lr_schedule(cfg, 12345) == 0.02

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValidationError):
            nk.lr_schedule(self.CFG, -1)


class TestRelu:
    def test_mask_backward_equals_the_input_test_bytewise(self):
        """The cached mask ``out > 0`` gives the bytes ``dout * (x > 0)``
        gives, on signed zeros, subnormals and negatives."""
        tiny = np.finfo(np.float64).smallest_subnormal
        x = np.array([0.0, -0.0, tiny, -tiny, 4 * tiny, -1.5, 2.0, -0.0, 0.0, 3e-300])
        dout = np.array([-0.0, 0.0, -0.0, -0.0, 1.0, -2.0, -0.0, -3.0, 5.0, 0.0])
        out, cache = nk.relu_forward(x)
        assert cache.dtype == bool
        assert nk.relu_backward(dout, cache).tobytes() == (dout * (x > 0)).tobytes()
        np.testing.assert_array_equal(cache, x > 0)


class TestDropout:
    def test_eval_is_identity(self):
        x = np.random.default_rng(0).random((4, 7))
        out, mask = nk.dropout_forward(x, 0.5, "eval")
        assert out is x and mask is None

    def test_rate_zero_identity_both_modes(self):
        x = np.random.default_rng(1).random((4, 7))
        rng = np.random.default_rng(2)
        for mode in ("train", "eval"):
            out, _ = nk.dropout_forward(x, 0.0, mode, rng)
            np.testing.assert_array_equal(out, x)

    def test_monte_carlo_survival_and_mean(self):
        rng = np.random.default_rng(11)
        x = np.ones(100_000)
        out, mask = nk.dropout_forward(x, 0.5, "train", rng)
        survivors = mask.mean()
        assert abs(survivors - 0.5) < 0.01
        assert abs(out.mean() - 1.0) < 0.02

    def test_backward_uses_same_mask(self):
        rng = np.random.default_rng(12)
        x = np.ones((3, 3))
        out, mask = nk.dropout_forward(x, 0.5, "train", rng)
        dx = nk.dropout_backward(np.ones((3, 3)), mask, 0.5)
        np.testing.assert_array_equal(dx, out)


class TestCheckedMode:
    def test_nan_trips_fault(self):
        x = np.array([[np.nan]])
        with pytest.raises(NumericFault):
            nk.relu_forward(x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("kernel", [
        "conv2d_forward", "conv2d_backward", "maxpool_forward", "pool_backward",
        "relu_forward", "relu_backward", "fc_forward", "fc_backward",
        "dropout_forward", "dropout_backward", "softmax_xent"])
    def test_every_kernel_faults_on_a_non_finite_output(self, kernel, bad):
        """One bad input value reaches each kernel's output, and no setting
        lets it through."""
        assert nk.checked_enabled() and not hasattr(nk, "set_checked")
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 2, 4, 4))
        fc_x = x.reshape(2, -1)
        weight, kernels = rng.standard_normal((3, 32)), rng.standard_normal((2, 2, 3, 3))
        poisoned = x.copy()
        poisoned[0, 0, 1, 1] = bad
        fc_poisoned, logits = poisoned.reshape(2, -1), np.zeros((2, 3))
        logits[0, 1] = bad
        calls = {
            "conv2d_forward": lambda: nk.conv2d_forward(poisoned, kernels, np.zeros(2)),
            "conv2d_backward": lambda: nk.conv2d_backward(
                poisoned[:, :, :2, :2], nk.conv2d_forward(x, kernels, np.zeros(2))[1]),
            "maxpool_forward": lambda: nk.maxpool_forward(poisoned, 2, 2),
            "pool_backward": lambda: nk.pool_backward(
                poisoned[:, :, :2, :2], nk.maxpool_forward(x, 2, 2)[1]),
            "relu_forward": lambda: nk.relu_forward(poisoned),
            "relu_backward": lambda: nk.relu_backward(poisoned, np.ones_like(x)),
            "fc_forward": lambda: nk.fc_forward(fc_poisoned, weight, np.zeros(3)),
            "fc_backward": lambda: nk.fc_backward(
                logits, nk.fc_forward(fc_x, weight, np.zeros(3))[1]),
            "dropout_forward": lambda: nk.dropout_forward(poisoned, 0.5, "train", rng),
            "dropout_backward": lambda: nk.dropout_backward(
                poisoned, rng.random(x.shape) >= 0.5, 0.5),
            "softmax_xent": lambda: nk.softmax_xent(logits, [0, 1]),
        }
        with pytest.raises(NumericFault), np.errstate(all="ignore"):
            calls[kernel]()


class TestTensorIO:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip(self, tmp_path, dtype):
        arr = np.random.default_rng(0).random((2, 3, 4)).astype(dtype)
        path = tmp_path / "t.tnsr"
        nk.save_tensor(arr, path)
        back = nk.load_tensor(path)
        assert back.dtype == arr.dtype and back.shape == arr.shape
        np.testing.assert_array_equal(back, arr)

    def test_failed_replace_keeps_old_tensor(self, tmp_path, monkeypatch):
        path = tmp_path / "t.tnsr"
        nk.save_tensor(np.zeros(3), path)
        before = path.read_bytes()

        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            nk.save_tensor(np.ones(3), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.tnsr"]

    def test_serialization_is_byte_stable(self):
        arr = np.linspace(0, 1, 10)
        assert nk.tensor_to_bytes(arr) == nk.tensor_to_bytes(arr.copy())

    def test_bad_magic_rejected(self):
        with pytest.raises(ValidationError, match="magic"):
            nk.tensor_from_bytes(b"XXXX" + b"\x00" * 32)

    @settings(max_examples=25, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]),
           shape=st.lists(st.integers(0, 3), max_size=3),
           seed=st.integers(0, 2 ** 16))
    def test_every_prefix_rejected(self, dtype, shape, seed):
        arr = np.random.default_rng(seed).random(shape).astype(dtype)
        buf = nk.tensor_to_bytes(arr)
        for cut in range(len(buf)):
            with pytest.raises(ValidationError):
                nk.tensor_from_bytes(buf[:cut])
        back, used = nk.tensor_from_bytes(buf)
        assert used == len(buf)
        np.testing.assert_array_equal(back, arr)

    @pytest.mark.parametrize("dims", [(0, 2 ** 64 - 1), (0, 2 ** 62, 4)])
    def test_empty_payload_with_impossible_dims_rejected(self, dims):
        buf = bytearray(nk.tensor_to_bytes(np.zeros((0,) * len(dims))))
        struct.pack_into(f"<{len(dims)}Q", buf, 20, *dims)
        with pytest.raises(ValidationError, match="corrupt tensor dims"):
            nk.tensor_from_bytes(bytes(buf))

    def test_trailing_bytes_in_file_rejected(self, tmp_path):
        path = tmp_path / "t.tnsr"
        path.write_bytes(nk.tensor_to_bytes(np.zeros(3)) + b"\x00")
        with pytest.raises(ValidationError, match="trailing"):
            nk.load_tensor(path)
