"""Dense-tensor kernels: layer forward/backward passes, loss, and SGD.

All arrays are numpy ndarrays in row-major NCHW layout, float64 by default
(float32 storage is accepted; reductions go through BLAS/float64 paths).
Every kernel output is scanned for NaN/Inf, which raises NumericFault; no
setting turns the scan off.
"""

from __future__ import annotations

import functools
import math
import struct
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import files
from .errors import NumericFault, ValidationError

INIT_STD = 0.01  # Gaussian std for fresh conv/fc weights; biases start at 0


def checked_enabled() -> bool:
    """Always True: every kernel output is scanned (kept for perfbench)."""
    return True


def _guard(*arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NumericFault("non-finite values in kernel output")


# ---------------------------------------------------------------------------
# optimizer state

@dataclass
class SgdConfig:
    base_lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0005
    lr_gamma: float = 0.1
    lr_step: int = 100_000
    batch_size: int = 256

    def __post_init__(self):
        if self.base_lr < 0:
            raise ValidationError("base_lr must be >= 0")
        if not 0 <= self.momentum < 1:
            raise ValidationError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValidationError("weight_decay must be >= 0")
        if not 0 < self.lr_gamma <= 1:
            raise ValidationError("lr_gamma must be in (0, 1]")
        if self.lr_step <= 0:
            raise ValidationError("lr_step must be > 0")
        if self.batch_size <= 0:
            raise ValidationError("batch_size must be > 0")


@dataclass
class ParamEntry:
    """A trainable tensor, its momentum buffer (zeros unless given) and its
    learning-rate multiplier. A model's parameters are a dict of entries by
    name, in layer order."""
    weight: np.ndarray
    momentum: np.ndarray | None = None
    lr_mult: float = 1.0

    def __post_init__(self):
        if self.momentum is None:
            # np.zeros leaves the pages unwritten (out of RSS) until first used
            self.momentum = np.zeros(self.weight.shape, self.weight.dtype)

    def copy(self) -> "ParamEntry":
        return ParamEntry(self.weight.copy(), self.momentum.copy(), self.lr_mult)


def default_init(shape, rng: np.random.Generator, dtype=np.float64,
                 std: float = INIT_STD) -> np.ndarray:
    """Fresh weight tensor: zero-mean Gaussian, std INIT_STD by default."""
    return rng.normal(0.0, std, size=shape).astype(dtype, copy=False)


def lr_schedule(cfg: SgdConfig, iteration: int) -> float:
    """Step schedule: base_lr * gamma^(iteration // step)."""
    if iteration < 0:
        raise ValidationError("iteration must be >= 0")
    return cfg.base_lr * cfg.lr_gamma ** (iteration // cfg.lr_step)


def _momentum_step(e: ParamEntry, grad, eta: float, cfg: SgdConfig) -> None:
    """v <- momentum*v - eta*(grad + weight_decay*w); w <- w + v, in place.
    At eta == 0 nothing changes, momentum buffer included."""
    if eta == 0.0:
        return
    e.momentum *= cfg.momentum
    e.momentum -= eta * (grad + cfg.weight_decay * e.weight)
    e.weight += e.momentum
    _guard(e.weight)


def sgd_step(params: dict[str, ParamEntry], grads: dict, cfg: SgdConfig,
             iteration: int) -> None:
    """One momentum-SGD update of ``params`` from ``grads`` (entry name ->
    gradient), in place, each entry at rate eta = schedule * lr_mult.
    Entries with eta == 0 are skipped entirely so frozen layers stay
    bit-identical, momentum buffer included.
    """
    lr = lr_schedule(cfg, iteration)
    for name, e in params.items():
        _momentum_step(e, grads[name], lr * e.lr_mult, cfg)


# ---------------------------------------------------------------------------
# layers

@dataclass
class ConvCache:
    xp: np.ndarray  # zero-padded input (the input itself when pad is 0)
    kernels: np.ndarray
    x_shape: tuple
    stride: int
    pad: int
    groups: int


# A conv builds its im2col matrix in spans of at most this many bytes, each
# of whole samples (forward) or whole channels of one group (kernel
# gradient), one at least. A layer whose whole matrix fits takes one span.
# A span's width can change a GEMM's last bits: at 8 MiB desk conv2's
# kernel gradient runs in 4-5-channel spans, which differ from the one-GEMM
# product under a two-thread OpenBLAS; its 8-channel spans at 16 MiB do not
IM2COL_BYTES = 16 << 20


def _spans(lo, hi, unit_bytes):
    """[lo, hi) cut into the fewest runs of whole units of ``unit_bytes``
    that each fit IM2COL_BYTES (one unit at least), as even as integer cuts
    make them, so no run is a small remainder."""
    parts = -(-(hi - lo) // max(1, IM2COL_BYTES // unit_bytes))
    if parts <= 1:
        return ((lo, hi),)
    cuts = [lo + (hi - lo) * i // parts for i in range(parts + 1)]
    return tuple(zip(cuts, cuts[1:]))


def _span_bytes(lo, hi, unit_bytes):
    """Bytes of the largest of ``_spans(lo, hi, unit_bytes)``."""
    return max(b - a for a, b in _spans(lo, hi, unit_bytes)) * unit_bytes


def _im2col(x, kh, kw, stride, cols):
    """Write the im2col columns of x into ``cols``, a C-contiguous buffer of
    C*kh*kw rows and N*OH*OW columns laid out (c, kh, kw, n, oh, ow), so its
    rows match the kernels."""
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    # (n, c, oh, ow, kh, kw) -> (c, kh, kw, n, oh, ow)
    win = win.transpose(1, 4, 5, 0, 2, 3)
    np.copyto(cols.reshape(win.shape), win)


def _conv_gemm(kmat, xp, kh, kw, stride, buf, out, lo, hi):
    """Samples [lo, hi) of a forward, one span of whole samples at a time:
    the span's im2col columns into ``buf``, then its GEMM into the span's
    columns of ``out``. It writes only the caller's buffers, so on the
    worker thread it allocates nothing large."""
    groups, _, rows = kmat.shape
    per = out.shape[2] // len(xp)
    for a, b in _spans(lo, hi, groups * rows * per * buf.itemsize):
        cols = buf[:groups * rows * (b - a) * per].reshape(groups, rows, -1)
        _im2col(xp[a:b], kh, kw, stride, cols)
        np.matmul(kmat, cols, out=out[:, :, a * per:b * per])


def conv2d_forward(x, kernels, bias, stride: int = 1, pad: int = 0,
                   groups: int = 1, train: bool = False):
    """Cross-correlation of NCHW input with (K, C/groups, kh, kw) kernels.

    Returns (output, cache). Output spatial dims follow
    floor((H + 2*pad - kh) / stride) + 1; padding is zero-fill. Each group
    is a GEMM of its kernels against the im2col matrix (Caffe's scheme),
    built and multiplied in spans of whole samples of at most IM2COL_BYTES,
    each into its own columns of the one output buffer.

    An eval forward is one chain of spans over the batch. A training
    forward of n >= 2 samples is two, one per batch half [0, n//2) and
    [n//2, n), each with a span buffer of its own; from the main thread the
    worker runs the second half. The split is the same on every thread,
    and a span is an N-split of the same GEMM, so the bytes are too.
    """
    n, c, h, w = x.shape
    k, cg, kh, kw = kernels.shape
    if c != cg * groups or k % groups != 0:
        raise ValidationError(
            f"channel mismatch: input {x.shape} vs kernels {kernels.shape} "
            f"with groups={groups}")
    if bias.shape != (k,):
        raise ValidationError(f"bias shape {bias.shape} != ({k},)")
    if h + 2 * pad < kh or w + 2 * pad < kw:
        raise ValidationError(
            f"kernel {kernels.shape} larger than padded input {x.shape} (pad={pad})")

    xp = x
    if pad:
        xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        xp[:, :, pad:pad + h, pad:pad + w] = x
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    kmat = kernels.reshape(groups, k // groups, -1)
    sample_bytes = c * kh * kw * out_h * out_w * xp.itemsize
    chains = [(0, n // 2), (n // 2, n)] if train and n >= 2 else [(0, n)]
    sizes = [_span_bytes(lo, hi, sample_bytes) // xp.itemsize for lo, hi in chains]
    buf = np.empty(sum(sizes), xp.dtype)  # one allocation, a part per chain
    out = np.empty((groups, k // groups, n * out_h * out_w),
                   np.result_type(kmat, xp))
    gemms = [functools.partial(_conv_gemm, kmat, xp, kh, kw, stride,
                               buf[start:start + size], out, lo, hi)
             for (lo, hi), start, size in zip(chains, (0, sizes[0]), sizes)]
    if len(gemms) == 2:
        _two_chains(*gemms)
    else:
        gemms[0]()
    out = out.reshape(k, n, out_h, out_w).transpose(1, 0, 2, 3)
    out += bias[None, :, None, None]
    _guard(out)
    return out, ConvCache(xp, kernels, x.shape, stride, pad, groups)


@functools.cache
def _dw_worker():
    """The one thread that runs the main thread's second chain of conv work,
    made on first use: a training forward's second batch half, or
    backward's kernel gradient, into buffers the caller allocated."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(1, thread_name_prefix="conv-dw")


def _two_chains(mine, theirs):
    """Run the chains ``theirs`` and ``mine``; returns mine's result. From
    the main thread ``theirs`` runs on the worker meanwhile, and both are
    done before this returns or raises, so their buffers may be freed. A
    library caller's own threads, which may share the cores, run both in
    turn."""
    if threading.current_thread() is not threading.main_thread():
        theirs()
        return mine()
    job = _dw_worker().submit(theirs)
    try:
        result = mine()
    finally:
        job.exception()  # joins
    job.result()  # re-raises the worker's error, if any
    return result


def _conv_dw(dout_mat, xp, kh, kw, stride, buf, dw):
    """Kernel gradient dout_mat @ im2col(xp)^T into ``dw``, one span of
    whole channels of one group at a time: the span's im2col rows into
    ``buf``, then its GEMM into the span's columns of ``dw``. It writes
    only the caller's buffers, so on the worker thread it allocates
    nothing large."""
    groups, _, rows = dw.shape
    taps, cg = kh * kw, rows // (kh * kw)
    width = dout_mat.shape[2]
    for g in range(groups):
        for a, b in _spans(0, cg, taps * width * buf.itemsize):
            cols = buf[:(b - a) * taps * width].reshape(-1, width)
            _im2col(xp[:, g * cg + a:g * cg + b], kh, kw, stride, cols)
            np.matmul(dout_mat[g], cols.T, out=dw[g, :, a * taps:b * taps])


def _conv_dx(dout_mat, cache: ConvCache, dtype):
    """Input gradient built one kernel offset at a time: a GEMM of that
    offset's kernel column against dout_mat, added into the strided slice
    of the padded input it came from."""
    kernels, stride, pad, groups = (
        cache.kernels, cache.stride, cache.pad, cache.groups)
    k, cg, kh, kw = kernels.shape
    n, c, h, w = cache.x_shape
    hp, wp = cache.xp.shape[2:]
    out_h, out_w = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    # kern[i, j]: offset (i, j)'s (groups, K/groups, C/groups) block,
    # contiguous so that every numpy hands each GEMM to BLAS
    kern = np.ascontiguousarray(
        kernels.reshape(groups, k // groups, cg, kh, kw).transpose(3, 4, 0, 1, 2))
    dxp = np.zeros((c, n, hp, wp), np.result_type(kernels, dout_mat))
    dcol = np.empty((groups, cg, n * out_h * out_w), dxp.dtype)
    for i in range(kh):
        for j in range(kw):
            np.matmul(kern[i, j].transpose(0, 2, 1), dout_mat, out=dcol)
            dxp[:, :, i:i + stride * out_h:stride,
                j:j + stride * out_w:stride] += dcol.reshape(c, n, out_h, out_w)
    dx = dxp.transpose(1, 0, 2, 3)[:, :, pad:pad + h, pad:pad + w]
    return dx.astype(dtype, copy=False)


def conv2d_backward(dout, cache: ConvCache, need_dx: bool = True):
    """Gradients for conv2d_forward: returns (dx, dkernels, dbias).

    With ``need_dx`` false the input gradient is not computed, and dx is an
    empty (0, C, H, W) array in dout's dtype. Otherwise, on the main thread,
    the kernel gradient runs on a worker thread while the caller builds dx
    one kernel offset at a time (``_conv_dx``). Any other thread runs both
    in turn, so a library caller's own threads add no threads. The bytes
    are the same either way. The kernel gradient builds the im2col matrix
    in spans of whole channels of at most IM2COL_BYTES, into one buffer the
    caller allocates, and multiplies each span into its own columns of dw.
    """
    xp, kernels, stride, groups = cache.xp, cache.kernels, cache.stride, cache.groups
    n, c, h, w = cache.x_shape
    k, cg, kh, kw = kernels.shape
    hp, wp = xp.shape[2:]
    out_h, out_w = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    if dout.shape != (n, k, out_h, out_w):
        raise ValidationError(
            f"upstream gradient shape {dout.shape} does not match forward "
            f"output (n={n}, k={k}, spatial={(out_h, out_w)})")

    db = dout.sum(axis=(0, 2, 3))
    dout_mat = dout.transpose(1, 0, 2, 3).reshape(groups, k // groups, -1)
    channel_bytes = kh * kw * n * out_h * out_w * xp.itemsize
    buf = np.empty(_span_bytes(0, cg, channel_bytes) // xp.itemsize, xp.dtype)
    dw = np.empty((groups, k // groups, cg * kh * kw),
                  np.result_type(dout_mat, xp))
    dw_chain = functools.partial(_conv_dw, dout_mat, xp, kh, kw, stride, buf, dw)
    if need_dx:
        dx = _two_chains(
            functools.partial(_conv_dx, dout_mat, cache, dout.dtype), dw_chain)
    else:
        dw_chain()
        dx = np.empty((0, c, h, w), dtype=dout.dtype)
    dw = dw.reshape(kernels.shape).astype(kernels.dtype, copy=False)
    _guard(dx, dw, db)
    return dx, dw, db


@dataclass
class PoolCache:
    argmax: np.ndarray  # flat index into each window, lowest index on ties
    x_shape: tuple
    window: int
    stride: int


def maxpool_forward(x, window: int, stride: int):
    """Max over (window x window) patches; ties keep the lowest linear index.

    The max is a running ``np.maximum`` over one strided view of ``x`` per
    window offset, so no window tensor is copied. On a tie ``np.maximum``
    returns its second operand, the running max, so the output holds the
    value at the lowest tied offset, signed zeros included. The argmax
    counts the leading offsets whose view differs from the max.
    """
    n, c, h, w = x.shape
    if window > h or window > w:
        raise ValidationError(
            f"pool window {window} exceeds spatial dims of input {x.shape}")
    out_h, out_w = (h - window) // stride + 1, (w - window) // stride + 1
    views = [x[:, :, i:i + stride * (out_h - 1) + 1:stride,
               j:j + stride * (out_w - 1) + 1:stride]
             for i in range(window) for j in range(window)]
    out = views[0].copy()
    for view in views[1:]:
        np.maximum(view, out, out=out)
    miss = views[0] != out  # no offset up to this one holds the max
    argmax = miss.astype(np.intp)
    for view in views[1:-1]:
        miss &= view != out
        argmax += miss
    _guard(out)
    return out, PoolCache(argmax, x.shape, window, stride)


def pool_backward(dout, cache: PoolCache):
    """Scatter upstream gradients to each window's argmax position."""
    n, c, h, w = cache.x_shape
    window, stride = cache.window, cache.stride
    out_h, out_w = cache.argmax.shape[2:]
    if dout.shape != cache.argmax.shape:
        raise ValidationError(
            f"upstream gradient shape {dout.shape} != pooled shape {cache.argmax.shape}")
    # offset k of a window sits k + (k // window) * (w - window) elements past
    # its corner; integer % has no fast path, so the column is never formed
    idx = cache.argmax // window
    idx *= w - window
    idx += cache.argmax
    idx += np.arange(n * c).reshape(n, c, 1, 1) * (h * w)
    idx += stride * (w * np.arange(out_h)[:, None] + np.arange(out_w))
    dx = np.bincount(idx.ravel(), weights=dout.ravel(), minlength=n * c * h * w)
    dx = dx.reshape(n, c, h, w).astype(dout.dtype, copy=False)
    _guard(dx)
    return dx


def relu_forward(x):
    """Returns ``max(x, 0)`` and, as its cache, the bool mask ``out > 0``
    (equal to ``x > 0`` for finite ``x``), a byte per value in place of the
    input."""
    out = np.maximum(x, 0.0)
    _guard(out)
    return out, out > 0


def relu_backward(dout, cache):
    dx = dout * cache
    _guard(dx)
    return dx


@dataclass
class FcCache:
    x_flat: np.ndarray
    x_shape: tuple
    weight: np.ndarray


def fc_forward(x, weight, bias):
    """Dense layer on flattened input; weight is (units, in_features)."""
    xf = x.reshape(x.shape[0], -1)
    if xf.shape[1] != weight.shape[1]:
        raise ValidationError(
            f"fc input width {xf.shape[1]} != weight shape {weight.shape}")
    out = xf @ weight.T + bias
    _guard(out)
    return out, FcCache(xf, x.shape, weight)


def fc_backward(dout, cache: FcCache):
    dw = dout.T @ cache.x_flat
    db = dout.sum(axis=0)
    dx = (dout @ cache.weight).reshape(cache.x_shape)
    _guard(dx, dw, db)
    return dx, dw, db


def dropout_forward(x, rate: float, mode: str, rng: np.random.Generator | None = None):
    """Inverted dropout: train mode zeros units w.p. rate and rescales
    survivors by 1/(1-rate); eval mode is the identity.

    Returns (output, mask); mask is None in eval mode or at rate 0.
    """
    if not 0 <= rate < 1:
        raise ValidationError("dropout rate must be in [0, 1)")
    if mode not in ("train", "eval"):
        raise ValidationError(f"unknown dropout mode {mode!r}")
    if mode == "eval" or rate == 0.0:
        return x, None
    if rng is None:
        raise ValidationError("train-mode dropout needs a generator")
    mask = rng.random(x.shape) >= rate
    out = x * mask / (1.0 - rate)
    _guard(out)
    return out, mask


def dropout_backward(dout, mask, rate: float):
    if mask is None:
        return dout
    dx = dout * mask / (1.0 - rate)
    _guard(dx)
    return dx


def _xent_grad(logits, labels):
    """Softmax cross-entropy over the last axis of ``logits``, with any
    leading dims and ``labels`` of those dims: returns the log-softmax and
    the gradient of the loss averaged over the second-to-last (batch) axis,
    (softmax - onehot) / N. Uses max-subtraction for stability."""
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    grad = np.exp(logp).reshape(-1, logits.shape[-1])
    grad[np.arange(len(grad)), np.ravel(labels)] -= 1.0
    grad = grad.reshape(logits.shape)
    grad /= logits.shape[-2]
    _guard(grad)
    return logp, grad


def softmax_xent(logits, labels):
    """Mean cross-entropy over the batch plus its logits gradient."""
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ValidationError(f"labels shape {labels.shape} != ({n},)")
    if labels.min() < 0 or labels.max() >= k:
        raise ValidationError(
            f"labels out of range [0, {k}): {labels.min()}..{labels.max()}")
    logp, grad = _xent_grad(logits, labels)
    loss = float(-logp[np.arange(n), labels].mean())
    if not np.isfinite(loss):
        raise NumericFault("non-finite loss")
    return loss, grad


# ---------------------------------------------------------------------------
# tensor file format

_MAGIC = b"HCTN"
_IO_VERSION = 1
_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODE_OF = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}


def tensor_to_bytes(arr: np.ndarray) -> bytes:
    """Serialize: magic, version u32, dtype code u32, rank u64, dims u64*,
    then raw little-endian row-major values."""
    code = _CODE_OF.get(np.dtype(arr.dtype))
    if code is None:
        raise ValidationError(f"unsupported dtype {arr.dtype}")
    header = _MAGIC + struct.pack("<II", _IO_VERSION, code)
    header += struct.pack("<Q", arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    return header + np.ascontiguousarray(arr).astype(_DTYPE_CODES[code]).tobytes()


def tensor_from_bytes(buf: bytes, offset: int = 0):
    """Inverse of tensor_to_bytes; returns (array, bytes consumed).

    Header, dims and payload are checked against the buffer's length, so
    truncated or corrupt bytes raise ValidationError."""
    if buf[offset:offset + 4] != _MAGIC:
        raise ValidationError("bad tensor magic")
    if len(buf) < offset + 20:
        raise ValidationError("truncated tensor header")
    version, code = struct.unpack_from("<II", buf, offset + 4)
    if version != _IO_VERSION:
        raise ValidationError(f"unsupported tensor format version {version}")
    dtype = _DTYPE_CODES.get(code)
    if dtype is None:
        raise ValidationError(f"unknown dtype code {code}")
    (rank,) = struct.unpack_from("<Q", buf, offset + 12)
    start = offset + 20 + 8 * rank
    if start > len(buf):
        raise ValidationError(f"truncated tensor header: rank {rank}")
    dims = struct.unpack_from(f"<{rank}Q", buf, offset + 20)
    count = math.prod(dims)
    if start + count * dtype.itemsize > len(buf):
        raise ValidationError(f"truncated tensor payload for dims {dims}")
    arr = np.frombuffer(buf, dtype=dtype, count=count, offset=start)
    try:  # an empty payload passes the length check with any other dims
        arr = arr.reshape(dims)
    except ValueError as exc:
        raise ValidationError(f"corrupt tensor dims {dims}: {exc}") from exc
    arr = arr.astype(dtype.newbyteorder("="), copy=True)
    return arr, start + count * dtype.itemsize - offset


def save_tensor(arr: np.ndarray, path) -> None:
    files.write_bytes(path, tensor_to_bytes(arr))


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        buf = fh.read()
    arr, used = tensor_from_bytes(buf)
    if used != len(buf):
        raise ValidationError(f"{len(buf) - used} trailing bytes after the tensor")
    return arr
