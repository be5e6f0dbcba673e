"""Dense-tensor kernels: layer forward/backward passes, loss, and SGD.

All arrays are numpy ndarrays in row-major NCHW layout, float64 by default
(float32 storage is accepted; reductions go through BLAS/float64 paths).
Checked mode scans every kernel output for NaN/Inf and raises NumericFault;
it is on by default and can be switched off for long runs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import files
from .errors import NumericFault, ValidationError

_CHECKED = True

INIT_STD = 0.01  # Gaussian std for fresh conv/fc weights; biases start at 0


def set_checked(flag: bool) -> bool:
    """Toggle NaN/Inf faulting on kernel outputs; returns the previous value."""
    global _CHECKED
    prev = _CHECKED
    _CHECKED = bool(flag)
    return prev


def checked_enabled() -> bool:
    return _CHECKED


def _guard(*arrays):
    if _CHECKED:
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
    weight: np.ndarray
    grad: np.ndarray
    momentum: np.ndarray
    lr_mult: float = 1.0

    def copy(self) -> "ParamEntry":
        return ParamEntry(self.weight.copy(), self.grad.copy(),
                          self.momentum.copy(), self.lr_mult)


class ParamSet:
    """Named trainable tensors with their gradient and momentum buffers."""

    def __init__(self):
        self._entries: dict[str, ParamEntry] = {}

    def add(self, name: str, weight: np.ndarray, lr_mult: float = 1.0) -> None:
        if name in self._entries:
            raise ValidationError(f"duplicate parameter name {name!r}")
        # np.zeros leaves the pages unwritten (out of RSS) until first used
        self._entries[name] = ParamEntry(
            weight, np.zeros(weight.shape, weight.dtype),
            np.zeros(weight.shape, weight.dtype), lr_mult)

    def __getitem__(self, name: str) -> ParamEntry:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def names(self) -> list[str]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def copy(self) -> "ParamSet":
        out = ParamSet()
        for name, e in self._entries.items():
            out._entries[name] = e.copy()
        return out

    def n_values(self) -> int:
        return sum(e.weight.size for e in self._entries.values())


def default_init(shape, rng: np.random.Generator, dtype=np.float64) -> np.ndarray:
    """Fresh weight tensor: zero-mean Gaussian, std INIT_STD."""
    return rng.normal(0.0, INIT_STD, size=shape).astype(dtype, copy=False)


def lr_schedule(cfg: SgdConfig, iteration: int) -> float:
    """Step schedule: base_lr * gamma^(iteration // step)."""
    if iteration < 0:
        raise ValidationError("iteration must be >= 0")
    return cfg.base_lr * cfg.lr_gamma ** (iteration // cfg.lr_step)


def sgd_step(params: ParamSet, cfg: SgdConfig, iteration: int) -> None:
    """One momentum-SGD update, in place.

    Per entry with effective rate eta = schedule * lr_mult:
    v <- momentum*v - eta*(grad + weight_decay*w); w <- w + v.
    Entries with eta == 0 are skipped entirely so frozen layers stay
    bit-identical, momentum buffer included.
    """
    lr = lr_schedule(cfg, iteration)
    for name in params.names():
        e = params[name]
        eta = lr * e.lr_mult
        if eta == 0.0:
            continue
        e.momentum *= cfg.momentum
        e.momentum -= eta * (e.grad + cfg.weight_decay * e.weight)
        e.weight += e.momentum
        _guard(e.weight)


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


def _im2col(xp, kh, kw, stride, groups):
    """Contiguous (groups, C/groups*kh*kw, N*OH*OW) column matrix of xp."""
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    # (n, c, oh, ow, kh, kw) -> (c, kh, kw, n, oh, ow): rows match the kernels
    cols = np.ascontiguousarray(win.transpose(1, 4, 5, 0, 2, 3))
    n, c, oh, ow = win.shape[:4]
    return cols.reshape(groups, c // groups * kh * kw, n * oh * ow)


def conv2d_forward(x, kernels, bias, stride: int = 1, pad: int = 0,
                   groups: int = 1):
    """Cross-correlation of NCHW input with (K, C/groups, kh, kw) kernels.

    Returns (output, cache). Output spatial dims follow
    floor((H + 2*pad - kh) / stride) + 1; padding is zero-fill. Each group
    is one GEMM of its kernels against the im2col matrix (Caffe's scheme).
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
    out = np.matmul(kernels.reshape(groups, k // groups, -1),
                    _im2col(xp, kh, kw, stride, groups))
    out = out.reshape(k, n, out_h, out_w).transpose(1, 0, 2, 3)
    out += bias[None, :, None, None]
    _guard(out)
    return out, ConvCache(xp, kernels, x.shape, stride, pad, groups)


def conv2d_backward(dout, cache: ConvCache, need_dx: bool = True):
    """Gradients for conv2d_forward: returns (dx, dkernels, dbias).

    With ``need_dx`` false the input gradient is not computed, and dx is an
    empty (0, C, H, W) array in dout's dtype.
    """
    xp, kernels, stride, pad, groups = (
        cache.xp, cache.kernels, cache.stride, cache.pad, cache.groups)
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
    cols = _im2col(xp, kh, kw, stride, groups)
    dw = (dout_mat @ cols.transpose(0, 2, 1)).reshape(kernels.shape)
    dw = dw.astype(kernels.dtype, copy=False)
    del cols  # freed before dcols, a matrix of the same size, is allocated
    if not need_dx:
        dx = np.empty((0, c, h, w), dtype=dout.dtype)
        _guard(dw, db)
        return dx, dw, db
    kmat = kernels.reshape(groups, k // groups, -1)
    dcols = (kmat.transpose(0, 2, 1) @ dout_mat).reshape(c, kh, kw, n, out_h, out_w)
    # col2im: window offset (i, j) adds its (c, n, oh, ow) block at a stride
    dxp = np.zeros((c, n, hp, wp), dtype=dcols.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + stride * out_h:stride,
                j:j + stride * out_w:stride] += dcols[:, i, j]
    dx = dxp.transpose(1, 0, 2, 3)[:, :, pad:pad + h, pad:pad + w]
    dx = dx.astype(dout.dtype, copy=False)
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
    counts the leading offsets whose view differs from the max. A window
    with a NaN gets its first NaN and that offset, as ``np.argmax`` does.
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
    nan_out = np.isnan(out)
    if nan_out.any():
        for k in range(len(views) - 1, -1, -1):  # the lowest NaN offset wins
            first = nan_out & np.isnan(views[k])
            np.copyto(argmax, k, where=first)
            np.copyto(out, views[k], where=first)
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
    rows = (stride * np.arange(out_h))[None, None, :, None] + cache.argmax // window
    cols = (stride * np.arange(out_w))[None, None, None, :] + cache.argmax % window
    plane = np.arange(n * c).reshape(n, c, 1, 1) * (h * w)
    idx = plane + rows * w + cols
    dx = np.bincount(idx.ravel(), weights=dout.ravel(), minlength=n * c * h * w)
    dx = dx.reshape(n, c, h, w).astype(dout.dtype, copy=False)
    _guard(dx)
    return dx


def relu_forward(x):
    out = np.maximum(x, 0.0)
    _guard(out)
    return out, x


def relu_backward(dout, cache):
    dx = dout * (cache > 0)
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


def softmax_xent(logits, labels):
    """Mean cross-entropy over the batch plus its logits gradient.

    Uses max-subtraction for stability. grad = (softmax - onehot) / N.
    """
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ValidationError(f"labels shape {labels.shape} != ({n},)")
    if labels.min() < 0 or labels.max() >= k:
        raise ValidationError(
            f"labels out of range [0, {k}): {labels.min()}..{labels.max()}")
    z = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    rows = np.arange(n)
    loss = float(-logp[rows, labels].mean())
    grad = np.exp(logp)
    grad[rows, labels] -= 1.0
    grad /= n
    _guard(grad)
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
    arr = arr.reshape(dims).astype(dtype.newbyteorder("="), copy=True)
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
