"""Network assembly from layer descriptors, checkpoints, and head surgery.

A ModelSpec is an ordered list of layer descriptors ending in a fully
connected output head. Checkpoints bundle the spec with its parameters
(a dict of ``nnkernel.ParamEntry`` by entry name, in layer order), an
iteration counter and a phase tag, and round-trip through a versioned,
CRC32-sealed binary file byte-identically.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import zlib
from dataclasses import dataclass, replace

import numpy as np

from . import files
from . import nnkernel as nk
from . import strict
from .errors import NumericFault, ValidationError
from .taxonomy import LabelMap

PHASE_TAGS = ("basic", "subordinate", "transfer")
INITS = ("fixed", "scaled")


class Layer:
    """Base of the layer kinds. Each kind is a frozen dataclass whose fields
    are the descriptor a checkpoint manifest stores under its ``kind``, and
    defines its output-shape rule, its weight shape, and a ``forward`` and a
    ``backward`` that each make exactly one call into :mod:`nnkernel`.
    ``backward`` returns the input gradient and the layer's parameter
    gradients by entry name, or a call that returns them with one more
    nnkernel call, made after the last layer's backward (see
    :func:`backward`); with ``need_dx`` false a layer may skip the input
    gradient, and what it returns in its place is unused.
    """

    def _error(self, message: str) -> ValidationError:
        return ValidationError(f"layer {self.name!r}: {message}")

    def _chw(self, shape) -> tuple:
        if len(shape) != 3:
            raise self._error(f"{self.kind} needs CHW input, got {shape}")
        return shape

    def out_shape(self, shape: tuple) -> tuple:
        """Output shape for input ``shape``; raises naming the layer."""
        return shape

    def param_shape(self, shape_in: tuple) -> tuple | None:
        """Weight shape (one bias per leading row); None if parameterless."""
        return None

    def _weights(self, params: dict[str, nk.ParamEntry]) -> tuple:
        return (params[f"{self.name}.weight"].weight,
                params[f"{self.name}.bias"].weight)

    def _grads(self, dx, dw, db) -> tuple:
        return dx, {f"{self.name}.weight": dw, f"{self.name}.bias": db}


@dataclass(frozen=True)
class Conv(Layer):
    kind = "conv"
    name: str
    maps: int
    kh: int
    kw: int
    stride: int = 1
    pad: int = 0
    groups: int = 1

    def out_shape(self, shape):
        c, h, w = self._chw(shape)
        if (min(self.maps, self.kh, self.kw, self.stride, self.groups) < 1
                or self.pad < 0):
            raise self._error("maps, kernel, stride, groups must be >= 1, pad >= 0")
        if c % self.groups or self.maps % self.groups:
            raise self._error(f"channels {c} / maps {self.maps} "
                              f"not divisible by groups {self.groups}")
        oh = (h + 2 * self.pad - self.kh) // self.stride + 1
        ow = (w + 2 * self.pad - self.kw) // self.stride + 1
        if oh < 1 or ow < 1:
            raise self._error(f"kernel does not fit input {shape}")
        return (self.maps, oh, ow)

    def param_shape(self, shape_in):
        return (self.maps, shape_in[0] // self.groups, self.kh, self.kw)

    def forward(self, params, x, mode, rng):
        """A training forward splits its GEMM by batch half, run on two
        threads from the main thread; an eval forward is one GEMM."""
        return nk.conv2d_forward(x, *self._weights(params), self.stride,
                                 self.pad, self.groups, mode == "train")

    def backward(self, grad, cache, need_dx):
        return self._grads(*nk.conv2d_backward(grad, cache, need_dx))


@dataclass(frozen=True)
class MaxPool(Layer):
    kind = "maxpool"
    name: str
    window: int
    stride: int

    def out_shape(self, shape):
        c, h, w = self._chw(shape)
        if self.window > h or self.window > w or min(self.window, self.stride) < 1:
            raise self._error(f"window {self.window} with stride {self.stride} "
                              f"does not fit {shape}")
        return (c, (h - self.window) // self.stride + 1,
                (w - self.window) // self.stride + 1)

    def forward(self, params, x, mode, rng):
        return nk.maxpool_forward(x, self.window, self.stride)

    def backward(self, grad, cache, need_dx):
        return nk.pool_backward(grad, cache), {}


@dataclass(frozen=True)
class Relu(Layer):
    kind = "relu"
    name: str

    def forward(self, params, x, mode, rng):
        return nk.relu_forward(x)

    def backward(self, grad, cache, need_dx):
        return nk.relu_backward(grad, cache), {}


@dataclass(frozen=True)
class Dropout(Layer):
    kind = "dropout"
    name: str
    rate: float

    def out_shape(self, shape):
        if not 0 <= self.rate < 1:
            raise self._error(f"rate {self.rate} must be in [0, 1)")
        return shape

    def forward(self, params, x, mode, rng):
        return nk.dropout_forward(x, self.rate, mode, rng)

    def backward(self, grad, cache, need_dx):
        return nk.dropout_backward(grad, cache, self.rate), {}


@dataclass(frozen=True)
class Fc(Layer):
    kind = "fc"
    name: str
    units: int

    def out_shape(self, shape):
        if self.units < 1:
            raise self._error(f"units {self.units} must be >= 1")
        return (self.units,)

    def param_shape(self, shape_in):
        return (self.units, math.prod(shape_in))

    def forward(self, params, x, mode, rng):
        return nk.fc_forward(x, *self._weights(params))

    def backward(self, grad, cache, need_dx):
        """The input gradient now; the parameter gradients as a call that
        holds ``grad`` and the flattened input, not the cache."""
        dx = nk.fc_backward(grad, cache, need_dx, need_dw=False)[0]
        rest = nk.FcCache(cache.x_flat, cache.x_shape, cache.weight)
        return dx, lambda: self._grads(*nk.fc_backward(grad, rest, False))[1]


_LAYERS = {cls.kind: cls for cls in (Conv, MaxPool, Relu, Dropout, Fc)}


def _layer_from_dict(path: str, d: dict) -> Layer:
    """One descriptor from its manifest form, built by :func:`strict.build`."""
    kind = d.get("kind") if isinstance(d, dict) else None
    if not (isinstance(kind, str) and kind in _LAYERS):
        raise ValidationError(f"{path}.kind: must be one of {', '.join(_LAYERS)}")
    return strict.build(_LAYERS[kind], {k: v for k, v in d.items() if k != "kind"},
                        path)


@dataclass(frozen=True)
class ModelSpec:
    input_shape: tuple[int, int, int]
    layers: tuple

    def __post_init__(self):
        if min(self.input_shape) < 1:
            raise ValidationError(f"input_shape {self.input_shape} must be >= 1")

    @property
    def n_outputs(self) -> int:
        return self.layers[-1].units

    @property
    def head_name(self) -> str:
        return self.layers[-1].name

    def layer_index(self, name: str) -> int:
        """Position of the layer called ``name``; raises if there is none."""
        for i, layer in enumerate(self.layers):
            if layer.name == name:
                return i
        raise ValidationError(f"no layer named {name!r}")

    def conv_names(self) -> list[str]:
        return [l.name for l in self.layers if l.kind == "conv"]

    def with_outputs(self, n_outputs: int) -> "ModelSpec":
        head = replace(self.layers[-1], units=n_outputs)
        return ModelSpec(self.input_shape, self.layers[:-1] + (head,))

    def param_shapes(self) -> dict[str, tuple]:
        """Weight shapes per parameterized layer, via a dry-run shape pass."""
        shapes: dict[str, tuple] = {}
        for layer, shape_in, _ in self.shape_chain():
            shape = layer.param_shape(shape_in)
            if shape is not None:
                shapes[layer.name] = shape
        return shapes

    def shape_chain(self) -> list[tuple]:
        """[(layer, shape_in, shape_out), ...]; raises naming the bad layer."""
        if not self.layers or self.layers[-1].kind != "fc":
            raise ValidationError("last layer must be a fc output head")
        names = [l.name for l in self.layers]
        if len(set(names)) != len(names):
            raise ValidationError("layer names must be unique")
        chain = []
        shape = tuple(self.input_shape)
        for layer in self.layers:
            shape_out = layer.out_shape(shape)
            chain.append((layer, shape, shape_out))
            shape = shape_out
        return chain

    def to_dict(self) -> dict:
        return {"input_shape": list(self.input_shape),
                "layers": [{"kind": l.kind, **vars(l)} for l in self.layers]}

    @staticmethod
    def from_dict(d: dict, path: str = "spec") -> "ModelSpec":
        layers = tuple(_layer_from_dict(f"{path}.layers[{i}]", ld)
                       for i, ld in enumerate(d["layers"]))
        with strict.at(path):
            return ModelSpec(tuple(d["input_shape"]), layers)


def desk_spec(n_outputs: int, input_shape=(3, 32, 32)) -> ModelSpec:
    """Default desk-scale classifier: three conv blocks, two fc layers."""
    return ModelSpec(tuple(input_shape), (
        Conv("conv1", 32, 5, 5, stride=1, pad=2),
        Relu("relu1"),
        MaxPool("pool1", 2, 2),
        Conv("conv2", 64, 5, 5, stride=1, pad=2),
        Relu("relu2"),
        MaxPool("pool2", 2, 2),
        Conv("conv3", 64, 3, 3, stride=1, pad=1),
        Relu("relu3"),
        Fc("fc1", 256),
        Dropout("drop1", 0.5),
        Fc("fc2", n_outputs),
    ))


def alexnet_spec(n_outputs: int = 308) -> ModelSpec:
    """Full AlexNet shape (grouped conv2/4/5, 227x227 input)."""
    return ModelSpec((3, 227, 227), (
        Conv("conv1", 96, 11, 11, stride=4, pad=0),
        Relu("relu1"),
        MaxPool("pool1", 3, 2),
        Conv("conv2", 256, 5, 5, stride=1, pad=2, groups=2),
        Relu("relu2"),
        MaxPool("pool2", 3, 2),
        Conv("conv3", 384, 3, 3, stride=1, pad=1),
        Relu("relu3"),
        Conv("conv4", 384, 3, 3, stride=1, pad=1, groups=2),
        Relu("relu4"),
        Conv("conv5", 256, 3, 3, stride=1, pad=1, groups=2),
        Relu("relu5"),
        MaxPool("pool3", 3, 2),
        Fc("fc6", 4096),
        Relu("relu6"),
        Dropout("drop6", 0.5),
        Fc("fc7", 4096),
        Relu("relu7"),
        Dropout("drop7", 0.5),
        Fc("fc8", n_outputs),
    ))


@dataclass
class Checkpoint:
    spec: ModelSpec
    params: dict[str, nk.ParamEntry]
    iteration: int = 0
    phase_tag: str = "basic"

    def copy(self) -> "Checkpoint":
        return Checkpoint(self.spec, {n: e.copy() for n, e in self.params.items()},
                          self.iteration, self.phase_tag)


def parameter_count(spec: ModelSpec) -> int:
    """Weights plus one bias per weight row, over every layer."""
    return sum(math.prod(s) + s[0] for s in spec.param_shapes().values())


def build_model(spec: ModelSpec, seed: int, dtype=np.float64,
                phase_tag: str = "basic", init: str = "fixed") -> Checkpoint:
    """Freshly initialized model: Gaussian weights, zero biases, iteration 0.

    ``fixed`` draws every weight at std 0.01 (the reference framework's
    default, suitable at full scale). ``scaled`` draws at sqrt(2/fan_in);
    small desk-scale networks need it, since at their fan-ins the fixed std
    leaves the forward signal orders of magnitude too weak to train.
    """
    if phase_tag not in PHASE_TAGS:
        raise ValidationError(f"unknown phase tag {phase_tag!r}")
    if init not in INITS:
        raise ValidationError(f"unknown init scheme {init!r}")
    shapes = spec.param_shapes()  # raises on a broken shape chain
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in shapes.items():  # in layer order
        std = nk.INIT_STD if init == "fixed" else np.sqrt(2.0 / np.prod(shape[1:]))
        params[f"{name}.weight"] = nk.ParamEntry(nk.default_init(shape, rng, dtype, std))
        params[f"{name}.bias"] = nk.ParamEntry(np.zeros(shape[0], dtype=dtype))
    return Checkpoint(spec=spec, params=params, iteration=0, phase_tag=phase_tag)


# ---------------------------------------------------------------------------
# forward / backward over a spec

def _in_layer(layer: Layer, direction: str, call, *args):
    """``call(*args)``, a NumericFault from it renamed after the layer."""
    try:
        return call(*args)
    except NumericFault as exc:
        raise NumericFault(f"layer {layer.name!r} {direction}: {exc}") from exc


def _layer_forward(layer: Layer, params: dict[str, nk.ParamEntry], x, mode: str, rng):
    return _in_layer(layer, "forward", layer.forward, params, x, mode, rng)


def _executed(layers) -> list:
    """``layers`` in the order a forward runs them: a MaxPool (window >= 2)
    that directly follows a Relu runs first, as relu(max(x)) = max(relu(x)),
    so relu's mask and backward are pool-sized. Bytes are kept: relu never
    outputs -0.0, and a live window routes to the same offset either way. A
    dead window's input gradient turns from the -0.0 relu's mask may make to
    bincount's +0.0, which a conv absorbs: its GEMM accumulators and dxp
    start at +0.0 and never hold -0.0, and no bias gradient sums -0.0 alone,
    as every plane has a position no window of 2 or more routes to."""
    order = list(layers)
    for i, (a, b) in enumerate(zip(layers, layers[1:])):
        if a.kind == "relu" and b.kind == "maxpool" and b.window > 1:
            order[i:i + 2] = b, a
    return order


def forward(spec: ModelSpec, params: dict[str, nk.ParamEntry], x, mode: str = "eval",
            rng: np.random.Generator | None = None):
    """Run the layer chain in :func:`_executed` order; returns (logits,
    caches) for :func:`backward`, the caches in that order."""
    act = x
    caches = []
    for layer in _executed(spec.layers):
        act, cache = _layer_forward(layer, params, act, mode, rng)
        caches.append((layer, cache))
    return act, caches


def backward(params: dict[str, nk.ParamEntry], caches, dlogits) -> dict:
    """Backpropagate through cached layers; returns every parameter's
    gradient by entry name, in that parameter's dtype.

    Consumes ``caches``: as each layer's backward returns, its entry becomes
    ``(layer, None)``, so the step holds only the caches its remaining layers
    read. Nothing reads the gradient with respect to the network's input, so
    the first layer is asked not to compute it (a conv or fc layer then
    skips its input-gradient GEMM).

    Each layer's backward runs once, in reverse order. An fc layer returns
    its input gradient at its turn, when its cache dies too, but its weight
    and bias gradients are made only after the first layer's backward, from
    its flattened input and upstream gradient (1 MiB on desk), so fc1's
    8 MiB weight gradient is not alive during any conv layer's backward. A
    fault there names the layer's backward too.
    """
    grad, pending = dlogits, []
    for i in range(len(caches) - 1, -1, -1):
        layer, cache = caches[i]
        grad, layer_grads = _in_layer(layer, "backward", layer.backward,
                                      grad, cache, i > 0)
        caches[i] = (layer, None)
        del cache
        pending.append((layer, layer_grads))
    grads = {}
    for layer, layer_grads in pending:
        if callable(layer_grads):
            layer_grads = _in_layer(layer, "backward", layer_grads)
        for name, g in layer_grads.items():
            grads[name] = g.astype(params[name].weight.dtype, copy=False)
    return grads


# rows of every eval forward, the last batch zero-padded: BLAS may round
# other row counts differently, so one count makes an image's eval outputs
# depend only on the checkpoint and that image. It also bounds activations.
EVAL_BATCH = 32


def forward_eval(ckpt: Checkpoint, images, layer: str | None = None,
                 rows=None) -> np.ndarray:
    """Deterministic output of ``layer`` (the logits when None), one row per
    image of the ``(N, C, H, W)`` array ``images``, or of ``images[rows]``.

    Each EVAL_BATCH-image batch is gathered on its own, so no selection is
    copied. Dropout runs in eval mode and no generator is consumed. Each
    layer's cache is dropped as soon as it is made and the layers after
    ``layer`` do not run, so only the running activation stays alive. The
    rest run in :func:`_executed` order, so a relu ``layer`` still runs last.
    """
    shape = tuple(ckpt.spec.input_shape)
    if tuple(images.shape[1:]) != shape:
        raise ValidationError(f"images shape {images.shape} != (N, *{shape})")
    rows = np.arange(len(images)) if rows is None else np.asarray(rows)
    if len(rows) == 0:
        raise ValidationError("no images to evaluate")
    stop = len(ckpt.spec.layers) if layer is None else ckpt.spec.layer_index(layer) + 1
    outs = []
    for start in range(0, len(rows), EVAL_BATCH):
        part = rows[start:start + EVAL_BATCH]
        act = np.zeros((EVAL_BATCH,) + shape, images.dtype)
        np.take(images, part, axis=0, out=act[:len(part)])
        for step in _executed(ckpt.spec.layers[:stop]):
            act = _layer_forward(step, ckpt.params, act, "eval", None)[0]
        outs.append(act[:len(part)])
    return np.concatenate(outs)


# ---------------------------------------------------------------------------
# head surgery

def _advance_phase(tag: str) -> str:
    i = PHASE_TAGS.index(tag)
    return PHASE_TAGS[min(i + 1, len(PHASE_TAGS) - 1)]


def replace_head(ckpt: Checkpoint, n_new_outputs: int, init: str,
                 labelmap: LabelMap | None = None,
                 seed: int | None = None) -> Checkpoint:
    """Swap the output head, copying every other parameter verbatim.

    ``replicate`` copies each subordinate row (weights and bias) from its
    basic category's trained output unit; ``random`` draws a fresh head.
    Momentum buffers of the new head start at zero; the body keeps its
    momentum so continued training picks up where the old phase stopped.
    """
    if init not in ("replicate", "random"):
        raise ValidationError(f"unknown head init {init!r}")
    head = ckpt.spec.layers[-1]
    old_w = ckpt.params[f"{head.name}.weight"].weight
    old_b = ckpt.params[f"{head.name}.bias"].weight

    if init == "replicate":
        if labelmap is None:
            raise ValidationError("replicate init needs a label map")
        if old_w.shape[0] != labelmap.n_basic:
            raise ValidationError(
                f"head width {old_w.shape[0]} != {labelmap.n_basic} basic categories")
        if n_new_outputs != labelmap.n_sub:
            raise ValidationError(
                f"new head width {n_new_outputs} != {labelmap.n_sub} subordinates")
        rows = np.array([labelmap.basic_index(leaf) for leaf in labelmap.sub_names])
        new_w = old_w[rows].copy()
        new_b = old_b[rows].copy()
    else:
        if seed is None:
            raise ValidationError("random init needs a seed")
        rng = np.random.default_rng(seed)
        new_w = nk.default_init((n_new_outputs, old_w.shape[1]), rng, old_w.dtype)
        new_b = np.zeros(n_new_outputs, dtype=old_b.dtype)

    new_spec = ckpt.spec.with_outputs(n_new_outputs)
    params = {name: e.copy() for name, e in ckpt.params.items()
              if not name.startswith(head.name + ".")}
    params[f"{head.name}.weight"] = nk.ParamEntry(new_w)
    params[f"{head.name}.bias"] = nk.ParamEntry(new_b)
    return Checkpoint(spec=new_spec, params=params, iteration=0,
                      phase_tag=_advance_phase(ckpt.phase_tag))


# ---------------------------------------------------------------------------
# checkpoint files

_CKPT_MAGIC = b"HCCK"
_CKPT_VERSION = 3
# the manifest's keys and their kinds (see strict.check); all are required
_MANIFEST = {
    "spec": lambda v, path: strict.check(
        v, path, {"input_shape": "tuple[int, int, int]", "layers": ["object"]},
        ("input_shape", "layers")),
    "iteration": "int >= 0",
    "phase_tag": PHASE_TAGS,
    "entries": [lambda v, path: strict.check(
        v, path, {"name": "str", "lr_mult": "float in [0, 1]"},
        ("name", "lr_mult"))],
}


def checkpoint_to_bytes(ckpt: Checkpoint) -> bytes:
    """Magic, version u32, manifest length u64, the JSON manifest, each
    entry's weight tensor (no momentum), then a u32 CRC32 of all before it."""
    payload = files.canonical_json({
        "spec": ckpt.spec.to_dict(),
        "iteration": ckpt.iteration,
        "phase_tag": ckpt.phase_tag,
        "entries": [{"name": n, "lr_mult": e.lr_mult}
                    for n, e in ckpt.params.items()],
    })
    parts = [_CKPT_MAGIC, struct.pack("<IQ", _CKPT_VERSION, len(payload)), payload]
    parts += [nk.tensor_to_bytes(e.weight) for e in ckpt.params.values()]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join(parts + [struct.pack("<I", crc)])


def _read_manifest(buf: bytes) -> tuple[dict, ModelSpec, dict, int]:
    """Manifest, spec, entry shapes and first tensor offset of a checkpoint's
    first bytes (its header and manifest)."""
    if buf[:4] != _CKPT_MAGIC:
        raise ValidationError("bad checkpoint magic")
    if len(buf) < 16:
        raise ValidationError("truncated checkpoint header")
    version, length = struct.unpack_from("<IQ", buf, 4)
    if version != _CKPT_VERSION:
        raise ValidationError(f"unsupported checkpoint version {version}")
    if 16 + length > len(buf):
        raise ValidationError("truncated checkpoint manifest")
    with strict.at("corrupt checkpoint manifest"):
        manifest = files.parse_json(buf[16:16 + length], "manifest")
    strict.check(manifest, "checkpoint", _MANIFEST, tuple(_MANIFEST))
    spec = ModelSpec.from_dict(manifest["spec"], "checkpoint.spec")
    shapes = {}
    for layer, shape in spec.param_shapes().items():
        shapes[f"{layer}.weight"], shapes[f"{layer}.bias"] = shape, shape[:1]
    names = [e["name"] for e in manifest["entries"]]
    if names != list(shapes):
        raise ValidationError(f"checkpoint entries {names} do not match the "
                              f"spec's {list(shapes)}")
    return manifest, spec, shapes, 16 + length


def checkpoint_from_bytes(buf: bytes) -> Checkpoint:
    """Inverse of checkpoint_to_bytes; rejects truncated, corrupt or
    trailing bytes with ValidationError, and so a manifest whose entries
    are not the spec's ``<layer>.weight``, ``<layer>.bias`` in layer order,
    a tensor whose shape is not the spec's, or a CRC32 that does not match."""
    manifest, spec, shapes, offset = _read_manifest(buf)
    params = {}
    for entry in manifest["entries"]:
        name = entry["name"]
        weight, used = nk.tensor_from_bytes(buf, offset)
        offset += used
        if weight.shape != shapes[name]:
            raise ValidationError(f"checkpoint entry {name!r}: weight shape "
                                  f"{weight.shape} != {shapes[name]} of the spec")
        params[name] = nk.ParamEntry(weight, lr_mult=entry["lr_mult"])
    end = len(buf) - 4
    if offset > end:
        raise ValidationError("truncated checkpoint CRC32 trailer")
    if offset < end:
        raise ValidationError(
            f"{end - offset} trailing bytes after the last checkpoint tensor")
    if zlib.crc32(memoryview(buf)[:end]) != struct.unpack_from("<I", buf, end)[0]:
        raise ValidationError("checkpoint CRC32 mismatch: the file is corrupt")
    return Checkpoint(spec=spec, params=params, iteration=manifest["iteration"],
                      phase_tag=manifest["phase_tag"])


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    files.write_bytes(path, checkpoint_to_bytes(ckpt))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        return checkpoint_from_bytes(fh.read())


def load_checkpoint_manifest(path) -> tuple[ModelSpec, int]:
    """Spec and iteration of a checkpoint file, read and checked as by
    :func:`load_checkpoint` but without its tensors (nor so its CRC32)."""
    with open(path, "rb") as fh:
        buf = fh.read(16)  # header; the manifest read is capped at the file size
        buf += fh.read(min(int.from_bytes(buf[8:], "little"),
                           os.fstat(fh.fileno()).st_size))
    manifest, spec, _, _ = _read_manifest(buf)
    return spec, manifest["iteration"]


def body_hash(ckpt: Checkpoint) -> str:
    """SHA-256 over all non-head weight bytes; detects backbone mutation."""
    head = ckpt.spec.head_name
    digest = hashlib.sha256()
    for name, e in ckpt.params.items():
        if not name.startswith(head + "."):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(e.weight).tobytes())
    return digest.hexdigest()
