"""Per-layer metrics for hiercurric from a traced run.

:func:`install` wraps the public functions of each hiercurric module (and
the image stores' ``load`` methods) with span recorders. :func:`layer_metrics`
turns the recorded spans into named numbers: time per module function,
kernel call counts, computed FLOPs, per-network-layer step times, training
step percentiles and data-store reuse.

FLOPs and bytes here are computed from tensor shapes, not measured by
hardware counters: a multiply-add counts as two FLOPs, and "bytes moved" is
the least traffic a kernel needs (read inputs and weights once, write
outputs once) at the array's own item size.
"""

from __future__ import annotations

import os
from statistics import median

import numpy as np

from spans import Tracer, self_times, totals_by_name
from workloads import BATCH

MODULES = ("cli", "config", "curriculum", "model", "nnkernel", "dataprep",
           "transfer", "taxonomy")

TAIL_LADDER = (999, 995, 990, 980, 950, 900, 750, 500)   # per mille


# ---------------------------------------------------------------------------
# annotators: computed work per call, taken from argument and result shapes

def _conv_forward_note(args, kwargs, result):
    x, kernels = args[0], args[1]
    out = result[0]
    n, k, oh, ow = out.shape
    _, cg, kh, kw = kernels.shape
    flops = 2 * n * k * oh * ow * cg * kh * kw
    # the (N*OH*OW, C*kh*kw) column matrix a GEMM convolution would build
    im2col = n * oh * ow * x.shape[1] * kh * kw * x.itemsize
    return {"flops": flops, "bytes": x.nbytes + kernels.nbytes + out.nbytes,
            "im2col_bytes": im2col}


def _conv_backward_note(args, kwargs, result):
    dout, cache = args[0], args[1]
    dx, dw, _ = result
    n, k, oh, ow = dout.shape
    _, cg, kh, kw = cache.kernels.shape
    flops = 2 * 2 * n * k * oh * ow * cg * kh * kw     # dW GEMM plus dX GEMM
    # reads dout, the input (dx's size) and kernels; writes dx and dW
    return {"flops": flops, "bytes": dout.nbytes + 2 * dx.nbytes
            + cache.kernels.nbytes + dw.nbytes}


def _fc_forward_note(args, kwargs, result):
    x, weight = args[0], args[1]
    out = result[0]
    return {"flops": 2 * out.shape[0] * weight.size,
            "bytes": x.nbytes + weight.nbytes + out.nbytes}


def _fc_backward_note(args, kwargs, result):
    dout, cache = args[0], args[1]
    dx, dw, _ = result
    return {"flops": 4 * dout.shape[0] * cache.weight.size,
            "bytes": dout.nbytes + cache.x_flat.nbytes + cache.weight.nbytes
            + dx.nbytes + dw.nbytes}


def _forward_note(args, kwargs, result):
    spec, x = args[0], args[2]
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "eval")
    return {"layers": [layer.name for layer in spec.layers],
            "batch": x.shape[0], "mode": mode}


def _backward_note(args, kwargs, result):
    caches, dlogits = args[1], args[2]
    return {"layers": [layer.name for layer, _ in reversed(caches)],
            "batch": dlogits.shape[0]}


def _save_note(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _load_note(args, kwargs, result):
    store, sample = args[0], args[1]
    return (str(getattr(store, "root", id(store))), sample.sample_id)


ANNOTATORS = {
    "nnkernel.conv2d_forward": _conv_forward_note,
    "nnkernel.conv2d_backward": _conv_backward_note,
    "nnkernel.fc_forward": _fc_forward_note,
    "nnkernel.fc_backward": _fc_backward_note,
    "model.forward": _forward_note,
    "model.backward": _backward_note,
    "model.save_checkpoint": _save_note,
}


def install(tracer: Tracer) -> list[str]:
    """Wrap every public hiercurric function; returns the span names.

    Functions one module imported by name from another are rebound to the
    same wrapper, so calls through either name are recorded.
    """
    import importlib

    modules = {m: importlib.import_module(f"hiercurric.{m}") for m in MODULES}
    names = []
    for prefix, module in modules.items():
        names += tracer.patch_module(module, prefix, ANNOTATORS)
    tracer.rebind_aliases(modules.values())
    dataprep = modules["dataprep"]
    for store in (dataprep.InMemoryStore, dataprep.RawFileStore):
        tracer.patch(store, "load", "dataprep.store_load", _load_note)
    return names + ["dataprep.store_load"]


# ---------------------------------------------------------------------------
# metrics

def _sum(totals, names, key):
    return sum(totals.get(n, {}).get(key, 0) for n in names)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least 10 samples beyond it."""
    for per_mille in TAIL_LADDER:
        if n * (1000 - per_mille) >= 10 * 1000:
            return per_mille / 10
    return None


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """{metric name: (value, unit)} for one traced run."""
    spans = tracer.spans
    kids = tracer.children()
    selfs = self_times(spans, kids)
    totals = totals_by_name(spans, selfs)
    out: dict[str, tuple[float, str]] = {}

    def notes(name):
        return [s.note for s in spans if s.name == name and s.note is not None]

    # kernels; relu, fc and dropout pool their forward and backward halves
    kernels = {
        "conv2d_forward": ["conv2d_forward"], "conv2d_backward": ["conv2d_backward"],
        "maxpool_forward": ["maxpool_forward"], "pool_backward": ["pool_backward"],
        "relu": ["relu_forward", "relu_backward"],
        "fc": ["fc_forward", "fc_backward"],
        "dropout": ["dropout_forward", "dropout_backward"],
        "softmax_xent": ["softmax_xent"], "sgd_step": ["sgd_step"],
    }
    for label, fns in kernels.items():
        names = [f"nnkernel.{fn}" for fn in fns]
        out[f"nnkernel.{label}.self_s"] = (_sum(totals, names, "self_s"), "s")
        out[f"nnkernel.{label}.calls"] = (_sum(totals, names, "calls"), "count")
    for direction in ("forward", "backward"):
        name = f"nnkernel.conv2d_{direction}"
        flops = sum(n["flops"] for n in notes(name))
        busy = totals.get(name, {}).get("self_s", 0.0)
        out[f"{name}.gflop_per_s"] = (flops / busy / 1e9 if busy else 0.0,
                                      "GFLOP/s")

    # model
    for fn in ("forward", "backward"):
        out[f"model.{fn}.self_s"] = (_sum(totals, [f"model.{fn}"], "self_s"), "s")
        out[f"model.{fn}.calls"] = (_sum(totals, [f"model.{fn}"], "calls"), "count")
    out["model.save_checkpoint.s"] = (_sum(totals, ["model.save_checkpoint"], "s"), "s")
    out["model.save_checkpoint.bytes"] = (
        sum(n["bytes"] for n in notes("model.save_checkpoint")), "bytes")
    out["model.load_checkpoint.s"] = (_sum(totals, ["model.load_checkpoint"], "s"), "s")
    out["model.load_checkpoint.calls"] = (
        _sum(totals, ["model.load_checkpoint"], "calls"), "count")

    # curriculum
    out["curriculum.train.self_s"] = (
        _sum(totals, ["curriculum.train_phase"], "self_s"), "s")
    out["curriculum.eval_s"] = (_sum(totals, ["model.forward_eval"], "s"), "s")
    steps = _step_seconds(spans, kids)
    out["curriculum.steps"] = (len(steps), "count")
    if steps:
        out["curriculum.step_ms_p50"] = (1e3 * median(steps), "ms")
        pct = tail_percentile(len(steps))
        if pct is not None:
            out["curriculum.step_ms_tail"] = (
                1e3 * float(np.percentile(steps, pct)), "ms")
            out["curriculum.step_ms_tail_pct"] = (pct, "percentile")

    # dataprep
    loads = notes("dataprep.store_load")
    out["dataprep.store_loads"] = (len(loads), "count")
    out["dataprep.store_loads_per_image"] = (
        len(loads) / len(set(loads)) if loads else 0.0, "ratio")
    for fn in ("load_batch", "find_overlaps", "cap_per_category",
               "random_class_splits", "generate_synthetic"):
        out[f"dataprep.{fn}.s"] = (_sum(totals, [f"dataprep.{fn}"], "s"), "s")

    # transfer
    for fn in ("extract_features", "train_softmax_probe"):
        out[f"transfer.{fn}.s"] = (_sum(totals, [f"transfer.{fn}"], "s"), "s")
    out["transfer.evaluate_probe.self_s"] = (
        _sum(totals, ["transfer.evaluate_probe"], "self_s"), "s")

    # taxonomy, config, cli
    for fn in ("parse_synset_file", "validate_basic_marks",
               "allocate_descendants", "category_height_histogram"):
        out[f"taxonomy.{fn}.s"] = (_sum(totals, [f"taxonomy.{fn}"], "s"), "s")
    out["config.load_config.s"] = (_sum(totals, ["config.load_config"], "s"), "s")
    out["cli.self_s"] = (sum(v["self_s"] for k, v in totals.items()
                             if k.startswith("cli.")), "s")

    out.update(network_layer_metrics(spans, kids))
    return out


def _step_seconds(spans, kids) -> list[float]:
    """One training iteration: from its forward's start to its sgd_step's end.

    Both are direct children of the phase's span; evaluation and
    checkpoint writes between iterations fall outside the interval.
    """
    steps = []
    for i, span in enumerate(spans):
        if span.name != "curriculum.train_phase":
            continue
        start = None
        for k in kids[i]:
            child = spans[k]
            if (child.name == "model.forward" and child.note
                    and child.note["mode"] == "train"):
                start = child.start
            elif child.name == "nnkernel.sgd_step" and start is not None:
                steps.append(child.end - start)
                start = None
    return steps


def network_layer_metrics(spans, kids) -> dict[str, tuple[float, str]]:
    """Per network layer at the training batch size: median forward and
    backward ms, and computed FLOPs and bytes for conv and fc layers.

    Each layer issues exactly one kernel call per pass, so the n-th kernel
    span under a forward (backward) span belongs to the n-th layer of the
    spec (of the reversed cache list).
    """
    times: dict[tuple[str, str], list[float]] = {}
    work: dict[tuple[str, str], dict] = {}
    for i, span in enumerate(spans):
        note = span.note
        if (span.name not in ("model.forward", "model.backward") or not note
                or note["batch"] != BATCH
                or note.get("mode", "train") != "train"):
            continue
        direction = "fwd" if span.name == "model.forward" else "bwd"
        for layer, k in zip(note["layers"], kids[i]):
            child = spans[k]
            times.setdefault((layer, direction), []).append(child.duration)
            if isinstance(child.note, dict) and "flops" in child.note:
                work[(layer, direction)] = child.note
    out = {}
    for (layer, direction), values in sorted(times.items()):
        out[f"layer.{layer}.{direction}_ms"] = (1e3 * median(values), "ms")
        note = work.get((layer, direction))
        if note:
            out[f"layer.{layer}.{direction}_gflop_computed"] = (
                note["flops"] / 1e9, "GFLOP")
            out[f"layer.{layer}.{direction}_mb_computed"] = (
                note["bytes"] / 2 ** 20, "MiB")
            if "im2col_bytes" in note:
                out[f"layer.{layer}.im2col_mb_computed"] = (
                    note["im2col_bytes"] / 2 ** 20, "MiB")
    return out
