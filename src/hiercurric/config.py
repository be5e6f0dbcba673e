"""Declarative experiment configs: schema validation and object building.

Configs are JSON documents checked against a published schema before any
work happens. Unknown keys are rejected and every seed must be written out
explicitly; nothing is ever seeded from the clock.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import jsonschema
import numpy as np

from . import benchmark as bm
from . import curriculum as cu
from . import dataprep as dp
from . import files
from . import model as md
from . import nnkernel as nk
from .errors import ValidationError

_SGD_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "base_lr": {"type": "number", "minimum": 0},
        "momentum": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
        "weight_decay": {"type": "number", "minimum": 0},
        "lr_gamma": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "lr_step": {"type": "integer", "minimum": 1},
        "batch_size": {"type": "integer", "minimum": 1},
    },
}

_PHASE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["iterations", "seed"],
    "properties": {
        "iterations": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
        "eval_every": {"type": "integer", "minimum": 1},
        "checkpoint_every": {"type": "integer", "minimum": 1},
        "lowered_prefix": {"type": "integer", "minimum": 0},
        "lowered_mult": {"type": "number", "minimum": 0, "maximum": 1},
        "sgd": _SGD_SCHEMA,
    },
}

_REGIME_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "phase_b"],
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "kind": {"enum": list(cu.REGIME_KINDS)},
        "phase_a": _PHASE_SCHEMA,
        "phase_b": _PHASE_SCHEMA,
        "pretrain_categories": {
            "type": "array", "items": {"type": "string"}, "minItems": 1},
        "pretrain_sample": {
            "type": "object",
            "additionalProperties": False,
            "required": ["count", "seed"],
            "properties": {"count": {"type": "integer", "minimum": 1},
                           "seed": {"type": "integer"}},
        },
    },
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["data", "model"],
    "properties": {
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"directory": {"type": "string", "minLength": 1}},
        },
        "taxonomy": {
            "type": "object",
            "additionalProperties": False,
            "required": ["synsets", "marks"],
            "properties": {"synsets": {"type": "string"},
                           "marks": {"type": "string"}},
        },
        "data": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "synthetic": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["seed"],
                    "properties": {
                        "n_basic": {"type": "integer", "minimum": 1},
                        "subs_per_basic": {"type": "integer", "minimum": 1},
                        "image_size": {"type": "array", "minItems": 3,
                                       "maxItems": 3,
                                       "items": {"type": "integer", "minimum": 1}},
                        "prototype_scale": {"type": "number", "exclusiveMinimum": 0},
                        "subordinate_scale": {"type": "number", "minimum": 0},
                        "noise_scale": {"type": "number", "minimum": 0},
                        "samples_per_sub": {"type": "integer", "minimum": 1},
                        "seed": {"type": "integer"},
                    },
                },
                "manifest": {"type": "string"},
                "images_root": {"type": "string"},
                "cap": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["cap", "seed"],
                    "properties": {
                        "level": {"enum": ["basic", "sub"]},
                        "cap": {"type": "integer", "minimum": 1},
                        "seed": {"type": "integer"},
                    },
                },
                "split": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["n_train_per_class", "seed"],
                    "properties": {
                        "n_train_per_class": {"type": "integer", "minimum": 1},
                        "max_test_per_class": {"type": "integer", "minimum": 1},
                        "seed": {"type": "integer"},
                    },
                },
            },
        },
        "model": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "name": {"enum": ["desk", "alexnet", "benchmark"]},
                "input_shape": {"type": "array", "minItems": 3, "maxItems": 3,
                                "items": {"type": "integer", "minimum": 1}},
                "init": {"enum": ["fixed", "scaled"]},
                "layers": {"type": "array", "minItems": 1,
                           "items": {"type": "object"}},
            },
        },
        "regime": _REGIME_SCHEMA,
        "regimes": {"type": "array", "minItems": 1, "items": _REGIME_SCHEMA},
        "transfer": {
            "type": "object",
            "additionalProperties": False,
            "required": ["n_train_per_class", "seed"],
            "properties": {
                "n_train_per_class": {"type": "integer", "minimum": 1},
                "max_test_per_class": {"type": "integer", "minimum": 1},
                "n_splits": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer"},
                "iters": {"type": "integer", "minimum": 1},
                "layer": {"type": ["string", "null"]},
            },
        },
    },
}


def validate_config(config: dict) -> dict:
    try:
        jsonschema.validate(config, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ValidationError(f"config schema: {exc.message}") from exc
    data = config["data"]
    if ("synthetic" in data) == ("manifest" in data):
        raise ValidationError(
            "data needs exactly one of 'synthetic' or 'manifest'")
    if "manifest" in data and "images_root" not in data:
        raise ValidationError("manifest data needs 'images_root'")
    if "manifest" in data and "taxonomy" not in config:
        raise ValidationError("manifest data needs a 'taxonomy' section")
    if "split" not in data:
        raise ValidationError("data needs a 'split' section with an explicit seed")
    if ("regime" in config) == ("regimes" in config):
        raise ValidationError(
            "config needs exactly one of 'regime' or 'regimes'")
    model = config["model"]
    if ("name" in model) == ("layers" in model):
        raise ValidationError("model needs exactly one of 'name' or 'layers'")
    names = [r.get("name", r["kind"]) for r in config.get("regimes", [])]
    if len(set(names)) != len(names):
        raise ValidationError("regime names must be unique")
    return config


def load_config(path) -> dict:
    try:
        config = files.read_json(path)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    return validate_config(config)


def config_hash(config: dict) -> str:
    return hashlib.sha256(files.canonical_json(config)).hexdigest()


# ---------------------------------------------------------------------------
# builders

def build_synth_spec(section: dict) -> dp.SynthSpec:
    """The benchmark's synthetic set with the section's values in its place."""
    kw = dict(section)
    if "image_size" in kw:
        kw["image_size"] = tuple(kw["image_size"])
    return replace(bm.synth_spec(section["seed"]), **kw)


_NAMED_SPECS = {"desk": md.desk_spec, "alexnet": md.alexnet_spec,
                "benchmark": bm.model_spec}


def build_model_spec(section: dict, n_outputs: int) -> md.ModelSpec:
    """A named spec or inline ``layers``; ``input_shape`` replaces the
    named spec's own and is required with inline layers."""
    if "layers" in section:
        if "input_shape" not in section:
            raise ValidationError("inline model layers need input_shape")
        spec = md.ModelSpec.from_dict(section).with_outputs(n_outputs)
    else:
        spec = _NAMED_SPECS[section["name"]](n_outputs)
    if "input_shape" in section:
        spec = replace(spec, input_shape=tuple(section["input_shape"]))
    return spec


def build_phase(section: dict, task_level: str) -> cu.TrainConfig:
    iters = section["iterations"]
    return cu.TrainConfig(
        sgd=nk.SgdConfig(**section.get("sgd", {})),
        max_iterations=iters,
        eval_every=section.get("eval_every", max(1, iters // 10)),
        checkpoint_every=section.get("checkpoint_every", iters),
        seed=section["seed"],
        task_level=task_level,
        lowered_prefix=section.get("lowered_prefix", 0),
        lowered_mult=section.get("lowered_mult", 1.0),
    )


def build_regime(section: dict, graph, labelmap) -> cu.Regime:
    kind = section["kind"]
    recipe = cu.RECIPES[kind]
    given = [k for k in ("pretrain_categories", "pretrain_sample") if k in section]
    if len(given) > 1:
        raise ValidationError(
            "give pretrain_categories or pretrain_sample, not both")
    if given and recipe.phase_a != "subset":
        raise ValidationError(f"{kind} takes no {given[0]}")
    phase_a = None
    if "phase_a" in section:
        phase_a = build_phase(section["phase_a"], recipe.phase_a_level)
    categories: tuple[str, ...] = tuple(section.get("pretrain_categories", ()))
    if "pretrain_sample" in section:
        sample = section["pretrain_sample"]
        pool = sorted(set(graph.leaf_set) - set(graph.basic_marks))
        if sample["count"] > len(pool):
            raise ValidationError(
                f"cannot sample {sample['count']} pretrain categories "
                f"from {len(pool)} unmarked leaves")
        rng = np.random.default_rng(sample["seed"])
        chosen = rng.choice(len(pool), size=sample["count"], replace=False)
        categories = tuple(pool[i] for i in sorted(chosen))
    return cu.Regime(kind=kind, phase_b=build_phase(section["phase_b"], "sub"),
                     phase_a=phase_a, pretrain_categories=categories)
