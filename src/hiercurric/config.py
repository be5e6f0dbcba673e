"""Declarative experiment configs: strict checking and object building.

A config is a JSON object, checked whole before any work happens. Each
section is checked against its row of the key table below, or built into
its dataclass, whose own range checks then run; each regime is built into
its ``curriculum.Regime``, whose recipe checks run, and the model spec runs
its shape chain; phase B's lowering must lower some of the model's conv
layers. An unknown key, a missing required key, a value of the
wrong type or out of range exits 2 with a message naming its dotted key
path. Every seed must be written out explicitly; nothing is ever seeded
from the clock.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np

from . import benchmark as bm
from . import curriculum as cu
from . import dataprep as dp
from . import files
from . import model as md
from . import nnkernel as nk
from . import strict, transfer
from .errors import ValidationError

# ---------------------------------------------------------------------------
# builders

def build_synth_spec(section: dict, path: str = "data.synthetic") -> dp.SynthSpec:
    """The benchmark's synthetic set with the section's values in its place."""
    return strict.build(dp.SynthSpec, section, path, base=bm.synth_spec(0))


_NAMED_SPECS = {"desk": md.desk_spec, "alexnet": md.alexnet_spec,
                "benchmark": bm.model_spec}


def build_model_spec(section: dict, n_outputs: int) -> md.ModelSpec:
    """A named spec or inline ``layers``, whose shape chain is checked;
    ``input_shape`` replaces the named spec's own and is required with
    inline layers."""
    if ("name" in section) == ("layers" in section):
        raise ValidationError("model: needs exactly one of 'name' or 'layers'")
    if "layers" not in section:
        spec = _NAMED_SPECS[section["name"]](n_outputs)
    elif "input_shape" in section:
        spec = md.ModelSpec.from_dict(section, "model").with_outputs(n_outputs)
    else:
        raise ValidationError("model: inline layers need input_shape")
    with strict.at("model"):
        if "input_shape" in section:
            spec = replace(spec, input_shape=tuple(section["input_shape"]))
        spec.shape_chain()
    return spec


def build_phase(section: dict, task_level: str) -> cu.TrainConfig:
    iters = section["iterations"]
    lowered = {k: section[k] for k in ("lowered_prefix", "lowered_mult")
               if k in section}
    return cu.TrainConfig(
        sgd=nk.SgdConfig(**section.get("sgd", {})), max_iterations=iters,
        eval_every=section.get("eval_every", max(1, iters // 10)),
        checkpoint_every=section.get("checkpoint_every", iters),
        seed=section["seed"], task_level=task_level, **lowered)


def build_regime(section: dict, graph, labelmap, path: str = "regime") -> cu.Regime:
    """The regime of a checked section at key ``path``, its pretrain
    categories checked against the graph; ``pretrain_sample`` draws them
    from the graph's leaves that carry no basic mark. ``labelmap`` is not
    read; it is kept only for perfbench/test_perfbench.py's three-argument
    call, until that harness changes."""
    categories = section.get("pretrain_categories", ())
    if "pretrain_sample" in section:
        sample = section["pretrain_sample"]
        pool = sorted(set(graph.leaf_set) - set(graph.basic_marks))
        if sample["count"] > len(pool):
            raise ValidationError(
                f"{path}.pretrain_sample.count: cannot sample {sample['count']} "
                f"pretrain categories from {len(pool)} unmarked leaves")
        rng = np.random.default_rng(sample["seed"])
        chosen = rng.choice(len(pool), size=sample["count"], replace=False)
        categories = [pool[i] for i in sorted(chosen)]
    with strict.at(f"{path}.pretrain_categories"):
        cu.check_pretrain_categories(graph, categories)
    return _regime(section, categories)


def _regime(section: dict, categories) -> cu.Regime:
    kind = section["kind"]
    phase_a = None
    if "phase_a" in section:
        phase_a = build_phase(section["phase_a"], cu.RECIPES[kind].phase_a_level)
    return cu.Regime(kind=kind, phase_b=build_phase(section["phase_b"], "sub"),
                     phase_a=phase_a, pretrain_categories=tuple(categories))


# ---------------------------------------------------------------------------
# checking

def _section(name: str):
    """The kind (see :func:`strict.check`) of a section with no dataclass."""
    return lambda value, path: strict.check(value, path, _SECTIONS[name],
                                            _REQUIRED.get(name, ()))


def _phase(value, path):
    _section("phase")(value, path)
    with strict.at(path):
        build_phase(value, "sub")


def _check_regime(value, path):
    """A regime section, checked by building its :class:`cu.Regime` before
    any data exist; a pretrain sample stands in for the categories it draws."""
    _section("regime")(value, path)
    given = [k for k in ("pretrain_categories", "pretrain_sample") if k in value]
    with strict.at(path):
        if len(given) > 1:
            raise ValidationError(
                "give pretrain_categories or pretrain_sample, not both")
        if given and cu.RECIPES[value["kind"]].phase_a != "subset":
            raise ValidationError(f"{value['kind']} takes no {given[0]}")
        _regime(value, value.get("pretrain_categories", given))


def _check_lowering(phase: dict, path: str, n_convs: int) -> None:
    """Phase B's lowering keys lower at least one of the model's convs."""
    prefix = phase.get("lowered_prefix", 0)
    given = [k for k in ("lowered_prefix", "lowered_mult") if k in phase]
    if given and (prefix == 0 or phase.get("lowered_mult", 1.0) == 1.0):
        raise ValidationError(f"{path}.{given[0]}: lowers nothing; lowering "
                              f"needs lowered_prefix >= 1 and lowered_mult < 1")
    if prefix > n_convs:
        raise ValidationError(f"{path}.lowered_prefix: {prefix} exceeds the "
                              f"model's {n_convs} conv layers")


# the keys of each section that has no dataclass, and their kinds; any key
# named seed is required, and so is each key in _REQUIRED
_SECTIONS = {
    "config": {"output": _section("output"), "taxonomy": _section("taxonomy"),
               "data": _section("data"), "model": _section("model"),
               "regime": _check_regime, "regimes": [_check_regime],
               "transfer": transfer.ProbeSpec},
    "output": {"directory": "non-empty str, no NUL byte"},
    "taxonomy": {"synsets": "str, no NUL byte", "marks": "str, no NUL byte"},
    "data": {"synthetic": build_synth_spec, "manifest": "str, no NUL byte",
             "images_root": "str, no NUL byte", "cap": _section("cap"),
             "split": _section("split")},
    "cap": {"level": ("basic", "sub"), "cap": "int >= 1", "seed": "int"},
    "split": {"n_train_per_class": "int >= 1", "max_test_per_class": "int >= 1",
              "seed": "int"},
    "model": {"name": tuple(_NAMED_SPECS), "input_shape": "tuple[int, int, int]",
              "init": md.INITS, "layers": ["object"]},
    "regime": {"name": "non-empty str, one path component", "kind": cu.REGIME_KINDS,
               "phase_a": _phase, "phase_b": _phase, "pretrain_categories": ["str"],
               "pretrain_sample": _section("pretrain_sample")},
    "phase": {"iterations": "int >= 1", "seed": "int", "eval_every": "int >= 1",
              "checkpoint_every": "int >= 1", "lowered_prefix": "int",
              "lowered_mult": "float", "sgd": nk.SgdConfig},
    "pretrain_sample": {"count": "int >= 1", "seed": "int"},
}
_REQUIRED = {"config": ("data", "model"), "taxonomy": ("synsets", "marks"),
             "data": ("split",), "cap": ("cap",), "split": ("n_train_per_class",),
             "regime": ("kind", "phase_b"), "phase": ("iterations",),
             "pretrain_sample": ("count",)}


def validate_config(config: dict) -> dict:
    """``config`` itself, once every check passes."""
    _section("config")(config, "")
    spec = build_model_spec(config["model"], 1)
    data = config["data"]
    if ("synthetic" in data) == ("manifest" in data):
        raise ValidationError(
            "data needs exactly one of 'synthetic' or 'manifest'")
    if "manifest" in data and "images_root" not in data:
        raise ValidationError("manifest data needs 'images_root'")
    if "manifest" in data and "taxonomy" not in config:
        raise ValidationError("manifest data needs a 'taxonomy' section")
    if "synthetic" in data:
        if "taxonomy" in config:
            raise ValidationError("taxonomy: synthetic data makes its own")
        if "images_root" in data:
            raise ValidationError("data.images_root: synthetic data reads no "
                                  "image files")
        size = build_synth_spec(data["synthetic"]).image_size
        if size != spec.input_shape:
            raise ValidationError(f"data.synthetic.image_size: {size} does not "
                                  f"fit model input_shape {spec.input_shape}")
    if ("regime" in config) == ("regimes" in config):
        raise ValidationError(
            "config needs exactly one of 'regime' or 'regimes'")
    # a matrix writes <out>/<name> beside <out>/MANIFEST.json, and a
    # case-folding file system makes names equal ignoring case one path
    names = [r.get("name", r["kind"]).casefold() for r in config.get("regimes", [])]
    for i, name in enumerate(names):
        if name in ["manifest.json", *names[:i]]:
            raise ValidationError(f"regime names must be unique ignoring case "
                                  f"and not MANIFEST.json: regimes[{i}].name")
    regimes = config.get("regimes") or [config["regime"]]
    for i, regime in enumerate(regimes):
        path = f"regimes[{i}]" if "regimes" in config else "regime"
        _check_lowering(regime["phase_b"], f"{path}.phase_b",
                        len(spec.conv_names()))
    if "cap" in data and all(
            cu.RECIPES[r["kind"]].phase_a not in ("basic", "subset")
            for r in regimes):
        raise ValidationError("data.cap: no regime reads it; only a basic or "
                              "subset phase A trains on the capped set")
    if "transfer" in config:
        with strict.at("transfer.layer"):
            transfer.feature_layer(spec, config["transfer"].get("layer"))
    return config


def load_config(path) -> dict:
    try:
        config = files.read_json(path)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    return validate_config(config)


def config_hash(config: dict) -> str:
    return hashlib.sha256(files.canonical_json(config)).hexdigest()
