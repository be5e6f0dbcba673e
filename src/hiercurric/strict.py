"""Strict dict -> object building for configs and checkpoint manifests.
Every message names the dotted key path of what it rejects; ``bool`` is
never a number, and ``2.0`` is not an ``int``."""

from __future__ import annotations

import contextlib
import dataclasses

from .errors import ValidationError


# the JSON form of each field annotation a built dataclass may carry
TYPES = {"int": lambda v: isinstance(v, int) and not isinstance(v, bool),
         "int >= 1": lambda v: TYPES["int"](v) and v >= 1,
         "float": lambda v: TYPES["int"](v) or isinstance(v, float),
         "str": lambda v: isinstance(v, str),
         "non-empty str": lambda v: isinstance(v, str) and v != "",
         "str | None": lambda v: v is None or isinstance(v, str),
         "object": lambda v: isinstance(v, dict),
         "tuple[int, int, int]": lambda v: (isinstance(v, list) and len(v) == 3
                                            and all(map(TYPES["int"], v)))}


@contextlib.contextmanager
def at(path: str):
    """Prefix ``path`` to a ValidationError raised in the block."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def check(d, path: str, kinds: dict, required=()) -> None:
    """Reject ``d`` unless it is an object with only keys of ``kinds``, every
    ``required`` key and any key named seed, and values of their kinds.
    A kind is a name in TYPES, a tuple of allowed strings, a one-item list
    (a non-empty list of that kind), a dataclass (see :func:`build`) or a
    callable ``(value, path)``. The root's ``path`` is ""."""
    if not isinstance(d, dict):
        raise ValidationError(f"{path or 'config'}: must be object")
    required = (*required, "seed") if "seed" in kinds else required
    problems = ([f"unknown key {k!r}" for k in d if k not in kinds]
                + [f"missing key {k!r}" for k in required if k not in d])
    if problems:
        raise ValidationError(f"{path or 'config'}: {', '.join(problems)}")
    for key, value in d.items():
        _check_value(value, kinds[key], f"{path}.{key}" if path else key)


def _check_value(value, kind, path: str) -> None:
    if dataclasses.is_dataclass(kind):
        build(kind, value, path)
    elif callable(kind):
        kind(value, path)
    elif isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ValidationError(f"{path}: must be a non-empty list")
        for i, item in enumerate(value):
            _check_value(item, kind[0], f"{path}[{i}]")
    elif isinstance(kind, tuple):
        if not (isinstance(value, str) and value in kind):
            raise ValidationError(f"{path}: must be one of {', '.join(kind)}")
    elif not TYPES[kind](value):
        raise ValidationError(f"{path}: must be {kind}")


def build(cls, d, path: str, base=None):
    """``cls(**d)``, or ``replace(base, **d)``, once ``d`` passes :func:`check`
    with the fields as kinds (a field typed outside TYPES is no key; one with
    no default is required unless there is a base); lists become tuples."""
    fields = [f for f in dataclasses.fields(cls) if f.type in TYPES]
    required = () if base is not None else [
        f.name for f in fields if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING]
    check(d, path, {f.name: f.type for f in fields}, required)
    kw = {k: tuple(v) if isinstance(v, list) else v for k, v in d.items()}
    with at(path):
        return cls(**kw) if base is None else dataclasses.replace(base, **kw)
