"""The one option rule of :class:`nirrec.ingest.PrepareOptions`,
:class:`nirrec.model.TrainConfig` and :class:`nirrec.evaluate.EvalOptions`.

A field's config key is its name without a trailing ``_`` (``lambda_`` is
``lambda``), and its type is its default's type.  That type gives the
parser of its flag and config-file strings, and the check that each
``__post_init__`` runs through :func:`check_types`, whoever builds it.
"""

from __future__ import annotations

import numbers
from dataclasses import fields
from typing import Any, Callable, NamedTuple

from .errors import ConfigurationError


def config_key(name: str) -> str:
    return name.rstrip("_")


def is_integer(value) -> bool:
    """Whether a value is an integer: a float or a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigurationError(f"expected a boolean, got {raw!r}")


def _parse_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(",") if part.strip())


class Kind(NamedTuple):
    parse: Callable[[str], Any]
    accepts: Callable[[Any], bool]
    noun: str


# Keyed by the default's type; a None default (``vectors_path``) takes a path.
KINDS = {
    bool: Kind(_parse_bool, lambda v: isinstance(v, bool), "true or false"),
    int: Kind(int, is_integer, "an integer"),
    float: Kind(float, lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
                "a number"),
    str: Kind(str, lambda v: isinstance(v, str), "a string"),
    type(None): Kind(str, lambda v: v is None or isinstance(v, str), "a path or None"),
    tuple: Kind(_parse_ints, lambda v: isinstance(v, (list, tuple)) and all(map(is_integer, v)),
                "a list of integers"),
}


def check_types(opts) -> None:
    """Check every field of ``opts`` against its default's type, naming its
    config key; a tuple field is stored as a tuple of ints."""
    for f in fields(opts):
        value, kind = getattr(opts, f.name), KINDS[type(f.default)]
        if not kind.accepts(value):
            raise ConfigurationError(f"{config_key(f.name)} must be {kind.noun}, got {value!r}")
        if isinstance(value, (list, tuple)):
            setattr(opts, f.name, tuple(int(v) for v in value))


def as_config(*options) -> dict:
    """A manifest's config: every field of each options object under its
    config key, tuples as lists."""
    out = {}
    for opts in options:
        for f in fields(opts):
            value = getattr(opts, f.name)
            out[config_key(f.name)] = list(value) if isinstance(value, tuple) else value
    return out
