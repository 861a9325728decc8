"""Run configuration files: strict JSON parsing with documented defaults.

One walker over each config dataclass's fields reads and writes every
section, so a key's name, type and default live only in its dataclass. A
missing or null key takes the field's default, and null gives None for an
optional field. A string key must be a string, and a field without a default
(the `adaptive` keys) is required. Unknown keys are fatal and the error names
the full key path, so a typo like "lamda" can never silently run with
defaults.
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace

from .engine import DecodeConfig
from .errors import ConfigError, InputError
from .utils import json_flag, json_integer, json_list, json_number, json_string, read_json


def _path(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _finite(v) -> float:
    v = json_number(v)
    if not math.isfinite(v):
        raise ValueError("must be finite")
    return v


def _integers(v) -> list[int]:
    if not json_list(v, int):
        raise ValueError("must not be empty")
    return list(v)


# type -> (its reader, what the error says it must be)
_LEAVES = {
    int: (json_integer, "an integer"),
    float: (_finite, "a finite number"),
    bool: (json_flag, "true or false"),
    str: (json_string, "a string"),
    list[int]: (_integers, "a non-empty list of integers"),
}


class _Field(typing.NamedTuple):
    name: str
    section: type | None  # the dataclass of a nested section
    convert: typing.Callable | None  # a leaf's reader
    expected: str
    optional: bool  # null gives None
    required: bool  # no default
    flat: bool  # a section whose keys sit at this level


class _Plan(typing.NamedTuple):
    fields: tuple[_Field, ...]
    own: frozenset[str]  # keys of this class's own fields
    keys: frozenset[str]  # every key accepted at this level
    sections: tuple[tuple[str, type | None], ...]  # (name, section) per field, for _write


@functools.cache
def _plan(cls) -> _Plan:
    """The fields of a config dataclass with their types resolved, built once
    per class: resolving type hints costs far more than a parse."""
    hints = typing.get_type_hints(cls)
    out, keys = [], set()
    for f in fields(cls):
        tp = hints[f.name]
        args = typing.get_args(tp)
        optional = type(None) in args
        if optional:
            (tp,) = [a for a in args if a is not type(None)]
        flat = f.metadata.get("flat", False)
        section = tp if is_dataclass(tp) else None
        convert, expected = (None, "an object") if section else _LEAVES[tp]
        if optional:
            expected += " or null"
        required = f.default is MISSING and f.default_factory is MISSING
        out.append(_Field(f.name, section, convert, expected, optional, required, flat))
        keys.update(_plan(tp).keys if flat else (f.name,))
    own = frozenset(f.name for f in out if not f.flat)
    sections = tuple((f.name, f.section) for f in out)
    return _Plan(tuple(out), own, frozenset(keys), sections)


def _read(cls, data, where: str):
    """Build cls from one config section, checking every key against its field."""
    if not isinstance(data, dict):
        raise ConfigError(f"config section {where or '<root>'} must be an object")
    plan = _plan(cls)
    for key in data:
        if key not in plan.keys:
            raise ConfigError(f"unknown config key: {_path(where, key)}")
    kwargs = {}
    for name, section, convert, expected, optional, required, flat in plan.fields:
        if flat:  # its keys share this level; the outer class's own keys win
            kwargs[name] = _read(section, {k: v for k, v in data.items()
                                           if k not in plan.own}, where)
            continue
        v = data.get(name)
        if v is None:
            if required:
                raise ConfigError(f"config key {_path(where, name)} is required")
            if name not in data:
                continue
            if optional:
                kwargs[name] = None
                continue
            if convert is not json_string:
                continue  # null means the default, except for a string key
        if section is not None:
            kwargs[name] = _read(section, v, _path(where, name))
            continue
        try:
            kwargs[name] = convert(v)
        except (TypeError, ValueError):
            raise ConfigError(f"config key {_path(where, name)} must be {expected}") from None
    try:
        return cls(**kwargs)
    except InputError as exc:  # a range check of the dataclass: name its section
        if not where:
            raise
        raise type(exc)(f"{where}: {exc}") from None


def _write(obj) -> dict:
    """One config section as a dict, in field order."""
    out = {}
    for name, section in _plan(type(obj)).sections:
        v = getattr(obj, name)
        out[name] = v if section is None or v is None else _write(v)
    return out


def decode_config_from_dict(data: dict, where: str = "") -> DecodeConfig:
    return _read(DecodeConfig, data, where)


def decode_config_to_dict(cfg: DecodeConfig) -> dict:
    return _write(cfg)


@dataclass
class RunConfig:
    """Decode settings plus benchmark-level wiring from one config file.

    The file is flat: the decode keys sit beside the bench keys. Its `seed`
    is the run's, where None lets the CLI draw one and record it.
    """

    decode: DecodeConfig = field(default_factory=DecodeConfig, metadata={"flat": True})
    seed: int | None = None
    backend: str | None = None
    corpus: str | None = None
    k: int = 5
    seeds: list[int] | None = None
    out: str | None = None

    def __post_init__(self):
        if self.seed is not None and self.seed < 0:
            raise ConfigError("config key seed must be a non-negative integer or null")

    def decode_config(self, seed: int, reflect: bool | None = None) -> DecodeConfig:
        return replace(self.decode, seed=seed,
                       reflect=self.decode.reflect if reflect is None else reflect)


def run_config_from_dict(data: dict) -> RunConfig:
    return _read(RunConfig, data, "")


def load_run_config(path) -> RunConfig:
    data = read_json(path, "config")
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    return run_config_from_dict(data)
