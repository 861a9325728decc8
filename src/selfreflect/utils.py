"""Stable softmax / entropy helpers (all probability math in float64), and the
readers of config, backend and trace files."""

from __future__ import annotations

import functools
import json
import math
import typing
from dataclasses import MISSING, fields, is_dataclass

import numpy as np

from .errors import ConfigError, InputError


class ScaledRows:
    """The package's one softmax / log-softmax / entropy kernel over a
    (rows, V) logit block: each row divided by a temperature and shifted by
    its maximum, with the exps, their row sums and math.log of those sums.
    Each row is reduced on its own along its last axis, so it does not depend
    on the rows beside it. A row whose maximum is not finite (all -inf, a
    +inf or a NaN) is marked not ok; its entries are undefined.

    A V vector is the one-row case: it is reduced as a vector, and its
    per-row values (ok, sums, log_sums, its entropy and a log-probability)
    are Python scalars, each equal to the block's value for that row, bit
    for bit. It enters no errstate guard of its own: its caller holds one
    with overflow and invalid operations ignored, once for all the one-row
    kernels of a decode step. softmax, log_softmax and entropy_from_logits
    are this one-row case."""

    __slots__ = ("z", "temperature", "shifted", "exp", "sums", "log_sums", "ok")

    def __init__(self, z: np.ndarray, temperature: float):
        self.z = z
        self.temperature = temperature
        if z.ndim == 1:
            shifted = z / float(temperature)
            peak = float(np.maximum.reduce(shifted))
            shifted -= peak
            self.shifted = shifted
            self.exp = np.exp(shifted)
            self.ok = math.isfinite(peak)
            self.sums = float(np.add.reduce(self.exp))
            self.log_sums = math.log(self.sums) if self.sums > 0 else math.nan
            return
        with np.errstate(over="ignore", invalid="ignore"):
            shifted = z / float(temperature)
            peak = shifted.max(axis=1)
            shifted -= peak[:, None]
            self.exp = np.exp(shifted)
        self.shifted = shifted
        self.ok = np.isfinite(peak)
        self.sums = self.exp.sum(axis=1)
        # math.log rather than np.log, which need not round the same way
        self.log_sums = np.array([math.log(v) if v > 0 else math.nan
                                  for v in self.sums.tolist()])

    def _per_row(self, values):
        """values, one per row, as a column to broadcast against the block
        (the one row's value itself)."""
        return values if self.z.ndim == 1 else values[:, None]

    def probs(self) -> np.ndarray:
        """softmax of every row."""
        return self.exp / self._per_row(self.sums)

    def log_probs(self) -> np.ndarray:
        """log_softmax of every row."""
        return self.shifted - self._per_row(self.log_sums)

    def log_prob(self, tokens):
        """log_softmax of every row, at one token per row (an int token and a
        float for the one row)."""
        if self.z.ndim == 1:
            return float(self.shifted[tokens]) - self.log_sums
        return self.shifted[np.arange(len(tokens)), tokens] - self.log_sums

    def entropy(self) -> tuple:
        """Each row's entropy in nats with 0*log(0) = 0 (NaN for rows not
        ok), with the log-probabilities and their exps it sums."""
        if self.z.ndim == 1:
            ls = self.shifted - self.log_sums
            p = np.exp(ls)
            h = -float(np.add.reduce(np.where(p > 0.0, p * ls, 0.0))) if self.ok else math.nan
            return h, ls, p
        with np.errstate(invalid="ignore"):
            ls = self.log_probs()
            p = np.exp(ls)
            h = -np.where(p > 0.0, p * ls, 0.0).sum(axis=1)
        h[~self.ok] = math.nan
        return h, ls, p


def read_text(path, kind: str) -> str:
    """A file's contents, which must be UTF-8 text: ConfigError naming the
    kind of file otherwise."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{kind} file is not UTF-8 text: {exc}") from None


def read_json(path, kind: str):
    """The JSON value of a file: ConfigError naming the kind of file when it is not
    UTF-8 text or not valid JSON (json refuses too long an integer with ValueError)."""
    text = read_text(path, kind)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{kind} file is not valid JSON: {exc}") from None


# The JSON value rule of config, backend and trace files. A reader returns a
# parsed leaf as its Python value, or raises TypeError (another kind) or
# ValueError (an integer literal beyond float range) with a message that its
# caller prefixes with the key. An integer is a JSON integer, never true or
# false; a number is a JSON integer or float, never a flag, a string or null,
# and comes back as a float.

def json_integer(value) -> int:
    if type(value) is int:
        return value
    raise TypeError(f"must be an integer, got {value!r}")


def json_number(value) -> float:
    if type(value) is float:
        return value
    if type(value) is int or isinstance(value, float):
        try:
            return float(value)
        except OverflowError:
            raise ValueError("holds a number beyond float range") from None
    raise TypeError(f"must be a number, got {value!r}")


def json_flag(value) -> bool:
    if type(value) is bool:
        return value
    raise TypeError(f"must be true or false, got {value!r}")


def json_string(value) -> str:
    if type(value) is str:
        return value
    raise TypeError(f"must be a string, got {value!r}")


def json_list(value, kind: type, n: int | None = None) -> list:
    """A JSON array of integers, flags or strings (kind int, bool or str, by
    the readers above) of n items, or of any number if n is None."""
    if type(value) is list and (n is None or len(value) == n) and \
            set(map(type, value)) <= {kind}:
        return value
    what = {int: "integers", bool: "true/false flags", str: "strings"}[kind]
    raise TypeError(f"must be a list of {what if n is None else f'{n} {what}'}, got {value!r}")


def json_array(value) -> np.ndarray:
    """A float64 array from a JSON array of numbers (by json_number's rule),
    or of equal-length arrays of them nested to any depth."""
    level = value  # a loop, not recursion: json nests about as deep as recursion can
    while type(level) is list and set(map(type, level)) == {list}:
        level = [x for row in level for x in row]
    if type(level) is list and set(map(type, level)) <= {int, float}:
        try:
            return np.array(value, dtype=np.float64)
        except OverflowError:
            raise ValueError("holds a number beyond float range") from None
        except ValueError:  # unequal lengths, or more dimensions than numpy holds
            pass
    raise TypeError("must be a list of numbers or of equal-length lists of them")


# The config schema walker, the one strict reader of config files, backend
# files and the CLI's flags: a JSON object becomes a dataclass, one key per
# field by the rule above, so a key's name, type and default live only in its
# field. A missing or null key takes the field's default (None for an optional
# field), except that a string key must be a string and a field without a
# default is required. An unknown key is fatal, named by its full key path.

def _path(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _finite(v) -> float:
    v = json_number(v)
    if not math.isfinite(v):
        raise ValueError(f"must be finite, got {v!r}")
    return v


def _integers(v) -> list[int]:
    if not json_list(v, int):
        raise ValueError("must not be empty")
    return list(v)


def _prefix_rows(v) -> dict:
    """An object of token-id prefixes ("7,3" in a file, a tuple of ids from
    Python) to arrays, by json_array's rule."""
    if type(v) is not dict:
        raise TypeError(f"must be an object of comma-separated token ids to arrays, got {v!r}")
    out = {}
    for key, row in v.items():
        try:
            prefix = key if type(key) is tuple else tuple(int(t) for t in str(key).split(","))
        except ValueError:
            raise ValueError(f"has a malformed prefix {key!r}") from None
        out[prefix] = json_array(row)
    return out


def _prefix_json(rows: dict) -> dict:
    return {",".join(map(str, key)): row.tolist() for key, row in sorted(rows.items())}


# a leaf field's type -> (its reader, its writer to JSON or None for as is)
_LEAVES = {
    int: (json_integer, None),
    float: (_finite, None),
    bool: (json_flag, None),
    str: (json_string, None),
    list[int]: (_integers, None),
    list[str]: (functools.partial(json_list, kind=str), None),
    np.ndarray: (json_array, np.ndarray.tolist),
    dict[tuple[int, ...], np.ndarray]: (_prefix_rows, _prefix_json),
}


class _Field(typing.NamedTuple):
    name: str
    section: type | None  # the dataclass of a nested section
    convert: typing.Callable | None  # a leaf's reader
    optional: bool  # null gives None
    required: bool  # no default
    flat: bool  # a section whose keys sit at this level


class _Plan(typing.NamedTuple):
    fields: tuple[_Field, ...]
    own: frozenset[str]  # keys of this class's own fields
    keys: frozenset[str]  # every key accepted at this level
    writers: tuple[tuple[str, typing.Callable | None], ...]  # (name, to JSON) per field


@functools.cache
def _plan(cls) -> _Plan:
    """The fields of a dataclass with their types resolved, built once per
    class: resolving type hints costs far more than a parse."""
    hints = typing.get_type_hints(cls)
    out, keys, writers = [], set(), []
    for f in fields(cls):
        tp = hints[f.name]
        args = typing.get_args(tp)
        optional = type(None) in args
        if optional:
            (tp,) = [a for a in args if a is not type(None)]
        flat = f.metadata.get("flat", False)
        section = tp if is_dataclass(tp) else None
        convert, write = (None, _write_fields) if section else _LEAVES[tp]
        required = f.default is MISSING and f.default_factory is MISSING
        out.append(_Field(f.name, section, convert, optional, required, flat))
        keys.update(_plan(tp).keys if flat else (f.name,))
        writers.append((f.name, write))
    own = frozenset(f.name for f in out if not f.flat)
    return _Plan(tuple(out), own, frozenset(keys), tuple(writers))


def _read_fields(cls, data, where: str):
    """Build the dataclass cls from one JSON object, checking every key
    against its field; `where` is the object's key path, for errors."""
    if not isinstance(data, dict):
        raise ConfigError(f"config section {where or '<root>'} must be an object")
    plan = _plan(cls)
    for key in data:
        if key not in plan.keys:
            raise ConfigError(f"unknown config key: {_path(where, key)}")
    kwargs = {}
    for name, section, convert, optional, required, flat in plan.fields:
        if flat:  # its keys share this level; the outer class's own keys win
            kwargs[name] = _read_fields(section, {k: v for k, v in data.items()
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
            kwargs[name] = _read_fields(section, v, _path(where, name))
            continue
        try:
            kwargs[name] = convert(v)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {_path(where, name)} {exc}") from None
    try:
        return cls(**kwargs)
    except InputError as exc:  # a range check of the dataclass: name its section
        if not where:
            raise
        raise type(exc)(f"{where}: {exc}") from None


def _write_fields(obj) -> dict:
    """A dataclass as a JSON object, in field order."""
    out = {}
    for name, write in _plan(type(obj)).writers:
        v = getattr(obj, name)
        out[name] = v if v is None or write is None else write(v)
    return out


# The construction checks of the config dataclasses, by the same rule: an
# integer field takes a Python or numpy integer and keeps it as an int; a
# number field takes a Python or numpy real and keeps it as a float, which
# must be finite (None stays None); neither takes a flag. Each refusal names
# the field.

def _integer_fields(obj, *names: str) -> None:
    for name in names:
        v = getattr(obj, name)
        if type(v) is int:
            continue
        if not isinstance(v, np.integer):
            raise InputError(f"{name} must be an integer, got {v!r}")
        object.__setattr__(obj, name, int(v))


def _number_fields(obj, *names: str) -> None:
    for name in names:
        v = getattr(obj, name)
        if type(v) is not float and v is not None:
            if type(v) is bool or not isinstance(v, (int, float, np.integer, np.floating)):
                raise InputError(f"{name} must be a number, got {v!r}")
            v = float(v)
            object.__setattr__(obj, name, v)
        if v is not None and not math.isfinite(v):
            raise InputError(f"{name} must be finite, got {v!r}")


def gemv_rows(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """matrix @ rows[r] for every row r of an (R, d) block, as an (R, V) block.

    matmul runs one gemv per row, so each result row equals matrix @ rows[r]
    bit for bit; one gemm over the block (rows @ matrix.T) may round
    differently."""
    return np.matmul(matrix, rows[:, :, None])[:, :, 0]


def _one_row(logits, temperature, part) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = ScaledRows(z.reshape(-1), temperature)
        if not scaled.ok:
            return np.full_like(z, np.nan)
        return part(scaled).reshape(z.shape)


def softmax(logits, temperature: float = 1.0) -> np.ndarray:
    """Temperature-scaled softmax with max-subtraction. NaN poisons the output
    instead of raising so optimizer abort paths can detect it."""
    return _one_row(logits, temperature, ScaledRows.probs)


def log_softmax(logits, temperature: float = 1.0) -> np.ndarray:
    return _one_row(logits, temperature, ScaledRows.log_probs)


def entropy_from_logits(logits, temperature: float = 1.0) -> float:
    """Shannon entropy in nats of softmax(logits/temperature), with 0*log(0)=0.

    NaN when the scaled logits are degenerate (poisoned log_softmax), so the
    failure is visible to abort checks rather than masked as zero entropy.
    """
    z = np.asarray(logits, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        h, _, _ = ScaledRows(z.reshape(-1), temperature).entropy()
    return h


def two_point_logits(target_entropy: float, size: int, hot: int = 0,
                     temperature: float = 1.0) -> np.ndarray:
    """Logit vector whose temperature-scaled softmax entropy equals target_entropy.

    One position (`hot`) carries a gap g >= 0 over the rest; entropy is ln(size)
    at g=0 and decreases monotonically, so bisection pins g to machine precision.
    """
    if size < 2:
        raise InputError("need at least two tokens")
    if not 0.0 < target_entropy < math.log(size):
        raise InputError(f"target entropy must lie in (0, ln {size})")

    def h(gap):
        z = np.zeros(size)
        z[hot] = gap
        return entropy_from_logits(z, temperature)

    lo, hi = 0.0, 1.0
    while h(hi) > target_entropy:
        hi *= 2.0
        if hi > 1e6:
            raise InputError("entropy target unreachable")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        bounds = (mid, hi) if h(mid) > target_entropy else (lo, mid)
        if bounds == (lo, hi):  # a fixed point: every later halving repeats this one
            break
        lo, hi = bounds
    z = np.zeros(size)
    z[hot] = 0.5 * (lo + hi)
    return z
