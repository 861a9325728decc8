"""Decode-trace persistence: newline-separated JSON records.

Every trace starts with a header (version first) and ends with a footer with
totals and the output tokens. Two layouts sit between them:

- Version 2, which serialize_trace and write_trace write, keeps the steps as
  columns: one `steps` record whose six float columns (entropy, logprob,
  wall_time, and the trigger's mean, std and threshold) are one little-endian
  float64 block in base64, with position, fired and window_full as JSON
  lists, then one `correction` record per corrected step. A step's token is
  the footer's output[i]. Raw IEEE bytes carry every float exactly, NaN and
  -0.0 included, so serialize -> parse -> serialize is byte-identical and no
  float is formatted.
- Version 1 keeps one JSON record per step. replay_form writes it with the
  wall-time measurements zeroed, since timings are the one thing an
  otherwise deterministic decode cannot reproduce: two decodes of one seed
  and config compare equal byte for byte.

A trace's steps are an engine.StepColumns, the v2 layout in memory: the
writers read the columns, and parse_trace reads both versions into them and
checks them against the trigger rule. No StepRecord is built on the way.
"""

from __future__ import annotations

import base64
import json
import os
import typing
from dataclasses import fields

import numpy as np

from .config import decode_config_from_dict, decode_config_to_dict
from .engine import (STEP_FLOATS, CorrectionSummary, DecodeConfig, DecodeTrace, StepColumns,
                     TraceTotals)
from .errors import ConfigError
from .utils import (json_flag, json_integer, json_list, json_number, json_string, read_text)

TRACE_VERSION = 2
_REPLAY_VERSION = 1  # the layout replay_form writes
_DTYPE = "<f8"


# one compact encoder for every record: json.dumps would build a new one per call
_dumps = json.JSONEncoder(separators=(",", ":"), allow_nan=True).encode


def _get(data, key: str, read, *args):
    """data[key] read by a utils JSON reader, whose error names the key."""
    value = data[key]
    try:
        return read(value, *args)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{key!r} {exc}") from None


def _nullable(read):
    return lambda value: None if value is None else read(value)


# the reader of a field annotated with each type
_READERS = {int: json_integer, float: json_number, bool: json_flag, str: json_string}
_READERS |= {kind | None: _nullable(read) for kind, read in _READERS.items()}

# what replay_form zeroes: timings, which a deterministic decode cannot reproduce
_TIMINGS = {"wall_time": 0.0, "baseline_time": None, "opt_wall_time": 0.0}


class _Record:
    """A dataclass as a trace record: one key per field, in field order, read
    by its annotated type; a list of dataclasses is a list of their records.
    Fields and readers are resolved once per class. A field that the records
    of a list share with their parent (a trajectory point's entropy_weight)
    is written once, in the parent, and read from it."""

    def __init__(self, cls, shared: tuple[str, ...] = ()):
        hints = typing.get_type_hints(cls)
        self.cls, self.shared = cls, shared
        self.names = tuple(f.name for f in fields(cls) if f.name not in shared)
        self.zeros = {k: v for k, v in _TIMINGS.items() if k in self.names}
        self.leaves, self.lists = [], []
        for name in self.names:
            if typing.get_origin(hints[name]) is list:
                (item,) = typing.get_args(hints[name])
                self.lists.append((name, _Record(item, tuple(
                    f.name for f in fields(item) if f.name in hints))))
            else:
                self.leaves.append((name, _READERS[hints[name]]))

    def write(self, obj, zero_times: bool) -> dict:
        rec = {name: getattr(obj, name) for name in self.names}
        for name, record in self.lists:
            rec[name] = [record.write(item, zero_times) for item in rec[name]]
        return rec | self.zeros if zero_times else rec

    def read(self, data, **shared):
        try:
            values = {name: read(data[name]) for name, read in self.leaves}
        except (TypeError, ValueError):  # read again, to name the key
            values = {name: _get(data, name, read) for name, read in self.leaves}
        for name, record in self.lists:
            items = data[name]
            if type(items) is not list:
                raise TypeError(f"{name!r} must be a list of records, got {items!r}")
            inherited = {k: values[k] for k in record.shared}
            values[name] = [record.read(item, **inherited) for item in items]
        return self.cls(**values, **shared)


_CORRECTION = _Record(CorrectionSummary)
_TOTALS = _Record(TraceTotals)


def _header(trace: DecodeTrace, version: int) -> str:
    return _dumps({
        "version": version,
        "record": "header",
        "model_id": trace.model_id,
        "seed": trace.seed,
        "prompt": list(trace.prompt),
        "config": decode_config_to_dict(trace.config),
    })


def _footer(trace: DecodeTrace, zero_times: bool) -> str:
    return _dumps({
        "record": "footer",
        "totals": _TOTALS.write(trace.totals, zero_times),
        "output": list(trace.output),
    })


def _v1_lines(trace: DecodeTrace, zero_times: bool) -> list[str]:
    lines = [_header(trace, _REPLAY_VERSION)]
    for p, token, h, lp, wall, m, sd, thr, fired, full, c in StepColumns.of(trace.steps).rows():
        rec = {
            "record": "step",
            "position": p,
            "token": token,
            "entropy": h,
            "logprob": lp,
            "wall_time": 0.0 if zero_times else wall,
            "trigger": {"mean": m, "std": sd, "threshold": thr,
                        "fired": fired, "window_full": full},
            "correction": None if c is None else _CORRECTION.write(c, zero_times),
        }
        lines.append(_dumps(rec))
    lines.append(_footer(trace, zero_times))
    return lines


def serialize_trace(trace: DecodeTrace) -> str:
    """The version 2 text of a trace."""
    cols = StepColumns.of(trace.steps)
    block = _dumps({
        "record": "steps",
        "n": len(cols),
        "dtype": _DTYPE,
        "columns": list(STEP_FLOATS),
        "position": cols.position,
        "fired": cols.fired,
        "window_full": cols.window_full,
    })
    # base64 text needs no JSON escaping, and the encoder's escape scan of it
    # would cost more than the rest of the record
    floats = base64.b64encode(cols.floats.astype(_DTYPE, copy=False).tobytes()).decode("ascii")
    lines = [_header(trace, TRACE_VERSION), f'{block[:-1]},"floats":"{floats}"}}']
    lines += [_dumps({"record": "correction", "step": i, **_CORRECTION.write(c, False)})
              for i, c in cols.corrections.items()]
    lines.append(_footer(trace, False))
    return "\n".join(lines) + "\n"


def replay_form(trace: DecodeTrace) -> str:
    """Version 1 text with timing fields zeroed: bitwise-stable under replay."""
    return "\n".join(_v1_lines(trace, zero_times=True)) + "\n"


def write_trace(trace: DecodeTrace, path) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_trace(trace))


def _read_v1(cols: StepColumns, rec) -> None:
    """One version 1 step record, onto columns whose floats are still a flat
    list and whose tokens are still the steps' own."""
    if rec.get("record") != "step":
        raise ConfigError(f"unexpected trace record kind: {rec.get('record')!r}")
    t = rec["trigger"]
    cols.floats += (_get(rec, "entropy", json_number), _get(rec, "logprob", json_number),
                    _get(rec, "wall_time", json_number), _get(t, "mean", json_number),
                    _get(t, "std", json_number), _get(t, "threshold", json_number))
    cols.fired.append(_get(t, "fired", json_flag))
    cols.window_full.append(_get(t, "window_full", json_flag))
    cols.position.append(_get(rec, "position", json_integer))
    cols.tokens.append(_get(rec, "token", json_integer))
    corr = rec.get("correction")
    if corr is not None:
        cols.corrections[len(cols.position) - 1] = _CORRECTION.read(corr)


def _read_v2(cols: StepColumns, rec) -> None:
    """The version 2 steps record onto empty columns, then one correction
    record at a time."""
    kind = rec.get("record")
    if cols.floats is None:
        if kind != "steps":
            raise ConfigError(f"expected the steps record, got {kind!r}")
        _read_block(cols, rec)
        return
    if kind != "correction":
        raise ConfigError(f"unexpected trace record kind: {kind!r}")
    step, n = _get(rec, "step", json_integer), len(cols.position)
    last = next(reversed(cols.corrections), -1)  # kept in step order
    if not last < step < n:
        raise ValueError(f"'step' must be a step index in ({last}, {n}), after the "
                         f"previous correction's, got {step}")
    cols.corrections[step] = _CORRECTION.read(rec)


def _read_block(cols: StepColumns, rec) -> None:
    n = _get(rec, "n", json_integer)
    if n < 0:
        raise ValueError(f"'n' must not be negative, got {n}")
    for key, want in (("dtype", _DTYPE), ("columns", list(STEP_FLOATS))):
        if rec[key] != want:
            raise ValueError(f"{key!r} must be {want!r}, got {rec[key]!r}")
    try:
        raw = base64.b64decode(_get(rec, "floats", json_string), validate=True)
    except ValueError as exc:  # binascii.Error, or text beyond ASCII
        raise ValueError(f"'floats' is not base64 text ({exc})") from None
    if len(raw) != 8 * 6 * n:
        raise ValueError(f"'floats' must hold 6 * n = {6 * n} float64 values, "
                         f"got {len(raw)} bytes")
    cols.position = _get(rec, "position", json_list, int, n)
    cols.fired = _get(rec, "fired", json_list, bool, n)
    cols.window_full = _get(rec, "window_full", json_list, bool, n)
    cols.floats = np.frombuffer(raw, _DTYPE).astype(np.float64).reshape(6, n)


def _first(bad: np.ndarray, message: str) -> None:
    if np.count_nonzero(bad):
        raise ConfigError(f"trace step {int(bad.argmax())}: {message}")


def _check_steps(cols: StepColumns, config: DecodeConfig) -> StepColumns:
    """The columns, after checking each step's trigger fields against the
    trigger rule (monitor.trigger_rows), vectorized over the columns.
    Windows fill one entry per step, so a step's window is empty at position
    0 and full from window_size on."""
    entropy, _, _, mean, std, threshold = cols.floats
    position = np.array(cols.position)
    fired = np.array(cols.fired, dtype=bool)
    window_full = np.array(cols.window_full, dtype=bool)
    trigger = config.trigger
    _first(window_full != (position >= trigger.window_size),
           f"window_full must be position >= window_size ({trigger.window_size})")
    with np.errstate(all="ignore"):  # overflow or inf * 0 only means a mismatch
        expected = mean + trigger.sensitivity * std
    nan = np.isnan(threshold)
    same = np.where(position == 0, nan & np.isnan(expected),
                    ~nan & (threshold.view(np.int64) == expected.view(np.int64)))
    _first(~same, "threshold must be mean + sensitivity * std bit for bit, "
                  "and NaN exactly where the window is empty")
    crossed = window_full & (entropy > threshold)
    if config.reflect:
        _first(fired != crossed, "fired must be window_full and entropy > threshold")
    else:
        _first(fired & ~crossed, "a fired step needs a full window and entropy > threshold")
    corrected = np.zeros(len(fired), dtype=bool)
    corrected[list(cols.corrections)] = True
    _first(corrected != fired, "a step must have a correction exactly when it fired")
    return cols


def _load_records(numbered) -> list[dict]:
    """The JSON object of each (line number, text) pair, parsed with one
    json.loads over the records joined as a JSON array. That parse is tried
    only when every line starts with '{' and ends with '}', and kept only
    when it gives one object per line; otherwise the lines are parsed one by
    one, so that the error names the bad line. Every record is checked in
    full afterwards either way."""
    records = None
    if all(ln[0] == "{" and ln[-1] == "}" for _, ln in numbered):
        try:
            records = json.loads("[" + ",".join(ln for _, ln in numbered) + "]")
        except (ValueError, RecursionError):  # ValueError: an integer literal too long to read
            pass
    if records is not None and len(records) == len(numbered) and \
            all(type(rec) is dict for rec in records):
        return records
    records = []
    for i, ln in numbered:
        try:
            rec = json.loads(ln)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"trace line {i} is not valid JSON: {exc}") from None
        if not isinstance(rec, dict):
            raise ConfigError(f"trace line {i}: a record must be a JSON object")
        records.append(rec)
    return records


def parse_trace(text: str) -> DecodeTrace:
    """A trace from its version 1 or version 2 text."""
    numbered = [(i, ln) for i, ln in enumerate(text.split("\n"), start=1) if ln]
    if len(numbered) < 2:
        raise ConfigError("trace must contain at least a header and a footer")
    records = _load_records(numbered)
    lines = [i for i, _ in numbered]

    header, footer = records[0], records[-1]
    if header.get("record") != "header":
        raise ConfigError("first trace record must be the header")
    version = header.get("version")
    try:
        supported = json_integer(version) in (1, 2)
    except TypeError:
        supported = False
    if not supported:
        raise ConfigError(f"unsupported trace version: {version!r}")
    if footer.get("record") != "footer":
        raise ConfigError("last trace record must be the footer")

    line = lines[0]  # follows the record being read, for the error message
    try:
        config = decode_config_from_dict(header["config"], "config")
        model_id = _get(header, "model_id", json_string)
        prompt = tuple(_get(header, "prompt", json_list, int))
        seed = _get(header, "seed", json_integer)
        line = lines[-1]
        output = tuple(_get(footer, "output", json_list, int))
        totals = _TOTALS.read(footer["totals"])
        if version == 1:
            cols, read = StepColumns([], [], [], [], [], {}), _read_v1
        else:
            cols, read = StepColumns(None, [], [], [], output, {}), _read_v2
        for line, rec in zip(lines[1:-1], records[1:-1]):
            try:
                read(cols, rec)
            except ConfigError as exc:
                raise ConfigError(f"trace line {line}: {exc}") from None
    except KeyError as exc:
        raise ConfigError(f"trace line {line}: missing key {exc.args[0]!r}") from None
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"trace line {line}: malformed record ({exc})") from None
    if version == 1:
        if cols.tokens != list(output):
            raise ConfigError("trace output does not match its step records")
        cols = StepColumns.from_rows(cols.floats, cols.position, cols.fired, cols.window_full,
                                     output, cols.corrections)
    elif cols.floats is None:
        raise ConfigError("a version 2 trace needs a steps record after its header")
    elif len(output) != len(cols.position):
        raise ConfigError("trace output does not match its step records")
    return DecodeTrace(model_id=model_id, prompt=prompt, output=output,
                       steps=_check_steps(cols, config), totals=totals, config=config, seed=seed)


def read_trace(path) -> DecodeTrace:
    return parse_trace(read_text(path, "trace"))


def trace_files(directory) -> list[str]:
    """Trace paths under a directory, sorted for deterministic reports."""
    names = [n for n in os.listdir(directory) if n.endswith(".jsonl")]
    return [os.path.join(directory, n) for n in sorted(names)]
