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

import numpy as np

from .config import decode_config_from_dict, decode_config_to_dict
from .engine import (STEP_FLOATS, CorrectionSummary, DecodeConfig, DecodeTrace, StepColumns,
                     TraceTotals)
from .errors import ConfigError
from .optimizer import HybridLossReport
from .utils import read_text

TRACE_VERSION = 2
_REPLAY_VERSION = 1  # the layout replay_form writes
_DTYPE = "<f8"


# one compact encoder for every record: json.dumps would build a new one per call
_dumps = json.JSONEncoder(separators=(",", ":"), allow_nan=True).encode


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
    totals = trace.totals
    return _dumps({
        "record": "footer",
        "totals": {
            "n_activations": totals.n_activations,
            "inner_steps": totals.inner_steps,
            "wall_time": 0.0 if zero_times else totals.wall_time,
            "baseline_time": None if zero_times else totals.baseline_time,
        },
        "output": list(trace.output),
    })


def _correction_dict(c: CorrectionSummary, zero_times: bool) -> dict:
    return {
        "steps_taken": c.steps_taken,
        "aborted": c.aborted,
        "entropy_weight": c.entropy_weight,
        "delta_norm": c.delta_norm,
        "final_l_ce": c.final_l_ce,
        "final_l_aem": c.final_l_aem,
        "final_f_lambda": c.final_f_lambda,
        "opt_wall_time": 0.0 if zero_times else c.opt_wall_time,
        "trajectory": [
            {"l_ce": r.l_ce, "l_aem": r.l_aem, "f_lambda": r.f_lambda,
             "grad_norm": r.grad_norm, "grad_cos": r.grad_cos,
             "step_size": r.step_size}
            for r in c.trajectory
        ],
    }


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
            "correction": None if c is None else _correction_dict(c, zero_times),
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
    lines += [_dumps({"record": "correction", "step": i, **_correction_dict(c, False)})
              for i, c in cols.corrections.items()]
    lines.append(_footer(trace, False))
    return "\n".join(lines) + "\n"


def replay_form(trace: DecodeTrace) -> str:
    """Version 1 text with timing fields zeroed: bitwise-stable under replay."""
    return "\n".join(_v1_lines(trace, zero_times=True)) + "\n"


def write_trace(trace: DecodeTrace, path) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_trace(trace))


# Leaf readers: each returns data[key] when it has the type the writer emits
# and raises TypeError naming the key otherwise (bool is not a number here).

def _number(data, key):
    value = data[key]
    if type(value) is float or type(value) is int:
        return value
    raise TypeError(f"{key!r} must be a number, got {value!r}")


def _number_or_none(data, key):
    return None if data[key] is None else _number(data, key)


def _float(data, key) -> float:
    value = _number(data, key)
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond float range
        raise ValueError(f"{key!r} is beyond float range") from None


def _integer(data, key):
    value = data[key]
    if type(value) is int:
        return value
    raise TypeError(f"{key!r} must be an integer, got {value!r}")


def _flag(data, key):
    value = data[key]
    if type(value) is bool:
        return value
    raise TypeError(f"{key!r} must be true or false, got {value!r}")


def _list(data, key, kind: type, n: int | None = None) -> list:
    """data[key] when it is a list of values of exactly the type kind, and
    of n values unless n is None."""
    value = data[key]
    if type(value) is list and (n is None or len(value) == n) and \
            set(map(type, value)) <= {kind}:
        return value
    what = "integers" if kind is int else "true/false flags"
    raise TypeError(f"{key!r} must be a list of {what if n is None else f'{n} {what}'}, "
                    f"got {value!r}")


def _token_ids(data, key) -> tuple[int, ...]:
    return tuple(_list(data, key, int))


def _parse_correction(data) -> CorrectionSummary:
    w = _number(data, "entropy_weight")
    trajectory = [
        HybridLossReport(l_ce=_number(r, "l_ce"), l_aem=_number(r, "l_aem"),
                         f_lambda=_number(r, "f_lambda"), grad_norm=_number(r, "grad_norm"),
                         grad_cos=_number(r, "grad_cos"), entropy_weight=w,
                         step_size=_number(r, "step_size"))
        for r in data["trajectory"]
    ]
    return CorrectionSummary(
        steps_taken=_integer(data, "steps_taken"), aborted=_flag(data, "aborted"),
        entropy_weight=w, delta_norm=_number(data, "delta_norm"),
        final_l_ce=_number_or_none(data, "final_l_ce"),
        final_l_aem=_number_or_none(data, "final_l_aem"),
        final_f_lambda=_number_or_none(data, "final_f_lambda"),
        opt_wall_time=_number(data, "opt_wall_time"), trajectory=trajectory)


def _read_v1(cols: StepColumns, rec) -> None:
    """One version 1 step record, onto columns whose floats are still a flat
    list and whose tokens are still the steps' own."""
    if rec.get("record") != "step":
        raise ConfigError(f"unexpected trace record kind: {rec.get('record')!r}")
    t = rec["trigger"]
    cols.floats += (_float(rec, "entropy"), _float(rec, "logprob"), _float(rec, "wall_time"),
                    _float(t, "mean"), _float(t, "std"), _float(t, "threshold"))
    cols.fired.append(_flag(t, "fired"))
    cols.window_full.append(_flag(t, "window_full"))
    cols.position.append(_integer(rec, "position"))
    cols.tokens.append(_integer(rec, "token"))
    corr = rec.get("correction")
    if corr is not None:
        cols.corrections[len(cols.position) - 1] = _parse_correction(corr)


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
    step, n = _integer(rec, "step"), len(cols.position)
    last = next(reversed(cols.corrections), -1)  # kept in step order
    if not last < step < n:
        raise ValueError(f"'step' must be a step index in ({last}, {n}), after the "
                         f"previous correction's, got {step}")
    cols.corrections[step] = _parse_correction(rec)


def _read_block(cols: StepColumns, rec) -> None:
    n = _integer(rec, "n")
    if n < 0:
        raise ValueError(f"'n' must not be negative, got {n}")
    for key, want in (("dtype", _DTYPE), ("columns", list(STEP_FLOATS))):
        if rec[key] != want:
            raise ValueError(f"{key!r} must be {want!r}, got {rec[key]!r}")
    text = rec["floats"]
    if type(text) is not str:
        raise TypeError(f"'floats' must be a base64 string, got {text!r}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or text beyond ASCII
        raise ValueError(f"'floats' is not base64 text ({exc})") from None
    if len(raw) != 8 * 6 * n:
        raise ValueError(f"'floats' must hold 6 * n = {6 * n} float64 values, "
                         f"got {len(raw)} bytes")
    cols.position = _list(rec, "position", int, n)
    cols.fired = _list(rec, "fired", bool, n)
    cols.window_full = _list(rec, "window_full", bool, n)
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
        except (json.JSONDecodeError, RecursionError):
            pass
    if records is not None and len(records) == len(numbered) and \
            all(type(rec) is dict for rec in records):
        return records
    records = []
    for i, ln in numbered:
        try:
            rec = json.loads(ln)
        except (json.JSONDecodeError, RecursionError) as exc:
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
    if type(version) is not int or version not in (1, 2):
        raise ConfigError(f"unsupported trace version: {version!r}")
    if footer.get("record") != "footer":
        raise ConfigError("last trace record must be the footer")

    line = lines[0]  # follows the record being read, for the error message
    try:
        config = decode_config_from_dict(header["config"], "config")
        model_id = header["model_id"]
        if type(model_id) is not str:
            raise TypeError(f"'model_id' must be a string, got {model_id!r}")
        prompt, seed = _token_ids(header, "prompt"), _integer(header, "seed")
        line = lines[-1]
        output = _token_ids(footer, "output")
        tot = footer["totals"]
        totals = TraceTotals(n_activations=_integer(tot, "n_activations"),
                             inner_steps=_integer(tot, "inner_steps"),
                             wall_time=_number(tot, "wall_time"),
                             baseline_time=_number_or_none(tot, "baseline_time"))
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
