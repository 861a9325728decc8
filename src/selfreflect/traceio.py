"""Decode-trace persistence: line-delimited JSON records.

One record per line: a header (version first), one record per generated step,
and a footer with totals. Numbers round-trip exactly (Python emits the shortest
float representation, and NaN is permitted for the undefined window statistics
of early steps), so serialize -> parse -> serialize is byte-identical. Replay
comparisons use the canonical form with wall-time measurements zeroed, since
timings are the one thing an otherwise deterministic decode cannot reproduce.
"""

from __future__ import annotations

import json
import os

from .config import decode_config_from_dict, decode_config_to_dict
from .engine import (CorrectionSummary, DecodeTrace, StepRecord, TraceTotals)
from .errors import ConfigError
from .monitor import TriggerDecision
from .optimizer import HybridLossReport

TRACE_VERSION = 1


# one compact encoder for every record: json.dumps would build a new one per call
_dumps = json.JSONEncoder(separators=(",", ":"), allow_nan=True).encode


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


def trace_to_lines(trace: DecodeTrace, zero_times: bool = False) -> list[str]:
    header = {
        "version": TRACE_VERSION,
        "record": "header",
        "model_id": trace.model_id,
        "seed": trace.seed,
        "prompt": list(trace.prompt),
        "config": decode_config_to_dict(trace.config),
    }
    lines = [_dumps(header)]
    for s in trace.steps:
        d = s.trigger
        rec = {
            "record": "step",
            "position": s.position,
            "token": s.token,
            "entropy": s.entropy,
            "logprob": s.logprob,
            "wall_time": 0.0 if zero_times else s.wall_time,
            "trigger": {"mean": d.mean, "std": d.std, "threshold": d.threshold,
                        "fired": d.fired, "window_full": d.window_full},
            "correction": None if s.correction is None
                          else _correction_dict(s.correction, zero_times),
        }
        lines.append(_dumps(rec))
    totals = trace.totals
    footer = {
        "record": "footer",
        "totals": {
            "n_activations": totals.n_activations,
            "inner_steps": totals.inner_steps,
            "wall_time": 0.0 if zero_times else totals.wall_time,
            "baseline_time": None if zero_times else totals.baseline_time,
        },
        "output": list(trace.output),
    }
    lines.append(_dumps(footer))
    return lines


def serialize_trace(trace: DecodeTrace) -> str:
    return "\n".join(trace_to_lines(trace)) + "\n"


def replay_form(trace: DecodeTrace) -> str:
    """Serialization with timing fields zeroed: bitwise-stable under replay."""
    return "\n".join(trace_to_lines(trace, zero_times=True)) + "\n"


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


def _token_ids(data, key) -> tuple[int, ...]:
    value = data[key]
    if type(value) is list and all(type(t) is int for t in value):
        return tuple(value)
    raise TypeError(f"{key!r} must be a list of integers, got {value!r}")


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


def parse_trace(text: str) -> DecodeTrace:
    numbered = [(i, ln) for i, ln in enumerate(text.split("\n"), start=1) if ln]
    if len(numbered) < 2:
        raise ConfigError("trace must contain at least a header and a footer")
    records = []
    for i, ln in numbered:
        try:
            rec = json.loads(ln)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"trace line {i} is not valid JSON: {exc}") from None
        if not isinstance(rec, dict):
            raise ConfigError(f"trace line {i}: a record must be a JSON object")
        records.append((i, rec))

    (line, header), footer = records[0], records[-1][1]
    if header.get("record") != "header":
        raise ConfigError("first trace record must be the header")
    if header.get("version") != TRACE_VERSION:
        raise ConfigError(f"unsupported trace version: {header.get('version')!r}")
    if footer.get("record") != "footer":
        raise ConfigError("last trace record must be the footer")

    try:  # `line` follows the record being read, for the error message
        config = decode_config_from_dict(header["config"], "config")
        model_id = header["model_id"]
        if type(model_id) is not str:
            raise TypeError(f"'model_id' must be a string, got {model_id!r}")
        prompt, seed = _token_ids(header, "prompt"), _integer(header, "seed")
        steps = []
        for line, rec in records[1:-1]:
            if rec.get("record") != "step":
                raise ConfigError(f"unexpected trace record kind: {rec.get('record')!r}")
            t = rec["trigger"]
            entropy = _number(rec, "entropy")
            decision = TriggerDecision(entropy=entropy, mean=_number(t, "mean"),
                                       std=_number(t, "std"), threshold=_number(t, "threshold"),
                                       fired=_flag(t, "fired"),
                                       window_full=_flag(t, "window_full"))
            corr = rec.get("correction")
            steps.append(StepRecord(
                position=_integer(rec, "position"), token=_integer(rec, "token"),
                entropy=entropy, trigger=decision, logprob=_number(rec, "logprob"),
                wall_time=_number(rec, "wall_time"),
                correction=None if corr is None else _parse_correction(corr)))
        line = records[-1][0]
        output = _token_ids(footer, "output")
        tot = footer["totals"]
        totals = TraceTotals(n_activations=_integer(tot, "n_activations"),
                             inner_steps=_integer(tot, "inner_steps"),
                             wall_time=_number(tot, "wall_time"),
                             baseline_time=_number_or_none(tot, "baseline_time"))
    except KeyError as exc:
        raise ConfigError(f"trace line {line}: missing key {exc.args[0]!r}") from None
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"trace line {line}: malformed record ({exc})") from None
    if len(output) != len(steps) or any(s.token != output[i] for i, s in enumerate(steps)):
        raise ConfigError("trace output does not match its step records")
    return DecodeTrace(model_id=model_id, prompt=prompt, output=output, steps=steps,
                       totals=totals, config=config, seed=seed)


def read_trace(path) -> DecodeTrace:
    with open(path) as fh:
        return parse_trace(fh.read())


def trace_files(directory) -> list[str]:
    """Trace paths under a directory, sorted for deterministic reports."""
    names = [n for n in os.listdir(directory) if n.endswith(".jsonl")]
    return [os.path.join(directory, n) for n in sorted(names)]
