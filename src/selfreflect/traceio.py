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


def _parse_correction(data) -> CorrectionSummary:
    w = data["entropy_weight"]
    trajectory = [
        HybridLossReport(l_ce=r["l_ce"], l_aem=r["l_aem"], f_lambda=r["f_lambda"],
                         grad_norm=r["grad_norm"], grad_cos=r["grad_cos"],
                         entropy_weight=w, step_size=r["step_size"])
        for r in data["trajectory"]
    ]
    return CorrectionSummary(
        steps_taken=data["steps_taken"], aborted=data["aborted"],
        entropy_weight=w, delta_norm=data["delta_norm"],
        final_l_ce=data["final_l_ce"], final_l_aem=data["final_l_aem"],
        final_f_lambda=data["final_f_lambda"],
        opt_wall_time=data["opt_wall_time"], trajectory=trajectory)


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
        model_id, prompt, seed = header["model_id"], tuple(header["prompt"]), header["seed"]
        steps = []
        for line, rec in records[1:-1]:
            if rec.get("record") != "step":
                raise ConfigError(f"unexpected trace record kind: {rec.get('record')!r}")
            t = rec["trigger"]
            decision = TriggerDecision(entropy=rec["entropy"], mean=t["mean"], std=t["std"],
                                       threshold=t["threshold"], fired=t["fired"],
                                       window_full=t["window_full"])
            corr = rec.get("correction")
            steps.append(StepRecord(
                position=rec["position"], token=rec["token"], entropy=rec["entropy"],
                trigger=decision, logprob=rec["logprob"], wall_time=rec["wall_time"],
                correction=None if corr is None else _parse_correction(corr)))
        line = records[-1][0]
        output = tuple(int(t) for t in footer["output"])
        tot = footer["totals"]
        totals = TraceTotals(n_activations=tot["n_activations"], inner_steps=tot["inner_steps"],
                             wall_time=tot["wall_time"], baseline_time=tot["baseline_time"])
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
