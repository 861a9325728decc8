"""Command line front end.

Subcommands:

  decode        generate from a backend file, print stats, optionally trace
  bench         run a task corpus k times per task and score it
  verify        run one numerical verification suite
  analyze       summarize previously written trace files
  make-backend  write a backend definition JSON for later runs

Exit codes: 0 success, 1 a verification suite or benchmark reported failure,
2 bad usage or bad configuration.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .backends import build_toy_backend, load_backend, save_backend
from .config import RunConfig, run_config_from_dict
from .engine import DecodeConfig, decode
from .errors import ConfigError, InputError
from .harness import (FAMILIES, corpus_backend, critical_tokens, gen_corpus,
                      parse_corpus_spec, run_benchmark)
from .traceio import read_trace, trace_files, write_trace
from .utils import read_json
from .verify import SUITES, export_pareto, pareto_from_trace


def _int_list(flag: str, text: str) -> list[int]:
    """The integers of a comma-separated flag value: ConfigError naming the
    flag otherwise."""
    try:
        items = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated integers, got {text!r}") from None
    if not items:
        raise ConfigError(f"{flag} must contain at least one integer")
    return items


def _draw_seed() -> int:
    return int(np.random.SeedSequence().entropy) % (2 ** 63)


def _run_config(args, **flags) -> RunConfig:
    """The --config file's object (or {}) with each flag given laid over it as
    a key: a flag wins over the file and the file over the defaults. The file
    is read on its own first, so that a flag never hides a malformed value."""
    data = read_json(args.config, "config") if args.config else {}
    run_config_from_dict(data)
    return run_config_from_dict({**data, **{k: v for k, v in flags.items() if v is not None}})


# --- decode -----------------------------------------------------------------

def cmd_decode(args) -> int:
    cfg = _run_config(args, backend=args.backend, seed=args.seed, max_tokens=args.max_tokens,
                      reflect=False if args.no_reflect else None)
    backend = load_backend(cfg.backend)
    prompt = tuple(_int_list("--prompt", args.prompt))
    seed = _draw_seed() if cfg.seed is None else cfg.seed
    trace = decode(backend, prompt, cfg.decode_config(seed))
    if cfg.decode.reflect:
        baseline = decode(backend, prompt, cfg.decode_config(seed, reflect=False))
        trace.totals.baseline_time = baseline.totals.wall_time

    print(f"model: {trace.model_id}")
    print(f"seed: {seed}")
    print("output:", ",".join(str(t) for t in trace.output))
    totals = trace.totals
    print(f"steps: {len(trace.steps)}  activations: {totals.n_activations}"
          f"  inner_steps: {totals.inner_steps}")
    print(f"wall_time: {totals.wall_time:.6f}s")
    if totals.baseline_time is not None:
        overhead = totals.wall_time - totals.baseline_time
        print(f"baseline_time: {totals.baseline_time:.6f}s"
              f"  overhead: {overhead:.6f}s")
    if args.trace:
        write_trace(trace, args.trace)
        print(f"trace written: {args.trace}")
    return 0


# --- bench ------------------------------------------------------------------

def _bench_rows(result):
    m = result.metrics
    for task in m.results:
        for j, (pred, ok) in enumerate(zip(task.samples, task.correct)):
            yield [m.arm, task.task_id, j, task.seeds[j], task.answer, pred,
                   int(ok), task.vote, int(task.vote_correct)]


def cmd_bench(args) -> int:
    seeds = None if args.seeds is None else _int_list("--seeds", args.seeds)
    # an empty --corpus or --backend leaves the file's value
    cfg = _run_config(args, corpus=args.corpus or None, backend=args.backend or None, k=args.k,
                      seeds=seeds, out=args.out)
    if not cfg.corpus:
        raise ConfigError("bench needs a corpus spec (--corpus or config)")
    family, opts = parse_corpus_spec(cfg.corpus)
    corpus_seed = opts.get("seed", 0)
    difficulty = opts.get("difficulty", 1)
    tasks = gen_corpus(family, corpus_seed, opts.get("count", 50), difficulty)
    backend = load_backend(cfg.backend) if cfg.backend \
        else corpus_backend(family, corpus_seed, difficulty)

    if args.no_reflect:
        arms = ["baseline"]
    elif args.both_arms:
        arms = ["reflect", "baseline"]
    else:
        arms = ["reflect"]

    out_dir = Path(cfg.out) if cfg.out else None
    keep = out_dir is not None

    decode_cfg = cfg.decode_config(0)
    results = {}
    errors = 0
    for arm in arms:
        result = run_benchmark(backend, tasks, decode_cfg, cfg.k, seeds=cfg.seeds,
                               reflect=arm == "reflect", keep_traces=keep)
        results[arm] = result
        m = result.metrics
        errors += sum(t.errors for t in m.results)
        print(f"{arm}: tasks={m.tasks} k={m.k} avg@k={m.avg_at_k:.4f}"
              f" pass@k={m.pass_at_k:.4f} cons@k={m.cons_at_k:.4f}"
              f" activations={m.activations} inner_steps={m.inner_steps}")

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "metrics.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["arm", "task", "sample", "seed", "answer",
                             "prediction", "correct", "vote", "vote_correct"])
            for arm in arms:
                writer.writerows(_bench_rows(results[arm]))
        summary = {
            "corpus": cfg.corpus, "family": family, "k": cfg.k,
            "seeds": list(range(cfg.k)) if cfg.seeds is None else cfg.seeds,
            "tasks": len(tasks), "arms": {}}
        for arm, result in results.items():
            m = result.metrics
            summary["arms"][arm] = {
                "avg_at_k": m.avg_at_k, "pass_at_k": m.pass_at_k,
                "cons_at_k": m.cons_at_k, "activations": m.activations,
                "inner_steps": m.inner_steps, "wall_time": m.wall_time,
                "errors": sum(t.errors for t in m.results),
                "first_errors": {t.task_id: t.first_error for t in m.results
                                 if t.first_error is not None}}
        with open(out_dir / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        for arm, result in results.items():
            tdir = out_dir / "traces" / arm
            tdir.mkdir(parents=True, exist_ok=True)
            for task_id, j, trace in result.traces:
                write_trace(trace, tdir / f"{task_id}-{j}.jsonl")
        print(f"wrote {out_dir / 'metrics.csv'}")
    return 1 if errors else 0


# --- verify -----------------------------------------------------------------

def cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    report = suite(seed=args.seed)
    print(report.summary_line())
    payload = asdict(report)
    print(json.dumps(payload["details"], indent=2, default=str))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, default=str)
            fh.write("\n")
    return 0 if report.passed else 1


# --- analyze ----------------------------------------------------------------

def _load_traces(path_text: str):
    path = Path(path_text)
    if path.is_file():
        paths = [path]
    else:
        paths = [Path(p) for p in trace_files(path)]
    if not paths:
        raise InputError(f"no trace files found under {path_text!r}")
    return [(p, read_trace(p)) for p in paths]


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_writer():
    buf = io.StringIO()
    return buf, csv.writer(buf, lineterminator="\n")


def _cell(x) -> str:
    # blank cell for values a trace simply does not carry
    return "" if x is None else repr(float(x))


def _analyze_entropy(traces) -> str:
    """One row per generated token: where the monitor fired and why."""
    buf, writer = _csv_writer()
    writer.writerow(["trace", "position", "entropy", "fired"])
    for path, trace in traces:
        for s in trace.steps:
            writer.writerow([path.name, s.position, repr(float(s.entropy)),
                             int(s.trigger.fired)])
    return buf.getvalue()


def _analyze_critical_tokens(traces) -> str:
    buf, writer = _csv_writer()
    writer.writerow(["token", "name", "count"])
    for tc in critical_tokens([t for _, t in traces]):
        writer.writerow([tc.token, tc.name, tc.count])
    return buf.getvalue()


def _analyze_overhead(traces) -> str:
    """Cost-model fit per trace plus a TOTAL row.

    Works on any decoded trace: baseline traces (no corrections, no recorded
    baseline time) produce rows with the cost cells left blank rather than an
    error, so the fit simply comes out inconclusive.
    """
    units: list[float] = []
    for _, trace in traces:
        for step in trace.steps:
            corr = step.correction
            if corr is not None and corr.steps_taken >= 1:
                units.append(corr.opt_wall_time / corr.steps_taken)
    unit = float(np.median(units)) if units else None

    buf, writer = _csv_writer()
    writer.writerow(["trace", "n_activations", "inner_steps", "unit_cost",
                     "measured_overhead", "predicted_overhead",
                     "relative_error"])
    measured = 0.0
    predicted = 0.0
    timed = 0
    total_act = 0
    total_inner = 0
    for path, trace in traces:
        t = trace.totals
        total_act += t.n_activations
        total_inner += t.inner_steps
        got = None
        if t.baseline_time is not None:
            got = t.wall_time - t.baseline_time
            measured += got
            timed += 1
        want = None if unit is None else unit * t.inner_steps
        if want is not None:
            predicted += want
        writer.writerow([path.name, t.n_activations, t.inner_steps,
                         _cell(unit), _cell(got), _cell(want), ""])
    rel = None
    if unit is not None and timed:
        rel = abs(predicted - measured) / measured if measured > 0 \
            else float("inf")
    writer.writerow(["TOTAL", total_act, total_inner, _cell(unit),
                     _cell(measured if timed else None),
                     _cell(predicted if unit is not None else None),
                     _cell(rel)])
    return buf.getvalue()


def cmd_analyze(args) -> int:
    traces = _load_traces(args.traces)
    if args.report == "entropy":
        _emit(_analyze_entropy(traces), args.out)
    elif args.report == "pareto":
        points = []
        for _, trace in traces:
            points.extend(pareto_from_trace(trace))
        _emit(export_pareto(points), args.out)
    elif args.report == "critical-tokens":
        _emit(_analyze_critical_tokens(traces), args.out)
    else:
        _emit(_analyze_overhead(traces), args.out)
    return 0


# --- make-backend -----------------------------------------------------------

def cmd_make_backend(args) -> int:
    if args.family:
        backend = corpus_backend(args.family, args.seed, args.difficulty)
    elif args.kind == "attention":
        backend = build_toy_backend("attention", {
            "vocab_size": args.vocab_size, "hidden_dim": args.hidden_dim,
            "seed": args.seed, "max_len": args.max_len})
    else:
        raise ConfigError("make-backend needs --family or --kind attention")
    save_backend(backend, args.out)
    print(f"backend written: {args.out}")
    return 0


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfreflect",
        description="entropy-triggered reflective decoding over toy backends")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decode", help="generate tokens from a backend file")
    p.add_argument("--backend", required=True, help="backend definition JSON")
    p.add_argument("--prompt", required=True, help="comma-separated token ids")
    p.add_argument("--config", help="run config JSON")
    p.add_argument("--trace", help="write a JSONL trace here")
    p.add_argument("--seed", type=int, help="decode seed (default: config or drawn)")
    p.add_argument("--max-tokens", type=int,
                   help=f"generation cap (default {DecodeConfig.max_tokens})")
    p.add_argument("--no-reflect", action="store_true",
                   help="disable corrections (monitor still records)")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("bench", help="run a task corpus and score it")
    p.add_argument("--corpus", help="spec like copy-recall:seed=0:count=50")
    p.add_argument("--backend", help="backend JSON (default: the family backend)")
    p.add_argument("--config", help="run config JSON")
    p.add_argument("--k", type=int, help=f"samples per task (default {RunConfig.k})")
    p.add_argument("--seeds", help="comma-separated per-sample base seeds")
    p.add_argument("--out", help="directory for metrics.csv, summary.json, traces/")
    p.add_argument("--both-arms", action="store_true",
                   help="also run the no-correction baseline")
    p.add_argument("--no-reflect", action="store_true",
                   help="run only the baseline arm")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="run a numerical verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the full report JSON here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="summarize trace files")
    p.add_argument("--traces", required=True, help="trace file or directory")
    p.add_argument("--report", required=True,
                   choices=["entropy", "pareto", "critical-tokens", "overhead"])
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("make-backend", help="write a backend definition JSON")
    p.add_argument("--family", choices=sorted(FAMILIES),
                   help="serialize a task family's bundled backend")
    p.add_argument("--kind", choices=["attention"],
                   help="or build a fresh randomly seeded backend")
    p.add_argument("--vocab-size", type=int, default=32)
    p.add_argument("--hidden-dim", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-len", type=int)
    p.add_argument("--difficulty", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_backend)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
