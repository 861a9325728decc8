"""selfreflect benchmark: four fixed workloads, end-to-end metrics, and a
traced per-module breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload recall-k5 --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one process

Each workload is a closed loop with one caller. Its inputs come from --seed
only. Set-up (backend and corpus construction plus one warm-up decode) runs
several times and reports its median. Timed passes of the whole workload then
repeat until --seconds is used up, and wall_s is their median. Every pass is
checked: the outputs must equal the first pass's, the workload's own
invariants must hold, and at the default seed its digest and exact totals must
equal the reference in workloads.json.

With --trace 1 half the time goes to untraced passes and one traced pass
follows. The traced pass must reproduce the untraced outputs exactly under
replay_form. The per-module metrics come from its spans, and the spans are
written to .perfbench_out/.

The last stdout line is one JSON object with keys correct, attempted, failed
and metrics. With --trace 0 the metrics are the end-to-end metrics listed in
BENCHMARK.json, and with --trace 1 the per-layer ones. The lines before it
print every metric by name and unit, including the workload-specific ones
(tokens_per_s.*, decode_ms.*, avg_at_k.*, failed_share). The exit code is 0
only when every operation and check passed.
"""

from __future__ import annotations

import os

# nproc is small and numpy links OpenBLAS: one BLAS thread keeps runs comparable.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 0
SETUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   help="recall-k5, long-context, spike-reflect, verify-suites, or all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


def git_commit() -> str:
    """HEAD from the .git directory when there is one, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout differs across numpy versions
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas, "blas_threads": BLAS_PIN,
            "commit": git_commit(), "seed": seed}


def timed_setup(workload, seed):
    """Set up SETUP_REPEATS times; keep the last state and every timing."""
    totals, parts = [], []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        state, part = workload.setup(seed)
        totals.append(time.perf_counter() - started)
        parts.append(part)
    medians = {k: statistics.median(p.get(k, 0.0) for p in parts)
               for k in ("backends.construct_s", "harness.gen_corpus_s")}
    return state, totals, medians


def timed_passes(workload, state, calls, budget: float, reference: dict | None):
    """Whole-workload passes until the budget is spent (at least one).
    Returns pass walls, the last outcome, and per-pass figures."""
    walls, figures, decode_ms = [], [], []
    first_digest = last = None
    started = time.perf_counter()
    while True:
        gc.collect()  # each pass starts from the same heap, not the last pass's garbage
        t0 = time.perf_counter()
        out = workload.run(state, calls)
        walls.append(time.perf_counter() - t0)
        figures.append(out.figures)
        decode_ms += out.decode_ms
        workload.check(out, calls)
        digest = out.digest()
        if first_digest is None:
            first_digest = digest
            check_reference(workload, out, calls, reference)
        else:
            calls.check("pass outputs repeat", digest == first_digest,
                        f"({digest} != {first_digest})")
        last = out
        if time.perf_counter() - started + statistics.median(walls) > budget:
            return walls, last, figures, decode_ms


def check_reference(workload, out, calls, reference) -> None:
    if reference is None:
        return
    calls.check(f"{workload.name} reference digest", out.digest() == reference["digest"],
                f"({out.digest()} != {reference['digest']})")
    calls.check(f"{workload.name} reference totals", out.totals == reference["totals"],
                f"({out.totals} != {reference['totals']})")


def end_to_end(walls, setups, figures, decode_ms, calls) -> dict:
    """name -> (value, unit). The first three are the BENCHMARK.json set."""
    from workloads import FIGURE_UNITS

    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for name in sorted({k for f in figures for k in f}):
        metrics[name] = (statistics.median(f[name] for f in figures if name in f),
                         FIGURE_UNITS[name])
    if decode_ms:
        metrics["decode_ms.p50"] = (percentile(decode_ms, 0.50), "ms")
        metrics["decode_ms.p98"] = (percentile(decode_ms, 0.98), "ms")
        metrics["decode_ms.samples"] = (len(decode_ms), "count")
    metrics["failed_share"] = (calls.failed / max(1, calls.attempted), "share")
    metrics["attempted"] = (calls.attempted, "count")
    metrics["passes"] = (len(walls), "count")
    return metrics


def per_layer(recorder, traced_wall: float, untraced_wall: float, out, setup_parts) -> dict:
    """name -> (value, unit), from the traced pass only."""
    from tracing import accounting, nesting_errors, quarter_means_us, summarize

    rows = summarize(recorder.spans)
    row = (lambda name: rows.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}))
    counts = recorder.counts
    share = (lambda a, b: a / b if b else 0.0)
    q1, q4 = quarter_means_us(recorder.spans, "backends.append_token")
    optimize = row("optimizer.optimize_delta")
    m = {}
    for name in ("backends.append_token", "backends.logits_at", "monitor.should_trigger",
                 "engine.sample", "optimizer.optimize_delta", "optimizer.grad_hybrid",
                 "verify.batch_eval"):
        m[f"{name}.calls"] = (row(name)["calls"], "count")
        m[f"{name}.self_s"] = (row(name)["self_s"], "s")
    for name in ("backends.forward_prefix", "utils.entropy_from_logits", "utils.log_softmax",
                 "engine.decode", "harness.run_benchmark", "traceio.serialize_trace",
                 "traceio.parse_trace"):
        m[f"{name}.self_s"] = (row(name)["self_s"], "s")
    m["backends.append_token_us.q1"] = (q1, "us")
    m["backends.append_token_us.q4"] = (q4, "us")
    m["backends.cached_state_bytes"] = (max(recorder.state_bytes, default=0), "bytes_computed")
    m["backends.construct_s"] = (setup_parts["backends.construct_s"], "s")
    m["monitor.fire_share"] = (share(counts["monitor.fired"], row("monitor.should_trigger")["calls"]), "share")
    m["optimizer.inner_step_ms"] = (share(1e3 * optimize["total_s"], counts["optimizer.accepted"]), "ms")
    m["optimizer.ce_positions.mean"] = (share(counts["optimizer.ce_positions.sum"],
                                              counts["optimizer.ce_positions.n"]), "positions")
    m["optimizer.loss_ce.calls"] = (row("optimizer.loss_ce")["calls"], "count")
    m["optimizer.trials_per_accepted_step"] = (share(counts["optimizer.attempts"],
                                                     counts["optimizer.accepted"]), "ratio")
    m["optimizer.aborted_share"] = (share(counts["optimizer.aborted"], optimize["calls"]), "share")
    m["harness.gen_corpus_s"] = (setup_parts["harness.gen_corpus_s"], "s")
    m["traceio.bytes"] = (out.trace_bytes, "bytes")
    for suite in ("gradients", "theorem1", "tradeoff", "joint-descent"):
        m[f"verify.{suite}_s"] = (row(f"verify.{suite}")["total_s"], "s")
    theorem1 = out.suites.get("theorem1")
    m["verify.theorem1.candidates"] = (theorem1.details["candidates_tested"] if theorem1 else 0, "count")

    module_self, uncovered, residual = accounting(recorder.spans, traced_wall)
    for mod, seconds in module_self.items():
        m[f"{mod}.self_total_s"] = (seconds, "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.uncovered_s"] = (uncovered, "s")
    m["trace.residual_s"] = (residual, "s")
    m["trace.nesting_errors"] = (nesting_errors(recorder.spans), "count")
    m["trace.spans"] = (len(recorder.spans), "count")
    m["trace.overhead_share"] = (traced_wall / untraced_wall - 1.0, "share")
    return m


def run_workload(name: str, seed: int, seconds: float, traced: bool, spec: dict) -> dict:
    from tracing import Calls, Recorder
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    reference = spec.get("reference") if seed == DEFAULT_SEED else None
    state, setups, setup_parts = timed_setup(workload, seed)
    calls = Calls()
    with calls.installed():
        walls, out, figures, decode_ms = timed_passes(
            workload, state, calls, seconds / 2 if traced else seconds, reference)
    result = {"workload": name, "why": spec["why"], "predictions": spec["predictions"],
              "pass_walls_s": walls, "setup_s": setups}
    layers = None
    if traced:
        untraced_forms = out.replay()
        recorder = Recorder()
        tcalls = Calls(recorder)
        with tcalls.installed(), recorder.installed():
            started = time.perf_counter()
            tout = workload.run(state, tcalls)
            traced_wall = time.perf_counter() - started
        workload.check(tout, tcalls)
        traced_forms = tout.replay()
        same = sum(a == b for a, b in zip(traced_forms, untraced_forms))
        tcalls.check("traced run replays the untraced outputs",
                     same == len(untraced_forms) == len(traced_forms),
                     f"({same} of {len(untraced_forms)} identical)")
        layers = per_layer(recorder, traced_wall, statistics.median(walls), tout, setup_parts)
        residual = layers["trace.residual_s"][0]
        tcalls.check("self-time accounting",
                     abs(residual) <= 1e-6 * max(1.0, traced_wall)
                     and not layers["trace.nesting_errors"][0],
                     f"(residual {residual:.3g} s, {layers['trace.nesting_errors'][0]} nesting errors)")
        calls.attempted += tcalls.attempted
        calls.failed += tcalls.failed
        calls.first_error = calls.first_error or tcalls.first_error
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        recorder.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    result["end_to_end"] = end_to_end(walls, setups, figures, decode_ms, calls)
    result["per_layer"] = layers
    result["digest"] = out.digest()
    result["totals"] = out.totals
    result["attempted"] = calls.attempted
    result["failed"] = calls.failed
    result["first_error"] = calls.first_error
    return result


def report(result: dict) -> None:
    name = result["workload"]
    for section in ("end_to_end", "per_layer"):
        for metric, (value, unit) in (result[section] or {}).items():
            print(f"{name:14s} {section:10s} {metric:40s} {value:.6g} {unit}")
    print(f"{name:14s} digest {result['digest']} totals {json.dumps(result['totals'])}")
    print(f"{name:14s} attempted {result['attempted']} failed {result['failed']}"
          f" first_error {result['first_error']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "selfreflect" / "__init__.py").is_file():
        print(f"perfbench: no selfreflect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((HERE / "workloads.json").read_text())
    names = list(spec) if args.workload == "all" else [args.workload]
    if any(n not in spec for n in names):
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(spec)} or all",
              file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    wanted = [(m["name"], m["unit"]) for m in bench[section]]
    prov = provenance(args.seed)
    print(json.dumps({"provenance": prov}))
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace), spec[n]) for n in names]
    OUT_DIR.mkdir(exist_ok=True)
    for result in results:
        result["provenance"] = prov
        report(result)
        path = OUT_DIR / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1, default=str) + "\n")

    metrics = {}
    for result in results:
        for metric, unit in wanted:
            value, got_unit = result[section][metric]
            if got_unit != unit:
                raise RuntimeError(f"{metric}: unit {got_unit} differs from BENCHMARK.json's {unit}")
            key = metric if len(results) == 1 else f"{result['workload']}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
