"""Command line surface, exercised through main(argv) without subprocesses."""

import base64
import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfreflect import (AdaptiveWeightConfig, ConfigError, DecodeConfig, InputError,
                         ReflectionConfig, build_spike_backend, build_toy_backend, decode,
                         decode_config_from_dict, decode_config_to_dict, load_backend,
                         parse_trace, read_trace, replay_form, save_backend, serialize_trace)
from selfreflect.cli import main


@pytest.fixture
def spike_file(tmp_path):
    backend, length, _ = build_spike_backend(1)
    path = tmp_path / "spike.json"
    save_backend(backend, path)
    return str(path), length


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_line(out, prefix):
    for line in out.splitlines():
        if line.startswith(prefix):
            return line
    raise AssertionError(f"no line starting with {prefix!r} in output:\n{out}")


class TestTopLevel:
    def test_no_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["transcend"])

    @pytest.mark.parametrize("argv, kind", [
        (("decode", "--backend", "{bad}", "--prompt", "0"), "backend"),
        (("decode", "--backend", "{spike}", "--prompt", "0", "--config", "{bad}"), "config"),
        (("bench", "--corpus", "copy-recall:count=1", "--config", "{bad}"), "config"),
        (("analyze", "--traces", "{traces}", "--report", "entropy"), "trace"),
    ])
    def test_non_utf8_input_file_is_a_config_error(self, capsys, tmp_path, spike_file,
                                                   argv, kind):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / "bad.jsonl").write_bytes(b"\xff\n")
        paths = {"bad": str(bad), "spike": spike_file[0], "traces": str(traces)}
        code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 2 and out == ""
        assert f"{kind} file is not UTF-8 text" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, kind", [
        (("decode", "--backend", "{deep}", "--prompt", "0"), "backend file"),
        (("bench", "--corpus", "copy-recall:count=1", "--config", "{deep}"), "config file"),
        (("analyze", "--traces", "{traces}", "--report", "entropy"), "trace line 1"),
    ])
    @pytest.mark.parametrize("text", ["[" * 100_000, '{"k": 1' + "0" * 5000 + "}"],
                             ids=["deep", "long-integer"])
    def test_json_python_cannot_read_is_a_config_error(self, capsys, tmp_path, argv, kind,
                                                      text):
        # json.loads recurses once per nesting level: 100 000 levels exceed
        # Python's recursion limit; and it refuses an integer literal of more
        # than 4300 digits with a plain ValueError
        deep = tmp_path / "deep.json"
        deep.write_text(text + "\n")
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / "deep.jsonl").write_text(text + "\n{}\n")
        paths = {"deep": str(deep), "traces": str(traces)}
        code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 2 and out == ""
        assert f"{kind} is not valid JSON" in err
        assert "Traceback" not in err


class TestDecode:
    def test_writes_trace_and_reports(self, capsys, tmp_path, spike_file):
        backend_path, length = spike_file
        trace_path = tmp_path / "run.jsonl"
        code, out, _ = run(capsys, "decode", "--backend", backend_path,
                           "--prompt", "0", "--seed", "3",
                           "--max-tokens", str(length),
                           "--trace", str(trace_path))
        assert code == 0
        assert stdout_line(out, "seed:") == "seed: 3"
        assert stdout_line(out, "steps:").endswith("inner_steps: 3")
        assert "baseline_time:" in out  # reflective runs time the other arm
        trace = read_trace(trace_path)
        assert len(trace.output) == length
        assert trace.totals.baseline_time is not None

    def test_no_reflect_matches_engine(self, capsys, spike_file):
        backend_path, length = spike_file
        code, out, _ = run(capsys, "decode", "--backend", backend_path,
                           "--prompt", "0", "--seed", "9",
                           "--max-tokens", str(length), "--no-reflect")
        assert code == 0
        want = decode(load_backend(backend_path), (0,),
                      DecodeConfig(max_tokens=length, seed=9, reflect=False))
        got = stdout_line(out, "output:").split(" ", 1)[1]
        assert got == ",".join(str(t) for t in want.output)
        assert "baseline_time:" not in out

    def test_drawn_seed_is_replayable(self, capsys, spike_file):
        backend_path, length = spike_file
        code, first, _ = run(capsys, "decode", "--backend", backend_path,
                             "--prompt", "0", "--max-tokens", str(length))
        assert code == 0
        seed = int(stdout_line(first, "seed:").split()[1])
        code, second, _ = run(capsys, "decode", "--backend", backend_path,
                              "--prompt", "0", "--seed", str(seed),
                              "--max-tokens", str(length))
        assert code == 0
        assert stdout_line(first, "output:") == stdout_line(second, "output:")

    def test_config_seed_is_used_without_a_seed_flag(self, capsys, tmp_path, spike_file):
        backend_path, length = spike_file
        cfg = tmp_path / "run.json"
        cfg.write_text('{"seed": 5}')
        code, out, _ = run(capsys, "decode", "--backend", backend_path, "--prompt", "0",
                           "--max-tokens", str(length), "--config", str(cfg))
        assert code == 0
        assert stdout_line(out, "seed:") == "seed: 5"

    def test_missing_backend_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "decode", "--backend",
                           str(tmp_path / "nope.json"), "--prompt", "0")
        assert code == 2
        assert "error:" in err

    def test_bad_config_file(self, capsys, tmp_path, spike_file):
        backend_path, _ = spike_file
        cfg = tmp_path / "run.json"
        cfg.write_text('{"reflextion": {}}')
        code, _, err = run(capsys, "decode", "--backend", backend_path,
                           "--prompt", "0", "--config", str(cfg))
        assert code == 2
        assert "reflextion" in err

    def test_falsy_non_object_config_section(self, capsys, tmp_path, spike_file):
        backend_path, _ = spike_file
        cfg = tmp_path / "run.json"
        cfg.write_text('{"sampling": ""}')
        code, _, err = run(capsys, "decode", "--backend", backend_path,
                           "--prompt", "0", "--config", str(cfg))
        assert code == 2
        assert "sampling" in err
        assert "Traceback" not in err

    def test_config_range_error_names_its_key_path(self, capsys, tmp_path, spike_file):
        backend_path, _ = spike_file
        cfg = tmp_path / "run.json"
        cfg.write_text('{"trigger": {"window_size": 1}}')
        code, _, err = run(capsys, "decode", "--backend", backend_path,
                           "--prompt", "0", "--config", str(cfg))
        assert code == 2
        assert "trigger: window_size must be at least 2" in err
        assert "Traceback" not in err

    def test_bad_prompt(self, capsys, spike_file):
        backend_path, _ = spike_file
        code, _, err = run(capsys, "decode", "--backend", backend_path,
                           "--prompt", "0,x")
        assert code == 2

    @pytest.mark.parametrize("key,definition", [
        ("vocab_size", {"kind": "attention", "vocab_size": "abc", "hidden_dim": 4, "seed": 0}),
        ("max_len", {"kind": "attention", "vocab_size": 4, "hidden_dim": 4, "seed": 0,
                     "max_len": 2.5}),
        ("transition", {"kind": "markov", "transition": [[0.5, "x"], [0.5, 0.5]]}),
        ("smoothing", {"kind": "markov", "transition": [[0.5, 0.5], [0.5, 0.5]],
                       "smoothing": "lots"}),
        ("by_prefix", {"kind": "scripted", "vocab_size": 2, "by_prefix": {"0,x": [1, 0]}}),
        ("by_position", {"kind": "scripted", "vocab_size": 2, "by_position": [[1, 0], ["a", 1]]}),
        ("token_names", {"kind": "markov", "transition": [[0.5, 0.5], [0.5, 0.5]],
                         "token_names": 7}),
    ])
    def test_malformed_backend_file(self, capsys, tmp_path, key, definition):
        path = tmp_path / "backend.json"
        path.write_text(json.dumps(definition))
        code, _, err = run(capsys, "decode", "--backend", str(path), "--prompt", "0")
        assert code == 2
        assert key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key,definition", [
        ("smoothing", {"kind": "markov", "transition": [[0.5, 0.5], [0.5, 0.5]],
                       "smoothing": 10 ** 400}),
        ("transition", {"kind": "markov", "transition": [[0.5, 10 ** 400], [0.5, 0.5]]}),
        ("fallback", {"kind": "scripted", "vocab_size": 2, "fallback": [10 ** 400, 0]}),
        ("by_position", {"kind": "scripted", "vocab_size": 2,
                         "by_position": [[1, 0], [-10 ** 400, 1]]}),
        ("by_prefix", {"kind": "scripted", "vocab_size": 2, "by_prefix": {"0": [10 ** 400, 0]}}),
        ("head", {"kind": "scripted", "vocab_size": 2, "head": [[10 ** 400, 0], [0, 1]]}),
    ])
    def test_integer_literal_beyond_float_range(self, capsys, tmp_path, key, definition):
        # json reads an integer literal of any length as a Python int, which
        # float() and numpy refuse with OverflowError
        path = tmp_path / "backend.json"
        path.write_text(json.dumps(definition))
        code, out, err = run(capsys, "decode", "--backend", str(path), "--prompt", "0")
        assert code == 2 and out == ""
        assert f"backend config key {key!r} holds a number beyond float range" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key,definition", [
        ("hidden_dim", {"kind": "attention", "vocab_size": 4, "hidden_dim": 10 ** 23, "seed": 0}),
        ("max_len", {"kind": "attention", "vocab_size": 4, "hidden_dim": 10, "seed": 0,
                     "max_len": 10 ** 23}),
        ("vocab_size", {"kind": "scripted", "vocab_size": 4_000_000_000}),
    ])
    def test_dimension_numpy_cannot_hold(self, capsys, tmp_path, key, definition):
        path = tmp_path / "backend.json"
        path.write_text(json.dumps(definition))
        code, out, err = run(capsys, "decode", "--backend", str(path), "--prompt", "0")
        assert code == 2 and out == ""
        assert f"backend config key {key!r} is too large" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("definition", [
        '{"kind": "scripted", "vocab_size": 2, "fallback": [1e308, 0], "head": [[10, 0], [0, 10]]}',
        '{"kind": "scripted", "vocab_size": 2, "fallback": [Infinity, 0]}',
    ], ids=["overflow", "infinity"])
    def test_overflowing_step_logits(self, capsys, tmp_path, definition):
        # runs under pyproject's error::RuntimeWarning filter, so a warning
        # from the step logits would end the decode in a traceback; the
        # infinity case has the default identity head, which hands a
        # non-finite block to the dense product (0 * inf is NaN there)
        path = tmp_path / "backend.json"
        path.write_text(definition)
        code, out, err = run(capsys, "decode", "--backend", str(path), "--prompt", "0")
        assert code == 2
        assert out == ""
        assert err.strip().endswith("step entropy must be finite")
        assert "Warning" not in err and "Traceback" not in err

    def test_window_longer_than_any_decode(self, capsys, tmp_path, spike_file):
        # the window block holds the steps taken, not window_size columns
        backend_path, length = spike_file
        config = tmp_path / "config.json"
        config.write_text('{"trigger": {"window_size": 100000000000000000000}}')
        code, out, err = run(capsys, "decode", "--backend", backend_path, "--prompt", "0",
                             "--seed", "0", "--max-tokens", str(length),
                             "--config", str(config))
        assert code == 0, err
        assert stdout_line(out, "steps:") == f"steps: {length}  activations: 0  inner_steps: 0"

    def test_max_tokens_validated(self, capsys, spike_file):
        backend_path, _ = spike_file
        code, _, err = run(capsys, "decode", "--backend", backend_path,
                           "--prompt", "0", "--max-tokens", "0")
        assert code == 2


class TestBench:
    def test_requires_a_corpus(self, capsys):
        code, _, err = run(capsys, "bench")
        assert code == 2
        assert "corpus" in err

    def test_bad_corpus_spec(self, capsys):
        code, _, err = run(capsys, "bench", "--corpus", "haiku:count=2")
        assert code == 2

    def test_negative_corpus_seed(self, capsys):
        code, _, err = run(capsys, "bench", "--corpus", "copy-recall:seed=-1:count=2",
                           "--k", "1")
        assert code == 2
        assert "'seed'" in err
        assert "Traceback" not in err

    def test_negative_sample_seed(self, capsys, tmp_path):
        # SeedSequence refused it with a ValueError traceback, exit code 1
        cfg = tmp_path / "run.json"
        cfg.write_text('{"corpus": "copy-recall:count=1", "k": 1, "seeds": [-2]}')
        for args, seed in ((("--corpus", "copy-recall:count=1", "--k", "1", "--seeds", "-1"), -1),
                           (("--config", str(cfg)), -2)):
            code, _, err = run(capsys, "bench", *args)
            assert code == 2
            assert f"sample seed {seed} " in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("seeds", ["1,x", " , ", "1.5"])
    def test_malformed_seeds_flag(self, capsys, seeds):
        code, _, err = run(capsys, "bench", "--corpus", "copy-recall:count=1", "--k", "1",
                           "--seeds", seeds)
        assert code == 2
        assert "--seeds must" in err

    def test_seeds_flag_overrides_the_config_and_the_config_the_default(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"corpus": "copy-recall:count=1", "k": 2, "seeds": [7, 8]}')
        for extra, want in (((), [7, 8]), (("--seeds", "3,4"), [3, 4])):
            out_dir = tmp_path / "-".join(map(str, want))
            code, _, _ = run(capsys, "bench", "--config", str(cfg), "--out", str(out_dir), *extra)
            assert code == 0
            assert json.loads((out_dir / "summary.json").read_text())["seeds"] == want

    def test_writes_metrics_summary_traces(self, capsys, tmp_path):
        out_dir = tmp_path / "results"
        args = ("bench", "--corpus", "copy-recall:seed=1:count=3", "--k", "2",
                "--both-arms", "--out", str(out_dir))
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert "reflect:" in out and "baseline:" in out

        metrics = (out_dir / "metrics.csv").read_text()
        lines = metrics.splitlines()
        assert lines[0] == ("arm,task,sample,seed,answer,prediction,"
                            "correct,vote,vote_correct")
        assert len(lines) == 1 + 2 * 3 * 2  # arms x tasks x k
        assert sum(ln.startswith("baseline,") for ln in lines) == 6

        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["family"] == "copy-recall"
        assert summary["arms"]["reflect"]["avg_at_k"] == 1.0
        assert summary["arms"]["reflect"]["activations"] > 0
        assert summary["arms"]["baseline"]["activations"] == 0

        trace_dir = out_dir / "traces" / "reflect"
        paths = sorted(trace_dir.glob("*.jsonl"))
        assert len(paths) == 6
        parse_trace(paths[0].read_text())

        # a rerun reproduces the metrics file byte for byte
        rerun_dir = tmp_path / "again"
        rerun_args = args[:-1] + (str(rerun_dir),)
        assert run(capsys, *rerun_args)[0] == 0
        assert (rerun_dir / "metrics.csv").read_text() == metrics

    def test_summary_names_each_failing_tasks_first_error(self, capsys, tmp_path, spike_file):
        # a one-spike script is 40 steps long; two-spike tasks decode 70 tokens
        backend_path, length = spike_file
        out_dir = tmp_path / "results"
        code, _, _ = run(capsys, "bench", "--corpus", "spike-fixture:count=2:difficulty=2",
                         "--backend", backend_path, "--k", "2", "--out", str(out_dir))
        assert code == 1
        arm = json.loads((out_dir / "summary.json").read_text())["arms"]["reflect"]
        assert arm["errors"] == 4
        assert arm["first_errors"] == {
            f"spike-fixture-0-000{i}":
                f"InputError: no scripted hidden state for prefix of length {length + 1}"
            for i in range(2)}

    def test_baseline_only_arm(self, capsys):
        code, out, _ = run(capsys, "bench", "--corpus",
                           "modular-chain:count=2", "--k", "1", "--no-reflect")
        assert code == 0
        assert "baseline:" in out and "reflect:" not in out


class TestVerify:
    def test_gradient_suite_passes(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--suite", "gradients",
                           "--seed", "1", "--out", str(report_path))
        assert code == 0
        assert out.startswith("[PASS] gradients")
        payload = json.loads(report_path.read_text())
        assert payload["name"] == "gradients" and payload["passed"]

    def test_negative_seed_is_an_input_error(self, capsys):
        # exit 1 would read as a failing suite
        code, out, err = run(capsys, "verify", "--suite", "theorem1", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "seed" in err
        assert "Traceback" not in err

    def test_unknown_suite_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "vibes"])


def _step(records):
    return records[3], 3


def _trigger(records):
    return records[3]["trigger"], 3


def _totals(records):
    return records[-1]["totals"], len(records) - 1


def _correction(records):
    index = next(i for i, rec in enumerate(records) if rec.get("correction"))
    return records[index]["correction"], index


def _trajectory(records):
    correction, index = _correction(records)
    return correction["trajectory"][1], index


# (report that reads the leaf, where it sits, key, wrongly typed value)
WRONG_LEAVES = [
    ("entropy", _step, "entropy", "x"),
    ("entropy", _step, "entropy", None),
    ("entropy", _trigger, "fired", "yes"),
    ("overhead", _totals, "inner_steps", "x"),
    ("overhead", _totals, "baseline_time", "x"),
    ("overhead", _correction, "steps_taken", "x"),
    ("overhead", _correction, "opt_wall_time", "x"),
    ("pareto", _correction, "entropy_weight", "x"),
    ("pareto", _trajectory, "l_ce", "x"),
]


class TestAnalyze:
    @pytest.fixture
    def trace_dir(self, capsys, tmp_path, spike_file):
        backend_path, length = spike_file
        d = tmp_path / "traces"
        d.mkdir()
        for seed in (1, 2):
            assert main(["decode", "--backend", backend_path, "--prompt", "0",
                         "--seed", str(seed), "--max-tokens", str(length),
                         "--trace", str(d / f"s{seed}.jsonl")]) == 0
        capsys.readouterr()
        return d

    def test_entropy_report(self, capsys, trace_dir):
        code, out, _ = run(capsys, "analyze", "--traces", str(trace_dir),
                           "--report", "entropy")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "trace,position,entropy,fired"
        total = sum(len(read_trace(p).output)
                    for p in sorted(trace_dir.iterdir()))
        assert len(lines) - 1 == total  # one row per generated token
        fired = [ln for ln in lines[1:] if ln.endswith(",1")]
        assert fired and all(ln.split(",")[1] == "29" for ln in fired)
        assert lines[1].startswith("s1.jsonl,0,")

    def test_pareto_report(self, capsys, trace_dir):
        code, out, _ = run(capsys, "analyze", "--traces", str(trace_dir),
                           "--report", "pareto")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "entropy_weight,step,l_ce,l_aem,source"
        assert all(ln.endswith(",trajectory") for ln in lines[1:])
        # two traces, one activation each, steps 0..3 recorded
        assert len(lines) - 1 == 8

    def test_critical_tokens_report(self, capsys, trace_dir):
        code, out, _ = run(capsys, "analyze", "--traces", str(trace_dir),
                           "--report", "critical-tokens")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "token,name,count"
        assert lines[1].startswith("2,")

    def test_overhead_report(self, capsys, trace_dir, tmp_path):
        out_file = tmp_path / "overhead.csv"
        code, _, _ = run(capsys, "analyze", "--traces", str(trace_dir),
                         "--report", "overhead", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == ("trace,n_activations,inner_steps,unit_cost,"
                            "measured_overhead,predicted_overhead,"
                            "relative_error")
        total = lines[-1].split(",")
        assert total[0] == "TOTAL" and total[1] == "2" and total[2] == "6"
        assert float(total[6]) >= 0.0  # fit error is defined for these traces

    def test_reports_accept_baseline_traces(self, capsys, tmp_path,
                                            spike_file):
        # a reflection-off decode has no corrections and no baseline timing;
        # every report must still take it without complaint
        backend_path, length = spike_file
        d = tmp_path / "plain"
        d.mkdir()
        assert main(["decode", "--backend", backend_path, "--prompt", "0",
                     "--seed", "5", "--max-tokens", str(length),
                     "--no-reflect", "--trace", str(d / "base.jsonl")]) == 0
        capsys.readouterr()
        for report in ("entropy", "pareto", "critical-tokens", "overhead"):
            code, out, _ = run(capsys, "analyze", "--traces", str(d),
                               "--report", report)
            assert code == 0, report
            assert out.splitlines()[0].count(",") >= 2  # CSV header
        code, out, _ = run(capsys, "analyze", "--traces", str(d),
                           "--report", "overhead")
        total = out.splitlines()[-1].split(",")
        assert total[0] == "TOTAL" and total[3] == "" and total[6] == ""

    def test_empty_directory(self, capsys, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        code, _, err = run(capsys, "analyze", "--traces", str(empty),
                           "--report", "entropy")
        assert code == 2

    @staticmethod
    def _damaged(trace_dir, tmp_path, damage, text=replay_form):
        """A copy of one trace whose record list `damage` edits in place;
        records[i] is line i + 1 of the file. The copy is version 1 text
        (replay_form), or what `text` writes."""
        lines = text(read_trace(trace_dir / "s1.jsonl")).splitlines()
        records = [json.loads(ln) for ln in lines]
        damage(records)
        path = tmp_path / "damaged.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        return path

    def test_step_without_trigger_is_a_config_error(self, capsys, trace_dir, tmp_path):
        path = self._damaged(trace_dir, tmp_path, lambda recs: recs[3].pop("trigger"))
        code, out, err = run(capsys, "analyze", "--traces", str(path),
                             "--report", "entropy")
        assert code == 2 and out == ""
        assert "trace line 4" in err and "'trigger'" in err
        assert "Traceback" not in err

    def test_footer_without_inner_steps_is_a_config_error(self, capsys, trace_dir, tmp_path):
        path = self._damaged(trace_dir, tmp_path,
                             lambda recs: recs[-1]["totals"].pop("inner_steps"))
        n_lines = len(path.read_text().splitlines())
        code, out, err = run(capsys, "analyze", "--traces", str(path),
                             "--report", "overhead")
        assert code == 2 and out == ""
        assert f"trace line {n_lines}" in err and "'inner_steps'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("report, locate, key, value", WRONG_LEAVES,
                             ids=[f"{key}={value!r}" for _, _, key, value in WRONG_LEAVES])
    def test_wrongly_typed_leaf_is_a_config_error(self, capsys, trace_dir, tmp_path,
                                                  report, locate, key, value):
        lines = []

        def damage(records):
            leaf, index = locate(records)
            leaf[key] = value
            lines.append(index + 1)

        path = self._damaged(trace_dir, tmp_path, damage)
        code, out, err = run(capsys, "analyze", "--traces", str(path), "--report", report)
        assert code == 2 and out == ""
        assert f"trace line {lines[0]}:" in err and repr(key) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("fired", None), ("fired", "yes"), ("position", None), ("position", [0.5]),
        ("floats", None), ("floats", 7)])
    def test_damaged_v2_block_is_a_config_error(self, capsys, trace_dir, tmp_path,
                                                key, value):
        def damage(records):
            if value is None:
                del records[1][key]
            else:
                records[1][key] = value

        path = self._damaged(trace_dir, tmp_path, damage, serialize_trace)
        code, out, err = run(capsys, "analyze", "--traces", str(path), "--report", "entropy")
        assert code == 2 and out == ""
        assert "trace line 2:" in err and repr(key) in err
        assert "Traceback" not in err

    @staticmethod
    def _floats(records):
        n = records[1]["n"]
        return np.frombuffer(base64.b64decode(records[1]["floats"]), "<f8").reshape(6, n)

    @staticmethod
    def _set_floats(records, floats):
        records[1]["floats"] = base64.b64encode(floats.astype("<f8").tobytes()).decode()

    def _flip_fired(self, records):
        records[1]["fired"][29] = not records[1]["fired"][29]

    def _raise_entropy(self, records):
        floats = self._floats(records).copy()
        floats[0, 35] = floats[5, 35] + 0.5  # entropy above its step's threshold
        self._set_floats(records, floats)

    def _short_block(self, records):
        self._set_floats(records, self._floats(records).ravel()[:-1])

    @pytest.mark.parametrize("damage, message", [
        ("_flip_fired", "trace step 29: fired"), ("_raise_entropy", "trace step 35: fired"),
        ("_short_block", "trace line 2: malformed record ('floats' must hold")])
    def test_inconsistent_v2_steps_exit_2(self, capsys, trace_dir, tmp_path, damage, message):
        path = self._damaged(trace_dir, tmp_path, getattr(self, damage), serialize_trace)
        code, out, err = run(capsys, "analyze", "--traces", str(path), "--report", "entropy")
        assert code == 2 and out == ""
        assert message in err
        assert "Traceback" not in err


def _bad_config(tmp_path, spike_file, key, value):
    adaptive = {"target": value, "rate": 0.5, "min_weight": 0.01, "max_weight": 0.9}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"reflection": {"adaptive": adaptive}}))
    return "decode", "--backend", spike_file[0], "--prompt", "0", "--config", str(path)


def _bad_backend(tmp_path, spike_file, key, value):
    definition = {
        "fallback": {"kind": "scripted", "vocab_size": 2, "fallback": [value, 0]},
        "transition": {"kind": "markov", "transition": [[0.5, value], [0.5, 0.5]]},
        "token_names": {"kind": "markov", "transition": [[0.5, 0.5], [0.5, 0.5]],
                        "token_names": ["a", value]},
    }[key]
    path = tmp_path / "backend.json"
    path.write_text(json.dumps(definition))
    return "decode", "--backend", str(path), "--prompt", "0"


def _bad_trace(tmp_path, spike_file, key, value):
    backend_path, length = spike_file
    path = tmp_path / "trace.jsonl"
    assert main(["decode", "--backend", backend_path, "--prompt", "0", "--seed", "1",
                 "--max-tokens", str(length), "--trace", str(path)]) == 0
    records = [json.loads(ln) for ln in path.read_text().splitlines()]
    correction = next(r for r in records if r["record"] == "correction")
    leaf = {"l_ce": correction["trajectory"][1], "wall_time": records[-1]["totals"],
            "opt_wall_time": correction}[key]
    leaf[key] = value
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    report = "pareto" if key == "l_ce" else "overhead"
    return "analyze", "--traces", str(path), "--report", report


# (input file, key named in the error, how the error names it); each site
# takes each of the bad leaves below, except that "1.5" is a fine token name
BAD_LEAF_SITES = [
    (_bad_config, "reflection.adaptive.target", "config key reflection.adaptive.target"),
    (_bad_backend, "fallback", "backend config key 'fallback'"),
    (_bad_backend, "transition", "backend config key 'transition'"),
    (_bad_backend, "token_names", "backend config key 'token_names'"),
    (_bad_trace, "l_ce", "'l_ce'"),
    (_bad_trace, "wall_time", "'wall_time'"),
    (_bad_trace, "opt_wall_time", "'opt_wall_time'"),
]
BAD_LEAVES = {"true": True, "string": "1.5", "null": None, "huge": 10 ** 400}


@pytest.mark.parametrize("write, key, named, value", [
    pytest.param(write, key, named, value, id=f"{key}-{leaf}")
    for write, key, named in BAD_LEAF_SITES for leaf, value in BAD_LEAVES.items()
    if not (key == "token_names" and leaf == "string")])
def test_bad_leaf_exits_2_naming_its_key(capsys, tmp_path, spike_file, write, key, named, value):
    # one JSON value rule for config, backend and trace files
    argv = write(tmp_path, spike_file, key, value)
    capsys.readouterr()
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert named in err
    assert "Traceback" not in err


class TestMakeBackend:
    def test_attention_backend_round_trips(self, capsys, tmp_path):
        path = tmp_path / "attn.json"
        code, out, _ = run(capsys, "make-backend", "--kind", "attention",
                           "--vocab-size", "12", "--hidden-dim", "8",
                           "--seed", "5", "--out", str(path))
        assert code == 0
        backend = load_backend(path)
        assert backend.vocab.size == 12
        trace = decode(backend, (0, 1), DecodeConfig(max_tokens=6, seed=0))
        assert len(trace.output) == 6

    def test_family_backend(self, capsys, tmp_path):
        path = tmp_path / "recall.json"
        code, _, _ = run(capsys, "make-backend", "--family", "copy-recall",
                         "--out", str(path))
        assert code == 0
        assert load_backend(path).model_id.startswith("markov")

    @pytest.mark.parametrize("flag,key", [("--vocab-size", "vocab_size"),
                                          ("--max-len", "max_len")])
    def test_dimension_numpy_cannot_hold(self, capsys, tmp_path, flag, key):
        path = tmp_path / "attn.json"
        code, out, err = run(capsys, "make-backend", "--kind", "attention",
                             flag, str(10 ** 23), "--out", str(path))
        assert code == 2 and out == ""
        assert f"backend config key {key!r} is too large" in err
        assert not path.exists()

    def test_needs_family_or_kind(self, capsys, tmp_path):
        code, _, err = run(capsys, "make-backend", "--out",
                           str(tmp_path / "x.json"))
        assert code == 2


@pytest.fixture
def refusing_allocator(monkeypatch):
    """numpy.random.default_rng whose generators raise the MemoryError that
    numpy raises when memory runs out for any draw beyond 2**20 values, so
    that no test asks for more memory than a machine holds."""
    real = np.random.default_rng

    class Refusing:
        def __init__(self, seed):
            self.rng = real(seed)

        def standard_normal(self, shape):
            if math.prod(shape) > 2 ** 20:
                raise MemoryError(f"Unable to allocate an array with shape {shape}")
            return self.rng.standard_normal(shape)

    monkeypatch.setattr(np.random, "default_rng", Refusing)


class TestBackendBeyondMemory:
    """A backend that numpy would size but memory cannot hold: hidden_dim
    2**20 needs a 16 TiB w1, which _fits lets through."""

    DEFINITION = {"kind": "attention", "vocab_size": 4, "hidden_dim": 2 ** 20, "seed": 0}

    def test_is_a_config_error_naming_the_kind(self, refusing_allocator):
        with pytest.raises(ConfigError, match="attention backend does not fit in memory"):
            build_toy_backend("attention", self.DEFINITION)

    def test_decode_and_make_backend_exit_2(self, capsys, tmp_path, refusing_allocator):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(self.DEFINITION))
        out_path = tmp_path / "a.json"
        for argv in (("decode", "--backend", str(path), "--prompt", "0"),
                     ("make-backend", "--kind", "attention", "--hidden-dim", str(2 ** 20),
                      "--out", str(out_path))):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert "attention backend does not fit in memory" in err
            assert "Traceback" not in err
        assert not out_path.exists()


# --- random backend and config dicts ----------------------------------------

SMALL_INTS = st.integers(-2, 64)  # every dimension and count stays small
NUMBERS = st.one_of(SMALL_INTS, st.floats(allow_nan=True, allow_infinity=True))
ENTRIES = st.floats(-5, 5) | st.integers(-2, 5)
ANY_VALUE = st.one_of(st.none(), st.booleans(), NUMBERS, st.text(max_size=3),
                      st.lists(NUMBERS, max_size=5), st.builds(dict))
MATRICES = st.lists(st.lists(ENTRIES, min_size=1, max_size=5), max_size=5)
# a value of about the right shape for each backend key
BACKEND_VALUES = {
    "kind": st.sampled_from(["scripted", "markov", "attention", "mystery"]),
    "vocab_size": SMALL_INTS, "hidden_dim": SMALL_INTS, "seed": SMALL_INTS,
    "max_len": SMALL_INTS, "smoothing": NUMBERS, "fallback": st.lists(NUMBERS, max_size=5),
    "transition": MATRICES, "head": MATRICES, "by_position": MATRICES,
    "by_prefix": st.dictionaries(st.sampled_from(["0", "1", "0,1", "", "x"]),
                                 st.lists(ENTRIES, max_size=5), max_size=3),
    "token_names": st.lists(st.text(max_size=2), max_size=5),
}
CONFIG_VALUES = st.one_of(ANY_VALUE, st.sampled_from(
    ["greedy", "temperature", "last-3", "full-prefix", "last-0"]))
CONFIG_BASES = [decode_config_to_dict(DecodeConfig()), decode_config_to_dict(DecodeConfig(
    reflection=ReflectionConfig(adaptive=AdaptiveWeightConfig(target=0.3, rate=0.2,
                                                               min_weight=0.05,
                                                               max_weight=0.8))))]
RANDOM_INPUT = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def backend_dicts(draw):
    """A well-formed backend dict of a random kind, then up to two keys
    changed, removed or added."""
    kind = draw(st.sampled_from(["scripted", "markov", "attention"]))
    v = draw(st.integers(2, 6))
    rows = st.lists(st.lists(ENTRIES, min_size=v, max_size=v), min_size=v, max_size=v)
    if kind == "attention":
        data = {"vocab_size": draw(st.integers(2, 64)), "hidden_dim": draw(st.integers(1, 64)),
                "seed": draw(st.integers(0, 64)), "max_len": draw(st.integers(1, 64))}
    elif kind == "markov":
        data = {"transition": draw(rows), "smoothing": draw(st.floats(0, 1))}
    else:
        data = {"vocab_size": v, "fallback": draw(rows)[0], "by_position": draw(rows),
                "by_prefix": {"0": draw(rows)[0]}}
    data["kind"] = kind
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(BACKEND_VALUES) + ["typo"]))
        if draw(st.integers(0, 3)) == 0:
            data.pop(key, None)
        else:
            data[key] = draw(BACKEND_VALUES.get(key, ANY_VALUE) | ANY_VALUE)
    return data


@st.composite
def config_dicts(draw):
    """A decode-config dict with one to three keys changed, removed or added,
    at any depth."""
    data = json.loads(json.dumps(draw(st.sampled_from(CONFIG_BASES))))
    for _ in range(draw(st.integers(1, 3))):
        section = data
        while True:  # walk down to a key, stopping at a section or a leaf
            key = draw(st.sampled_from(sorted(section) + ["typo"]))
            if isinstance(section.get(key), dict) and draw(st.booleans()):
                section = section[key]
                continue
            break
        if draw(st.integers(0, 4)) == 0:
            section.pop(key, None)
        else:
            section[key] = draw(CONFIG_VALUES)
    return data


def _main_code(*argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 2)
    assert (code == 2) == err.getvalue().startswith("error: ")
    return code


class TestRandomInputs:
    """Random backend and decode-config dicts are built or refused with
    ConfigError or InputError, and a refused one exits 2 through main,
    never in a traceback."""

    @RANDOM_INPUT
    @given(backend_dicts())
    def test_backend_dict(self, data):
        try:
            build_toy_backend(data.get("kind"), data)
            refused = False
        except (ConfigError, InputError):
            refused = True
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "backend.json"
            path.write_text(json.dumps(data))
            code = _main_code("decode", "--backend", str(path), "--prompt", "0",
                              "--max-tokens", "2", "--seed", "0")
        assert code == 2 or not refused

    @RANDOM_INPUT
    @given(config_dicts())
    def test_decode_config_dict(self, data):
        try:
            decode_config_from_dict(data)
            refused = False
        except (ConfigError, InputError):
            refused = True
        with tempfile.TemporaryDirectory() as d:
            backend, config = Path(d) / "backend.json", Path(d) / "run.json"
            save_backend(build_spike_backend(1)[0], backend)
            config.write_text(json.dumps(data))
            code = _main_code("decode", "--backend", str(backend), "--prompt", "0",
                              "--config", str(config), "--max-tokens", "2", "--seed", "0")
        assert code == 2 or not refused
