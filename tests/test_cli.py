"""Command line surface, exercised through main(argv) without subprocesses."""

import json

import pytest

from selfreflect import (DecodeConfig, build_spike_backend, decode,
                         load_backend, parse_trace, read_trace, save_backend)
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
    def _damaged(trace_dir, tmp_path, damage):
        """A copy of one trace whose record list `damage` edits in place;
        records[i] is line i + 1 of the file."""
        lines = (trace_dir / "s1.jsonl").read_text().splitlines()
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

    def test_needs_family_or_kind(self, capsys, tmp_path):
        code, _, err = run(capsys, "make-backend", "--out",
                           str(tmp_path / "x.json"))
        assert code == 2
