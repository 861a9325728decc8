"""Trace serialization: byte-exact round-trips, replay form, config dicts."""

import base64
import io
import json
import math
import re
import struct
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import FrozenInstanceError, fields, replace
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfreflect import (TRACE_VERSION, AdaptiveWeightConfig, ConfigError, CorrectionSummary,
                         DecodeConfig, DecodeTrace, HybridLossReport, InputError,
                         ReflectionConfig, RunConfig, SamplingConfig, StepColumns, StepRecord,
                         TraceTotals, TriggerConfig, TriggerDecision,
                         build_spike_backend, decode, decode_batch, decode_config_from_dict,
                         decode_config_to_dict, parse_trace, read_trace,
                         replay_form, run_config_from_dict, serialize_trace,
                         trace_files, write_trace)
from selfreflect.cli import main


def spike_trace(seed=0, **kwargs):
    backend, length, _ = build_spike_backend(2)
    cfg = DecodeConfig(max_tokens=length, seed=seed, **kwargs)
    return decode(backend, (0,), cfg)


class TestRoundTrip:
    def test_serialize_parse_serialize_is_identity(self):
        trace = spike_trace(seed=5)
        text = serialize_trace(trace)
        again = serialize_trace(parse_trace(text))
        assert text == again

    def test_round_trip_with_rich_config(self):
        trace = spike_trace(
            seed=2,
            trigger=TriggerConfig(window_size=10, sensitivity=2.0),
            reflection=ReflectionConfig(
                entropy_weight=0.2, steps=2, backtracking=True,
                trust_radius=1.5, reg_gamma=0.01,
                adaptive=AdaptiveWeightConfig(target=0.5, rate=0.3,
                                              min_weight=0.01, max_weight=0.9)),
            sampling=SamplingConfig(mode="greedy"))
        text = serialize_trace(trace)
        assert text == serialize_trace(parse_trace(text))

    def test_big_seed_survives(self):
        trace = spike_trace(seed=2**64 - 1)
        back = parse_trace(serialize_trace(trace))
        assert back.seed == 2**64 - 1

    def test_early_window_stats_are_nan(self):
        trace = spike_trace()
        assert math.isnan(trace.steps[0].trigger.mean)
        back = parse_trace(serialize_trace(trace))
        assert math.isnan(back.steps[0].trigger.mean)
        assert math.isnan(back.steps[0].trigger.std)

    def test_parsed_fields_match(self):
        trace = spike_trace(seed=9)
        back = parse_trace(serialize_trace(trace))
        assert back.model_id == trace.model_id
        assert back.prompt == trace.prompt
        assert back.output == trace.output
        assert back.config == trace.config
        assert back.totals.n_activations == trace.totals.n_activations
        assert back.totals.inner_steps == trace.totals.inner_steps
        fired = [s.position for s in back.steps if s.trigger.fired]
        assert fired == [s.position for s in trace.steps if s.trigger.fired]

    def test_file_round_trip(self, tmp_path):
        trace = spike_trace(seed=4)
        path = tmp_path / "run.jsonl"
        write_trace(trace, path)
        assert serialize_trace(read_trace(path)) == serialize_trace(trace)


class TestReplayForm:
    def test_zeroes_every_timing_field(self):
        trace = spike_trace(seed=1)
        replay = parse_trace(replay_form(trace))
        assert replay.totals.wall_time == 0.0
        assert replay.totals.baseline_time is None
        assert all(s.wall_time == 0.0 for s in replay.steps)
        for s in replay.steps:
            if s.correction is not None:
                assert s.correction.opt_wall_time == 0.0

    def test_stable_under_round_trip(self):
        trace = spike_trace(seed=1)
        assert replay_form(trace) == replay_form(parse_trace(serialize_trace(trace)))

    def test_identical_decodes_share_replay_form(self):
        assert replay_form(spike_trace(seed=7)) == replay_form(spike_trace(seed=7))
        assert replay_form(spike_trace(seed=7)) != replay_form(spike_trace(seed=8))


class TestTraceFormat:
    """Version 1, as replay_form writes it."""

    def test_header_comes_first_with_version(self):
        lines = replay_form(spike_trace()).splitlines()
        header = json.loads(lines[0])
        assert header["record"] == "header"
        assert header["version"] == 1
        assert list(header)[0] == "version"  # version is the leading key
        footer = json.loads(lines[-1])
        assert footer["record"] == "footer"

    def test_one_step_record_per_token(self):
        trace = spike_trace()
        lines = replay_form(trace).splitlines()
        assert len(lines) == len(trace.output) + 2


class TestTraceFormatV2:
    """Version 2, as serialize_trace and write_trace write it."""

    def test_header_comes_first_with_version(self):
        lines = serialize_trace(spike_trace()).splitlines()
        header = json.loads(lines[0])
        assert header["record"] == "header"
        assert header["version"] == TRACE_VERSION == 2
        assert list(header)[0] == "version"
        assert json.loads(lines[-1])["record"] == "footer"

    def test_one_steps_record_and_one_record_per_correction(self):
        trace = spike_trace(seed=3)
        corrected = [s.position for s in trace.steps if s.correction is not None]
        assert len(corrected) == 2
        records = [json.loads(ln) for ln in serialize_trace(trace).splitlines()]
        assert len(records) == 3 + len(corrected)
        block = records[1]
        assert block["record"] == "steps" and block["n"] == len(trace.output)
        assert block["dtype"] == "<f8"
        assert block["columns"] == ["entropy", "logprob", "wall_time", "mean", "std",
                                    "threshold"]
        assert block["position"] == [s.position for s in trace.steps]
        assert block["fired"] == [s.trigger.fired for s in trace.steps]
        assert block["window_full"] == [s.trigger.window_full for s in trace.steps]
        assert "token" not in block  # a step's token is the footer's output[i]
        assert [r["record"] for r in records[2:-1]] == ["correction"] * len(corrected)
        assert [r["step"] for r in records[2:-1]] == corrected

    def test_float_block_holds_little_endian_float64_columns(self):
        trace = spike_trace(seed=3)
        block = json.loads(serialize_trace(trace).splitlines()[1])
        raw = base64.b64decode(block["floats"])
        columns = np.frombuffer(raw, "<f8").reshape(6, len(trace.steps))
        want = np.array([[s.entropy, s.logprob, s.wall_time, s.trigger.mean, s.trigger.std,
                          s.trigger.threshold] for s in trace.steps]).T
        assert columns.tobytes() == want.astype("<f8").tobytes()

    def test_negative_zero_and_nan_payloads_survive(self):
        trace = spike_trace(seed=3)
        nan = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0123))[0]
        steps = list(trace.steps)
        steps[0] = replace(steps[0], wall_time=-0.0)
        steps[1] = replace(steps[1], logprob=nan)
        trace = DecodeTrace(trace.model_id, trace.prompt, trace.output, steps, trace.totals,
                            trace.config, trace.seed)
        text = serialize_trace(trace)
        back = parse_trace(text)
        assert math.copysign(1.0, back.steps[0].wall_time) == -1.0
        assert struct.pack("<d", back.steps[1].logprob) == struct.pack("<d", nan)
        assert serialize_trace(back) == text

    def test_smaller_than_version_1(self):
        trace = spike_trace(seed=3)
        assert len(serialize_trace(trace)) < len(replay_form(trace)) / 2


@pytest.mark.parametrize("write", [serialize_trace, replay_form])
def test_correction_and_totals_records_follow_their_dataclass_fields(write):
    # a trajectory point's entropy_weight is its correction's, written once
    def names(cls, leave_out=()):
        return [f.name for f in fields(cls) if f.name not in leave_out]

    records = [json.loads(ln) for ln in write(spike_trace(seed=3)).splitlines()]
    corrections = [r for r in records if r["record"] == "correction"] + \
        [r["correction"] for r in records if r.get("correction")]
    assert len(corrections) == 2
    for correction in corrections:
        assert [k for k in correction if k not in ("record", "step")] == \
            names(CorrectionSummary)
        for point in correction["trajectory"]:
            assert list(point) == names(HybridLossReport, ("entropy_weight",))
    assert list(records[-1]["totals"]) == names(TraceTotals)


@pytest.fixture
def constructions(monkeypatch):
    """Counts of the StepRecords and TriggerDecisions constructed from here
    on, through counting stand-ins for the two types in every selfreflect
    module that binds them."""
    counts = Counter()

    def counting(cls):
        class Counted(cls):
            def __init__(self, *args, **kwargs):
                counts[cls.__name__] += 1
                super().__init__(*args, **kwargs)
        return Counted

    for cls in (StepRecord, TriggerDecision):
        stand_in = counting(cls)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "selfreflect" and getattr(module, cls.__name__, None) is cls:
                monkeypatch.setattr(module, cls.__name__, stand_in)
    return counts


class TestStepColumns:
    """A trace's steps are columns; StepRecords are built on read, once."""

    def test_decode_write_and_read_build_no_records(self, constructions):
        backend, length, _ = build_spike_backend(2)
        runs = [((0,), DecodeConfig(max_tokens=length, seed=seed)) for seed in range(4)]
        traces = decode_batch(backend, runs)
        assert sum(t.totals.n_activations for t in traces) > 0
        texts = [serialize_trace(t) for t in traces]
        parsed = [parse_trace(text) for text in texts]
        assert [serialize_trace(t) for t in parsed] == texts
        parsed += [parse_trace(replay_form(t)) for t in traces]
        assert not constructions

        for trace in traces + parsed:
            constructions.clear()
            n = len(trace.output)
            assert [s.position for s in trace.steps] == list(range(n))
            assert trace.steps[-1].token == trace.output[-1]
            assert list(trace.steps) == trace.steps[:]
            assert constructions == {"StepRecord": n, "TriggerDecision": n}

    def test_records_and_columns_write_the_same_text(self):
        trace = spike_trace(seed=3)
        for steps in (trace.steps, parse_trace(serialize_trace(trace)).steps):
            listed = replace(trace, steps=list(steps))
            assert isinstance(steps, StepColumns) and type(listed.steps) is list
            assert listed.steps == steps
            assert serialize_trace(listed) == serialize_trace(trace)
            assert replay_form(listed) == replay_form(trace)

    @pytest.mark.parametrize("read", ["decoded", "v2", "v1"])
    def test_a_step_cannot_be_written(self, read):
        trace = spike_trace(seed=3)
        if read != "decoded":
            trace = parse_trace(serialize_trace(trace) if read == "v2" else replay_form(trace))
        with pytest.raises(FrozenInstanceError):
            trace.steps[0].wall_time = -0.0
        with pytest.raises(FrozenInstanceError):
            trace.steps[29].trigger.fired = False
        assert trace.steps[29].trigger.fired


# written by write_trace of the release before version 2: a reflective
# spike decode (two corrections, backtracking) with timings and NaN window
# statistics; the hash is that release's replay_form of the parsed file
FIXTURE = Path(__file__).parent / "data" / "trace_v1_spike.jsonl"
FIXTURE_REPLAY_SHA256 = "01099a62d9a8b4f7d8411b7ffa60ca55a6c522ac2123e029ab9d9fcd89bdd73d"


class TestVersion1Files:
    def test_fixture_parses_to_its_recorded_replay_form(self):
        trace = read_trace(FIXTURE)
        assert json.loads(FIXTURE.read_text().splitlines()[0])["version"] == 1
        assert sha256(replay_form(trace).encode()).hexdigest() == FIXTURE_REPLAY_SHA256
        assert [s.position for s in trace.steps if s.correction is not None] == [29, 59]
        assert math.isnan(trace.steps[0].trigger.mean)
        assert all(s.wall_time > 0.0 for s in trace.steps)

    def test_fixture_keeps_every_value_of_its_step_records(self):
        trace = read_trace(FIXTURE)
        records = [json.loads(ln) for ln in FIXTURE.read_text().splitlines()[1:-1]]
        for step, rec in zip(trace.steps, records, strict=True):
            t = rec["trigger"]
            got = (step.position, step.token, step.entropy, step.logprob, step.wall_time,
                   step.trigger.mean, step.trigger.std, step.trigger.threshold,
                   step.trigger.fired, step.trigger.window_full)
            want = (rec["position"], rec["token"], rec["entropy"], rec["logprob"],
                    rec["wall_time"], t["mean"], t["std"], t["threshold"], t["fired"],
                    t["window_full"])
            assert repr(got) == repr(want)

    def test_fixture_round_trips_through_version_2(self):
        trace = read_trace(FIXTURE)
        text = serialize_trace(trace)
        back = parse_trace(text)
        assert serialize_trace(back) == text
        assert replay_form(back) == replay_form(trace)
        assert back.totals == trace.totals


class TestParseErrors:
    """Version 1, as replay_form writes it."""

    def good_text(self):
        return replay_form(spike_trace())

    def test_rejects_unknown_version(self):
        text = self.good_text().replace('"version":1', '"version":99', 1)
        with pytest.raises(ConfigError):
            parse_trace(text)

    def test_rejects_missing_header(self):
        lines = self.good_text().splitlines()
        with pytest.raises(ConfigError):
            parse_trace("\n".join(lines[1:]) + "\n")

    def test_rejects_missing_footer(self):
        lines = self.good_text().splitlines()
        with pytest.raises(ConfigError):
            parse_trace("\n".join(lines[:-1]) + "\n")

    def test_rejects_non_json_line(self):
        lines = self.good_text().splitlines()
        lines[1] = "not json"
        with pytest.raises(ConfigError):
            parse_trace("\n".join(lines) + "\n")

    def test_rejects_unknown_record_kind(self):
        lines = self.good_text().splitlines()
        lines[1] = lines[1].replace('"record":"step"', '"record":"note"', 1)
        with pytest.raises(ConfigError):
            parse_trace("\n".join(lines) + "\n")

    def test_rejects_tampered_output(self):
        lines = self.good_text().splitlines()
        footer = json.loads(lines[-1])
        footer["output"][0] = (footer["output"][0] + 1) % 32
        lines[-1] = json.dumps(footer, separators=(",", ":"))
        with pytest.raises(ConfigError):
            parse_trace("\n".join(lines) + "\n")

    def test_rejects_empty_text(self):
        with pytest.raises(ConfigError):
            parse_trace("")


def v2_records(trace=None):
    text = serialize_trace(spike_trace(seed=3) if trace is None else trace)
    return [json.loads(ln) for ln in text.splitlines()]


def v2_text(records):
    return "\n".join(json.dumps(r) for r in records) + "\n"


def block_floats(records):
    block = records[1]
    return np.frombuffer(base64.b64decode(block["floats"]), "<f8").reshape(6, block["n"]).copy()


def with_floats(records, floats):
    records[1]["floats"] = base64.b64encode(floats.astype("<f8").tobytes()).decode("ascii")
    return records


ENTROPY, MEAN, STD, THRESHOLD = 0, 3, 4, 5


class TestParseErrorsV2:
    """Version 2, as serialize_trace writes it."""

    def test_reads_its_own_text(self):
        records = v2_records()
        trace = parse_trace(v2_text(records))
        assert len(trace.steps) == records[1]["n"]

    @pytest.mark.parametrize("key", ["fired", "window_full", "position", "floats", "n",
                                     "dtype", "columns"])
    def test_missing_block_key_is_named(self, key):
        records = v2_records()
        del records[1][key]
        with pytest.raises(ConfigError, match=f"trace line 2: missing key '{key}'"):
            parse_trace(v2_text(records))

    @pytest.mark.parametrize("key, value", [
        ("fired", "yes"), ("fired", [1] * 70), ("fired", [True] * 3),
        ("window_full", None), ("position", [0.0] * 70), ("position", [True] * 70),
        ("position", list(range(69))), ("floats", 3.5), ("floats", ["AAAA"]),
        ("floats", "not base64!"), ("n", 70.0), ("n", -1), ("dtype", ">f8"),
        ("columns", ["logprob", "entropy", "wall_time", "mean", "std", "threshold"])])
    def test_wrongly_typed_block_key_is_named(self, key, value):
        records = v2_records()
        records[1][key] = value
        with pytest.raises(ConfigError, match=f"trace line 2: malformed record .*'{key}'"):
            parse_trace(v2_text(records))

    @pytest.mark.parametrize("cut", [1, 8, 48])
    def test_short_block_is_rejected(self, cut):
        records = v2_records()
        raw = base64.b64decode(records[1]["floats"])[:-cut]
        records[1]["floats"] = base64.b64encode(raw).decode("ascii")
        with pytest.raises(ConfigError, match=r"trace line 2: .*'floats' must hold 6 \* n"):
            parse_trace(v2_text(records))

    def test_step_count_must_match_the_output(self):
        records = v2_records()
        records[-1]["output"].append(1)
        with pytest.raises(ConfigError, match="output does not match"):
            parse_trace(v2_text(records))

    def test_needs_a_steps_record(self):
        records = v2_records()
        with pytest.raises(ConfigError, match="trace line 2: expected the steps record"):
            parse_trace(v2_text([records[0]] + records[2:]))
        with pytest.raises(ConfigError, match="needs a steps record"):
            parse_trace(v2_text([records[0], records[-1]]))

    def test_rejects_a_second_steps_record(self):
        records = v2_records()
        with pytest.raises(ConfigError, match="trace line 3: unexpected trace record kind"):
            parse_trace(v2_text(records[:2] + records[1:]))

    @pytest.mark.parametrize("step", [-1, 70, 29, "29", 29.0, True])
    def test_correction_step_is_checked(self, step):
        # the corrections sit at steps 29 and 59: the second must come later
        records = v2_records()
        records[3]["step"] = step
        with pytest.raises(ConfigError, match="trace line 4: malformed record .*'step'"):
            parse_trace(v2_text(records))

    def test_correction_needs_its_step(self):
        records = v2_records()
        del records[2]["step"]
        with pytest.raises(ConfigError, match="trace line 3: missing key 'step'"):
            parse_trace(v2_text(records))

    def test_unknown_version_is_rejected(self):
        text = serialize_trace(spike_trace()).replace('"version":2', '"version":3', 1)
        with pytest.raises(ConfigError, match="unsupported trace version: 3"):
            parse_trace(text)

    def test_flag_version_is_rejected(self):
        text = replay_form(spike_trace()).replace('"version":1', '"version":true', 1)
        with pytest.raises(ConfigError, match="unsupported trace version: True"):
            parse_trace(text)


class TestTriggerColumnChecks:
    """parse_trace checks every step's trigger fields against the trigger
    rule, in both versions."""

    def test_flipped_fired_is_rejected(self):
        records = v2_records()
        records[1]["fired"][29] = False
        with pytest.raises(ConfigError, match="trace step 29: fired must be"):
            parse_trace(v2_text(records))

    def test_entropy_crossing_the_threshold_is_rejected(self):
        records = v2_records()
        floats = block_floats(records)
        floats[ENTROPY, 40] = floats[THRESHOLD, 40] + 1.0
        with pytest.raises(ConfigError, match="trace step 40: fired must be"):
            parse_trace(v2_text(with_floats(records, floats)))

    def test_fired_without_a_correction_is_rejected(self):
        records = v2_records()
        del records[2]
        with pytest.raises(ConfigError, match="trace step 29: a step must have a correction"):
            parse_trace(v2_text(records))

    def test_threshold_is_checked_bit_for_bit(self):
        records = v2_records()
        floats = block_floats(records)
        floats[THRESHOLD, 30] = np.nextafter(floats[THRESHOLD, 30], np.inf)
        with pytest.raises(ConfigError, match="trace step 30: threshold must be"):
            parse_trace(v2_text(with_floats(records, floats)))

    @pytest.mark.parametrize("step, value", [(0, 0.1), (1, math.nan), (5, -0.0)])
    def test_threshold_is_nan_exactly_where_the_window_is_empty(self, step, value):
        records = v2_records()
        floats = block_floats(records)
        floats[[MEAN, STD, THRESHOLD], step] = value, 0.0, value
        if step:
            floats[STD, step] = math.nan
        with pytest.raises(ConfigError, match=f"trace step {step}: threshold must be"):
            parse_trace(v2_text(with_floats(records, floats)))

    def test_window_full_must_follow_the_position(self):
        records = v2_records()
        records[1]["window_full"][24] = True
        with pytest.raises(ConfigError, match="trace step 24: window_full must be"):
            parse_trace(v2_text(records))
        records = v2_records()
        records[1]["position"][25] = 24
        with pytest.raises(ConfigError, match="trace step 25: window_full must be"):
            parse_trace(v2_text(records))

    def test_baseline_trace_may_not_fire(self):
        # reflect=False records fired=False everywhere, also where the
        # entropy crosses the threshold; a flag set there is still wrong
        records = v2_records(spike_trace(seed=3, reflect=False))
        step = parse_trace(v2_text(records)).steps[29]
        assert step.entropy > step.trigger.threshold and not step.trigger.fired
        records[1]["fired"][29] = True
        with pytest.raises(ConfigError, match="trace step 29: a step must have a correction"):
            parse_trace(v2_text(records))
        records[1]["fired"][29] = False
        records[1]["fired"][10] = True
        with pytest.raises(ConfigError, match="trace step 10: a fired step needs"):
            parse_trace(v2_text(records))

    def test_version_1_steps_are_checked_too(self):
        lines = replay_form(spike_trace(seed=3)).splitlines()
        step = json.loads(lines[1 + 29])
        step["trigger"]["fired"] = False
        lines[1 + 29] = json.dumps(step)
        with pytest.raises(ConfigError, match="trace step 29: fired must be"):
            parse_trace("\n".join(lines) + "\n")


def _paths(value, path=()):
    """The path of every value inside a JSON value: dict keys, list indices."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield path + (key,)
        yield from _paths(item, path + (key,))


def _analyze_code(text: str) -> int:
    """The exit code of `analyze --report entropy` on a file holding text; a
    rejected file must be reported as an error, not as a traceback."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "trace.jsonl"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["analyze", "--traces", str(path), "--report", "entropy"])
    assert code in (0, 2)
    assert (code == 2) == err.getvalue().startswith("error: ")
    return code


def _parses(text: str) -> bool:
    """Whether parse_trace takes text; it may raise nothing but ConfigError,
    and analyze must exit 2 exactly when it does."""
    try:
        parse_trace(text)
    except ConfigError:
        ok = False
    else:
        ok = True
    assert _analyze_code(text) == (0 if ok else 2)
    return ok


# one reflective decode with two corrections, in both layouts
_TRACE = spike_trace(seed=3)
TEXTS = {1: replay_form(_TRACE), 2: serialize_trace(_TRACE)}
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=4),
    st.just([]), st.just({}), st.just([1.5]), st.just([True]))
PROPERTY = settings(max_examples=120, deadline=None, derandomize=True)


class TestMalformedTraces:
    """Random damage to v1 and v2 texts ends in ConfigError and exit code 2,
    never in another exception or a traceback."""

    @PROPERTY
    @given(st.sampled_from([1, 2]), st.data())
    def test_truncated_text_is_rejected(self, version, data):
        text = TEXTS[version]
        cut = data.draw(st.integers(0, len(text) - 2))  # the last is the final newline
        assert not _parses(text[:cut])

    @PROPERTY
    @given(st.sampled_from([1, 2]), st.data())
    def test_mutated_field_is_rejected_or_read(self, version, data):
        records = [json.loads(ln) for ln in TEXTS[version].splitlines()]
        # header, the steps (v2: the block, then its two corrections), footer
        index = data.draw(st.integers(0, len(records) - 1))
        path = data.draw(st.sampled_from(list(_paths(records[index]))))
        *outer, last = path
        parent = records[index]
        for key in outer:
            parent = parent[key]
        if data.draw(st.booleans()):
            parent[last] = data.draw(JSON_VALUES)
        elif isinstance(parent, dict):
            del parent[last]
        else:
            parent.pop(last)
        _parses("\n".join(json.dumps(r) for r in records) + "\n")

    def test_record_split_across_lines_is_rejected(self):
        # the steps record split in its position list at a dropped comma, and
        # the last correction and the footer on one line: the joined parse
        # would read the same records as the intact text
        header, steps, *corrections, footer = TEXTS[2].splitlines()
        at = steps.index('"position":[0,1,') + len('"position":[0,1')
        lines = [header, steps[:at], steps[at + 1:], *corrections[:-1],
                 corrections[-1] + "," + footer]
        text = "\n".join(lines) + "\n"
        with pytest.raises(ConfigError, match="trace line 2 is not valid JSON"):
            parse_trace(text)
        assert not _parses(text)

    @PROPERTY
    @given(st.data())
    def test_mutated_float_block_is_rejected_or_read(self, data):
        records = [json.loads(ln) for ln in TEXTS[2].splitlines()]
        raw = bytearray(base64.b64decode(records[1]["floats"]))
        at = data.draw(st.integers(0, len(raw) - 1))
        change = data.draw(st.sampled_from(["flip", "drop", "add"]))
        if change == "flip":
            raw[at] ^= 1 << data.draw(st.integers(0, 7))
        elif change == "drop":
            del raw[at:at + data.draw(st.integers(1, 16))]
        else:
            raw[at:at] = bytes(data.draw(st.integers(1, 16)))
        records[1]["floats"] = base64.b64encode(bytes(raw)).decode("ascii")
        ok = _parses("\n".join(json.dumps(r) for r in records) + "\n")
        assert change == "flip" or not ok  # a block of the wrong length never reads


def rich_config():
    return DecodeConfig(
        trigger=TriggerConfig(window_size=7, sensitivity=1.5, temperature=0.9),
        reflection=ReflectionConfig(
            entropy_weight=0.4, steps=5, learning_rate=0.2,
            loss_temperature=0.8, ce_scope="last-12", trust_radius=2.0,
            reg_gamma=0.05, backtracking=True, grad_clip=None,
            adaptive=AdaptiveWeightConfig(target=0.3, rate=0.2,
                                          min_weight=0.05, max_weight=0.8)),
        sampling=SamplingConfig(mode="greedy", temperature=1.0, top_p=0.5),
        max_tokens=17, eos_token=3, seed=12345, reflect=False)


def nested(path, value):
    """{"a": {"b": value}} from the dotted path "a.b"."""
    *outer, last = path.split(".")
    data = {last: value}
    for key in reversed(outer):
        data = {key: data}
    return data


ADAPTIVE = {"target": 0.3, "rate": 0.2, "min_weight": 0.05, "max_weight": 0.8}

INT_KEYS = ["trigger.window_size", "reflection.steps", "max_tokens", "eos_token", "seed"]
FLOAT_KEYS = ["trigger.sensitivity", "trigger.temperature", "reflection.entropy_weight",
              "reflection.learning_rate", "reflection.loss_temperature",
              "reflection.trust_radius", "reflection.reg_gamma", "reflection.grad_clip",
              "sampling.temperature", "sampling.top_p"]

# decode_config_to_dict text of DecodeConfig() and rich_config(), as written
# by every earlier release: trace headers must not change by a byte
DEFAULT_TEXT = (
    '{"trigger":{"window_size":25,"sensitivity":4.0,"temperature":0.6},'
    '"reflection":{"entropy_weight":0.05,"steps":3,"learning_rate":0.01,'
    '"loss_temperature":1.0,"ce_scope":"full-prefix","trust_radius":null,'
    '"reg_gamma":0.0,"backtracking":false,"grad_clip":100.0,"adaptive":null},'
    '"sampling":{"mode":"temperature","temperature":0.6,"top_p":0.95},'
    '"max_tokens":4096,"eos_token":null,"seed":0,"reflect":true}')
RICH_TEXT = (
    '{"trigger":{"window_size":7,"sensitivity":1.5,"temperature":0.9},'
    '"reflection":{"entropy_weight":0.4,"steps":5,"learning_rate":0.2,'
    '"loss_temperature":0.8,"ce_scope":"last-12","trust_radius":2.0,'
    '"reg_gamma":0.05,"backtracking":true,"grad_clip":null,'
    '"adaptive":{"target":0.3,"rate":0.2,"min_weight":0.05,"max_weight":0.8}},'
    '"sampling":{"mode":"greedy","temperature":1.0,"top_p":0.5},'
    '"max_tokens":17,"eos_token":3,"seed":12345,"reflect":false}')


class TestConfigDicts:
    def test_default_round_trip(self):
        cfg = DecodeConfig()
        assert decode_config_from_dict(decode_config_to_dict(cfg)) == cfg

    def test_rich_round_trip(self):
        cfg = rich_config()
        assert decode_config_from_dict(decode_config_to_dict(cfg)) == cfg

    @pytest.mark.parametrize("cfg, text", [(DecodeConfig(), DEFAULT_TEXT),
                                           (rich_config(), RICH_TEXT)])
    def test_serialized_text_is_pinned(self, cfg, text):
        assert json.dumps(decode_config_to_dict(cfg), separators=(",", ":")) == text

    def test_empty_dict_gives_defaults(self):
        assert decode_config_from_dict({}) == DecodeConfig()

    @pytest.mark.parametrize("path", [
        "trigger", "reflection", "sampling",
        "trigger.window_size", "trigger.sensitivity", "trigger.temperature",
        "reflection.entropy_weight", "reflection.steps", "reflection.learning_rate",
        "reflection.loss_temperature", "reflection.reg_gamma", "reflection.backtracking",
        "sampling.temperature", "sampling.top_p", "max_tokens", "seed", "reflect"])
    def test_null_gives_the_default(self, path):
        assert decode_config_from_dict(nested(path, None)) == DecodeConfig()

    @pytest.mark.parametrize("path", ["reflection.ce_scope", "sampling.mode"])
    def test_null_string_key_is_rejected(self, path):
        with pytest.raises(ConfigError, match=path):
            decode_config_from_dict(nested(path, None))

    @pytest.mark.parametrize("path", ["reflection.trust_radius", "reflection.grad_clip",
                                      "eos_token", "reflection.adaptive"])
    def test_null_gives_none_for_optional_keys(self, path):
        cfg = decode_config_from_dict(nested(path, None))
        section, _, name = path.rpartition(".")
        assert getattr(getattr(cfg, section) if section else cfg, name) is None

    def test_absent_grad_clip_keeps_its_default(self):
        assert decode_config_from_dict({}).reflection.grad_clip == 100.0

    @pytest.mark.parametrize("key", sorted(ADAPTIVE))
    def test_every_adaptive_key_is_required(self, key):
        adaptive = {k: v for k, v in ADAPTIVE.items() if k != key}
        with pytest.raises(ConfigError, match=f"reflection.adaptive.{key}"):
            decode_config_from_dict({"reflection": {"adaptive": adaptive}})
        with pytest.raises(ConfigError, match=f"reflection.adaptive.{key}"):
            decode_config_from_dict({"reflection": {"adaptive": dict(adaptive, **{key: None})}})

    @pytest.mark.parametrize("path", INT_KEYS + FLOAT_KEYS)
    def test_true_is_not_a_number(self, path):
        with pytest.raises(ConfigError, match=path):
            decode_config_from_dict(nested(path, True))

    @pytest.mark.parametrize("literal", ["1e400", "1" + "0" * 400])
    @pytest.mark.parametrize("path", FLOAT_KEYS)
    def test_overflowing_float_is_rejected(self, path, literal):
        with pytest.raises(ConfigError, match=path):
            decode_config_from_dict(json.loads(json.dumps(nested(path, "X")).replace(
                '"X"', literal)))

    def test_unknown_key_is_named_in_the_error(self):
        with pytest.raises(ConfigError, match="reflection.lamda"):
            decode_config_from_dict({"reflection": {"lamda": 0.5}})
        with pytest.raises(ConfigError, match="window"):
            decode_config_from_dict({"window": 5})

    def test_unknown_key_is_named_at_depth_three(self):
        data = {"reflection": {"adaptive": dict(ADAPTIVE, x=1)}}
        with pytest.raises(ConfigError, match=r"reflection\.adaptive\.x"):
            decode_config_from_dict(data)
        with pytest.raises(ConfigError, match=r"config\.reflection\.adaptive\.x"):
            decode_config_from_dict(data, "config")

    @pytest.mark.parametrize("data, section, message", [
        ({"trigger": {"window_size": 1}}, "trigger", "window_size must be at least 2"),
        ({"reflection": {"entropy_weight": 2}}, "reflection",
         "entropy_weight must lie in [0, 1]"),
        ({"reflection": {"adaptive": dict(ADAPTIVE, min_weight=0.9)}}, "reflection.adaptive",
         "adaptive bounds must satisfy 0 < min <= max < 1")])
    def test_range_errors_name_their_section(self, data, section, message):
        with pytest.raises(InputError) as err:
            decode_config_from_dict(data, "config")
        assert type(err.value) is InputError
        assert str(err.value) == f"config.{section}: {message}"
        with pytest.raises(InputError, match=re.escape(f"{section}: {message}")):
            run_config_from_dict(data)

    def test_type_errors_are_config_errors(self):
        with pytest.raises(ConfigError):
            decode_config_from_dict({"max_tokens": "many"})
        with pytest.raises(ConfigError):
            decode_config_from_dict({"trigger": {"window_size": 2.5}})
        with pytest.raises(ConfigError):
            decode_config_from_dict({"sampling": "greedy"})

    @pytest.mark.parametrize("data", [{"sampling": ""}, {"trigger": []},
                                      {"reflection": 0}, {"trigger": False}])
    def test_falsy_non_object_section_is_rejected(self, data):
        (section,) = data
        with pytest.raises(ConfigError, match=f"section {section} must be an object"):
            decode_config_from_dict(data)
        with pytest.raises(ConfigError, match=section):
            run_config_from_dict(data)


class TestRunConfigDicts:
    def test_empty_dict_gives_defaults(self):
        assert run_config_from_dict({}) == RunConfig()

    def test_decode_keys_and_bench_keys_share_one_level(self):
        cfg = run_config_from_dict({"reflection": {"steps": 2}, "eos_token": 3, "seed": 4,
                                    "k": 3, "seeds": [1, 2], "backend": "b.json",
                                    "corpus": "copy-recall", "out": "o"})
        assert (cfg.k, cfg.seeds, cfg.backend, cfg.corpus, cfg.out, cfg.seed) == \
            (3, [1, 2], "b.json", "copy-recall", "o", 4)
        decode_cfg = cfg.decode_config(7)
        assert decode_cfg == DecodeConfig(reflection=ReflectionConfig(steps=2),
                                          eos_token=3, seed=7)

    @pytest.mark.parametrize("key", ["seed", "backend", "corpus", "seeds", "out", "k"])
    def test_null_gives_the_default(self, key):
        assert run_config_from_dict({key: None}) == RunConfig()

    def test_null_seed_lets_the_caller_draw_one(self):
        assert run_config_from_dict({"seed": None}).seed is None

    @pytest.mark.parametrize("seed", [-1, True, 1.5, "3"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            run_config_from_dict({"seed": seed})

    @pytest.mark.parametrize("seeds", [[], [1, True], 3, [1.0], "1,2", {}])
    def test_seeds_must_be_a_non_empty_list_of_ints(self, seeds):
        with pytest.raises(ConfigError, match="seeds"):
            run_config_from_dict({"seeds": seeds})

    @pytest.mark.parametrize("key, value", [
        ("backend", 3), ("corpus", []), ("out", False), ("k", True), ("k", 2.0),
        ("k", "5"), ("seeds", "0")])
    def test_bench_keys_are_type_checked(self, key, value):
        with pytest.raises(ConfigError, match=key):
            run_config_from_dict({key: value})

    def test_unknown_key_is_named_in_the_error(self):
        with pytest.raises(ConfigError, match="reflection.adaptive.x"):
            run_config_from_dict({"reflection": {"adaptive": dict(ADAPTIVE, x=1)}})
        with pytest.raises(ConfigError, match="seedz"):
            run_config_from_dict({"seedz": [1]})


def test_readme_config_block_is_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Configuration"):]
    block = section[section.index("```json") + len("```json"):section.index("```\n", 8)]
    data = json.loads(block)
    assert data == dict(decode_config_to_dict(DecodeConfig()), seed=None)
    assert run_config_from_dict(data) == RunConfig()


class TestTraceFiles:
    def test_sorted_jsonl_only(self, tmp_path):
        (tmp_path / "b.jsonl").write_text("x")
        (tmp_path / "a.jsonl").write_text("x")
        (tmp_path / "notes.txt").write_text("x")
        got = trace_files(tmp_path)
        assert [p.split("/")[-1] for p in got] == ["a.jsonl", "b.jsonl"]
