"""Trace serialization: byte-exact round-trips, replay form, config dicts."""

import json
import math
import re
from pathlib import Path

import pytest

from selfreflect import (AdaptiveWeightConfig, ConfigError, DecodeConfig, InputError,
                         ReflectionConfig, RunConfig, SamplingConfig, TriggerConfig,
                         build_spike_backend, decode, decode_config_from_dict,
                         decode_config_to_dict, parse_trace, read_trace,
                         replay_form, run_config_from_dict, serialize_trace,
                         trace_files, write_trace)


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
    def test_header_comes_first_with_version(self):
        lines = serialize_trace(spike_trace()).splitlines()
        header = json.loads(lines[0])
        assert header["record"] == "header"
        assert header["version"] == 1
        assert list(header)[0] == "version"  # version is the leading key
        footer = json.loads(lines[-1])
        assert footer["record"] == "footer"

    def test_one_step_record_per_token(self):
        trace = spike_trace()
        lines = serialize_trace(trace).splitlines()
        assert len(lines) == len(trace.output) + 2


class TestParseErrors:
    def good_text(self):
        return serialize_trace(spike_trace())

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
