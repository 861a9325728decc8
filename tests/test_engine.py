"""Decode loop: sampling, trigger wiring, correction locality, stop conditions."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from selfreflect import (AdaptiveWeightConfig, AttentionBackend, DecodeConfig, InputError,
                         MarkovBackend, ReflectionConfig, SamplingConfig,
                         ScriptedBackend, TriggerConfig, adapt_lambda,
                         build_spike_backend, decode, entropy_from_logits,
                         log_softmax, logits_at, nucleus_distribution, sample,
                         softmax)
from selfreflect.engine import _sample_rows

SMALL_TRIGGER = TriggerConfig(window_size=25, sensitivity=4.0, temperature=0.6)
GREEDY = SamplingConfig(mode="greedy")


def uniform_markov(size=4):
    return MarkovBackend(np.full((size, size), 1.0 / size))


def spike_config(**refl):
    return DecodeConfig(trigger=SMALL_TRIGGER,
                        reflection=ReflectionConfig(**refl),
                        sampling=GREEDY, max_tokens=40)


class TestSample:
    def test_greedy_tie_takes_lowest_id(self):
        rng = np.random.default_rng(0)
        assert sample(np.array([1.0, 1.0, 0.5]), GREEDY, rng) == 0

    def test_greedy_consumes_no_randomness(self):
        rng = np.random.default_rng(5)
        sample(np.array([0.0, 2.0]), GREEDY, rng)
        assert rng.random() == np.random.default_rng(5).random()

    @pytest.mark.parametrize("mode", ["greedy", "temperature"])
    def test_rejects_a_positive_infinite_logit(self, mode):
        with pytest.raises(InputError, match=r"\+inf"):
            sample(np.array([0.0, math.inf, 0.0]), SamplingConfig(mode=mode),
                   np.random.default_rng(0))

    def test_nucleus_support_and_renormalization(self):
        support, kept = nucleus_distribution([0.5, 0.3, 0.15, 0.05], 0.8)
        assert list(support) == [0, 1]
        assert kept[0] == pytest.approx(0.625, abs=1e-12)
        assert kept[1] == pytest.approx(0.375, abs=1e-12)

    def test_nucleus_top_p_one_keeps_everything(self):
        support, kept = nucleus_distribution([0.25, 0.25, 0.25, 0.25], 1.0)
        assert sorted(support) == [0, 1, 2, 3]
        assert kept.sum() == pytest.approx(1.0, abs=1e-12)

    def test_nucleus_tie_enters_by_ascending_id(self):
        support, _ = nucleus_distribution([0.3, 0.4, 0.3], 0.5)
        assert list(support) == [1, 0]

    def test_sampled_frequencies_match_softmax(self):
        logits = np.array([0.9, -0.4, 0.1, 1.3, -2.0])
        cfg = SamplingConfig(mode="temperature", temperature=0.7, top_p=1.0)
        n = 100_000
        # the decode loop's draw over n copies of the row, one generator
        # repeated per row: the stream of n successive sample() calls
        rng = np.random.default_rng(123)
        draws = _sample_rows(np.tile(logits, (n, 1)), None, [rng] * n, cfg)
        rng = np.random.default_rng(123)
        prefix = [sample(logits, cfg, rng) for _ in range(2_000)]
        assert draws[:2_000].tolist() == prefix
        counts = np.bincount(draws, minlength=5)
        expected = softmax(logits, 0.7) * n
        assert stats.chisquare(counts, expected).pvalue > 0.001

    def test_rejects_degenerate_logits(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InputError):
            sample(np.array([-math.inf, -math.inf]), GREEDY, rng)
        with pytest.raises(InputError):
            sample(np.array([0.0, math.nan]), GREEDY, rng)
        with pytest.raises(InputError):
            sample(np.array([]), GREEDY, rng)

    def test_sampling_config_validation(self):
        with pytest.raises(InputError):
            SamplingConfig(mode="beam")
        with pytest.raises(InputError):
            SamplingConfig(temperature=0.0)
        with pytest.raises(InputError):
            SamplingConfig(top_p=0.0)
        with pytest.raises(InputError):
            SamplingConfig(top_p=1.5)


class TestDecodeBasics:
    def test_constant_entropy_never_fires(self):
        # every step has identical entropy, so H > mean fails and sigma is 0
        backend = uniform_markov()
        cfg = DecodeConfig(trigger=SMALL_TRIGGER, max_tokens=60, seed=3)
        trace = decode(backend, (0,), cfg)
        assert trace.totals.n_activations == 0
        assert all(not s.trigger.fired for s in trace.steps)
        assert len(trace.output) == 60

    def test_max_tokens_stop(self):
        trace = decode(uniform_markov(), (0,), DecodeConfig(max_tokens=7))
        assert len(trace.output) == 7
        assert [s.position for s in trace.steps] == list(range(7))

    def test_eos_stop_includes_eos(self):
        # scripted rows walk the vocab: argmax at step i is token i+1
        script = [np.eye(6)[i + 1] * 9.0 for i in range(5)]
        backend = ScriptedBackend(6, by_position=script)
        cfg = DecodeConfig(sampling=GREEDY, max_tokens=5, eos_token=3)
        trace = decode(backend, (0,), cfg)
        assert trace.output == (1, 2, 3)

    def test_eos_out_of_range(self):
        with pytest.raises(InputError):
            decode(uniform_markov(), (0,), DecodeConfig(eos_token=4))

    def test_max_len_checked_before_the_first_forward(self, monkeypatch):
        backend = AttentionBackend(vocab_size=6, hidden_dim=4, seed=0, max_len=5)
        assert uniform_markov().max_len is None
        assert decode(backend, (0, 1), DecodeConfig(max_tokens=4)).output  # prefixes reach 5

        def forward(tokens):
            raise AssertionError("forward_prefix ran")
        monkeypatch.setattr(backend, "forward_prefix", forward)
        with pytest.raises(InputError, match="max_len 5"):
            decode(backend, (0, 1), DecodeConfig(max_tokens=5))

    def test_config_validation(self):
        with pytest.raises(InputError):
            DecodeConfig(max_tokens=0)
        with pytest.raises(InputError):
            DecodeConfig(seed=-1)

    def test_prompt_recorded(self):
        trace = decode(uniform_markov(), (0, 1, 2), DecodeConfig(max_tokens=4))
        assert trace.prompt == (0, 1, 2)
        assert trace.model_id == "markov-v4"

    def test_same_seed_reproduces(self):
        backend = uniform_markov()
        cfg = DecodeConfig(max_tokens=30, seed=11)
        a = decode(backend, (0,), cfg)
        b = decode(backend, (0,), cfg)
        assert a.output == b.output
        assert [s.logprob for s in a.steps] == [s.logprob for s in b.steps]

    def test_different_seeds_differ(self):
        backend = uniform_markov()
        a = decode(backend, (0,), DecodeConfig(max_tokens=30, seed=1))
        b = decode(backend, (0,), DecodeConfig(max_tokens=30, seed=2))
        assert a.output != b.output


class TestBaselineParity:
    @pytest.mark.parametrize("seed", [0, 7, 40])
    def test_reflect_off_matches_hand_rolled_loop(self, seed):
        backend = uniform_markov(5)
        sampling = SamplingConfig(mode="temperature", temperature=0.8, top_p=0.9)
        cfg = DecodeConfig(sampling=sampling, max_tokens=25, seed=seed,
                           reflect=False)
        trace = decode(backend, (0, 2), cfg)

        rng = np.random.default_rng(seed)
        acts = backend.forward_prefix((0, 2))
        out = []
        for _ in range(25):
            token = sample(logits_at(backend.head, acts.last_hidden),
                           sampling, rng)
            out.append(token)
            acts = backend.append_token(acts, token)
        assert trace.output == tuple(out)

    def test_reflect_off_still_monitors(self):
        backend, length, positions = build_spike_backend(1)
        cfg = replace(spike_config(), reflect=False, max_tokens=length)
        trace = decode(backend, (0,), cfg)
        assert trace.totals.n_activations == 0
        assert all(s.correction is None for s in trace.steps)
        # threshold bookkeeping still present at the would-be spike
        spike = trace.steps[positions[0]]
        assert spike.entropy == pytest.approx(1.4, abs=1e-9)
        assert spike.trigger.window_full and not spike.trigger.fired

    def test_zero_inner_steps_keeps_baseline_output(self):
        backend, length, _ = build_spike_backend(1)
        fired = decode(backend, (0,), replace(spike_config(steps=0),
                                              max_tokens=length))
        base = decode(backend, (0,), replace(spike_config(), reflect=False,
                                             max_tokens=length))
        assert fired.output == base.output
        assert fired.totals.n_activations == 1
        assert fired.totals.inner_steps == 0
        corr = [s.correction for s in fired.steps if s.correction is not None]
        assert len(corr) == 1
        assert corr[0].steps_taken == 0 and corr[0].delta_norm == 0.0


class TestSpikeTrigger:
    def test_single_spike_fires_once(self):
        backend, length, positions = build_spike_backend(1)
        trace = decode(backend, (0,), replace(spike_config(), max_tokens=length))
        fired = [s.position for s in trace.steps if s.trigger.fired]
        assert fired == positions == [29]
        assert trace.totals.n_activations == 1
        assert trace.totals.inner_steps == 3  # plain mode, default steps=3
        for s in trace.steps:
            assert (s.correction is not None) == s.trigger.fired

    def test_recorded_entropy_is_pre_correction(self):
        backend, length, positions = build_spike_backend(2)
        trace = decode(backend, (0,),
                       replace(spike_config(entropy_weight=1.0,
                                            loss_temperature=0.6,
                                            backtracking=True),
                               max_tokens=length))
        for p in positions:
            step = trace.steps[p]
            assert step.entropy == pytest.approx(1.4, abs=1e-9)
            assert step.correction.final_l_aem < step.entropy

    def test_correction_is_local_to_its_step(self):
        # every step after a fired one must look exactly like the unmodified
        # model walked the same token history
        backend, length, positions = build_spike_backend(3)
        cfg = replace(spike_config(), max_tokens=length)
        trace = decode(backend, (0,), cfg)
        assert [s.position for s in trace.steps if s.trigger.fired] == positions
        for p in positions:
            nxt = trace.steps[p + 1]
            acts = backend.forward_prefix((0,) + trace.output[: p + 1])
            z = logits_at(backend.head, acts.last_hidden)
            assert nxt.entropy == pytest.approx(
                entropy_from_logits(z, 0.6), abs=1e-12)
            assert nxt.token == int(np.argmax(z))
            assert nxt.logprob == pytest.approx(
                float(log_softmax(z)[nxt.token]), abs=1e-12)

    def test_entropy_reduction_at_fired_steps(self):
        backend, length, positions = build_spike_backend(4)
        cfg = replace(spike_config(entropy_weight=1.0, steps=3,
                                   backtracking=True, loss_temperature=0.6),
                      max_tokens=length)
        trace = decode(backend, (0,), cfg)
        hit = 0
        for s in trace.steps:
            if not s.trigger.fired:
                continue
            hit += 1
            # trajectory starts at delta = 0: its entropy is the monitored one
            assert s.correction.trajectory[0].l_aem == pytest.approx(
                s.entropy, abs=1e-9)
            assert s.correction.final_l_aem <= s.entropy + 1e-12
        assert hit == len(positions)

    def test_aborted_correction_leaves_sampling_untouched(self):
        backend, length, _ = build_spike_backend(1)
        bad = replace(spike_config(loss_temperature=1e-320), max_tokens=length)
        trace = decode(backend, (0,), bad)
        base = decode(backend, (0,), replace(spike_config(), reflect=False,
                                             max_tokens=length))
        assert trace.output == base.output
        corr = [s.correction for s in trace.steps if s.correction is not None]
        assert len(corr) == 1
        assert corr[0].aborted and corr[0].delta_norm == 0.0
        assert trace.totals.inner_steps == 0

    def test_adaptive_weight_carries_across_activations(self):
        backend, length, positions = build_spike_backend(2)
        adaptive = AdaptiveWeightConfig(target=0.5, rate=0.3, min_weight=0.01,
                                        max_weight=0.9)
        cfg = replace(spike_config(entropy_weight=0.05, adaptive=adaptive),
                      max_tokens=length)
        trace = decode(backend, (0,), cfg)
        corr = [s.correction for s in trace.steps if s.correction is not None]
        assert len(corr) == 2
        assert corr[0].entropy_weight == 0.05
        refl = replace(cfg.reflection, entropy_weight=0.05)
        want = adapt_lambda(refl, corr[0].trajectory[-1].l_ce)
        assert corr[1].entropy_weight == pytest.approx(want, abs=1e-15)
        assert corr[1].entropy_weight != corr[0].entropy_weight

    @pytest.mark.parametrize("learning_rate", [0.01, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("spike", [[0.1, 0.3, -0.2], [0.0, 0.2, 0.1], [0.05, 0.06, 0.0]])
    def test_adaptive_weight_after_a_context_loss_near_zero(self, learning_rate, spike):
        # 30 confident steps, then a flat one that fires: the context loss
        # over the confident prefix (below 1e-20) rounds to within 1e-15 of 0
        # and must not reach adapt_lambda below 0, which would fail the decode
        backend = ScriptedBackend(3, by_position=[[0, -50, -50]] * 30 + [spike],
                                  fallback=[0, -50, -50])
        adaptive = AdaptiveWeightConfig(1.0, 0.5, 0.01, 0.9)
        cfg = DecodeConfig(sampling=GREEDY, max_tokens=35,
                           reflection=ReflectionConfig(steps=3, learning_rate=learning_rate,
                                                       adaptive=adaptive))
        trace = decode(backend, (0,), cfg)
        corr = [s.correction for s in trace.steps if s.correction is not None]
        assert corr and all(rep.l_ce >= 0.0 for c in corr for rep in c.trajectory)


class TestStepRecords:
    def test_logprob_matches_sampling_distribution(self):
        backend = uniform_markov(6)
        sampling = SamplingConfig(mode="temperature", temperature=0.5, top_p=1.0)
        trace = decode(backend, (1,), DecodeConfig(sampling=sampling,
                                                   max_tokens=10, seed=2))
        acts = backend.forward_prefix((1,))
        for s in trace.steps:
            z = logits_at(backend.head, acts.last_hidden)
            assert s.logprob == pytest.approx(
                float(log_softmax(z, 0.5)[s.token]), abs=1e-12)
            acts = backend.append_token(acts, s.token)

    def test_wall_times_are_recorded(self):
        trace = decode(uniform_markov(), (0,), DecodeConfig(max_tokens=5))
        assert trace.totals.wall_time > 0
        assert all(s.wall_time >= 0 for s in trace.steps)
        assert trace.totals.baseline_time is None
