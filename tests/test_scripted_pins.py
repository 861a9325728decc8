"""Pinned decodes on scripted spike backends, whose head is the identity.

The digests are sha256 of the concatenated replay_form of every trace,
recorded while every product with the identity head (the step logits, the
corrected logits, the context loss's base logits and the inner steps' W @ x
and W.T @ g) was still a dense matrix product. They check that the traces
did not change when those products became copies.
"""

import hashlib
from dataclasses import replace

from selfreflect import (AdaptiveWeightConfig, DecodeConfig, ReflectionConfig, SamplingConfig,
                         build_spike_backend, decode, replay_form)
from selfreflect.engine import DecodeTrace, decode_batch

SCOPES = ("full-prefix", "generated-only", "last-5")
PROMPT = (0, 5, 3)  # three tokens, so generated-only differs from full-prefix
PINS = {
    32: "89eea78173509ad5de8faf68509100927af71c34645ed95a54ea2a7dad3dede0",
    512: "41f5f317d80ac86a97416ae07c5d4607531f9497d6c4a5ffc7f4026076e5b6df",
}
BATCH_PIN = "25ab93a5d737fed7ae23fc6214c9726cc2b27eb241f67526fa2f993d8e61a4b6"


def digest(traces):
    h = hashlib.sha256()
    for trace in traces:
        h.update(replay_form(trace).encode())
    return h.hexdigest()


def spike_runs(vocab):
    """Both arms, every ce_scope plain and backtracking, and one adaptive run,
    sampled at a temperature other than the monitor's."""
    backend, length, _ = build_spike_backend(2, vocab_size=vocab)
    base = DecodeConfig(sampling=SamplingConfig(temperature=0.8, top_p=0.95),
                        max_tokens=length - len(PROMPT) + 1, seed=3)
    configs = [replace(base, reflect=False)]
    for scope in SCOPES:
        for backtracking, rate in ((False, 0.5), (True, 8.0)):  # 8.0 makes steps halve
            configs.append(replace(base, reflection=ReflectionConfig(
                steps=3, learning_rate=rate, ce_scope=scope, backtracking=backtracking)))
    adaptive = AdaptiveWeightConfig(target=0.5, rate=0.3, min_weight=0.01, max_weight=0.9)
    configs.append(replace(base, reflection=ReflectionConfig(
        steps=4, learning_rate=0.3, ce_scope="full-prefix", adaptive=adaptive)))
    return [decode(backend, PROMPT, config) for config in configs]


def test_spike_decodes_v32():
    traces = spike_runs(32)
    assert traces[0].totals.n_activations == 0
    assert all(t.totals.n_activations == 2 and t.totals.inner_steps for t in traces[1:])
    assert digest(traces) == PINS[32]


def test_spike_decodes_v512():
    traces = spike_runs(512)
    assert all(t.totals.n_activations == 2 for t in traces[1:])
    assert digest(traces) == PINS[512]


def test_spike_batch_corrects_rows_together():
    """Four seeds in lock-step: each spike step corrects the four rows as one
    group, so the corrected logits and the base logits come from row blocks."""
    backend, length, _ = build_spike_backend(2, vocab_size=64)
    config = DecodeConfig(reflection=ReflectionConfig(steps=3, learning_rate=8.0,
                                                      backtracking=True),
                          sampling=SamplingConfig(temperature=0.8, top_p=0.95),
                          max_tokens=length - len(PROMPT) + 1)
    traces = decode_batch(backend, [(PROMPT, replace(config, seed=s)) for s in range(4)])
    assert all(isinstance(t, DecodeTrace) and t.totals.n_activations == 2 for t in traces)
    assert digest(traces) == BATCH_PIN
