"""Pinned decodes on scripted spike backends, whose head is the identity.

The digests are sha256 of the concatenated replay_form of every trace,
recorded while every product with the identity head (the step logits, the
corrected logits, the context loss's base logits and the inner steps' W @ x
and W.T @ g) was still a dense matrix product. They checked that the traces
did not change when those products became copies. They were re-recorded
when the inner loop's context loss became factorized: the floats moved by
rounding only, and BATCH_PIN's one changed token is a draw between two
tokens of exactly equal probability (see CHANGES.md).
"""

import hashlib
from dataclasses import replace

from pin_platform import where
from selfreflect import (AdaptiveWeightConfig, DecodeConfig, ReflectionConfig, SamplingConfig,
                         build_spike_backend, decode, replay_form)
from selfreflect.engine import DecodeTrace, decode_batch

SCOPES = ("full-prefix", "generated-only", "last-5")
PROMPT = (0, 5, 3)  # three tokens, so generated-only differs from full-prefix
# the platform these pins were recorded on (see pin_platform)
RECORDED_ON = "numpy 2.4.6, SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR, OpenBLAS SkylakeX"

PINS = {
    32: "a277a7e552a06074e1349641dbcdf2fd48d709df3d141953d791587b99c45197",
    512: "35c201035365d01a0370824a90c45a501d5b5f3ab2835f782982e08c37a8ec2d",
}
BATCH_PIN = "17e4bd018d5ba584e7648c930e6d15bc56b93e3f10cae52a303f2e9d4c3af9de"


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
    assert digest(traces) == PINS[32], where(RECORDED_ON)


def test_spike_decodes_v512():
    traces = spike_runs(512)
    assert all(t.totals.n_activations == 2 for t in traces[1:])
    assert digest(traces) == PINS[512], where(RECORDED_ON)


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
    assert digest(traces) == BATCH_PIN, where(RECORDED_ON)
