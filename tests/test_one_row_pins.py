"""Pinned outputs of the one-row softmax, log-softmax, entropy, trigger and
sampling math.

The digests were recorded with the standalone one-row functions that came
before the shared row code, so they check the one-row case against an
independent record rather than against the code the engine also runs.
"""

import hashlib
import math

import numpy as np

from pin_platform import where
from selfreflect import (EntropyWindow, SamplingConfig, TriggerConfig, entropy_from_logits,
                         log_softmax, sample, should_trigger, softmax)

# the platform these pins were recorded on (see pin_platform)
RECORDED_ON = "numpy 2.4.6, SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR, OpenBLAS SkylakeX"

SOFTMAX_PIN = "243e7b5c90ee8b71e9d1ce0da61f6aa6aeee855152f6c8115ec7d97b2483583f"
LOG_SOFTMAX_PIN = "0287929c1bc87cb616d460596a1eaca817dd4beb320d9d0a57ec11da55cb00de"
ENTROPY_PIN = "04ac6f32516d29a816c7fbd0fdbd9177ddcbc9662ab395761b75725af755a325"
TRIGGER_PIN = "15792520a9967ae36df901e2c468e9e8436f9e3a929563ddf2d23598fc82ddb3"
SAMPLE_PIN = "d5657e614464fdbbb1c0bdc52ec013189a6274460fbdf52a27b9261cb645de32"


def logit_cases():
    """Seeded logit vectors and temperatures: several scales, some -inf
    entries, and the degenerate rows (all -inf, a +inf, a NaN)."""
    rng = np.random.default_rng(2024)
    for vocab in (2, 5, 7, 8, 9, 33, 1024):
        for temperature in (0.3, 0.6, 1.0, 2.0):
            for scale in (0.1, 1.0, 8.0):
                yield rng.standard_normal(vocab) * scale, temperature
            z = rng.standard_normal(vocab) * 3.0
            z[rng.choice(vocab, size=max(1, vocab // 3), replace=False)] = -math.inf
            yield z, temperature
        for bad in (-math.inf, math.inf, math.nan):
            z = np.full(vocab, -math.inf) if bad == -math.inf else rng.standard_normal(vocab)
            z[rng.integers(vocab)] = bad
            yield z, 1.0


def sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def test_softmax_pin():
    assert sha(softmax(z, t).tobytes() for z, t in logit_cases()) == SOFTMAX_PIN, where(RECORDED_ON)


def test_log_softmax_pin():
    assert sha(log_softmax(z, t).tobytes() for z, t in logit_cases()) == LOG_SOFTMAX_PIN, where(RECORDED_ON)


def test_entropy_from_logits_pin():
    assert sha(repr(entropy_from_logits(z, t)).encode() for z, t in logit_cases()) == ENTROPY_PIN, where(RECORDED_ON)


def trigger_decisions():
    """repr of every should_trigger decision and window state while seeded
    windows fill, wrap around and get probed at their own thresholds."""
    rng = np.random.default_rng(7)
    for size in (2, 3, 4, 8, 9, 16, 25, 40):
        for sensitivity in (0.0, 0.5, 1.5, 4.0):
            config = TriggerConfig(window_size=size, sensitivity=sensitivity)
            window = EntropyWindow(size)
            for _ in range(2 * size + 3):
                value = float(rng.exponential() * rng.choice([1e-3, 1.0, 5.0]))
                d = should_trigger(window, value, config)
                yield repr((d.entropy, d.mean, d.std, d.threshold, d.fired, d.window_full,
                            len(window), window.values()))
                if d.window_full:
                    edge = should_trigger(window, d.threshold, config)
                    yield repr((edge.threshold, edge.fired))
                window.observe(value)


def test_should_trigger_pin():
    assert sha(line.encode() for line in trigger_decisions()) == TRIGGER_PIN, where(RECORDED_ON)


SAMPLING_MODES = (SamplingConfig(mode="greedy"),) + tuple(
    SamplingConfig(temperature=t, top_p=p)
    for t, p in ((0.3, 0.5), (0.6, 0.95), (1.0, 1.0), (2.0, 0.2), (1.0, 0.999999)))


def sample_draws():
    """repr of three sample() tokens per seeded logit vector and sampling
    mode, then of the next draw of their generator, which shows how much
    randomness the three consumed. The vectors have several scales, -inf
    entries, ties among a few levels and all-equal entries."""
    rng = np.random.default_rng(2025)
    seed = 0
    for vocab in (2, 3, 5, 8, 9, 33, 1024):
        cases = [rng.standard_normal(vocab) * scale for scale in (0.1, 1.0, 8.0)]
        z = rng.standard_normal(vocab) * 3.0
        z[rng.choice(vocab, size=max(1, vocab // 3), replace=False)] = -math.inf
        cases += [z, rng.integers(0, 3, size=vocab).astype(np.float64), np.zeros(vocab)]
        for z in cases:
            for mode in SAMPLING_MODES:
                draws = np.random.default_rng(seed)
                seed += 1
                for _ in range(3):
                    yield repr(sample(z, mode, draws))
                yield repr(draws.random())


def test_sample_pin():
    assert sha(line.encode() for line in sample_draws()) == SAMPLE_PIN, where(RECORDED_ON)
