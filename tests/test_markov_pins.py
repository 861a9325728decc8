"""Pinned Markov decodes.

The digests are sha256 of the concatenated replay_form of every trace, recorded
while the decode loop still formed each Markov step's logits as the dense
product W @ one_hot(last token). MarkovBackend.step_logits now reads that
column of W directly; these pins check that the traces did not change.
"""

import hashlib
from dataclasses import replace

import numpy as np

from selfreflect import (DecodeConfig, MarkovBackend, ReflectionConfig, SamplingConfig,
                         TriggerConfig, corpus_backend, decode, gen_corpus, replay_form,
                         run_benchmark)
from selfreflect.engine import DecodeTrace, decode_batch

GREEDY = SamplingConfig(mode="greedy")

RECALL_PIN = "b7e0381a3ed5a10a09029fcbbb5227ec1960cb6d78cca4e157c2d479ef63bb27"
BATCH_PIN = "b6c30f19cc296e8be37c75be3631e0d4f8d083fa81ddb96fe493f85f6746a000"
LONG_PIN = "9c52ed190a8166b60a4b3fd136809480b15d297311b9297b486ac892c1fa6305"


def digest(traces):
    h = hashlib.sha256()
    for trace in traces:
        h.update(replay_form(trace).encode())
    return h.hexdigest()


def dirichlet_markov(vocab, seed, alpha=1.0, smoothing=1e-6):
    rng = np.random.default_rng(seed)
    return MarkovBackend(rng.dirichlet(np.full(vocab, alpha), size=vocab), smoothing=smoothing)


def recall_traces():
    """copy-recall benchmark rows at two difficulties, both arms, sampled at
    a temperature and nucleus other than the defaults."""
    traces = []
    for difficulty in (1, 2):
        backend = corpus_backend("copy-recall", difficulty=difficulty)
        tasks = gen_corpus("copy-recall", 3, 12, difficulty=difficulty)
        cfg = DecodeConfig(reflection=ReflectionConfig(backtracking=True),
                           sampling=SamplingConfig(temperature=0.9, top_p=0.9))
        for reflect in (True, False):
            result = run_benchmark(backend, tasks, cfg, 4, seeds=[11, 12, 13, 14],
                                   reflect=reflect)
            traces += [t for _, _, t in result.traces]
    return traces


def batch_traces():
    """One lock-step batch whose prompts have 1 to 40 tokens and whose rows
    stop at different steps, by EOS or by max_tokens."""
    backend = dirichlet_markov(40, 5, alpha=0.3, smoothing=1e-4)
    rng = np.random.default_rng(6)
    base = DecodeConfig(trigger=TriggerConfig(window_size=4, sensitivity=0.5),
                        reflection=ReflectionConfig(steps=2, ce_scope="last-8"),
                        sampling=SamplingConfig(temperature=1.1, top_p=0.95))
    runs = []
    for i, length in enumerate((1, 2, 5, 13, 40, 3, 21)):
        prompt = tuple(int(t) for t in rng.integers(0, 40, size=length))
        runs.append((prompt, replace(base, seed=100 + i, max_tokens=20 + 7 * i,
                                     eos_token=i if i % 2 else None)))
    traces = decode_batch(backend, runs)
    assert all(isinstance(t, DecodeTrace) for t in traces)
    return traces


def long_traces():
    """300-token greedy and temperature decodes on a 512-token Markov chain;
    the temperature decode also corrects its fired steps."""
    backend = dirichlet_markov(512, 0)
    greedy = DecodeConfig(sampling=GREEDY, reflect=False, max_tokens=300)
    sampled = DecodeConfig(trigger=TriggerConfig(window_size=8, sensitivity=1.0),
                           reflection=ReflectionConfig(steps=2, ce_scope="last-4"),
                           max_tokens=300, seed=9)
    return [decode(backend, (0,), greedy), decode(backend, (7, 3), sampled)]


def test_copy_recall_rows():
    traces = recall_traces()
    assert len(traces) == 2 * 2 * 12 * 4
    assert any(t.totals.n_activations for t in traces)
    assert digest(traces) == RECALL_PIN


def test_batch_of_different_prompt_lengths():
    traces = batch_traces()
    assert len({len(t.output) for t in traces}) > 1
    assert any(t.totals.n_activations for t in traces)
    assert digest(traces) == BATCH_PIN


def test_long_decodes_on_a_large_vocabulary():
    traces = long_traces()
    assert [len(t.output) for t in traces] == [300, 300]
    assert traces[1].totals.n_activations > 0
    assert digest(traces) == LONG_PIN
