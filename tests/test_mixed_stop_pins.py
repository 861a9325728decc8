"""Pinned corrections of row groups whose rows stop at different iterations.

optimize_rows keeps advancing a group while some of its rows have stopped:
they ran out of steps, stopped early, found no descending step, or aborted at
a gradient or at a backtracking trial. The digests were recorded with the
inner loop that copied the rows still descending into smaller arrays
whenever a row stopped, so they checked the way stopped rows are carried
along against an independent record. They were re-recorded when the context
loss became factorized; rows whose losses sit near 0 or 1e4 round
differently there, and one backtracking row takes three steps where it took
two (see CHANGES.md). Each test also checks that the seeded
groups still reach every ending of their mode and that most of them mix rows
that stop at different iterations.
"""

import hashlib
import math

import numpy as np

from pin_platform import where
from selfreflect import PrefixActivations, ProjectionHead, ReflectionConfig
from selfreflect.optimizer import optimize_rows

SCOPES = ("full-prefix", "generated-only", "last-1", "last-3")
# the platform these pins were recorded on (see pin_platform)
RECORDED_ON = "numpy 2.4.6, SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR, OpenBLAS SkylakeX"

BACKTRACKING_PIN = "d66f23bc9dd6a6d233b98445519cf6f6181bb428e6bf56704e0f551c872c8574"
PLAIN_PIN = "2fd5f2c70f10a2f8da4dfcfcd350ec2851832aeb857ca04d24d555db9c57fc78"


def ending(corr, config):
    """How a row's loop ended, and at which iteration (0: the start point):
    the iteration whose gradient or halving search stopped it. The pinned
    configs have no ridge term, so f_lambda is the descent objective."""
    last, k = corr.trajectory[-1], corr.steps_taken
    if corr.aborted:
        if all(map(math.isfinite, (last.l_ce, last.l_aem, last.grad_norm))):
            return "abort at a trial", k + 1
        return "abort at a gradient", k
    if k == config.steps:
        return "step budget", k
    if k and corr.trajectory[-2].f_lambda - last.f_lambda <= 1e-12:
        return "early stop", k
    return "no descent", k + 1


def mixed_groups(count, seed, backtracking):
    """Seeded groups of 3-6 rows sharing a head, a config and a |scope|
    length, cycling through four scopes. Rows differ in weight and
    hidden-state scale: zero states are stationary under pure sharpening, a
    NaN hidden state aborts its row when the losses read it, and huge
    learning rates overflow some rows' trials or gradients but not others'."""
    rng = np.random.default_rng(seed)
    pick = (lambda options: options[int(rng.integers(len(options)))])
    rates = [0.5, 3.0, 1e6, 1e306] if backtracking else [0.5, 1e306, 1e307, 4e307, 4e307]
    for g in range(count):
        dim, vocab, plen = int(rng.integers(2, 6)), int(rng.integers(3, 9)), int(rng.integers(4, 9))
        head = ProjectionHead(rng.standard_normal((vocab, dim)) * pick([1.0, 30.0, 300.0]))
        prompt_len = int(rng.integers(1, plen))
        config = ReflectionConfig(steps=int(rng.integers(3, 7)), learning_rate=pick(rates),
                                  loss_temperature=pick([1.0, 0.5]),
                                  ce_scope=SCOPES[g % len(SCOPES)], backtracking=backtracking,
                                  trust_radius=pick([None, None, 0.5]),
                                  grad_clip=pick([None, 0.5, 100.0]))
        rows, weights = [], []
        for _ in range(int(rng.integers(3, 7))):
            scale = pick([0.0, 1e-3, 1.0, 30.0, math.nan])
            hidden = (1.0 if math.isnan(scale) else scale) * rng.standard_normal((plen, dim))
            if math.isnan(scale):
                hidden[int(rng.integers(plen)), 0] = math.nan
            tokens = tuple(int(t) for t in rng.integers(0, vocab, size=plen))
            rows.append(PrefixActivations(tokens, list(hidden), "synthetic",
                                          prompt_len=prompt_len))
            weights.append(pick([0.0, 0.05, 0.3, 1.0, 1.0]))
        yield rows, head, config, weights


def corrected_groups(backtracking):
    """sha256 of every row's (delta bytes, steps_taken, aborted, trajectory
    repr), and each group's row endings."""
    digest, endings = hashlib.sha256(), []
    for rows, head, config, weights in mixed_groups(40, 2026 + backtracking, backtracking):
        corrections = optimize_rows(rows, head, config, weights)
        for corr in corrections:
            digest.update(repr((corr.delta.tobytes(), corr.steps_taken, corr.aborted,
                                repr(corr.trajectory))).encode())
        endings.append([ending(corr, config) for corr in corrections])
    return digest.hexdigest(), endings


def check(backtracking, pin, reasons):
    # runs under pyproject's error::RuntimeWarning filter, so a warning
    # leaking from a stopped row's evaluation fails the test
    digest, endings = corrected_groups(backtracking)
    assert {reason for group in endings for reason, _ in group} == reasons
    # most groups carry stopped rows beside rows still descending
    mixed = sum(len({at for _, at in group}) > 1 for group in endings)
    assert mixed > len(endings) // 2
    assert digest == pin, where(RECORDED_ON)


def test_backtracking_groups_pin():
    check(True, BACKTRACKING_PIN, {"step budget", "early stop", "no descent",
                                   "abort at a gradient", "abort at a trial"})


def test_plain_groups_pin():
    check(False, PLAIN_PIN, {"step budget", "abort at a gradient"})
