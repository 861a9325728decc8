"""Trigger rule unit suite: window statistics, firing decisions, edge cases."""

import math

import numpy as np
import pytest

from selfreflect import EntropyWindow, InputError, TriggerConfig, should_trigger


def filled_window(values, capacity=None):
    win = EntropyWindow(capacity or len(values))
    for v in values:
        win.observe(v)
    return win


class TestWindow:
    def test_empty_stats_are_nan(self):
        win = EntropyWindow(4)
        assert math.isnan(win.mean()) and math.isnan(win.std())

    def test_population_std(self):
        win = filled_window([1.0, 2.0, 3.0, 4.0])
        assert win.mean() == 2.5
        assert win.std() == pytest.approx(1.118033988749895, abs=1e-15)

    def test_ring_eviction(self):
        win = filled_window([10.0, 1.0, 1.0, 1.0])
        win.observe(1.0)  # evicts the 10
        assert win.mean() == 1.0 and win.std() == 0.0

    def test_rejects_bad_observations(self):
        win = EntropyWindow(3)
        with pytest.raises(InputError):
            win.observe(float("nan"))
        with pytest.raises(InputError):
            win.observe(-0.1)

    def test_capacity_validated(self):
        with pytest.raises(InputError):
            EntropyWindow(0)


class TestTrigger:
    def test_zero_variance_fires(self):
        # window [1,1,1,1]: mean 1, std 0, so any exceedance fires at any k
        win = filled_window([1.0] * 4)
        cfg = TriggerConfig(window_size=4, sensitivity=0.0)
        d = should_trigger(win, 1.5, cfg)
        assert d.fired and d.threshold == 1.0
        assert should_trigger(win, 1.5, TriggerConfig(window_size=4,
                                                      sensitivity=100.0)).fired

    def test_boundary_equality_does_not_fire(self):
        win = filled_window([1.0] * 4)
        cfg = TriggerConfig(window_size=4, sensitivity=0.0)
        assert not should_trigger(win, 1.0, cfg).fired  # strict >

    def test_arithmetic_oracle(self):
        win = filled_window([1.0, 2.0, 3.0, 4.0])
        cfg = TriggerConfig(window_size=4, sensitivity=1.0)
        d = should_trigger(win, 3.7, cfg)
        assert d.threshold == pytest.approx(3.618033988749895, abs=1e-12)
        assert d.fired
        assert not should_trigger(win, 3.5, cfg).fired

    def test_partial_window_never_fires(self):
        win = EntropyWindow(25)
        for _ in range(10):
            win.observe(0.5)
        d = should_trigger(win, 99.0, TriggerConfig())
        assert not d.fired and not d.window_full

    def test_consultation_does_not_insert(self):
        win = filled_window([1.0] * 4)
        before = (win.mean(), win.std(), len(win))
        should_trigger(win, 42.0, TriggerConfig(window_size=4))
        assert (win.mean(), win.std(), len(win)) == before

    def test_rejects_non_finite_entropy(self):
        win = filled_window([1.0] * 4)
        with pytest.raises(InputError):
            should_trigger(win, float("inf"), TriggerConfig(window_size=4))

    def test_monotone_sensitivity(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            values = rng.uniform(0.0, 3.0, size=6)
            win = filled_window(list(values))
            h = float(rng.uniform(0.0, 6.0))
            k2 = float(rng.uniform(0.0, 5.0))
            k1 = float(rng.uniform(0.0, k2)) if k2 > 0 else 0.0
            fired2 = should_trigger(win, h, TriggerConfig(window_size=6,
                                                          sensitivity=k2)).fired
            fired1 = should_trigger(win, h, TriggerConfig(window_size=6,
                                                          sensitivity=k1)).fired
            if fired2:
                assert fired1

    def test_scale_equivariance(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            values = list(rng.uniform(0.1, 2.0, size=5))
            h = float(rng.uniform(0.0, 4.0))
            k = float(rng.uniform(0.0, 3.0))
            c = float(rng.uniform(0.1, 10.0))
            cfg = TriggerConfig(window_size=5, sensitivity=k)
            plain = should_trigger(filled_window(values), h, cfg).fired
            scaled = should_trigger(filled_window([c * v for v in values]),
                                    c * h, cfg).fired
            assert plain == scaled

    def test_config_validation(self):
        with pytest.raises(InputError):
            TriggerConfig(window_size=0)
        with pytest.raises(InputError):
            TriggerConfig(sensitivity=-1.0)
        with pytest.raises(InputError):
            TriggerConfig(temperature=0.0)
