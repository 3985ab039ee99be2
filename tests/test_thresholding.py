"""Histogram accumulation and the confidence-threshold rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import class_thresholds_scalar
from seglift.errors import EmptyHistogram, NonFiniteValue, SizeMismatch, UnknownClassError
from seglift.thresholding import (
    ThresholdConfig,
    apply_threshold,
    class_thresholds,
    histogram,
    static_thresholds,
)


class TestThresholdConfig:
    def test_valid(self):
        cfg = ThresholdConfig(0.5, 0.95)
        assert cfg.mode == "class_balanced"

    @pytest.mark.parametrize("tau", [0.80, 0.85, 0.90, 0.95])
    def test_static_grid_values_accepted(self, tau):
        cfg = ThresholdConfig.static(tau)
        assert cfg.tau_min == cfg.tau_max == tau

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            ThresholdConfig(0.9, 0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ThresholdConfig(-0.1, 0.5)


class TestHistogram:
    def test_empty_corpus(self):
        assert histogram([], 4).tolist() == [0, 0, 0, 0]

    def test_small_example(self):
        counts = histogram([np.array([1, 1, 2])], 4)
        assert counts.tolist() == [0, 2, 1, 0]

    def test_additivity(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 6, 100)
        b = rng.integers(0, 6, 57)
        together = histogram([np.concatenate([a, b])], 6)
        separate = histogram([a], 6) + histogram([b], 6)
        np.testing.assert_array_equal(together, separate)

    def test_unknown_class(self):
        with pytest.raises(UnknownClassError):
            histogram([np.array([0, 7])], 4)


class TestClassThresholds:
    def test_majority_class_gets_tau_max(self):
        taus = class_thresholds(np.array([0, 100, 50]), ThresholdConfig(0.5, 0.95))
        assert taus[1] == 0.95

    def test_zero_count_class_gets_tau_min(self):
        taus = class_thresholds(np.array([0, 100, 0]), ThresholdConfig(0.5, 0.95))
        assert taus[2] == 0.5

    def test_half_ratio_value(self):
        # counts {A: 100, B: 50}: tau_B = 0.5 * 0.45 + 0.5 = 0.725
        taus = class_thresholds(np.array([0, 100, 50]), ThresholdConfig(0.5, 0.95))
        np.testing.assert_allclose(taus[2], 0.725, atol=1e-12)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            c = int(rng.integers(2, 12))
            counts = rng.integers(0, 10_000, c)
            counts[1 + int(rng.integers(0, c - 1))] += 1  # at least one real count
            lo = rng.uniform(0.0, 0.9)
            hi = rng.uniform(lo, 1.0)
            taus = class_thresholds(counts, ThresholdConfig(lo, hi))
            ref = class_thresholds_scalar(counts.tolist(), lo, hi)
            np.testing.assert_allclose(taus, ref, atol=1e-12, rtol=0)

    def test_bounds_and_monotonicity(self):
        rng = np.random.default_rng(2)
        counts = rng.integers(0, 500, 8)
        counts[1] += 1
        cfg = ThresholdConfig(0.4, 0.9)
        taus = class_thresholds(counts, cfg)
        assert np.all((taus >= 0.4) & (taus <= 0.9))
        order = np.argsort(counts[1:]) + 1
        assert np.all(np.diff(taus[order]) >= 0)

    def test_empty_histogram(self):
        with pytest.raises(EmptyHistogram):
            class_thresholds(np.array([50, 0, 0]), ThresholdConfig(0.5, 0.95))

    def test_degenerate_equals_static(self):
        counts = np.array([0, 10, 3, 7])
        balanced = class_thresholds(counts, ThresholdConfig(0.9, 0.9))
        static = static_thresholds(ThresholdConfig.static(0.9), 4)
        np.testing.assert_array_equal(balanced, static)


class TestApplyThreshold:
    def test_full_confidence_keeps_everything(self):
        labels = np.array([1, 2, 3], dtype=np.uint16)
        out, reduction = apply_threshold(labels, np.ones(3), np.full(4, 0.9))
        np.testing.assert_array_equal(out, labels)
        assert reduction == 0.0

    def test_boundary_confidence_is_kept(self):
        labels = np.array([1], dtype=np.uint16)
        out, reduction = apply_threshold(labels, np.array([0.9]), np.array([0.0, 0.9]))
        assert out.tolist() == [1] and reduction == 0.0

    def test_mixed_example(self):
        # labels [A, B], conf [0.9, 0.6], tau_A = 0.95, tau_B = 0.5
        labels = np.array([1, 2], dtype=np.uint16)
        out, reduction = apply_threshold(labels, np.array([0.9, 0.6]),
                                         np.array([0.0, 0.95, 0.5]))
        assert out.tolist() == [0, 2]
        assert reduction == 0.5

    def test_zero_tau_removes_nothing(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 4, 100).astype(np.uint16)
        out, reduction = apply_threshold(labels, rng.uniform(0, 1, 100), np.zeros(4))
        np.testing.assert_array_equal(out, labels)
        assert reduction == 0.0

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 5, 300).astype(np.uint16)
        conf = rng.uniform(0, 1, 300)
        taus = rng.uniform(0.2, 0.9, 5)
        once, _ = apply_threshold(labels, conf, taus)
        twice, again = apply_threshold(once, conf, taus)
        np.testing.assert_array_equal(once, twice)
        assert again == 0.0

    def test_ignored_points_not_in_denominator(self):
        labels = np.array([0, 0, 1, 1], dtype=np.uint16)
        out, reduction = apply_threshold(labels, np.array([0.0, 0.0, 0.1, 0.99]),
                                         np.array([1.0, 0.5]))
        assert out.tolist() == [0, 0, 0, 1]
        assert reduction == 0.5  # 1 removed / 2 labeled, ignores excluded

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            apply_threshold(np.array([1, 2]), np.array([0.5]), np.array([0.5, 0.5, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_confidence_rejected(self, bad):
        with pytest.raises(NonFiniteValue):
            apply_threshold(np.array([1, 2]), np.array([bad, 0.5]), np.full(3, 0.9))

    def test_raising_tau_min_never_reduces_removal(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 6, 1000).astype(np.uint16)
        conf = rng.uniform(0, 1, 1000)
        counts = histogram([labels], 6)
        last = -1.0
        for tau_min in (0.3, 0.5, 0.7, 0.9):
            taus = class_thresholds(counts, ThresholdConfig(tau_min, 0.95))
            _, reduction = apply_threshold(labels, conf, taus)
            assert reduction >= last
            last = reduction


_UNIT = st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 60).flatmap(lambda n: st.tuples(
           arrays(np.uint16, n, elements=st.integers(0, 4)),
           arrays(np.float64, n, elements=_UNIT))),
       st.lists(_UNIT, min_size=2, max_size=6))
def test_static_removed_fraction_never_falls_as_tau_rises(scan, taus):
    labels, conf = scan
    outs = [apply_threshold(labels, conf, static_thresholds(ThresholdConfig.static(tau), 5))
            for tau in sorted(taus)]
    for (lo, lo_red), (hi, hi_red) in zip(outs, outs[1:]):
        assert lo_red <= hi_red
        assert not ((hi != 0) & (lo == 0)).any()  # a higher tau keeps a subset
