"""Confusion-matrix semantics and IoU aggregation."""

import numpy as np
import pytest

from seglift.core import ClassMap
from seglift.errors import EmptyMatrix, SizeMismatch
from seglift.evaluation import ConfusionMatrix, accumulate, iou, report

CM3 = ClassMap(["unlabeled", "a", "b"])


def arr(*values):
    return np.array(values, dtype=np.uint16)


class TestAccumulate:
    def test_perfect_prediction_is_diagonal(self):
        m = accumulate(arr(1, 2, 1), arr(1, 2, 1), 3)
        np.testing.assert_array_equal(np.diag(np.diag(m.counts)), m.counts)
        assert m.total == 3

    def test_ignored_gt_excluded(self):
        m = accumulate(arr(0, 0, 0), arr(1, 2, 1), 3)
        assert m.total == 0

    def test_small_example(self):
        m = accumulate(arr(1, 1, 2), arr(1, 2, 2), 3)
        assert m.counts[1, 1] == 1 and m.counts[1, 2] == 1 and m.counts[2, 2] == 1

    def test_mask_restricts_counting(self):
        m = accumulate(arr(1, 1), arr(1, 2), 3, mask=np.array([True, False]))
        assert m.total == 1 and m.counts[1, 1] == 1

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            accumulate(arr(1, 2), arr(1), 3)

    def test_associative_accumulation(self):
        rng = np.random.default_rng(0)
        gt = rng.integers(0, 4, 500).astype(np.uint16)
        pred = rng.integers(0, 4, 500).astype(np.uint16)
        whole = accumulate(gt, pred, 4)
        parts = accumulate(gt[:200], pred[:200], 4).merge(accumulate(gt[200:], pred[200:], 4))
        np.testing.assert_array_equal(whole.counts, parts.counts)

    def test_updates_leave_the_given_counts_alone(self):
        counts = np.arange(9, dtype=np.int64).reshape(3, 3)
        m = ConfusionMatrix(3, counts).update(arr(1, 2), arr(2, 2))
        np.testing.assert_array_equal(counts, np.arange(9).reshape(3, 3))
        assert m.counts[1, 2] == counts[1, 2] + 1 and m.counts[2, 2] == counts[2, 2] + 1


class TestIou:
    def test_perfect_two_classes(self):
        _, miou = iou(accumulate(arr(1, 2), arr(1, 2), 3))
        assert miou == 1.0

    def test_half_half_collapse(self):
        # gt half a, half b; prediction says a everywhere.
        per_class, miou = iou(accumulate(arr(1, 2), arr(1, 1), 3))
        assert per_class[1] == 0.5 and per_class[2] == 0.0
        assert miou == 0.25

    def test_crossed_example(self):
        # gt [a, a, b], pred [a, b, b]: IoU_a = IoU_b = 0.5
        per_class, miou = iou(accumulate(arr(1, 1, 2), arr(1, 2, 2), 3))
        assert per_class[1] == 0.5 and per_class[2] == 0.5 and miou == 0.5

    def test_absent_class_excluded_from_mean(self):
        per_class, miou = iou(accumulate(arr(1, 1), arr(1, 1), 3))
        assert np.isnan(per_class[2])
        assert miou == 1.0

    def test_predicting_ignore_counts_as_false_negative(self):
        per_class, _ = iou(accumulate(arr(1, 1), arr(1, 0), 3))
        assert per_class[1] == 0.5

    def test_empty_matrix(self):
        with pytest.raises(EmptyMatrix):
            iou(ConfusionMatrix(3))

    def test_bounds_and_relabeling_invariance(self):
        rng = np.random.default_rng(1)
        gt = rng.integers(0, 5, 1000).astype(np.uint16)
        pred = rng.integers(0, 5, 1000).astype(np.uint16)
        per_class, miou = iou(accumulate(gt, pred, 5))
        valid = per_class[~np.isnan(per_class)]
        assert np.all((valid >= 0) & (valid <= 1)) and 0 <= miou <= 1

        # swap real class ids 1 and 2 consistently in gt and pred
        swap = np.array([0, 2, 1, 3, 4], dtype=np.uint16)
        per_swapped, miou_swapped = iou(accumulate(swap[gt], swap[pred], 5))
        assert miou_swapped == miou
        np.testing.assert_array_equal(per_swapped[[2, 1, 3, 4]], per_class[[1, 2, 3, 4]])


class TestReport:
    def test_single_matrix_equals_iou(self):
        m = accumulate(arr(1, 1, 2), arr(1, 2, 2), 3)
        rep = report(m, CM3)
        assert rep.miou == iou(m)[1]

    def test_duplicated_scan_leaves_miou_unchanged(self):
        m = accumulate(arr(1, 1, 2), arr(1, 2, 2), 3)
        twice = ConfusionMatrix(3, m.counts).merge(m)
        assert report(twice, CM3).miou == report(m, CM3).miou

    def test_summed_matrix_differs_from_mean_of_scans(self):
        # scan 1: one a point, correct.  scan 2: 99 a points, 1 correct.
        s1 = accumulate(arr(1), arr(1), 3)
        s2 = accumulate(np.full(99, 1, np.uint16),
                        np.concatenate([arr(1), np.full(98, 2, np.uint16)]), 3)
        pooled = report(ConfusionMatrix(3, s1.counts).merge(s2), CM3).miou
        mean_of_scans = (iou(s1)[1] + iou(s2)[1]) / 2.0
        assert pooled != pytest.approx(mean_of_scans)

    def test_csv_format(self):
        m = accumulate(arr(1, 1, 2), arr(1, 2, 2), 3)
        csv = report(m, CM3).to_csv()
        assert csv.strip().splitlines() == ["1,a,0.500000", "2,b,0.500000", "mIoU,0.500000"]
