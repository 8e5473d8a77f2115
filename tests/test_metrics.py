import numpy as np
import pytest

from protoreg.grids import LabelVolume
from protoreg.metrics import dsc, evaluate
from protoreg.warp import DisplacementField


def labels_of(data, k):
    data = np.asarray(data, np.int32)
    return LabelVolume(data.shape, (1, 1, 1), data, k)


def test_dsc_identical():
    data = np.zeros((4, 4, 4), np.int32)
    data[1:3, 1:3, 1:3] = 1
    lv = labels_of(data, 1)
    assert dsc(lv, lv, 1) == 1.0


def test_dsc_disjoint_equal_size():
    a = np.zeros((4, 4, 4), np.int32)
    b = np.zeros((4, 4, 4), np.int32)
    a[0, 0, :2] = 1
    b[3, 3, :2] = 1
    assert dsc(labels_of(a, 1), labels_of(b, 1), 1) == 0.0


def test_dsc_partial_overlap_counting():
    a = np.zeros((4, 4, 4), np.int32)
    b = np.zeros((4, 4, 4), np.int32)
    a[0, 0, 0:4] = 1          # |A| = 4
    b[0, 0, 2:4] = 1
    b[0, 1, 0:2] = 1          # |B| = 4, |A ∩ B| = 2
    assert dsc(labels_of(a, 1), labels_of(b, 1), 1) == pytest.approx(0.5)


def test_dsc_absent_class_is_none():
    empty = labels_of(np.zeros((3, 3, 3)), 2)
    assert dsc(empty, empty, 1) is None


def test_dsc_symmetric():
    rng = np.random.default_rng(1)
    a = labels_of(rng.integers(0, 3, (5, 5, 5)), 2)
    b = labels_of(rng.integers(0, 3, (5, 5, 5)), 2)
    assert dsc(a, b, 2) == dsc(b, a, 2)


def test_evaluate_identity():
    data = np.zeros((5, 5, 5), np.int32)
    data[1:3, 1:3, 1:3] = 1
    data[3:5, 3:5, 3:5] = 2
    lv = labels_of(data, 2)
    rep = evaluate(lv, lv, DisplacementField.zeros((5, 5, 5)))
    assert rep.per_class == (1.0, 1.0)
    assert rep.avg_dsc == 1.0
    assert rep.sdlogj == 0.0
    assert rep.sdlogj_excluded == 0


def test_evaluate_matches_scripted_recount():
    rng = np.random.default_rng(2)
    a = labels_of(rng.integers(0, 4, (6, 6, 6)), 3)
    b = labels_of(rng.integers(0, 4, (6, 6, 6)), 3)
    rep = evaluate(a, b, None)
    # independent recount
    vals = []
    for c in range(1, 4):
        sa = a.labels == c
        sb = b.labels == c
        if not sa.any() and not sb.any():
            continue
        vals.append(2 * np.logical_and(sa, sb).sum() / (sa.sum() + sb.sum()))
    assert rep.avg_dsc == pytest.approx(float(np.mean(vals)), rel=1e-12)
