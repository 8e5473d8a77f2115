import numpy as np
import pytest

from protoreg.grids import DimsMismatchError, LabelVolume
from protoreg.metrics import evaluate
from protoreg.warp import DisplacementField


def labels_of(data, k):
    data = np.asarray(data, np.int32)
    return LabelVolume(data.shape, (1, 1, 1), data, k)


def test_dsc_identical():
    data = np.zeros((4, 4, 4), np.int32)
    data[1:3, 1:3, 1:3] = 1
    lv = labels_of(data, 1)
    assert evaluate(lv, lv).per_class == (1.0,)


def test_dsc_disjoint_equal_size():
    a = np.zeros((4, 4, 4), np.int32)
    b = np.zeros((4, 4, 4), np.int32)
    a[0, 0, :2] = 1
    b[3, 3, :2] = 1
    assert evaluate(labels_of(a, 1), labels_of(b, 1)).per_class == (0.0,)


def test_dsc_partial_overlap_counting():
    a = np.zeros((4, 4, 4), np.int32)
    b = np.zeros((4, 4, 4), np.int32)
    a[0, 0, 0:4] = 1          # |A| = 4
    b[0, 0, 2:4] = 1
    b[0, 1, 0:2] = 1          # |B| = 4, |A ∩ B| = 2
    assert evaluate(labels_of(a, 1), labels_of(b, 1)).per_class[0] == pytest.approx(0.5)


def test_dsc_absent_class_is_none():
    empty = labels_of(np.zeros((3, 3, 3)), 2)
    assert evaluate(empty, empty).per_class[0] is None


def test_dsc_symmetric():
    rng = np.random.default_rng(1)
    a = labels_of(rng.integers(0, 3, (5, 5, 5)), 2)
    b = labels_of(rng.integers(0, 3, (5, 5, 5)), 2)
    assert evaluate(a, b).per_class[1] == evaluate(b, a).per_class[1]


def test_evaluate_rejects_a_field_on_another_grid():
    lv = labels_of(np.ones((4, 4, 4)), 1)
    with pytest.raises(DimsMismatchError, match="field"):
        evaluate(lv, lv, DisplacementField.zeros((5, 5, 5)))


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
