import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

import oracles
from protoreg.grids import (
    LabelVolume,
    Volume,
    argmax_labels,
    build_pyramid,
    downsample,
    one_hot,
)
from protoreg.warp import DisplacementField


def make_labels(data, k):
    data = np.asarray(data)
    return LabelVolume(data.shape, (1, 1, 1), data, k)


def test_one_hot_all_background():
    lv = make_labels(np.zeros((3, 3, 3), np.int32), 2)
    oh = one_hot(lv)
    assert oh.num_classes == 2
    assert not oracles.dense_channels(oh).any()


def test_one_hot_single_voxel():
    labels = np.zeros((3, 3, 3), np.int32)
    labels[1, 2, 0] = 2
    channels = oracles.dense_channels(one_hot(make_labels(labels, 3)))
    assert channels[1].sum() == 1.0
    assert channels[1][1, 2, 0] == 1.0
    assert not channels[0].any() and not channels[2].any()


def test_one_hot_channel_sums_match_foreground():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 4, size=(4, 4, 4))
    channels = oracles.dense_channels(one_hot(make_labels(labels, 3)))
    # oracle: enumerate voxels directly
    for idx in np.ndindex(4, 4, 4):
        expected = 1.0 if labels[idx] > 0 else 0.0
        assert channels[(slice(None),) + idx].sum() == expected


def test_one_hot_argmax_roundtrip():
    rng = np.random.default_rng(11)
    labels = rng.integers(0, 5, size=(5, 4, 3))
    lv = make_labels(labels, 4)
    back = argmax_labels(one_hot(lv))
    assert np.array_equal(back.labels, lv.labels)


def test_downsample_constant():
    vol = Volume((4, 4, 4), (1, 1, 1), np.full((4, 4, 4), 2.75))
    out = downsample(vol)
    assert out.dims == (2, 2, 2)
    assert np.allclose(out.data, 2.75)


def test_downsample_2x2x2_mean():
    vol = Volume((2, 2, 2), (1, 1, 1), np.arange(8, dtype=float).reshape(2, 2, 2))
    out = downsample(vol)
    assert out.dims == (1, 1, 1)
    assert out.data[0, 0, 0] == pytest.approx(3.5)


def test_downsample_odd_axis():
    data = np.arange(12, dtype=float).reshape(3, 2, 2)
    out = downsample(Volume((3, 2, 2), (1, 1, 1), data))
    assert out.dims == (2, 1, 1)
    # first output voxel covers the 2x2x2 corner block
    assert out.data[0, 0, 0] == pytest.approx(data[:2, :2, :2].mean())
    # trailing slab of size 1 along x
    assert out.data[1, 0, 0] == pytest.approx(data[2, :2, :2].mean())


def test_downsample_preserves_mean_even_dims():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(8, 6, 4))
    out = downsample(Volume(data.shape, (1, 1, 1), data))
    assert abs(out.data.mean() - data.mean()) < 1e-6 * max(1.0, abs(data.mean()))


def test_downsample_size1_axis_passthrough():
    data = np.arange(8, dtype=float).reshape(4, 2, 1)
    out = downsample(Volume((4, 2, 1), (1, 1, 1), data))
    assert out.dims == (2, 1, 1)


def test_downsample_onehot_goes_soft():
    labels = np.zeros((4, 4, 4), np.int32)
    labels[0, 0, 0] = 1
    oh = one_hot(make_labels(labels, 1))
    down = downsample(oh)
    assert down.dims == (2, 2, 2)
    assert oracles.dense_channels(down)[0][0, 0, 0] == pytest.approx(1 / 8)


def test_pyramid_dims_16():
    vol = Volume((16, 16, 16), (1, 1, 1), np.zeros((16, 16, 16)))
    pyr = build_pyramid(vol, 4)
    assert [lvl.dims for lvl in pyr] == [(16,) * 3, (8,) * 3, (4,) * 3, (2,) * 3]


def test_pyramid_dims_160():
    vol = Volume((160, 160, 160), (2, 2, 2), np.zeros((160,) * 3, dtype=np.float32))
    pyr = build_pyramid(vol, 4)
    assert [lvl.dims for lvl in pyr] == [(160,) * 3, (80,) * 3, (40,) * 3, (20,) * 3]


def test_pyramid_rejects_too_many_levels():
    vol = Volume((16, 16, 16), (1, 1, 1), np.zeros((16, 16, 16)))
    with pytest.raises(ValueError):
        build_pyramid(vol, 5)


def test_pyramid_ceil_halving_invariant():
    vol = Volume((11, 7, 5), (1, 1, 1), np.zeros((11, 7, 5)))
    pyr = build_pyramid(vol, 2)
    assert pyr[1].dims == (6, 4, 3)


def test_volume_validation():
    with pytest.raises(ValueError):
        Volume((2, 2, 2), (1, 1, 1), np.zeros((2, 2, 3)))
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="spacing"):
            Volume((2, 2, 2), (1, bad, 1), np.zeros((2, 2, 2)))
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        Volume((2, 2, 2), (1, 1, 1), bad)


def test_grids_hold_c_ordered_arrays():
    # a C-ordered array of the grid's dtype is kept; any other is copied to C order
    data = np.arange(24.0).reshape(2, 3, 4)
    assert Volume(data.shape, (1, 1, 1), data).data is data
    fortran, field = np.asfortranarray(data), np.stack([data] * 3)
    arrays = [Volume(data.shape, (1, 1, 1), fortran).data,
              LabelVolume(data.shape, (1, 1, 1), fortran % 3, 2).labels,
              DisplacementField(data.shape, (1, 1, 1), np.asfortranarray(field)).u]
    for array, want in zip(arrays, (data, data % 3, field)):
        assert array.flags.c_contiguous and np.array_equal(array, want)


def test_label_volume_range_check():
    with pytest.raises(ValueError):
        make_labels(np.full((2, 2, 2), 5, np.int32), 3)
    # checked before the narrowing: 256 would wrap to 0 in uint8, -1 to 255
    for label, num_classes in [(256, 255), (-1, 255), (-1, 3), (65536, 300)]:
        for given in (np.int32, np.float64):
            with pytest.raises(ValueError, match="labels must lie in"):
                make_labels(np.array([0, label], given).reshape(2, 1, 1), num_classes)
    with pytest.raises(ValueError, match="spacing"):
        LabelVolume((2, 2, 2), (1, 1, np.nan), np.zeros((2, 2, 2)), 1)


@pytest.mark.parametrize("num_classes, dtype", [(3, np.uint8), (255, np.uint8),
                                                (256, np.uint16), (300, np.uint16),
                                                (65535, np.uint16), (70000, np.uint32)])
def test_label_volume_holds_the_smallest_unsigned_type(num_classes, dtype):
    for given in (np.int32, np.int64, np.float64):
        labels = make_labels(np.array([0, 1, num_classes], given).reshape(3, 1, 1), num_classes)
        assert labels.labels.dtype == dtype
        assert labels.labels.ravel().tolist() == [0, 1, num_classes]


def test_argmax_labels_builds_its_map_in_the_label_type():
    labels = np.zeros((5, 4, 3), np.int32)
    labels[1:3, 1:3, 1] = 2
    labels[4, 0, 2] = 300
    back = argmax_labels(one_hot(make_labels(labels, 300)))
    assert back.labels.dtype == np.uint16 and np.array_equal(back.labels, labels)
    few = np.minimum(labels, 3)
    assert argmax_labels(one_hot(make_labels(few, 3))).labels.dtype == np.uint8


def test_one_hot_crops_are_the_label_boxes():
    labels = np.zeros((7, 6, 5), np.int32)
    labels[2:5, 0:2, 4] = 1
    labels[6, 5, 0] = 3
    oh = one_hot(make_labels(labels, 3))
    assert oh.crops[0].origin == (2, 0, 4) and oh.crops[0].values.shape == (3, 2, 1)
    assert oh.crops[1] is None
    assert oh.crops[2].origin == (6, 5, 0) and oh.crops[2].values.shape == (1, 1, 1)
    assert all(c is None or c.values.dtype == np.float64 for c in oh.crops)


@pytest.mark.parametrize("num_classes", [4, 7])
@pytest.mark.parametrize("dims", [(9, 12, 7), (1, 6, 5), (16, 16, 16)])
def test_one_hot_crops_equal_find_objects_crops(dims, num_classes):
    # class 2 absent, class 1 on the x = 0 face, class 4 on the three far
    # faces, class 3 scattered; 7 classes leave 5..7 absent above the
    # largest label
    rng = np.random.default_rng(sum(dims) + num_classes)
    labels = np.where(rng.random(dims) < 0.2, 3, 0).astype(np.int32)
    labels[0, : dims[1] // 2, 1:] = 1
    labels[-1, -1, :] = 4
    labels[:, -1, -1] = 4
    boxes = ndimage.find_objects(labels, max_label=num_classes)
    oh = one_hot(make_labels(labels, num_classes))
    assert len(oh.crops) == len(boxes) == num_classes
    for c, (crop, box) in enumerate(zip(oh.crops, boxes), start=1):
        if box is None:
            assert crop is None
        else:
            assert crop.box == box
            assert np.array_equal(crop.values, (labels[box] == c).astype(np.float64))


def _halvings(grid, times):
    out = [grid]
    for _ in range(times):
        out.append(downsample(out[-1]))
    return out


@pytest.mark.parametrize("dims", [(9, 7, 5), (16, 11, 6), (13, 13, 13), (12, 10, 1)])
def test_crop_pyramid_equals_dense_pyramid_bit_for_bit(dims):
    # classes: on the x = 0 face, on the three far faces, one voxel at odd
    # indices, absent, and one spanning z whole; each halving starts its
    # crop at an even index, so the crops must be the dense channels' crops
    # exactly, the dense channels halved as volumes
    labels = np.zeros(dims, np.int32)
    labels[0:3, 2:5, :2] = 1
    labels[-3:, -2:, -1:] = 2
    labels[5, 3, min(1, dims[2] - 1)] = 3
    labels[3:5, 1:2, :] = 5
    spacing = (1.0, 0.5, 2.0)
    masks = _halvings(one_hot(LabelVolume(dims, spacing, labels, 5)), 3)
    for c in range(1, 6):
        dense = _halvings(Volume(dims, spacing, (labels == c).astype(np.float64)), 3)
        for mask, volume in zip(masks, dense):
            want = volume.data
            assert mask.dims == volume.dims and mask.spacing == volume.spacing
            crop = mask.crops[c - 1]
            if crop is None:
                assert c == 4 and not want.any()
                continue
            assert np.array_equal(oracles.dense_channels(mask)[c - 1], want), (c, mask.dims)
            # the crop is the support: every face of its box holds a non-zero
            nonzero = np.argwhere(want)
            assert crop.support == tuple(zip(nonzero.min(axis=0), nonzero.max(axis=0)))


def test_argmax_labels_matches_dense_argmax_with_ties():
    # values on a quarter grid tie often: at exactly 0.5 (the threshold)
    # and between classes, where the lowest class must win
    rng = np.random.default_rng(8)
    dims, k = (9, 8, 7), 4
    channels = rng.integers(0, 5, size=(k,) + dims) / 4.0
    channels[:, :2] = 0.0
    channels[1, 3:6, 2:5, 1:4] = 0.0
    channels[:, 4, 4, 4] = 0.5
    mask = oracles.mask_from_channels(dims, (1, 1, 1), channels)
    want = np.where(channels.max(axis=0) >= 0.5, channels.argmax(axis=0) + 1, 0)
    ties = (channels == channels.max(axis=0)).sum(axis=0) > 1
    assert (ties & (want > 0)).sum() > 20 and (channels.max(axis=0) == 0.5).sum() > 20
    assert np.array_equal(argmax_labels(mask).labels, want)


def test_argmax_labels_needs_no_dense_channel_array():
    # twelve 4^3 organs on 32^3: the running maximum reads each class on
    # its crop, so it never holds a K x N array
    dims, k = (32, 32, 32), 12
    labels = np.zeros(dims, np.int32)
    for c in range(k):
        x, y, z = 3 + 9 * (c % 3), 3 + 9 * (c // 3 % 2), 6 + 12 * (c // 6)
        labels[x:x + 4, y:y + 4, z:z + 4] = c + 1
    mask = downsample(one_hot(make_labels(labels, k)))      # soft values
    dims = mask.dims
    tracemalloc.start()
    try:
        out = argmax_labels(mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(np.unique(out.labels)) == set(range(k + 1))
    assert peak < k * np.prod(dims) * 8 / 4
