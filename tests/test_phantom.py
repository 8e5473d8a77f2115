from dataclasses import replace

import numpy as np
import pytest
from scipy.ndimage import distance_transform_edt, gaussian_filter

from protoreg.metrics import evaluate
from protoreg.phantom import (
    PhantomSpec, _truth_field, generate, three_blob_spec, twelve_blob_spec,
)
from protoreg.warp import sdlogj, warp_labels, warp_volume


def test_zero_magnitude_identity():
    ph = generate(PhantomSpec(deformation="none", magnitude=0.0, noise_sigma=0.0, seed=2))
    assert np.array_equal(ph.fixed.data, ph.moving.data)
    assert np.array_equal(ph.fixed_labels.labels, ph.moving_labels.labels)
    assert not ph.truth.u.any()


def test_rigid_shift_recovery():
    ph = generate(PhantomSpec(deformation="rigid", shift=(3, 0, 0), magnitude=3.0,
                              noise_sigma=0.0, seed=1))
    recovered = warp_volume(ph.moving, ph.truth)
    m = 5   # border margin exclusion
    err = np.abs(recovered.data[m:-m, m:-m, m:-m] - ph.fixed.data[m:-m, m:-m, m:-m]).max()
    assert err < 0.02


def test_fractional_rigid_shift_recovery():
    ph = generate(PhantomSpec(deformation="rigid", shift=(1.5, 0.7, 0.3), magnitude=2.0,
                              noise_sigma=0.0, seed=1))
    recovered = warp_volume(ph.moving, ph.truth)
    m = 5
    err = np.abs(recovered.data[m:-m, m:-m, m:-m] - ph.fixed.data[m:-m, m:-m, m:-m]).max()
    # trilinear error bound ~ |f''| / 8 with the default falloff's curvature
    assert err < 0.12


def test_deterministic_given_seed():
    a = generate(PhantomSpec(seed=9))
    b = generate(PhantomSpec(seed=9))
    assert np.array_equal(a.fixed.data, b.fixed.data)
    assert np.array_equal(a.moving.data, b.moving.data)
    assert np.array_equal(a.truth.u, b.truth.u)
    c = generate(PhantomSpec(seed=10))
    assert not np.array_equal(a.fixed.data, c.fixed.data)


@pytest.mark.parametrize("magnitude", [2.0, 3.0, 4.0])
def test_truth_warp_label_overlap(magnitude):
    # hard-label revoxelization floors this at ~0.93 for the default blob
    # sizes; see the smooth-blob interpolation analysis in the test notes
    ph = generate(PhantomSpec(magnitude=magnitude, noise_sigma=0.0, seed=3))
    warped = warp_labels(ph.moving_labels, ph.truth)
    per_class = evaluate(ph.fixed_labels, warped).per_class
    assert len(per_class) == 3 and all(dice >= 0.92 for dice in per_class)


def test_truth_field_is_plausibly_smooth():
    for seed in range(5):
        ph = generate(PhantomSpec(seed=seed))
        assert sdlogj(ph.truth).value < 0.2


def test_labels_and_intensity_consistent():
    spec = PhantomSpec(noise_sigma=0.0, seed=4)
    ph = generate(spec)
    fg = ph.fixed_labels.labels > 0
    # The default scene texture leaves no voxel at exactly 0, so background is
    # defined by geometry: beyond the falloff band of every label.  The extra
    # voxel covers the gap between the nearest labelled voxel centre, which the
    # EDT measures, and the true blob surface.
    far = distance_transform_edt(~fg) > spec.falloff + 1
    background = ph.fixed.data[far]
    assert background.size > 0, "no voxel lies beyond the falloff band of every label"
    # each labelled region sits at its blob contrast plus texture; 0.1 is a
    # fixed contrast margin above the mean of the textured background
    assert ph.fixed.data[fg].min() >= background.mean() + 2 * 0.05

    # Without texture the profile is flat at the blob contrast inside every
    # label and exactly 0 in the background.  Blob placement is drawn before
    # the texture, so the labels are the same ones.
    flat = generate(replace(spec, texture_amplitude=0.0))
    assert np.array_equal(flat.fixed_labels.labels, ph.fixed_labels.labels)
    for c, contrast in enumerate((1.0, 0.8, 0.6), start=1):
        assert np.all(flat.fixed.data[ph.fixed_labels.labels == c] == contrast)
    assert np.all(flat.fixed.data[far] == 0.0)


def test_margin_violation_rejected():
    with pytest.raises(ValueError):
        generate(PhantomSpec(dims=(16, 16, 16), magnitude=12.0, seed=0))


def test_presets():
    ph3 = generate(three_blob_spec(seed=5))
    assert sorted(np.unique(ph3.fixed_labels.labels)) == [0, 1, 2, 3]
    ph12 = generate(twelve_blob_spec(seed=5))
    assert sorted(np.unique(ph12.fixed_labels.labels)) == list(range(13))


def test_noise_independent_between_sides():
    quiet = generate(PhantomSpec(noise_sigma=0.0, deformation="none", seed=6))
    noisy = generate(PhantomSpec(noise_sigma=0.05, deformation="none", seed=6))
    df = noisy.fixed.data - quiet.fixed.data
    dm = noisy.moving.data - quiet.moving.data
    assert df.std() == pytest.approx(0.05, rel=0.1)
    assert not np.allclose(df, dm)


@pytest.mark.parametrize("dims,smoothing", [((48, 48, 48), 8.0), ((20, 13, 7), 8.0),
                                            ((21, 9, 15), 1.0), ((9, 16, 5), 2.5)])
def test_smooth_truth_field_is_scipys_gaussian_filter(dims, smoothing):
    # the band Gaussian against gaussian_filter(mode="constant") on the same
    # noise; at sigma 8 the radius of 32 exceeds every axis of (20, 13, 7)
    spec = PhantomSpec(dims=dims, magnitude=1.0, smoothing=smoothing, seed=0)
    u = _truth_field(spec, np.random.default_rng(5))
    noise = np.random.default_rng(5).normal(size=(3,) + dims)
    expected = np.stack([gaussian_filter(n, smoothing, mode="constant") for n in noise])
    expected *= spec.magnitude / np.sqrt((expected ** 2).sum(axis=0)).max()
    np.testing.assert_allclose(u, expected, rtol=0, atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("field,value", [
    ("smoothing", 0.0), ("smoothing", -1.0), ("smoothing", float("nan")),
    ("smoothing", float("inf")), ("falloff", 0.0), ("falloff", -2.5),
    ("texture_scale", 0.0), ("texture_scale", float("inf")),
    ("magnitude", -1.0), ("magnitude", float("nan")), ("texture_amplitude", -0.1),
    ("texture_amplitude", float("inf")), ("noise_sigma", float("nan")), ("noise_sigma", -0.01),
    # geometry that used to get further: a negative radius rendered blobs
    # darker than the background, 0.0 read as "no override", a NaN radius as
    # "no room", a NaN contrast or shift failed late in Volume or
    # warp._sample, two shift values in a reshape and 2.5 blobs in a slice
    ("num_blobs", 2.5), ("num_blobs", True), ("num_blobs", 0),
    ("blob_radius", -3.0), ("blob_radius", 0.0), ("blob_radius", float("nan")),
    ("blob_radius", float("inf")),
    ("contrasts", (1.0, float("nan"), 0.6)), ("contrasts", (1.0, 0.8)),
    ("shift", (float("nan"), 0.0, 0.0)), ("shift", (1.0, 2.0)), ("shift", (0.0, float("inf"), 0.0)),
])
def test_phantom_spec_rejects_numbers_it_cannot_use(field, value):
    with pytest.raises(ValueError, match=field):
        PhantomSpec(**{field: value})


def test_phantom_spec_takes_geometry_it_can_use():
    # the overrides no preset sets, each at a value the checks above accept
    spec = PhantomSpec(dims=(24, 24, 24), num_blobs=np.int64(2), blob_radius=3.0,
                       contrasts=(1.0, 0.7), deformation="rigid", shift=(1.0, 0.0, -0.5), seed=0)
    pair = generate(spec)
    assert pair.fixed_labels.num_classes == 2
    assert np.array_equal(pair.truth.u[:, 0, 0, 0], [1.0, 0.0, -0.5])
