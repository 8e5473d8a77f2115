import math
import tracemalloc

import numpy as np
import pytest

import oracles
from protoreg.grids import DimsMismatchError, LabelVolume, Volume, argmax_labels, one_hot
from protoreg.warp import (
    SAMPLE_BLOCK,
    DisplacementField,
    add_voxel_coords,
    jacobian_determinant,
    sample_volume,
    sample_volume_with_gradient,
    sdlogj,
    superpose,
    upsample_field,
    warp_labels,
    warp_volume,
)


def rand_volume(dims, seed=0):
    rng = np.random.default_rng(seed)
    return Volume(dims, (1, 1, 1), rng.normal(size=dims))


def rand_field(dims, scale, seed=0, offset=0.0):
    rng = np.random.default_rng(seed)
    return DisplacementField(dims, (1, 1, 1),
                             rng.uniform(-scale, scale, size=(3,) + dims) + offset)


def sample_at(vol, point):
    """``sample_volume`` of ``vol`` at one point."""
    return sample_volume(vol.data, np.reshape(point, (3, 1)).astype(float))[0]


def test_displacement_field_checks_dims_and_spacing_like_volume():
    for spacing in ((0, -1, 0), (1, np.inf, 1), (np.nan, 1, 1)):
        with pytest.raises(ValueError, match="spacing"):
            DisplacementField((2, 2, 2), spacing, np.zeros((3, 2, 2, 2)))
    with pytest.raises(ValueError, match="dims"):
        DisplacementField((0, 2, 2), (1, 1, 1), np.zeros((3, 0, 2, 2)))
    with pytest.raises(ValueError, match="dims"):
        DisplacementField((2, 2), (1, 1, 1), np.zeros((3, 2, 2)))


def test_trilinear_voxel_center():
    vol = rand_volume((3, 3, 3), 1)
    assert sample_at(vol, (1, 2, 0)) == vol.data[1, 2, 0]


def test_trilinear_midpoint():
    data = np.zeros((2, 2, 2))
    data[1] = 1.0
    vol = Volume((2, 2, 2), (1, 1, 1), data)
    assert sample_at(vol, (0.5, 0, 0)) == pytest.approx(0.5)


def test_trilinear_matches_oracle():
    vol = rand_volume((3, 3, 3), 7)
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = rng.uniform(-0.5, 2.5, size=3)
        assert sample_at(vol, p) == pytest.approx(oracles.trilinear(vol.data, p), abs=1e-12)


def off_lattice_points(dims, count, seed):
    # each coordinate sits 0.1 or more from a lattice plane, inside the grid
    rng = np.random.default_rng(seed)
    cells = [rng.integers(0, n - 1, size=count) for n in dims]
    return np.stack([c + rng.uniform(0.1, 0.9, size=count) for c in cells])


def test_sample_derivative_matches_central_differences():
    data = rand_volume((5, 6, 4), 15).data
    pts = off_lattice_points(data.shape, 200, 16)
    value, grad = sample_volume_with_gradient(data, pts)
    assert np.array_equal(value, sample_volume(data, pts))
    eps = 1e-6
    for a in range(3):
        step = np.zeros((3, 1))
        step[a] = eps
        numeric = (sample_volume(data, pts + step) - sample_volume(data, pts - step)) / (2 * eps)
        assert np.allclose(grad[a], numeric, rtol=0, atol=1e-7)


def test_sample_derivative_zero_where_clamped():
    data = rand_volume((4, 5, 6), 17).data
    pts = off_lattice_points(data.shape, 60, 18)
    pts[0, :20] -= 4.0        # below 0 on x
    pts[0, 20:40] += 4.0      # beyond n - 1 on x
    value, grad = sample_volume_with_gradient(data, pts)
    assert np.array_equal(value, sample_volume(data, pts))
    assert not grad[0, :40].any()
    assert grad[0, 40:].all()
    assert grad[1:].all()


@pytest.mark.parametrize("dims", [(1, 5, 2), (2, 2, 2)])
def test_sample_thin_grids_match_oracle(dims):
    data = rand_volume(dims, 19).data
    rng = np.random.default_rng(20)
    pts = np.stack([rng.uniform(-0.7, n - 0.3, size=40) for n in dims])
    value, grad = sample_volume_with_gradient(data, pts)
    assert np.array_equal(value, sample_volume(data, pts))
    assert grad.shape == pts.shape and np.isfinite(grad).all()
    for i in range(pts.shape[1]):
        assert value[i] == pytest.approx(oracles.trilinear(data, pts[:, i]), abs=1e-12)
    if dims[0] == 1:
        assert not grad[0].any()      # a one-voxel axis has no slope


@pytest.mark.parametrize("dims", [(6, 5, 4), (1, 5, 2), (2, 2, 2)])
def test_batched_sampling_equals_per_channel_calls(dims):
    # a (K, *dims) stack at (3, K, ...) points reads channel k at points[:, k]
    k = 4
    rng = np.random.default_rng(21)
    stack = rng.normal(size=(k,) + dims)
    pts = np.stack([rng.uniform(-1.0, n, size=(k, 3, 5)) for n in dims])
    for a, n in enumerate(dims):      # some coordinates clamp on every axis
        assert (pts[a] < 0).any() and (pts[a] > n - 1).any()
    value, grad = sample_volume_with_gradient(stack, pts)
    assert value.shape == (k, 3, 5) and grad.shape == pts.shape
    assert np.array_equal(sample_volume(stack, pts), value)
    for c in range(k):
        want_value, want_grad = sample_volume_with_gradient(stack[c], pts[:, c])
        assert np.array_equal(value[c], want_value)
        assert np.array_equal(grad[:, c], want_grad)


B = SAMPLE_BLOCK
# one block and a point either side of it, four blocks and a point either
# side, eight blocks and a short ninth; each count divides by its batch
# entries, and every block boundary falls inside an entry except with batch
# axes (4,), whose entries are one block each
BLOCK_CASES = [
    (B - 1, ()), (B, ()), (B + 1, ()), (B + 2, (2,)),
    (4 * B - 1, ()), (4 * B, ()), (4 * B + 1, ()), (8 * B + 3, ()),
    (4 * B - 1, (3,)), (4 * B, (4,)), (4 * B + 1, (5,)), (8 * B + 3, (1,)),
    (8 * B + 2, (2, 5)),
]


@pytest.mark.parametrize("count, batch", BLOCK_CASES,
                         ids=[f"{c}-batch{'x'.join(map(str, b)) or 'none'}" for c, b in BLOCK_CASES])
def test_blocked_sampling_equals_per_block_calls(count, batch):
    # a call over several blocks must give, bit for bit, what separate calls
    # on each block's points give, whichever entry each block starts in
    dims = (5, 6, 7)
    rng = np.random.default_rng(23)
    data = rng.normal(size=batch + dims)
    entries = int(np.prod(batch))
    per_entry = count // entries
    assert per_entry * entries == count
    boundaries = range(B, count, B)
    assert all(b % per_entry for b in boundaries) == (batch != (4,))
    pts = np.stack([rng.uniform(-1.0, n, size=batch + (per_entry,)) for n in dims])
    assert pts[0].size == count
    value, grad = sample_volume_with_gradient(data, pts)
    assert value.shape == pts.shape[1:] and grad.shape == pts.shape
    assert np.array_equal(sample_volume(data, pts), value)

    flat_pts, flat_data = pts.reshape(3, -1), data.reshape((-1,) + dims)
    want_value, want_grad = [], []
    for start in range(0, count, B):
        stop = min(start + B, count)
        for e in range(start // per_entry, (stop - 1) // per_entry + 1):
            lo, hi = max(start, e * per_entry), min(stop, (e + 1) * per_entry)
            v, g = sample_volume_with_gradient(flat_data[e], flat_pts[:, lo:hi])
            want_value.append(v)
            want_grad.append(g)
    assert np.array_equal(value.ravel(), np.concatenate(want_value))
    assert np.array_equal(grad.reshape(3, -1), np.concatenate(want_grad, axis=1))

    # the oracle at every point within 3 of a block boundary, and a spread
    check = {i for b in range(0, count + 1, B) for i in range(b - 3, b + 3) if 0 <= i < count}
    for i in sorted(check | set(range(0, count, 97))):
        want = oracles.trilinear(flat_data[i // per_entry], flat_pts[:, i])
        assert value.ravel()[i] == pytest.approx(want, abs=1e-12)


def test_sampler_memory_is_bounded_by_the_block():
    # one 48^3 sample with derivative on a grid's (C-ordered) data: the
    # outputs (four values per point) plus one workspace of 17.4 rows of a
    # block (14 float, 3 intp and 3 bool rows) with a margin, and no copy of
    # the data
    dims = (48, 48, 48)
    rng = np.random.default_rng(24)
    data = rng.normal(size=dims)
    pts = np.stack([rng.uniform(-1.0, n, size=dims) for n in dims])
    count = pts[0].size
    assert count == 110_592 and count > 6 * SAMPLE_BLOCK
    tracemalloc.start()
    try:
        value, grad = sample_volume_with_gradient(data, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (4 * count + 19 * SAMPLE_BLOCK) * 8 < (5 * count) * 8


@pytest.mark.parametrize("dims", [(6, 5, 4), (1, 5, 2), (7, 1, 3), (4, 6, 1)])
def test_fortran_ordered_data_samples_like_c_order(dims):
    # a Fortran-ordered array is copied into C order (``data.ravel()``);
    # value and derivative equal the C-order call's at clamped points,
    # points on the last lattice plane and on lattice points, over more
    # than one block
    rng = np.random.default_rng(26)
    data = rng.normal(size=dims)
    fortran = np.asfortranarray(data)
    assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
    count = SAMPLE_BLOCK + 40
    pts = np.stack([rng.uniform(-1.5, n + 0.5, size=count) for n in dims])
    for a, n in enumerate(dims):
        pts[a, :10] = n - 1.0                              # on the last plane
        pts[a, 10:20] = rng.integers(0, n, size=10)        # on lattice points
    pts[:, 20:30] = -rng.uniform(0.1, 2.0, (3, 10))        # clamped below
    pts[:, 30:40] = np.reshape(dims, (3, 1)) + rng.uniform(0.0, 2.0, (3, 10))  # above
    value, grad = sample_volume_with_gradient(fortran, pts)
    want_value, want_grad = sample_volume_with_gradient(data, pts)
    assert np.array_equal(value, want_value) and np.array_equal(grad, want_grad)
    assert np.array_equal(sample_volume(fortran, pts), want_value)
    assert not grad[:, 20:40].any()
    for i in range(0, count, 61):
        assert value[i] == pytest.approx(oracles.trilinear(data, pts[:, i]), abs=1e-12)


def test_warp_zero_field_identity_bit_exact():
    vol = rand_volume((5, 4, 3), 2)
    out = warp_volume(vol, DisplacementField.zeros(vol.dims))
    assert np.array_equal(out.data, vol.data)


def test_warp_uniform_shift_of_index_ramp():
    dims = (6, 4, 4)
    x = np.arange(6, dtype=float).reshape(6, 1, 1) * np.ones(dims)
    vol = Volume(dims, (1, 1, 1), x)
    u = np.zeros((3,) + dims)
    u[0] = 1.0
    out = warp_volume(vol, DisplacementField(dims, (1, 1, 1), u))
    assert np.allclose(out.data[:-1], x[:-1] + 1.0)
    assert np.allclose(out.data[-1], 5.0)  # clamped at the border


def test_warp_matches_per_voxel_oracle():
    vol = rand_volume((4, 4, 4), 3)
    field = rand_field((4, 4, 4), 0.8, 4)
    out = warp_volume(vol, field)
    assert np.allclose(out.data, oracles.warp(vol.data, field.u), atol=1e-12)


def test_warp_linearity_in_volume():
    dims = (4, 4, 4)
    v1, v2 = rand_volume(dims, 5), rand_volume(dims, 6)
    field = rand_field(dims, 0.6, 7)
    a, b = 1.7, -0.4
    combo = Volume(dims, (1, 1, 1), a * v1.data + b * v2.data)
    lhs = warp_volume(combo, field).data
    rhs = a * warp_volume(v1, field).data + b * warp_volume(v2, field).data
    assert np.allclose(lhs, rhs, atol=1e-10)


@pytest.mark.parametrize("window", [(slice(0, 5), slice(0, 5), slice(0, 4)),
                                    (slice(1, 4), slice(0, 5), slice(2, 3))])
def test_add_voxel_coords_makes_p_plus_u_on_a_window(window):
    dims = (5, 5, 4)
    u = rand_field(dims, 0.7, 12).u
    block = (slice(None),) + window
    want = np.indices(dims)[block] + u[block]
    points = u[block].copy()
    assert add_voxel_coords(points, [s.start for s in window]) is points
    assert np.array_equal(points, want)
    # a stack of windows of one shape, each with its own start
    other = (slice(None),) + tuple(slice(0, s.stop - s.start) for s in window)
    stack = np.stack([u[block], u[other]], axis=1)
    add_voxel_coords(stack, [[s.start for s in window], [0, 0, 0]])
    assert np.array_equal(stack[:, 0], want)
    assert np.array_equal(stack[:, 1], np.indices(dims)[other] + u[other])


def test_warp_dims_mismatch():
    with pytest.raises(DimsMismatchError):
        warp_volume(rand_volume((4, 4, 4)), DisplacementField.zeros((3, 3, 3)))


def test_warp_labels_zero_field():
    labels = np.zeros((4, 4, 4), np.int32)
    labels[1:3, 1:3, 1:3] = 1
    lv = LabelVolume((4, 4, 4), (1, 2, 3), labels, 1)
    out = warp_labels(lv, DisplacementField.zeros((4, 4, 4)))
    assert np.array_equal(out.labels, labels)
    assert (out.spacing, out.num_classes) == (lv.spacing, 1)


def test_warp_labels_half_shift_fractional_boundary():
    # a half-voxel shift puts 0.5 of class 1 on both faces of its slab,
    # which reaches the threshold; at x = 2, 0.5 of class 1 ties 0.5 of
    # class 2 and the lower class wins
    labels = np.zeros((7, 3, 3), np.int32)
    labels[1:3] = 1
    labels[3:5] = 2
    u = np.zeros((3, 7, 3, 3))
    u[0] = 0.5
    out = warp_labels(LabelVolume((7, 3, 3), (1, 1, 1), labels, 2),
                      DisplacementField((7, 3, 3), (1, 1, 1), u))
    assert out.labels[:, 1, 1].tolist() == [1, 1, 1, 2, 2, 0, 0]


def dense_warp_labels(labels, u):
    """The dense composition: every one-hot channel warped over the whole
    grid, clipped to [0, 1], then ``argmax_labels``; the points are formed
    in u's dtype."""
    pts = np.indices(labels.dims, dtype=u.dtype) + u
    channels = oracles.dense_channels(one_hot(labels))
    warped = np.stack([sample_volume(ch, pts) for ch in channels])
    return argmax_labels(oracles.mask_from_channels(labels.dims, labels.spacing,
                                                    np.clip(warped, 0.0, 1.0)))


def oracle_warp_labels(labels, u):
    """Per voxel, the first class of largest ``oracles.warp`` value if it
    reaches 0.5, else background."""
    channels = [np.clip(oracles.warp((labels.labels == c).astype(float), u), 0.0, 1.0)
                for c in range(1, labels.num_classes + 1)]
    out = np.zeros(labels.dims, np.int32)
    for idx in np.ndindex(*labels.dims):
        values = [ch[idx] for ch in channels]
        if max(values) >= 0.5:
            out[idx] = values.index(max(values)) + 1
    return out


@pytest.mark.parametrize("kind", ["zero", "shift", "random", "wild", "rounded"])
def test_warp_labels_matches_dense_and_oracle(kind):
    # class 1 touches the x = 0 face, class 2 is inside, class 3 is absent
    # and class 4 touches the far y and z faces
    dims = (7, 6, 5)
    labels = np.zeros(dims, np.int32)
    labels[0:3, 1:3, 1:4] = 1
    labels[3:5, 2:4, 1:3] = 2
    labels[4:7, 4:6, 3:5] = 4
    lv = LabelVolume(dims, (1, 1, 1), labels, 4)
    rng = np.random.default_rng(22)
    u = {"zero": np.zeros((3,) + dims),
         "shift": np.zeros((3,) + dims) + np.reshape([1.3, -0.6, 0.4], (3, 1, 1, 1)),
         "random": rng.uniform(-1.2, 1.2, (3,) + dims),
         "wild": rng.uniform(-50.0, 50.0, (3,) + dims),
         "rounded": np.zeros((3,) + dims) + np.reshape([np.nextafter(2.0, 0.0), 0, 0],
                                                       (3, 1, 1, 1))}[kind]
    if kind == "rounded":
        # class 4's box starts at x = 3; 1 + (2 - 2**-52) rounds to exactly 3,
        # although ceil(3 - (2 - 2**-52)) = 2 would leave x = 1 out
        assert 1.0 + u[0].max() == 3.0 and math.ceil(3.0 - u[0].max()) == 2
    out = warp_labels(lv, DisplacementField(dims, (1, 1, 1), u))
    assert np.array_equal(out.labels, dense_warp_labels(lv, u).labels)
    assert np.array_equal(out.labels, oracle_warp_labels(lv, u))
    assert 3 not in out.labels and out.labels.any()
    if kind == "zero":
        assert np.array_equal(out.labels, labels)


@pytest.mark.parametrize("kind", ["shift", "random", "wild", "rounded"])
def test_warp_labels_of_a_float32_field_matches_dense(kind):
    # the points are formed in float32 and the float64 channels sampled at
    # them; the windows are tested in float32 too, so the masked samples
    # are the dense ones and the labels equal bit for bit
    dims = (7, 6, 5)
    labels = np.zeros(dims, np.int32)
    labels[0:3, 1:3, 1:4] = 1
    labels[3:5, 2:4, 1:3] = 2
    labels[4:7, 4:6, 3:5] = 4
    lv = LabelVolume(dims, (1, 1, 1), labels, 4)
    rng = np.random.default_rng(23)
    u = {"shift": np.zeros((3,) + dims) + np.reshape([1.3, -0.6, 0.4], (3, 1, 1, 1)),
         "random": rng.uniform(-1.2, 1.2, (3,) + dims),
         "wild": rng.uniform(-50.0, 50.0, (3,) + dims),
         "rounded": np.zeros((3,) + dims)}[kind].astype(np.float32)
    if kind == "rounded":
        # class 4's box starts at x = 3; in float32, 1 + (2 - 2**-23) rounds
        # to exactly 3, although in float64 it stays below 3
        u[0] = np.nextafter(np.float32(2), np.float32(0))
        assert np.float32(1) + u[0].max() == 3 and 1.0 + float(u[0].max()) < 3.0
    field = DisplacementField(dims, (1, 1, 1), u)
    assert field.u.dtype == np.float32
    out = warp_labels(lv, field)
    assert np.array_equal(out.labels, dense_warp_labels(lv, u).labels)
    assert 3 not in out.labels and out.labels.any()


def test_warp_labels_needs_no_dense_channel_array():
    # twelve 4^3 organs on 32^3: the classes are sampled on their windows,
    # padded to one shape, so scoring never holds a K x N array (the
    # labels' dense one-hot alone would be one)
    dims, k = (32, 32, 32), 12
    labels = np.zeros(dims, np.int32)
    for c in range(k):
        x, y, z = 3 + 9 * (c % 3), 3 + 9 * (c // 3 % 2), 6 + 12 * (c // 6)
        labels[x:x + 4, y:y + 4, z:z + 4] = c + 1
    lv = LabelVolume(dims, (1, 1, 1), labels, k)
    field = DisplacementField(dims, (1, 1, 1),
                              np.random.default_rng(25).uniform(-1, 1, (3,) + dims))
    tracemalloc.start()
    try:
        out = warp_labels(lv, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(np.unique(out.labels)) == set(range(k + 1))
    assert peak < k * np.prod(dims) * 8 / 4


def test_warp_labels_without_classes():
    lv = LabelVolume((4, 4, 4), (1, 1, 1), np.zeros((4, 4, 4), np.int32), 0)
    out = warp_labels(lv, rand_field((4, 4, 4), 1.0))
    assert not out.labels.any() and out.num_classes == 0


def test_warp_labels_dims_mismatch():
    lv = LabelVolume((4, 4, 4), (1, 1, 1), np.zeros((4, 4, 4), np.int32), 1)
    with pytest.raises(DimsMismatchError):
        warp_labels(lv, DisplacementField.zeros((3, 3, 3)))


def test_upsample_zero_and_constant():
    coarse = DisplacementField.zeros((2, 2, 2))
    fine = upsample_field(coarse, (4, 4, 4))
    assert not fine.u.any()
    c = DisplacementField((2, 2, 2), (1, 1, 1), np.ones((3, 2, 2, 2)))
    fine = upsample_field(c, (4, 4, 4))
    assert np.allclose(fine.u, 2.0)


def test_upsample_matches_interpolation_oracle():
    rng = np.random.default_rng(10)
    coarse = DisplacementField((2, 2, 2), (1, 1, 1), rng.normal(size=(3, 2, 2, 2)))
    fine = upsample_field(coarse, (4, 4, 4))
    for c in range(3):
        for idx in np.ndindex(4, 4, 4):
            p = [(i - 0.5) / 2.0 for i in idx]
            expected = 2.0 * oracles.trilinear(coarse.u[c], p)
            assert fine.u[(c,) + idx] == pytest.approx(expected, abs=1e-12)


def test_upsample_rejects_inconsistent_dims():
    with pytest.raises(DimsMismatchError):
        upsample_field(DisplacementField.zeros((2, 2, 2)), (5, 4, 4))


def test_superpose_identities_and_sum():
    dims = (3, 3, 3)
    base = rand_field(dims, 1.0, 11)
    zero = DisplacementField.zeros(dims)
    assert np.array_equal(superpose(base, zero).u, base.u)
    assert np.array_equal(superpose(zero, base).u, base.u)
    delta = rand_field(dims, 1.0, 12)
    assert np.array_equal(superpose(base, delta).u, base.u + delta.u)


def test_superpose_commutative_associative():
    dims = (3, 3, 3)
    a, b, c = (rand_field(dims, 1.0, s) for s in (1, 2, 3))
    assert np.allclose(superpose(a, b).u, superpose(b, a).u, atol=1e-15)
    assert np.allclose(superpose(superpose(a, b), c).u,
                       superpose(a, superpose(b, c)).u, atol=1e-12)


def test_jacobian_zero_field_is_one():
    det = jacobian_determinant(DisplacementField.zeros((4, 4, 4)))
    assert np.array_equal(det.data, np.ones((4, 4, 4)))


def test_jacobian_linear_field():
    dims = (5, 5, 5)
    u = np.zeros((3,) + dims)
    u[0] = 0.1 * np.arange(5, dtype=float).reshape(5, 1, 1)
    det = jacobian_determinant(DisplacementField(dims, (1, 1, 1), u))
    assert np.allclose(det.data[1:-1], 1.1)


def test_jacobian_matches_np_gradient_oracle():
    field = rand_field((5, 5, 5), 0.4, 13)
    det = jacobian_determinant(field)
    assert np.allclose(det.data, oracles.jacobian_dets(field.u), atol=1e-12)


def test_sdlogj_zero_field():
    res = sdlogj(DisplacementField.zeros((4, 4, 4)))
    assert res.value == 0.0
    assert res.excluded == 0


def test_sdlogj_matches_independent_recount():
    field = rand_field((5, 5, 5), 0.4, 14)
    res = sdlogj(field)
    dets = oracles.jacobian_dets(field.u)
    kept = dets[dets > 1e-6]
    assert res.value == pytest.approx(float(np.std(np.log(kept))), abs=1e-12)
    assert res.excluded == int((dets <= 1e-6).sum())


def test_sdlogj_reports_zero_on_an_axis_under_3_voxels():
    # no central-difference Jacobian exists on a 2-voxel axis
    field = rand_field((2, 4, 4), 0.4, 15)
    assert sdlogj(field) == (0.0, 0)
    with pytest.raises(ValueError):
        jacobian_determinant(field)


def test_sdlogj_all_excluded():
    dims = (4, 4, 4)
    u = np.zeros((3,) + dims)
    u[0] = -2.0 * np.arange(4, dtype=float).reshape(4, 1, 1)  # det = -1 everywhere
    res = sdlogj(DisplacementField(dims, (1, 1, 1), u))
    assert res.value == 0.0
    assert res.excluded == 64
