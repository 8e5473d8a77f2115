import numpy as np
import pytest

import oracles
from protoreg.grids import DimsMismatchError, LabelVolume, Volume, one_hot
from protoreg.warp import (
    DisplacementField,
    jacobian_determinant,
    sample_volume,
    sample_volume_with_gradient,
    sdlogj,
    superpose,
    trilinear_sample,
    upsample_field,
    warp_onehot,
    warp_volume,
)


def rand_volume(dims, seed=0):
    rng = np.random.default_rng(seed)
    return Volume(dims, (1, 1, 1), rng.normal(size=dims))


def rand_field(dims, scale, seed=0, offset=0.0):
    rng = np.random.default_rng(seed)
    return DisplacementField(dims, (1, 1, 1),
                             rng.uniform(-scale, scale, size=(3,) + dims) + offset)


def test_trilinear_voxel_center():
    vol = rand_volume((3, 3, 3), 1)
    assert trilinear_sample(vol, (1, 2, 0)) == vol.data[1, 2, 0]


def test_trilinear_midpoint():
    data = np.zeros((2, 2, 2))
    data[1] = 1.0
    vol = Volume((2, 2, 2), (1, 1, 1), data)
    assert trilinear_sample(vol, (0.5, 0, 0)) == pytest.approx(0.5)


def test_trilinear_matches_oracle():
    vol = rand_volume((3, 3, 3), 7)
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = rng.uniform(-0.5, 2.5, size=3)
        assert trilinear_sample(vol, p) == pytest.approx(oracles.trilinear(vol.data, p), abs=1e-12)


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


def test_warp_dims_mismatch():
    with pytest.raises(DimsMismatchError):
        warp_volume(rand_volume((4, 4, 4)), DisplacementField.zeros((3, 3, 3)))


def test_warp_onehot_zero_field():
    labels = np.zeros((4, 4, 4), np.int32)
    labels[1:3, 1:3, 1:3] = 1
    oh = one_hot(LabelVolume((4, 4, 4), (1, 1, 1), labels, 1))
    out = warp_onehot(oh, DisplacementField.zeros((4, 4, 4)))
    assert np.array_equal(out.channels, oh.channels)


def test_warp_onehot_half_shift_fractional_boundary():
    labels = np.zeros((5, 3, 3), np.int32)
    labels[1:3] = 1
    oh = one_hot(LabelVolume((5, 3, 3), (1, 1, 1), labels, 1))
    u = np.zeros((3, 5, 3, 3))
    u[0] = 0.5
    out = warp_onehot(oh, DisplacementField((5, 3, 3), (1, 1, 1), u))
    assert out.channels[0][0, 1, 1] == pytest.approx(0.5)
    assert out.channels[0][2, 1, 1] == pytest.approx(0.5)
    assert 0.0 < out.channels[0][0, 1, 1] < 1.0


def test_warp_onehot_range_for_wild_fields():
    labels = np.zeros((4, 4, 4), np.int32)
    labels[::2, 1, 2] = 1
    oh = one_hot(LabelVolume((4, 4, 4), (1, 1, 1), labels, 1))
    field = rand_field((4, 4, 4), 50.0, 9)
    out = warp_onehot(oh, field)
    assert out.channels.min() >= 0.0 and out.channels.max() <= 1.0


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


def test_sdlogj_all_excluded():
    dims = (4, 4, 4)
    u = np.zeros((3,) + dims)
    u[0] = -2.0 * np.arange(4, dtype=float).reshape(4, 1, 1)  # det = -1 everywhere
    res = sdlogj(DisplacementField(dims, (1, 1, 1), u))
    assert res.value == 0.0
    assert res.excluded == 64
