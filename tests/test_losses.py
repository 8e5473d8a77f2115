import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

import oracles
from protoreg import losses
from protoreg.gradients import build_state, evaluate_objective, term_evaluator
from protoreg.grids import (
    ChannelCrop, DimsMismatchError, LabelVolume, Volume, _band_products, argmax_labels, one_hot,
)
from protoreg.losses import LossWeights, PrototypeSet, extract_prototypes
from protoreg.optimizer import _cast
from protoreg.phantom import generate, twelve_blob_spec
from protoreg.warp import DisplacementField


def rand_volume(dims, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Volume(dims, (1, 1, 1), scale * rng.normal(size=dims))


def soft_mask(dims, k, seed):
    rng = np.random.default_rng(seed)
    ch = rng.uniform(0.05, 0.95, size=(k,) + dims)
    ch /= np.maximum(ch.sum(axis=0), 1.0)[None]
    return oracles.mask_from_channels(dims, (1, 1, 1), ch)


def lncc(fixed, moved, window):
    """The correlation term of two volumes (``losses._lncc``)."""
    return losses._lncc(fixed.data, moved.data, losses._lncc_fixed(fixed.data, window))[0]


def dice(fixed, moved):
    """The Dice term of two masks on the whole grid (``losses._dice``)."""
    return losses._dice(oracles.dense_channels(fixed), losses._fixed_mass(fixed),
                        oracles.dense_channels(moved))[0]


def contrast(features, mask, protos, temperature=0.1):
    """The contrast half on ``mask``'s hard assignment (``losses._contrast``)."""
    return losses._contrast(features, argmax_labels(mask).labels, protos, temperature)


def align(protos_f, protos_m):
    """The alignment half (``losses._align``) of ``protos_f`` with ``protos_m``:
    on a (K, 1, 1) grid, the moving features at voxel k are the moving
    vector of class k, pooled under a one-voxel window holding 1 where the
    class is present."""
    k, c = protos_m.vectors.shape
    features = protos_m.vectors.T.reshape(c, k, 1, 1)
    windows = [(slice(i, i + 1), slice(0, 1), slice(0, 1)) for i in range(k)]
    values = protos_m.present.astype(float).reshape(k, 1, 1, 1)
    return losses._align(protos_f, features, windows, values)[0]


def objective(fixed, moving, field, weights, fixed_mask=None, moving_mask=None, **kwargs):
    """The breakdown of ``evaluate_objective`` at ``field``, value only."""
    state = build_state(fixed, moving, weights, fixed_mask, moving_mask, **kwargs)
    return evaluate_objective(state, field, with_grad=False)[0]


# ------------------------------------------------------------------- LNCC

def test_lncc_self_correlation():
    vol = rand_volume((7, 7, 7), 1)
    assert lncc(vol, vol, 5) == pytest.approx(-1.0, abs=1e-6)


def test_lncc_constant_moved_degenerate():
    fixed = rand_volume((5, 5, 5), 2)
    moved = Volume((5, 5, 5), (1, 1, 1), np.full((5, 5, 5), 3.0))
    assert lncc(fixed, moved, 3) == 0.0


def test_lncc_matches_brute_force_oracle():
    fixed = rand_volume((5, 5, 5), 3)
    moved = rand_volume((5, 5, 5), 4)
    got = lncc(fixed, moved, 3)
    want = oracles.lncc(fixed.data, moved.data, 3)
    assert got == pytest.approx(want, rel=1e-10)


def window_variances(data, window):
    """Each full window's variance, by brute force."""
    windows = np.lib.stride_tricks.sliding_window_view(data, (window,) * 3)
    return windows.reshape(windows.shape[:3] + (-1,)).var(axis=-1)


@pytest.mark.parametrize("side", ["fixed", "moving", "both"])
def test_lncc_with_flat_slabs_matches_the_oracle_and_finite_differences(side):
    # flat x-slabs put windows under the variance floor on one side or on
    # both, next to valid windows: the quotients are taken on the valid ones
    dims, window = (10, 6, 6), 3
    fixed, moving = rand_volume(dims, 11), rand_volume(dims, 12)
    if side != "moving":
        fixed.data[:4] = 0.5
    if side != "fixed":
        moving.data[4:] = -0.25
    # u_x > 0 keeps each moved voxel of the slab sampling only the slab
    rng = np.random.default_rng(13)
    u = rng.uniform(-0.3, 0.3, (3,) + dims) + 0.13
    u[0] = rng.uniform(0.05, 0.45, dims)
    field = DisplacementField(dims, (1, 1, 1), u)
    moved = oracles.warp(moving.data, field.u)
    variances = [window_variances(fixed.data, window), window_variances(moved, window)]
    valid = (variances[0] >= losses.VARIANCE_EPS) & (variances[1] >= losses.VARIANCE_EPS)
    assert 0 < valid.sum() < valid.size
    # every window is far from the floor, so no probe of 1e-3 moves one across it
    assert all(((v < 1e-9) | (v > 1e-3)).all() for v in variances)
    evaluate = term_evaluator(build_state(fixed, moving, LossWeights(1, 0, 0, 0, 0),
                                          window=window), "sim")
    assert evaluate(field, False)[0] == pytest.approx(oracles.lncc(fixed.data, moved, window),
                                                      rel=1e-9)
    _, max_rel = oracles.finite_diff_check(evaluate, field, probe_count=64, eps=1e-3, seed=14)
    assert max_rel < 1e-3


def test_lncc_bounded():
    for seed in range(5):
        a = rand_volume((6, 6, 6), seed)
        b = rand_volume((6, 6, 6), seed + 100)
        val = lncc(a, b, 3)
        assert -1.0 <= val <= 0.0


def test_lncc_affine_intensity_invariance():
    fixed = rand_volume((6, 6, 6), 5)
    moved = rand_volume((6, 6, 6), 6)
    base = lncc(fixed, moved, 3)
    scaled = Volume(moved.dims, moved.spacing, 2.5 * moved.data + 7.0)
    assert abs(lncc(fixed, scaled, 3) - base) < 1e-8
    fscaled = Volume(fixed.dims, fixed.spacing, 0.6 * fixed.data - 2.0)
    assert abs(lncc(fscaled, moved, 3) - base) < 1e-8


def test_lncc_validation():
    a = rand_volume((5, 5, 5), 7)
    sim = LossWeights(1, 0, 0, 0, 0)
    with pytest.raises(DimsMismatchError):
        build_state(a, rand_volume((4, 5, 5), 8), sim, window=3)
    with pytest.raises(ValueError):
        build_state(a, a, sim, window=4)       # even
    with pytest.raises(ValueError):
        build_state(a, a, sim, window=7)       # larger than min dim


# -------------------------------------------------------------- smoothness

def test_smoothness_zero_and_constant():
    assert losses._smoothness(np.zeros((3, 4, 4, 4)))[0] == 0.0
    assert losses._smoothness(np.full((3, 4, 4, 4), 2.0))[0] == 0.0


def test_smoothness_linear_ramp_hand_enumeration():
    dims = (3, 3, 3)
    u = np.zeros((3,) + dims)
    u[0] = np.arange(3, dtype=float).reshape(3, 1, 1)     # u_x = x
    got = losses._smoothness(u)[0]
    # forward diff along x is 1 for x in {0,1}, 0 at the trailing border
    assert got == pytest.approx(18 / 27)
    assert got == pytest.approx(oracles.smoothness(u))


def test_smoothness_matches_oracle():
    rng = np.random.default_rng(9)
    u = rng.normal(size=(3, 4, 3, 5))
    assert losses._smoothness(u)[0] == pytest.approx(oracles.smoothness(u), rel=1e-12)


# -------------------------------------------------------------------- Dice

def hard_mask(dims, boxes, k):
    labels = np.zeros(dims, np.int32)
    for lab, sl in boxes:
        labels[sl] = lab
    return one_hot(LabelVolume(dims, (1, 1, 1), labels, k))


def test_dice_identical_hard_masks():
    oh = hard_mask((5, 5, 5), [(1, np.s_[1:3, 1:3, 1:3]), (2, np.s_[3:5, 3:5, 3:5])], 2)
    assert dice(oh, oh) == pytest.approx(0.0, abs=1e-7)


def test_dice_disjoint_single_voxels():
    a = hard_mask((4, 4, 4), [(1, np.s_[0, 0, 0])], 1)
    b = hard_mask((4, 4, 4), [(1, np.s_[3, 3, 3])], 1)
    assert dice(a, b) == pytest.approx(1.0, abs=1e-6)


def test_dice_matches_oracle_on_soft_masks():
    a = soft_mask((4, 4, 4), 3, 21)
    b = soft_mask((4, 4, 4), 3, 22)
    want = oracles.dice_loss(oracles.dense_channels(a), oracles.dense_channels(b))
    assert dice(a, b) == pytest.approx(want, rel=1e-12)


def test_dice_symmetric_and_bounded():
    a = soft_mask((4, 4, 4), 2, 23)
    b = soft_mask((4, 4, 4), 2, 24)
    ab, ba = dice(a, b), dice(b, a)
    assert ab == pytest.approx(ba, rel=1e-12)
    assert 0.0 <= ab <= 1.0


def test_dice_class_count_mismatch():
    a = soft_mask((4, 4, 4), 2, 25)
    b = soft_mask((4, 4, 4), 3, 26)
    vol = rand_volume((4, 4, 4), 27)
    with pytest.raises(ValueError, match="class universes"):
        build_state(vol, vol, LossWeights(0, 0, 1, 0, 0), a, b, window=3)


@pytest.mark.parametrize("weights", [LossWeights(0, 0, 1, 0, 0), LossWeights(0, 0, 0, 0, 1)])
def test_build_state_rejects_masks_without_a_foreground_class(weights):
    vol = rand_volume((4, 4, 4), 28)
    empty = oracles.mask_from_channels((4, 4, 4), (1, 1, 1), np.zeros((0, 4, 4, 4)))
    with pytest.raises(ValueError, match="foreground class"):
        build_state(vol, vol, weights, empty, empty, window=3)


# -------------------------------------------------------------- prototypes

def test_prototype_single_voxel_mask():
    dims = (3, 3, 3)
    feats = np.random.default_rng(30).normal(size=(2,) + dims)
    ch = np.zeros((1,) + dims)
    ch[0, 1, 2, 0] = 1.0
    protos = extract_prototypes(feats, oracles.mask_from_channels(dims, (1, 1, 1), ch))
    assert np.allclose(protos.vectors[0], feats[:, 1, 2, 0])


def test_prototype_uniform_features():
    dims = (3, 3, 3)
    feats = np.full((2,) + dims, 4.5)
    mask = soft_mask(dims, 3, 31)
    protos = extract_prototypes(feats, mask)
    for k in range(3):
        assert protos.present[k]
        assert np.allclose(protos.vectors[k], 4.5)


def test_prototype_matches_weighted_mean_oracle():
    dims = (4, 4, 4)
    rng = np.random.default_rng(32)
    feats = rng.normal(size=(3,) + dims)
    mask = soft_mask(dims, 2, 33)
    protos = extract_prototypes(feats, mask)
    want, present = oracles.prototypes(feats, oracles.dense_channels(mask))
    assert np.array_equal(protos.present, present)
    assert np.allclose(protos.vectors, want, rtol=1e-12)


def test_prototype_absent_class():
    dims = (3, 3, 3)
    feats = np.ones((2,) + dims)
    ch = np.zeros((2,) + dims)
    ch[0, 0, 0, 0] = 1.0
    protos = extract_prototypes(feats, oracles.mask_from_channels(dims, (1, 1, 1), ch))
    assert protos.present[0] and not protos.present[1]


# ---------------------------------------------------------------- contrast

def test_contrast_single_class_is_zero():
    dims = (3, 3, 3)
    feats = np.random.default_rng(40).normal(size=(2,) + dims)
    ch = np.zeros((1,) + dims)
    ch[0, :2] = 1.0
    mask = oracles.mask_from_channels(dims, (1, 1, 1), ch)
    protos = extract_prototypes(feats, mask)
    assert contrast(feats, mask, protos) == 0.0


def test_contrast_orthogonal_prototypes_closed_form():
    # two classes, every voxel's feature equals its own prototype, prototypes
    # orthogonal, tau=1: per-voxel loss = -log(e / (e + 1))
    dims = (2, 2, 2)
    ch = np.zeros((2,) + dims)
    ch[0, 0] = 1.0
    ch[1, 1] = 1.0
    mask = oracles.mask_from_channels(dims, (1, 1, 1), ch)
    feats_arr = np.zeros((2,) + dims)
    feats_arr[0, 0] = 1.0     # class-1 voxels -> e_0
    feats_arr[1, 1] = 1.0     # class-2 voxels -> e_1
    protos = extract_prototypes(feats_arr, mask)
    want = -np.log(np.e / (np.e + 1.0))
    assert contrast(feats_arr, mask, protos, temperature=1.0) == pytest.approx(want, rel=1e-9)


def test_contrast_matches_per_voxel_softmax_oracle():
    dims = (4, 4, 4)
    rng = np.random.default_rng(41)
    feats = rng.normal(size=(2,) + dims)
    mask = hard_mask(dims, [(1, np.s_[0:2]), (2, np.s_[2:3]), (3, np.s_[3:4])], 3)
    protos = extract_prototypes(feats, mask)
    got = contrast(feats, mask, protos, temperature=0.1)
    want = oracles.contrast(feats, argmax_labels(mask).labels, protos.vectors, protos.present, 0.1)
    assert got == pytest.approx(want, rel=1e-10)


def test_contrast_invariant_to_per_voxel_positive_scaling():
    dims = (4, 4, 4)
    rng = np.random.default_rng(42)
    raw = rng.normal(size=(2,) + dims)
    mask = hard_mask(dims, [(1, np.s_[0:2]), (2, np.s_[2:4])], 2)
    protos = extract_prototypes(raw, mask)
    base = contrast(raw, mask, protos, temperature=0.3)
    scale = rng.uniform(0.2, 5.0, size=dims)
    assert abs(contrast(raw * scale[None], mask, protos, temperature=0.3) - base) < 1e-8


# ------------------------------------------------------------------- align

def test_align_identical_sets():
    protos = PrototypeSet(np.random.default_rng(50).normal(size=(3, 2)), np.ones(3, bool))
    assert align(protos, protos) == pytest.approx(0.0, abs=1e-9)


def test_align_opposite_pair():
    pf = PrototypeSet(np.array([[1.0, 0.0]]), np.ones(1, bool))
    pm = PrototypeSet(np.array([[-1.0, 0.0]]), np.ones(1, bool))
    assert align(pf, pm) == pytest.approx(2.0)


def test_align_matches_cosine_oracle_and_skips_one_sided():
    rng = np.random.default_rng(51)
    vf = rng.normal(size=(3, 4))
    vm = rng.normal(size=(3, 4))
    present_f = np.array([True, True, False])
    present_m = np.array([True, False, True])
    pf = PrototypeSet(vf, present_f)
    pm = PrototypeSet(vm, present_m)
    assert align(pf, pm) == pytest.approx(
        oracles.align(vf, present_f, vm, present_m), rel=1e-12
    )


def test_align_per_class_terms_in_range():
    rng = np.random.default_rng(52)
    for _ in range(20):
        pf = PrototypeSet(rng.normal(size=(1, 3)), np.ones(1, bool))
        pm = PrototypeSet(rng.normal(size=(1, 3)), np.ones(1, bool))
        assert 0.0 <= align(pf, pm) <= 2.0


# ---------------------------------------------------------- prototype term

@pytest.mark.parametrize("n", [2, 3, 4, 9])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_central_difference_adjoint_is_np_gradients_transpose(axis, n):
    # <D x, y> = <x, D^T y> for np.gradient's stencil D along the axis
    rng = np.random.default_rng(10 * n + axis)
    shape = tuple(n if a == axis else m for a, m in enumerate((3, 4, 5)))
    x, y = rng.normal(size=shape), rng.normal(size=shape)
    adjoint = losses.central_difference_adjoint(y, axis, np.empty(shape))
    assert np.vdot(np.gradient(x, axis=axis), y) == pytest.approx(np.vdot(x, adjoint), rel=1e-12)


def test_prototype_loss_composition():
    # at the zero field the moved image and masks are the moving ones, so
    # the term is the contrast of both sides' features against the fixed
    # prototypes, averaged, plus the alignment of the two prototype sets
    dims = (4, 4, 4)
    moving, fixed = rand_volume(dims, 60), rand_volume(dims, 61)
    fm = hard_mask(dims, [(1, np.s_[0:2]), (2, np.s_[2:4])], 2)
    mm = soft_mask(dims, 2, 62)
    got = objective(fixed, moving, DisplacementField.zeros(dims), LossWeights(0, 0, 0, 1, 0),
                    fm, mm, window=3, temperature=0.1).values["prototype"]
    feats_m = losses._features_forward(moving.data)[0]
    feats_f = losses._features_forward(fixed.data)[0]
    protos_f = extract_prototypes(feats_f, fm)
    expected = 0.5 * (
        contrast(feats_m, fm, protos_f, 0.1) + contrast(feats_f, fm, protos_f, 0.1)
    ) + align(protos_f, extract_prototypes(feats_m, mm))
    assert got == pytest.approx(expected, rel=1e-12)


# ----------------------------------------------------------------- contours

def contour_state(fixed_mask, moving_mask, max_points=2048, seed=0):
    """A state with the contour term alone."""
    vol = rand_volume(fixed_mask.dims, 73)
    return build_state(vol, vol, LossWeights(0, 0, 0, 0, 1), fixed_mask, moving_mask,
                       window=3, max_points=max_points, seed=seed)


def contour(fixed_mask, moving_mask, u=None):
    """The contour term of the two masks at the field ``u`` (default 0)."""
    dims = fixed_mask.dims
    field = DisplacementField(dims, (1, 1, 1), np.zeros((3,) + dims) if u is None else u)
    return evaluate_objective(contour_state(fixed_mask, moving_mask), field,
                              with_grad=False)[0].values["contour"]


def test_contour_single_voxel():
    # the band of one voxel: the voxel itself, at S_f = -1, and the 122
    # voxels within distance 3 of it, at their distance
    labels = np.zeros((9, 9, 9), np.int32)
    labels[4, 4, 4] = 1
    mask = one_hot(LabelVolume((9, 9, 9), (1, 1, 1), labels, 1))
    band = contour_state(mask, mask).contour_band
    assert band.counts.tolist() == [123]
    offsets = np.column_stack(np.unravel_index(band.index[0], (9, 9, 9))) - 4
    distance = np.sqrt((offsets ** 2).sum(axis=1))
    assert np.array_equal(band.target[0], np.where(distance == 0, -1.0, distance))


def test_contour_subsample_deterministic():
    labels = np.zeros((10, 10, 10), np.int32)
    labels[1:9, 1:9, 1:9] = 1
    lv = one_hot(LabelVolume((10, 10, 10), (1, 1, 1), labels, 1))
    a, b, c = (contour_state(lv, lv, max_points=10, seed=seed).contour_band.index
               for seed in (5, 5, 6))
    assert a.shape == (1, 10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_contour_empty_region():
    labels = np.zeros((4, 4, 4), np.int32)
    mask = one_hot(LabelVolume((4, 4, 4), (1, 1, 1), labels, 1))
    assert contour_state(mask, mask).contour_band is None
    assert contour(mask, mask) == 0.0


def test_contour_term_skips_a_class_empty_on_one_side():
    # class 2 has a mask on the fixed side only: the term is class 1's
    # alone, and with no class on both sides it is 0
    dims = (8, 8, 8)
    labels = np.zeros(dims, np.int32)
    labels[1:4, 1:4, 1:4] = 1
    labels[5:7, 5:7, 5:7] = 2

    def mask(keep, shift=0):
        kept = np.where(np.isin(labels, keep), labels, 0)
        return one_hot(LabelVolume(dims, (1, 1, 1), np.roll(kept, shift, axis=0), 2))

    moving = mask([1], shift=1)
    assert contour(mask([1, 2]), moving) == contour(mask([1]), moving) > 0.0
    assert contour(mask([1]), mask([2])) == 0.0


def test_contour_loss_follows_warp_convention():
    # phi(p) = p + u(p) maps output coords to moving coords: the moving cube
    # is the fixed one shifted by +1 on x, so u = +1 aligns them exactly
    # (the same field warp_volume needs to move that content), while u = 0
    # leaves every band point one voxel off and u = -1 two
    dims = (10, 10, 10)
    labels = np.zeros(dims, np.int32)
    labels[3:6, 3:6, 3:6] = 1
    fixed = one_hot(LabelVolume(dims, (1, 1, 1), labels, 1))
    moving = one_hot(LabelVolume(dims, (1, 1, 1), np.roll(labels, 1, axis=0), 1))
    u = np.zeros((3,) + dims)
    u[0] = 1.0
    assert contour(fixed, moving, u) == 0.0
    assert contour(fixed, moving, -u) > contour(fixed, moving) > 0.0


# -------------------------------------------------------------------- total

def test_total_loss_zero_weights():
    dims = (6, 6, 6)
    fixed, moving = rand_volume(dims, 80), rand_volume(dims, 81)
    bd = objective(fixed, moving, DisplacementField.zeros(dims), LossWeights(0, 0, 0, 0, 0))
    assert bd.total == 0.0


def test_total_weighted_sum_exact():
    dims = (8, 8, 8)
    fixed, moving = rand_volume(dims, 82), rand_volume(dims, 83)
    labels = np.zeros(dims, np.int32)
    labels[1:4, 1:4, 1:4] = 1
    labels[4:7, 4:7, 4:7] = 2
    fm = one_hot(LabelVolume(dims, (1, 1, 1), labels, 2))
    rolled = np.roll(labels, 1, axis=0)
    mm = one_hot(LabelVolume(dims, (1, 1, 1), rolled, 2))
    rng = np.random.default_rng(84)
    field = DisplacementField(dims, (1, 1, 1), rng.uniform(-0.4, 0.4, (3,) + dims))
    weights = LossWeights(1, 4, 1, 1, 0.1)
    bd = objective(fixed, moving, field, weights, fm, mm, window=3, seed=9)
    manual = sum(w * bd.values[name] for name, w in weights.as_dict().items())
    assert bd.total == pytest.approx(manual, rel=1e-12)
    # every term genuinely contributed
    assert all(bd.values[t] != 0.0 for t in ("sim", "smooth", "seg", "prototype", "contour"))


def test_total_identity_pair_only_similarity():
    # identical pair, zero field, single-class mask: every term but the
    # similarity sits at its identity zero, so total = w_sim * (-1)
    dims = (8, 8, 8)
    fixed = rand_volume(dims, 85)
    moving = Volume(dims, (1, 1, 1), fixed.data.copy())
    labels = np.zeros(dims, np.int32)
    labels[2:6, 2:6, 2:6] = 1
    mask = one_hot(LabelVolume(dims, (1, 1, 1), labels, 1))
    weights = LossWeights(1, 4, 1, 1, 0.1)
    bd = objective(fixed, moving, DisplacementField.zeros(dims), weights,
                   mask, mask, window=5, seed=1)
    assert bd.total == pytest.approx(-1.0, abs=1e-6)


def test_total_requires_masks_when_weighted():
    dims = (6, 6, 6)
    with pytest.raises(ValueError, match="both masks"):
        build_state(rand_volume(dims, 86), rand_volume(dims, 87), LossWeights(1, 4, 1, 1, 0.1))


# ------------------------------------------- numpy kernels against oracles
# scipy is the oracle of the distance maps here only: the package computes
# them, and the LNCC window sums (band products), with numpy alone.

def brute_window_sums(stacked, window):
    out = np.zeros((len(stacked),) + tuple(n - window + 1 for n in stacked.shape[1:]))
    for i, j, k in np.ndindex(*out.shape[1:]):
        out[:, i, j, k] = stacked[:, i:i + window, j:j + window, k:k + window].sum(axis=(1, 2, 3))
    return out


def brute_window_spread(sums, dims, window):
    out = np.zeros((len(sums),) + dims)
    for i, j, k in np.ndindex(*sums.shape[1:]):
        out[:, i:i + window, j:j + window, k:k + window] += sums[:, i, j, k, None, None, None]
    return out


@pytest.mark.parametrize("dims,window", [((9, 7, 11), 3), ((9, 7, 11), 5), ((9, 7, 11), 7),
                                         ((5, 12, 6), 5), ((8, 8, 8), 3)])
def test_window_sums_and_spread_match_brute_force_and_are_adjoint(dims, window):
    # window == smallest dim (7 of (9, 7, 11), 5 of (5, 12, 6)) leaves one
    # full window on that axis
    rng = np.random.default_rng(sum(dims) + window)
    x = rng.uniform(0.5, 1.5, (3,) + dims)
    v = rng.uniform(0.5, 1.5, (3,) + tuple(n - window + 1 for n in dims))
    bands = losses._bands(dims, window, x.dtype)
    sums = _band_products(x, *bands)
    spread = _band_products(v, *(band.T for band in bands))
    np.testing.assert_allclose(sums, brute_window_sums(x, window), rtol=1e-12, atol=0)
    np.testing.assert_allclose(spread, brute_window_spread(v, dims, window), rtol=1e-12, atol=0)
    assert (sums * v).sum() == pytest.approx((x * spread).sum(), rel=1e-12)


def scipy_signed_distance(values):
    fg = np.pad(values >= 0.5, 1)
    return (ndimage.distance_transform_edt(~fg)
            - ndimage.distance_transform_edt(fg))[1:-1, 1:-1, 1:-1]


def ball(dims, radius):
    centered = np.indices(dims) - (np.reshape(dims, (3, 1, 1, 1)) - 1) / 2
    return ((centered ** 2).sum(axis=0) <= radius ** 2).astype(np.float64)


def random_mask(dims, fraction, seed):
    return (np.random.default_rng(seed).random(dims) < fraction).astype(np.float64)


def single_voxel(dims, at):
    values = np.zeros(dims)
    values[at] = 1.0
    return values


def x_ends(dims):
    values = np.zeros(dims)
    values[[0, -1]] = 1.0
    return values


@pytest.mark.parametrize("values", [
    random_mask((9, 12, 7), 0.1, 0), random_mask((9, 12, 7), 0.6, 1),
    random_mask((13, 5, 10), 0.02, 2), np.ones((6, 4, 5)),        # on every face of the box
    single_voxel((9, 12, 7), (0, 11, 3)), single_voxel((1, 1, 1), (0, 0, 0)),
    ball((11, 9, 14), 3.5), ball((41, 43, 40), 9.0),                # 40^3 and up: early exit
    x_ends((40, 3, 4)),               # the x pass across its widest gap, 38 voxels
    random_mask((12, 20, 18), 0.01, 4),  # most x-lines hold no feature
], ids=["rand-9x12x7", "dense-9x12x7", "sparse-13x5x10", "full-6x4x5", "voxel-on-face",
        "voxel-1x1x1", "ball-11x9x14", "ball-41x43x40", "x-ends-40x3x4", "one-percent-12x20x18"])
def test_signed_distance_equals_scipy_edt_bit_for_bit(values):
    box = tuple(slice(0, n) for n in values.shape)
    got = losses._signed_distance([ChannelCrop((0, 0, 0), values)], [box])
    assert np.array_equal(got, scipy_signed_distance(values)[None])


def test_squared_distance_keeps_its_channels_apart():
    features = np.stack([random_mask((12, 20, 18), 0.01, 4), x_ends((12, 20, 18)),
                         single_voxel((12, 20, 18), (5, 19, 0)), ball((12, 20, 18), 4.0)]) > 0
    assert all(channel.any() and not channel.all() for channel in features)
    got = losses._squared_distance(features)
    for k, channel in enumerate(features):
        assert np.array_equal(np.sqrt(got[k]), ndimage.distance_transform_edt(~channel))


def test_signed_distances_of_crops_inside_their_boxes_equal_scipy_edt():
    # several crops on boxes of one shape, as ``_contour_band`` stacks them
    crops = [ChannelCrop((2, 3, 0), random_mask((5, 6, 4), 0.3, 3)),
             ChannelCrop((0, 0, 0), single_voxel((1, 1, 1), (0, 0, 0))),
             ChannelCrop((4, 8, 2), ball((4, 4, 5), 1.5))]
    boxes = [(slice(1, 9), slice(2, 12), slice(0, 7)), (slice(0, 8), slice(0, 10), slice(0, 7)),
             (slice(1, 9), slice(2, 12), slice(0, 7))]
    got = losses._signed_distance(crops, boxes)
    for k, (crop, box) in enumerate(zip(crops, boxes)):
        dense = np.zeros((8, 10, 7))
        dense[tuple(slice(o - b.start, o - b.start + m)
                    for o, b, m in zip(crop.origin, box, crop.values.shape))] = crop.values
        assert np.array_equal(got[k], scipy_signed_distance(dense))


def test_signed_distance_memory_is_a_few_boxes():
    # the working arrays of a 64^3 box are int32 stacks of both sides plus
    # the float64 roots; they peak near 4.8 box-sized int64 arrays, bounded
    # at 6 here.  A brute-force (..., n, n) temporary would be far larger:
    # one row of distances per voxel, about 100 MB per call at 96^3.
    n = 64
    crop = ChannelCrop((1, 1, 1), ball((n - 2,) * 3, 20.0))
    box = (slice(0, n),) * 3
    tracemalloc.start()
    try:
        losses._signed_distance([crop], [box])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * n ** 3 * 8


def test_contour_band_memory_is_one_class_at_a_time():
    # the fine level of a 12-class 48^3 phantom in float32, as register_pair
    # builds it: the distance maps are made one class at a time, so the
    # peak is a few grid-sized arrays (it was 23.5 with every class's
    # crops in one transform)
    pair = generate(twelve_blob_spec(seed=3))
    fixed, moving = (_cast(one_hot(labels), np.float32)
                     for labels in (pair.fixed_labels, pair.moving_labels))
    tracemalloc.start()
    try:
        band = losses._contour_band(fixed, moving, 2048, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(band.maps) == 12 and band.maps.dtype == np.float32
    assert peak <= 6 * 48 ** 3 * 4
