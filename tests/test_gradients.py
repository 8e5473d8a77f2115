import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

import oracles
from protoreg import gradients, losses
from protoreg.gradients import (
    TERM_CHECKS,
    build_state,
    evaluate_objective,
    term_evaluator,
)
from protoreg.grids import DimsMismatchError, LabelVolume, Volume, one_hot
from protoreg.losses import LossWeights
from protoreg.optimizer import RegistrationConfig, _cast, adam_step
from protoreg.phantom import generate, three_blob_spec
from protoreg.warp import DisplacementField, add_voxel_coords, mask_stack

DIMS = (6, 6, 6)


def rand_volume(seed, dims=DIMS):
    rng = np.random.default_rng(seed)
    return Volume(dims, (1, 1, 1), rng.normal(size=dims))


def soft_mask(seed, k=3, dims=DIMS):
    rng = np.random.default_rng(seed)
    ch = rng.uniform(0.05, 0.95, size=(k,) + dims)
    ch /= np.maximum(ch.sum(axis=0), 1.0)[None]
    return oracles.mask_from_channels(dims, (1, 1, 1), ch)


def rand_field(seed, scale=0.3, offset=0.13, dims=DIMS):
    # offset keeps sample positions off the lattice planes where trilinear
    # interpolation is non-smooth
    rng = np.random.default_rng(seed)
    return DisplacementField(
        dims, (1, 1, 1), rng.uniform(-scale, scale, size=(3,) + dims) + offset
    )


@pytest.fixture(scope="module")
def masks():
    """The (fixed, moving) masks of the ``state`` fixture."""
    return soft_mask(1), soft_mask(2)


@pytest.fixture(scope="module")
def state(masks):
    return build_state(
        rand_volume(42), rand_volume(43), LossWeights(1, 4, 1, 1, 0.1),
        *masks, window=3, temperature=0.1, max_points=64, seed=3,
    )


def test_quadratic_loss_fd_exact():
    def quad(field, with_grad=True):
        value = float((field.u ** 2).sum())
        return value, (2.0 * field.u if with_grad else None)

    field = rand_field(1, scale=1.0)
    max_abs, max_rel = oracles.finite_diff_check(quad, field, probe_count=32, eps=1e-3, seed=0)
    assert max_rel < 1e-9     # FD of a quadratic is exact up to rounding


@pytest.mark.parametrize("term", TERM_CHECKS)
def test_each_term_matches_finite_differences(state, term):
    ev = term_evaluator(state, term)
    _, max_rel = oracles.finite_diff_check(ev, rand_field(7), probe_count=64, eps=1e-3, seed=11)
    assert max_rel < 1e-3


@pytest.mark.parametrize("term", TERM_CHECKS)
def test_term_evaluator_rejects_a_term_the_state_was_built_without(term):
    # a state makes its constants only for its positive weights, so it
    # cannot answer for a term it was built without
    name = "prototype" if term in ("contrast", "align") else term
    weights = LossWeights(**{n: float(n != name) for n in losses.TERM_NAMES})
    st = build_state(rand_volume(42), rand_volume(43), weights, soft_mask(1), soft_mask(2),
                     window=3, max_points=64, seed=3)
    with pytest.raises(ValueError, match=name):
        term_evaluator(st, term)(rand_field(7))


@pytest.mark.parametrize("name", ["seg", "contour"])
def test_reweighting_cannot_switch_on_a_term_the_state_was_built_without(name):
    # re-weighted past build_state, the contour term would read 0.0 and seg
    # would find no fixed crops: evaluate_objective checks what was built
    built = dataclasses.replace(LossWeights(1, 4, 1, 1, 0.1), **{name: 0.0})
    st = build_state(rand_volume(42), rand_volume(43), built, soft_mask(1), soft_mask(2),
                     window=3, max_points=64, seed=3)
    raised = dataclasses.replace(st, weights=dataclasses.replace(built, **{name: 1.0}))
    for with_grad in (True, False):
        with pytest.raises(ValueError, match=name):
            evaluate_objective(raised, rand_field(7), with_grad=with_grad)
    evaluate_objective(st, rand_field(7))


@pytest.mark.parametrize("side", ["fixed", "moving"])
@pytest.mark.parametrize("weights", [LossWeights(0, 0, 1, 0, 0), LossWeights(0, 0, 0, 1, 0),
                                     LossWeights(0, 0, 0, 0, 1)], ids=["seg", "prototype", "contour"])
def test_build_state_rejects_masks_off_the_volumes_grid(weights, side):
    # 12^3 masks on 8^3 volumes, whichever mask term is on
    good, bad = soft_mask(1, dims=(8, 8, 8)), soft_mask(2, dims=(12, 12, 12))
    masks = (bad, good) if side == "fixed" else (good, bad)
    with pytest.raises(DimsMismatchError, match="masks"):
        build_state(rand_volume(3, (8, 8, 8)), rand_volume(4, (8, 8, 8)), weights, *masks,
                    window=3)


@pytest.mark.parametrize("dims", [(1, 8, 8), (8, 8, 1)])
def test_build_state_rejects_an_axis_too_short_for_the_prototype_term(dims):
    # np.gradient's central differences need 2 voxels on every axis
    masks = soft_mask(1, dims=dims), soft_mask(2, dims=dims)
    with pytest.raises(ValueError, match="prototype term needs at least 2 voxels") as raised:
        build_state(rand_volume(3, dims), rand_volume(4, dims), LossWeights(0, 0, 0, 1, 0),
                    *masks)
    assert str(dims) in str(raised.value)
    # the other terms do not need them
    build_state(rand_volume(3, dims), rand_volume(4, dims), LossWeights(0, 1, 1, 0, 0), *masks)


def test_smoothness_alone_tight():
    st = build_state(rand_volume(1, (5, 5, 5)), rand_volume(2, (5, 5, 5)),
                     LossWeights(0, 1, 0, 0, 0), window=3)
    ev = term_evaluator(st, "smooth")
    _, max_rel = oracles.finite_diff_check(ev, rand_field(5, dims=(5, 5, 5)),
                                           probe_count=64, eps=1e-3, seed=3)
    assert max_rel < 1e-5


def test_full_objective_matches_fd(state):
    field = rand_field(21)

    def ev(field, with_grad):
        breakdown, grad = evaluate_objective(state, field, with_grad=with_grad)
        return breakdown.total, grad

    _, max_rel = oracles.finite_diff_check(ev, field, probe_count=64, eps=1e-3, seed=17)
    assert max_rel < 1e-3


def _grad_at(state, field, weights):
    return evaluate_objective(dataclasses.replace(state, weights=weights), field)[1]


def test_gradient_linear_in_weights(state):
    field = rand_field(23)
    g_all = _grad_at(state, field, LossWeights(1, 4, 1, 1, 0.1))
    combo = np.zeros_like(g_all)
    for name, w in (("sim", 1.0), ("smooth", 4.0), ("seg", 1.0),
                    ("prototype", 1.0), ("contour", 0.1)):
        single = LossWeights(**{n: 0.0 for n in ("sim", "smooth", "seg", "prototype", "contour")}
                             | {name: 1.0})
        g = _grad_at(state, field, single)
        combo += w * g
    assert np.allclose(g_all, combo, atol=1e-10)


def test_zero_weights_zero_gradient(state):
    g = _grad_at(state, rand_field(29), LossWeights(0, 0, 0, 0, 0))
    assert not g.any()


def test_gradient_zero_at_similarity_optimum():
    fixed = rand_volume(31)
    moving = Volume(DIMS, (1, 1, 1), fixed.data.copy())
    st = build_state(fixed, moving, LossWeights(1, 0, 0, 0, 0), window=3)
    bd, g = evaluate_objective(st, DisplacementField.zeros(DIMS))
    assert bd.values["sim"] == pytest.approx(-1.0, abs=1e-6)
    assert np.linalg.norm(g) < 1e-6


def test_smooth_terms_stationary_at_identity():
    # smooth-at-optimum terms: similarity, smoothness, alignment, contour.
    # The Dice term sits at a one-sided kink for exactly-hard masks and the
    # contrast term is not optimized by the identity, so neither is included.
    fixed = rand_volume(33, (8, 8, 8))
    moving = Volume((8, 8, 8), (1, 1, 1), fixed.data.copy())
    labels = np.zeros((8, 8, 8), np.int32)
    labels[1:4, 1:4, 1:4] = 1
    labels[5:7, 4:7, 2:5] = 2
    oh = one_hot(LabelVolume((8, 8, 8), (1, 1, 1), labels, 2))
    st = build_state(fixed, moving, LossWeights(1, 1, 1, 1, 1), oh, oh,
                     window=5, max_points=512, seed=0)
    zero = DisplacementField.zeros((8, 8, 8))
    for term in ("sim", "smooth", "align", "contour"):
        _, g = term_evaluator(st, term)(zero, True)
        assert np.linalg.norm(g) < 1e-6, term


def _oracle_features(data):
    """The 2-channel feature bank, rebuilt with ``oracles.central_differences``:
    standardized intensity and standardized gradient magnitude."""
    def standardize(x):
        return (x - x.mean()) / np.sqrt(((x - x.mean()) ** 2).mean() + 1e-12)

    gx, gy, gz = (oracles.central_differences(data, a) for a in range(3))
    return np.stack([standardize(data), standardize(np.sqrt(gx ** 2 + gy ** 2 + gz ** 2 + 1e-12))])


def _band_voxels(state):
    """The voxels of each class's band points in ``state.contour_band``, (n, 3)."""
    band = state.contour_band
    return [np.column_stack(np.unravel_index(index[:count], state.dims))
            for index, count in zip(band.index, band.counts)]


def test_term_values_match_oracle_composition(state, masks):
    field = rand_field(37)
    bd, _ = evaluate_objective(state, field)
    u = field.u

    moved = oracles.warp(state.moving.data, u)
    fixed_ch = oracles.dense_channels(masks[0])
    moved_ch = np.stack([np.clip(oracles.warp(ch, u), 0.0, 1.0)
                         for ch in oracles.dense_channels(masks[1])])

    feats_f = _oracle_features(state.fixed.data)
    feats_m = _oracle_features(moved)
    protos_f, present_f = oracles.prototypes(feats_f, fixed_ch)
    protos_m, present_m = oracles.prototypes(feats_m, moved_ch)
    assign = np.where(fixed_ch.max(axis=0) >= 0.5, fixed_ch.argmax(axis=0) + 1, 0)
    contrast = 0.5 * (
        oracles.contrast(feats_m, assign, protos_f, present_f, state.temperature)
        + oracles.contrast(feats_f, assign, protos_f, present_f, state.temperature)
    )

    moving_ch = oracles.dense_channels(masks[1])
    contour = oracles.contour(fixed_ch, moving_ch, u, _band_voxels(state))[0]
    assert contour > 0.0

    want = {
        "sim": oracles.lncc(state.fixed.data, moved, 3),       # the fixture's window
        "smooth": oracles.smoothness(u),
        "seg": oracles.dice_loss(fixed_ch, moved_ch),
        "prototype": contrast + oracles.align(protos_f, present_f, protos_m, present_m),
        "contour": contour,
    }
    for name, value in want.items():
        assert bd.values[name] == pytest.approx(value, rel=1e-9), name


def _compact_masks():
    """Hard masks on (9, 8, 7): class 1 touches the x=0 face, class 2 the
    three far faces, class 3 is interior and class 4 is absent; the moving
    labels are the fixed ones rolled by one voxel on y."""
    dims = (9, 8, 7)
    labels = np.zeros(dims, np.int32)
    labels[0:3, 1:4, 1:4] = 1
    labels[6:9, 5:8, 4:7] = 2
    labels[3:6, 3:5, 2:4] = 3
    fixed = one_hot(LabelVolume(dims, (1, 1, 1), labels, 4))
    moving = one_hot(LabelVolume(dims, (1, 1, 1), np.roll(labels, 1, axis=1), 4))
    return fixed, moving


def _compact_state(weights):
    fixed, moving = _compact_masks()
    return build_state(rand_volume(51, fixed.dims), rand_volume(52, fixed.dims),
                       weights, fixed, moving, window=3)


@pytest.fixture(scope="module")
def compact_state():
    return _compact_state(LossWeights(0, 0, 1, 0, 0))


def test_compact_mask_boxes(compact_state):
    inf = np.inf
    assert compact_state.moving_masks.boxes == (
        ((-inf, 3.0), (1.0, 5.0), (0.0, 4.0)),
        ((5.0, inf), (-inf, inf), (3.0, inf)),
        ((2.0, 6.0), (3.0, 6.0), (1.0, 4.0)),
        None,
    )


def _assert_seg_matches_dense(state, u):
    # ``state`` is built from ``_compact_masks``; the blocks sum in another
    # order than the dense oracle, which moves the result by about 1e-16
    # relative
    value, grad = term_evaluator(state, "seg")(DisplacementField(state.dims, (1, 1, 1), u))
    fixed, moving = (oracles.dense_channels(mask) for mask in _compact_masks())
    want_value, want_grad = oracles.dense_seg(fixed, moving, u)
    assert value == pytest.approx(want_value, rel=1e-12)
    assert np.allclose(grad, want_grad, rtol=1e-12, atol=1e-12 * np.abs(want_grad).max())
    assert grad.any()


COMPACT_SHIFTS = [(-2.6, 0.4, 1.3), (2.2, -1.7, 0.3), (0.0, 0.0, 0.0)]


def _shifted_field(shift, dims):
    rng = np.random.default_rng(53)
    return np.asarray(shift)[:, None, None, None] + rng.uniform(-0.8, 0.8, (3,) + dims)


def _rounding_field(dims):
    # class 2 starts at x = 6, so its box starts at x = 5; 2 + (3 - 2**-51)
    # rounds to exactly 5, where the sample's x-derivative is non-zero,
    # although ceil(5 - (3 - 2**-51)) = 3 would leave x = 2 out
    u = np.zeros((3,) + dims)
    u[0] = np.nextafter(3.0, 0.0)
    assert 2.0 + u[0].max() == 5.0
    return u


@pytest.mark.parametrize("shift", COMPACT_SHIFTS)
def test_compact_masks_match_dense_sampling(compact_state, shift):
    # samples past the faces read the clamped face values, and samples one
    # voxel outside a support still carry a derivative: the support-block
    # sampling must reproduce the dense sampling to rounding
    _assert_seg_matches_dense(compact_state, _shifted_field(shift, compact_state.dims))


def test_compact_masks_sample_rounded_onto_box_face(compact_state):
    _assert_seg_matches_dense(compact_state, _rounding_field(compact_state.dims))


@pytest.mark.parametrize("shift", [(0, 0, 0), (1, 0, 0), (-1, 2, 0), (0, -2, 1)])
def test_compact_masks_match_dense_sampling_on_the_lattice(compact_state, shift):
    # every sample sits on a lattice point, where trilinear sampling reads the
    # cell above it; at b + 1, one voxel past a support [a, b], that cell is
    # zero, so the crops must hold two zero layers above the support: with
    # one, the sample would clamp into the cell below and take a backward
    # difference
    u = np.zeros((3,) + compact_state.dims) + np.reshape(shift, (3, 1, 1, 1))
    _assert_seg_matches_dense(compact_state, u)


def test_compact_masks_align_matches_whole_grid_blocks():
    # the alignment half pools features and scatters its gradients on each
    # channel's block; opening every box to the whole grid gives whole-grid
    # blocks, which must agree to rounding
    state = _compact_state(LossWeights(0, 0, 0, 1, 0))
    whole = ((-np.inf, np.inf),) * 3
    opened = dataclasses.replace(state, moving_masks=state.moving_masks._replace(boxes=tuple(
        None if box is None else whole for box in state.moving_masks.boxes)))
    fields = [_shifted_field(shift, state.dims) for shift in COMPACT_SHIFTS]
    for u in fields + [_rounding_field(state.dims)]:
        field = DisplacementField(state.dims, (1, 1, 1), u)
        value, grad = term_evaluator(state, "align")(field)
        want_value, want_grad = term_evaluator(opened, "align")(field)
        assert value == pytest.approx(want_value, rel=1e-12)
        assert np.allclose(grad, want_grad, rtol=1e-12, atol=1e-12 * np.abs(want_grad).max())
        assert grad.any()


def test_compact_masks_need_no_dense_channel_array():
    # twelve 4^3 organs on 32^3: the evaluation works on the channels'
    # blocks and never holds a K x N array of moved mask values
    dims, k = (32, 32, 32), 12
    labels = np.zeros(dims, np.int32)
    for c in range(k):
        x, y, z = 3 + 9 * (c % 3), 3 + 9 * (c // 3 % 2), 6 + 12 * (c // 6)
        labels[x:x + 4, y:y + 4, z:z + 4] = c + 1
    fixed = one_hot(LabelVolume(dims, (1, 1, 1), labels, k))
    moving = one_hot(LabelVolume(dims, (1, 1, 1), np.roll(labels, 1, axis=1), k))
    state = build_state(rand_volume(54, dims), rand_volume(55, dims),
                        LossWeights(0, 0, 1, 0, 0), fixed, moving, window=3)
    field = DisplacementField(dims, (1, 1, 1),
                              np.random.default_rng(56).uniform(-1, 1, (3,) + dims))
    tracemalloc.start()
    try:
        _, grad = evaluate_objective(state, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grad.any()
    assert peak < k * np.prod(dims) * 8


def _gradient_accumulated_from_the_start(state, field):
    """``evaluate_objective``'s gradient with its accumulator made before any
    term runs and the smoothness term added first, the seg and prototype
    terms running with it live: the same arithmetic in the same order."""
    wd = state.weights.as_dict()
    dims = state.dims
    grad = np.zeros((3,) + dims)
    pts = np.indices(dims) + field.u
    moved, moved_pos = gradients.sample_volume_with_gradient(state.moving.data, pts)
    d_moved = np.zeros(dims)
    windows, mask_pts = gradients.mask_points(state.moving_masks, field.u)
    masks, masks_pos = gradients.sample_volume_with_gradient(state.moving_masks.values, mask_pts)
    np.clip(masks, 0.0, 1.0, out=masks)
    d_masks = np.zeros(masks.shape)
    d_moved += wd["sim"] * losses._lncc(state.fixed.data, moved, state.lncc_fixed, True)[1]
    grad += wd["smooth"] * losses._smoothness(field.u, np.zeros(field.u.shape))[1]
    d_masks += wd["seg"] * losses._dice(gradients._on_windows(state.fixed_crops, windows),
                                        state.fixed_mass, masks, True)[1]
    _, g, g_masks = losses._prototype(moved, windows, masks, state.fixed_assign,
                                      state.fixed_protos, state.contrast_fixed,
                                      state.temperature, "both", True)
    d_moved += wd["prototype"] * g
    d_masks += wd["prototype"] * g_masks
    band = state.contour_band       # its coords: test_band_coords_place_the_band_points
    sampled, sampled_pos = gradients.sample_volume_with_gradient(
        band.maps, field.u.reshape(3, -1)[:, band.index] + band.coords)
    g = sampled_pos * (wd["contour"] * losses._contour(band, sampled, True)[1])
    for k, count in enumerate(band.counts):
        grad.reshape(3, -1)[:, band.index[k, :count]] += g[:, k, :count]
    grad += d_moved * moved_pos
    losses._add_on_windows(grad, windows, d_masks * masks_pos)
    return grad


@pytest.mark.parametrize("which", ["state", "twelve"])
def test_gradient_accumulator_made_late_is_bit_identical(state, which):
    st = state if which == "state" else _twelve_organ_state(LossWeights(1, 4, 1, 1, 0.1))
    field = rand_field(64, dims=st.dims)
    _, grad = evaluate_objective(st, field)
    want = _gradient_accumulated_from_the_start(st, field)
    assert grad.any() and (grad == want).all()


def _whole_grid_signed_distance(channel):
    """S of the hard mask ``channel >= 0.5`` on the whole grid, positive
    outside and background beyond the grid, by scipy's exact EDT."""
    fg = np.pad(channel >= 0.5, 1)
    return (ndimage.distance_transform_edt(~fg)
            - ndimage.distance_transform_edt(fg))[1:-1, 1:-1, 1:-1]


@pytest.mark.parametrize("which", ["soft", "compact", "phantom"])
def test_band_coords_place_the_band_points(which):
    # each class's map read at its band points' box coordinates is the
    # moving mask's signed distance on the whole grid at their flat indices
    if which == "soft":
        fixed, moving = soft_mask(1), soft_mask(2)
    elif which == "compact":
        fixed, moving = _compact_masks()
    else:       # 50 of each class's band points, a subsample
        pair = generate(three_blob_spec(dims=(24, 24, 24), seed=1))
        fixed, moving = one_hot(pair.fixed_labels), one_hot(pair.moving_labels)
    band = build_state(rand_volume(5, fixed.dims), rand_volume(6, fixed.dims),
                       LossWeights(0, 0, 0, 0, 1), fixed, moving, max_points=50).contour_band
    fixed_ch, moving_ch = oracles.dense_channels(fixed), oracles.dense_channels(moving)
    classes = [k for k in range(len(fixed_ch))
               if (fixed_ch[k] >= 0.5).any() and (moving_ch[k] >= 0.5).any()]
    assert band.coords.dtype == band.maps.dtype
    assert band.coords.shape == (3, len(classes), band.index.shape[1])
    assert (band.coords == np.round(band.coords)).all()
    for row, k in enumerate(classes):
        at_box = band.maps[row][tuple(band.coords[:, row].astype(np.intp))]
        whole = _whole_grid_signed_distance(moving_ch[k]).ravel()[band.index[row]]
        assert np.array_equal(at_box, whole)


def test_evaluation_working_memory_is_bounded():
    # all five terms on twelve organs at 32^3, at the shipped block size: the
    # sampler's workspace is a fraction of one grid array, so the terms set
    # the peak: the prototype term's feature bank, its cache and gradient
    # over the samples, their derivatives and the moved image's gradient,
    # about 16 float64 arrays of the grid's size (23 when each term made its
    # own zeroed gradient and stacks; 20.7 when the sampler allocated its
    # temporaries per 16,384-point block)
    st = _twelve_organ_state(LossWeights(1, 4, 1, 1, 0.1))
    field = rand_field(64, dims=st.dims)
    tracemalloc.start()
    try:
        _, grad = evaluate_objective(st, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grad.any()
    assert peak < 17 * np.prod(st.dims) * 8


def test_gradient_finite_everywhere(state):
    _, g = evaluate_objective(state, rand_field(41, scale=3.0))
    assert np.isfinite(g).all()
    assert g.shape == (3,) + DIMS


@pytest.mark.parametrize("kind", ["rand", "normal"])
@pytest.mark.parametrize("which", ["state", "compact"])
def test_value_only_evaluation_equals_gradient_path(state, which, kind):
    # the value-only path samples without derivatives through another
    # sampler entry point; every term value and the total must not move
    st = state if which == "state" else _compact_state(LossWeights(1, 4, 1, 1, 0.1))
    if kind == "rand":
        field = rand_field(61, dims=st.dims)
    else:
        field = DisplacementField(st.dims, (1, 1, 1),
                                  np.random.default_rng(62).normal(0, 1.5, (3,) + st.dims))
    with_grad, grad = evaluate_objective(st, field, with_grad=True)
    value_only, none = evaluate_objective(st, field, with_grad=False)
    assert none is None and grad.any()
    assert value_only.values == with_grad.values
    assert value_only.total == with_grad.total
    for term in TERM_CHECKS:
        ev = term_evaluator(st, term)
        assert ev(field, False)[0] == ev(field, True)[0], term


def _held_bytes(obj, seen):
    """Bytes of the distinct arrays reachable from ``obj`` through dataclass
    fields and tuples."""
    if isinstance(obj, np.ndarray):
        new = id(obj) not in seen
        seen.add(id(obj))
        return obj.nbytes if new else 0
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif not isinstance(obj, (tuple, list, frozenset)):
        return 0
    return sum(_held_bytes(child, seen) for child in obj)


def test_state_holds_no_dense_channel_array():
    # with all five terms the state keeps the masks only on their crops:
    # everything it holds stays under half of one K x N float64 array
    st = _twelve_organ_state(LossWeights(1, 4, 1, 1, 0.1))
    k, n = len(st.moving_masks.boxes), np.prod(st.dims)
    assert st.moving_masks.values.shape[0] == len(st.fixed_crops) == k
    assert _held_bytes(st, set()) < k * n * 8 / 2


def _twelve_organ_state(weights, dtype=np.float64):
    # the geometry of test_compact_masks_need_no_dense_channel_array; the
    # volumes and masks are cast to ``dtype``
    dims, k = (32, 32, 32), 12
    labels = np.zeros(dims, np.int32)
    for c in range(k):
        x, y, z = 3 + 9 * (c % 3), 3 + 9 * (c // 3 % 2), 6 + 12 * (c // 6)
        labels[x:x + 4, y:y + 4, z:z + 4] = c + 1
    fixed = one_hot(LabelVolume(dims, (1, 1, 1), labels, k))
    moving = one_hot(LabelVolume(dims, (1, 1, 1), np.roll(labels, 1, axis=1), k))
    grids = (rand_volume(54, dims), rand_volume(55, dims), fixed, moving)
    fixed_volume, moving_volume, fixed, moving = (_cast(grid, dtype) for grid in grids)
    return build_state(fixed_volume, moving_volume, weights, fixed, moving, window=3)


def _assert_one_sampler_call_per_kind(st, monkeypatch):
    calls = []
    sample = gradients.sample_volume_with_gradient

    def recorder(data, points):
        calls.append((data, points))
        return sample(data, points)

    monkeypatch.setattr(gradients, "sample_volume_with_gradient", recorder)
    field = rand_field(63, dims=st.dims)
    evaluate_objective(st, field)
    images = [points for data, points in calls if data is st.moving.data]
    masks = [points for data, points in calls if data is st.moving_masks.values]
    maps = [points for data, points in calls if data is st.contour_band.maps]
    assert len(calls) == 3
    assert len(images) == 1 and images[0].shape == (3,) + st.dims
    assert len(masks) == 1 and masks[0].ndim == 5
    assert masks[0].shape[:2] == (3, len(st.moving_masks.boxes))
    assert len(maps) == 1 and maps[0].shape == (3,) + st.contour_band.index.shape
    calls.clear()
    evaluate_objective(st, field, with_grad=False)
    assert calls == []


def test_sampler_call_shape(state, monkeypatch):
    # the with-gradient path calls gradients.sample_volume_with_gradient as
    # (data, points) three times: the moving image itself once, the mask
    # channel stack itself once, at (3, K, wx, wy, wz) points, and the
    # contour term's distance maps once, at (3, P, n) band points; a
    # value-only evaluation never calls it
    _assert_one_sampler_call_per_kind(state, monkeypatch)


def test_sampler_call_count_does_not_grow_with_classes(monkeypatch):
    _assert_one_sampler_call_per_kind(
        _twelve_organ_state(LossWeights(1, 4, 1, 1, 0.1)), monkeypatch)


# ------------------------------------------------- contours, all classes at once

def _assert_contour_matches_dense(state, fixed, moving, field):
    # the state samples every class's map on its box in one call; the
    # oracle samples whole-grid maps of its own, class by class
    value, grad = term_evaluator(state, "contour")(field)
    want_value, want_grad = oracles.contour(oracles.dense_channels(fixed),
                                            oracles.dense_channels(moving), field.u)
    assert value == pytest.approx(want_value, rel=1e-12)
    assert np.allclose(grad, want_grad, rtol=1e-12, atol=1e-12 * np.abs(want_grad).max())
    assert grad.any()


def _contour_state(fixed, moving):
    return build_state(rand_volume(71, fixed.dims), rand_volume(72, fixed.dims),
                       LossWeights(0, 0, 0, 0, 1), fixed, moving, window=3, max_points=10 ** 6)


def test_contour_classes_batched_match_per_class(masks):
    _assert_contour_matches_dense(_contour_state(*masks), *masks, rand_field(73))


def _face_and_odd_masks(dims):
    """Class 1 touches the x=0 face, class 2 the three far faces, class 3 is
    interior; the moving labels are the fixed ones rolled by one voxel on y."""
    nx, ny, nz = dims
    labels = np.zeros(dims, np.int32)
    labels[0:3, 1:4, 1:4] = 1
    labels[nx - 3:, ny - 3:, nz - 3:] = 2
    labels[3:6, 4:7, 2:4] = 3
    return tuple(one_hot(LabelVolume(dims, (1, 1, 1), np.roll(labels, shift, axis=1), 3))
                 for shift in (0, 1))


@pytest.mark.parametrize("dims", [(8, 8, 8), (9, 12, 7), (20, 16, 12)],
                         ids=["face-8x8x8", "odd-9x12x7", "boxes-20x16x12"])
def test_contour_on_faces_and_odd_grids_matches_oracle_and_fd(dims):
    masks = _face_and_odd_masks(dims)
    state = _contour_state(*masks)
    field = rand_field(74, dims=dims)
    _assert_contour_matches_dense(state, *masks, field)
    _, max_rel = oracles.finite_diff_check(term_evaluator(state, "contour"), field,
                                           probe_count=64, eps=1e-3, seed=15)
    assert max_rel < 1e-3


def test_contour_voxel_of_two_classes_gets_both_gradients():
    # voxel (2, 2, 2) holds 0.5 of each class, so it is in both hard masks
    # and both bands, and the gradients of both classes must land on it
    labels = np.zeros(DIMS, np.int32)
    labels[1:3, 1:4, 1:4] = 1
    labels[3:5, 1:4, 1:4] = 2
    channels = oracles.dense_channels(one_hot(LabelVolume(DIMS, (1, 1, 1), labels, 2)))
    channels[:, 2, 2, 2] = 0.5
    fixed = oracles.mask_from_channels(DIMS, (1, 1, 1), channels)
    moving = one_hot(LabelVolume(DIMS, (1, 1, 1), np.roll(labels, 1, axis=1), 2))
    st = _contour_state(fixed, moving)
    voxel = np.ravel_multi_index((2, 2, 2), DIMS)
    for index, count in zip(st.contour_band.index, st.contour_band.counts):
        assert voxel in index[:count]
    _assert_contour_matches_dense(st, fixed, moving, rand_field(73))


def test_objective_does_not_depend_on_the_volumes_memory_layout():
    # volumes built from Fortran-ordered arrays (the layout of a NIfTI
    # payload) are held C-ordered, so value and gradient equal the C-order
    # inputs' bit for bit
    pair = generate(three_blob_spec(dims=(20, 20, 20), num_blobs=2, magnitude=1.5, seed=1))
    field = DisplacementField(pair.truth.dims, pair.truth.spacing, 0.5 * pair.truth.u)

    def evaluate(layout):
        fixed, moving = (Volume(v.dims, v.spacing, layout(v.data))
                         for v in (pair.fixed, pair.moving))
        st = build_state(fixed, moving, LossWeights(1, 4, 1, 1, 0.1),
                         one_hot(pair.fixed_labels), one_hot(pair.moving_labels),
                         window=5, max_points=256)
        return evaluate_objective(st, field)

    want, want_grad = evaluate(np.ascontiguousarray)
    got, got_grad = evaluate(np.asfortranarray)
    assert got == want and np.array_equal(got_grad, want_grad)


# ------------------------------------------------------- float32 evaluations

@pytest.fixture(scope="module")
def state32(masks):
    """The ``state`` fixture built from float32 volumes and masks."""
    f32 = np.float32
    return build_state(_cast(rand_volume(42), f32), _cast(rand_volume(43), f32),
                       LossWeights(1, 4, 1, 1, 0.1), *(_cast(m, f32) for m in masks),
                       window=3, temperature=0.1, max_points=64, seed=3)


def _float32_field(field):
    return DisplacementField(field.dims, field.spacing, field.u.astype(np.float32))


@pytest.mark.parametrize("which", ["state", "twelve"])
@pytest.mark.parametrize("term", TERM_CHECKS)
def test_float32_terms_agree_with_float64(state, state32, term, which):
    # single precision, from the constants of the level to the gradient:
    # each value within 1e-4 relative of float64's and each gradient within
    # 1e-3 in relative L2 norm, at the same (float32-representable) field
    weights = LossWeights(1, 4, 1, 1, 0.1)
    st, st32 = ((state, state32) if which == "state" else
                (_twelve_organ_state(weights), _twelve_organ_state(weights, np.float32)))
    field32 = _float32_field(rand_field(7, dims=st.dims))
    field = DisplacementField(st.dims, (1, 1, 1), field32.u.astype(np.float64))
    value, grad = term_evaluator(st, term)(field)
    value32, grad32 = term_evaluator(st32, term)(field32)
    assert grad32.dtype == np.float32 and grad.dtype == np.float64
    assert value32 == pytest.approx(value, rel=1e-4)
    assert np.linalg.norm(grad32 - grad) <= 1e-3 * np.linalg.norm(grad)
    assert grad.any()


def test_float32_evaluation_and_adam_step_stay_float32(state32, monkeypatch):
    # every constant of the level, every sampled (moved) array and its
    # spatial derivative, every gradient and the Adam update are float32
    band = state32.contour_band
    bands, _, s_i, b, _ = state32.lncc_fixed
    constants = [state32.fixed.data, state32.moving.data, state32.moving_masks.values,
                 state32.fixed_mass, state32.fixed_protos.vectors, band.maps, band.target,
                 band.coords, s_i, b, *bands]
    constants += [crop.values for crop in state32.fixed_crops if crop is not None]
    assert all(array.dtype == np.float32 for array in constants)
    calls = []
    sample = gradients.sample_volume_with_gradient

    def recorder(data, points):
        value, grad = sample(data, points)
        calls.append((points, value, grad))
        return value, grad

    monkeypatch.setattr(gradients, "sample_volume_with_gradient", recorder)
    field = _float32_field(rand_field(7))
    _, grad = evaluate_objective(state32, field)
    assert len(calls) == 3
    assert all(array.dtype == np.float32 for call in calls for array in call)
    for term in TERM_CHECKS:
        assert term_evaluator(state32, term)(field)[1].dtype == np.float32, term
    m, v = np.zeros_like(field.u), np.zeros_like(field.u)
    stepped = adam_step(field, grad, m, v, 1, RegistrationConfig())
    assert stepped.u.dtype == m.dtype == v.dtype == np.float32


def test_float32_evaluation_working_memory_is_bounded():
    # the state of test_evaluation_working_memory_is_bounded in float32: its
    # 16.4 float64 grid arrays halve to 8.3 (measured), so a float64 array
    # of the grid's size made on the way would show
    st = _twelve_organ_state(LossWeights(1, 4, 1, 1, 0.1), np.float32)
    field = _float32_field(rand_field(64, dims=st.dims))
    tracemalloc.start()
    try:
        _, grad = evaluate_objective(st, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grad.any() and grad.dtype == np.float32
    assert peak < 9 * np.prod(st.dims) * 8


def _float32_rounding_field(dims):
    # class 2 of ``_compact_masks`` starts at x = 6, so its box starts at
    # x = 5; in float32, 2 + (3 - 2**-22) rounds to exactly 5, where the
    # sample's x-derivative is non-zero, although in float64 it stays below 5
    u = np.zeros((3,) + dims, np.float32)
    u[0] = np.nextafter(np.float32(3), np.float32(0))
    assert np.float32(2) + u[0].max() == 5 and 2.0 + float(u[0].max()) < 5.0
    return u


@pytest.mark.parametrize("shift", COMPACT_SHIFTS + ["rounded"])
def test_float32_masked_samples_equal_dense_samples(shift):
    # the objective samples each float32 channel on its window at float32
    # points; value and derivative must be the whole channel's sampled at
    # the same points, bit for bit, and exactly 0 off the window
    moving = _cast(_compact_masks()[1], np.float32)
    dims = moving.dims
    u = (_float32_rounding_field(dims) if shift == "rounded"
         else _shifted_field(shift, dims).astype(np.float32))
    stack = mask_stack(moving)
    windows, pts = gradients.mask_points(stack, u)
    values, derivs = gradients.sample_volume_with_gradient(stack.values, pts)
    assert values.dtype == derivs.dtype == np.float32
    dense = oracles.dense_channels(moving).astype(np.float32)
    points = add_voxel_coords(u.copy())
    for k, window in enumerate(windows):
        want, want_d = gradients.sample_volume_with_gradient(dense[k], points)
        assert np.array_equal(values[k], want[window])
        assert np.array_equal(derivs[:, k], want_d[(slice(None),) + window])
        off = np.ones(dims, bool)
        off[window] = False
        assert not want[off].any() and not want_d[:, off].any()
    if shift == "rounded":
        # the voxels at x = 2 sample class 2 on its box face: the window
        # holds them, and their x-derivative is not 0
        assert windows[1][0].start <= 2
        assert gradients.sample_volume_with_gradient(dense[1], points)[1][0, 2].any()
