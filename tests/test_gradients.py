import dataclasses
import tracemalloc

import numpy as np
import pytest

import oracles
from protoreg import gradients, losses
from protoreg.gradients import (
    TERM_CHECKS,
    build_state,
    chamfer_tie_margin,
    evaluate_objective,
    finite_diff_check,
    term_evaluator,
)
from protoreg.grids import DimsMismatchError, LabelVolume, OneHotMask, Volume, one_hot
from protoreg.losses import LossWeights
from protoreg.warp import DisplacementField

DIMS = (6, 6, 6)


def rand_volume(seed, dims=DIMS):
    rng = np.random.default_rng(seed)
    return Volume(dims, (1, 1, 1), rng.normal(size=dims))


def soft_mask(seed, k=3, dims=DIMS):
    rng = np.random.default_rng(seed)
    ch = rng.uniform(0.05, 0.95, size=(k,) + dims)
    ch /= np.maximum(ch.sum(axis=0), 1.0)[None]
    return OneHotMask(dims, (1, 1, 1), ch)


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
    max_abs, max_rel = finite_diff_check(quad, field, probe_count=32, eps=1e-3, seed=0)
    assert max_rel < 1e-9     # FD of a quadratic is exact up to rounding


def tie_free_field(state, eps=1e-3, seeds=range(50)):
    """First seeded random field whose Chamfer nearest-neighbor margins stay
    clear of the probe step (documented non-smooth points are resampled)."""
    for seed in seeds:
        field = rand_field(seed)
        if chamfer_tie_margin(state, field) > 10 * eps:
            return field
    raise AssertionError("no tie-free field found")


@pytest.mark.parametrize("term", TERM_CHECKS)
def test_each_term_matches_finite_differences(state, term):
    field = tie_free_field(state) if term == "contour" else rand_field(7)
    ev = term_evaluator(state, term)
    _, max_rel = finite_diff_check(ev, field, probe_count=64, eps=1e-3, seed=11)
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


def test_smoothness_alone_tight():
    st = build_state(rand_volume(1, (5, 5, 5)), rand_volume(2, (5, 5, 5)),
                     LossWeights(0, 1, 0, 0, 0), window=3)
    ev = term_evaluator(st, "smooth")
    _, max_rel = finite_diff_check(ev, rand_field(5, dims=(5, 5, 5)),
                                   probe_count=64, eps=1e-3, seed=3)
    assert max_rel < 1e-5


def test_chamfer_alone_with_fixed_seeds(state):
    ev = term_evaluator(state, "contour")
    field = tie_free_field(state)
    _, max_rel = finite_diff_check(ev, field, probe_count=64, eps=1e-3, seed=13)
    assert max_rel < 1e-3


def test_chamfer_tie_detection_matches_fd_blowup(state):
    # seed 7 is a known near-tie instance: the margin detector flags it and
    # shrinking the probe below the margin restores quadratic convergence
    field = rand_field(7)
    assert chamfer_tie_margin(state, field) < 1e-2
    ev = term_evaluator(state, "contour")
    _, max_rel = finite_diff_check(ev, field, probe_count=64, eps=1e-5, seed=11)
    assert max_rel < 1e-3


def test_full_objective_matches_fd(state):
    field = rand_field(21)

    def ev(field, with_grad):
        breakdown, grad = evaluate_objective(state, field, with_grad=with_grad)
        return breakdown.total, grad

    _, max_rel = finite_diff_check(ev, field, probe_count=64, eps=1e-3, seed=17)
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
    """The 2-channel feature bank, rebuilt with np.gradient: standardized
    intensity and standardized gradient magnitude."""
    def standardize(x):
        return (x - x.mean()) / np.sqrt(((x - x.mean()) ** 2).mean() + 1e-12)

    gx, gy, gz = np.gradient(data)
    return np.stack([standardize(data), standardize(np.sqrt(gx ** 2 + gy ** 2 + gz ** 2 + 1e-12))])


def _contour_classes(state):
    """(fixed points, moving points) of each class of ``state.contour_pairs``."""
    fixed, fixed_class, moving, moving_class = state.contour_pairs
    return [(fixed[fixed_class == c], moving[moving_class == c])
            for c in range(fixed_class.max() + 1)]


def test_term_values_match_oracle_composition(state, masks):
    field = rand_field(37)
    bd, _ = evaluate_objective(state, field)
    u = field.u

    moved = oracles.warp(state.moving.data, u)
    fixed_ch = masks[0].channels
    moved_ch = np.stack([np.clip(oracles.warp(ch, u), 0.0, 1.0)
                         for ch in masks[1].channels])

    feats_f = _oracle_features(state.fixed.data)
    feats_m = _oracle_features(moved)
    protos_f, present_f = oracles.prototypes(feats_f, fixed_ch)
    protos_m, present_m = oracles.prototypes(feats_m, moved_ch)
    assign = np.where(fixed_ch.max(axis=0) >= 0.5, fixed_ch.argmax(axis=0) + 1, 0)
    contrast = 0.5 * (
        oracles.contrast(feats_m, assign, protos_f, present_f, state.temperature)
        + oracles.contrast(feats_f, assign, protos_f, present_f, state.temperature)
    )

    chamfers = []
    for fixed_pts, moving_pts in _contour_classes(state):
        carried = np.array([[p[c] + oracles.trilinear(u[c], p) for c in range(3)]
                            for p in fixed_pts])
        chamfers.append(oracles.chamfer(carried, moving_pts))
    assert chamfers

    want = {
        "sim": oracles.lncc(state.fixed.data, moved, state.window),
        "smooth": oracles.smoothness(u),
        "seg": oracles.dice_loss(fixed_ch, moved_ch),
        "prototype": contrast + oracles.align(protos_f, present_f, protos_m, present_m),
        "contour": sum(chamfers) / len(chamfers),
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
    assert compact_state.mask_boxes == (
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
    fixed, moving = _compact_masks()
    want_value, want_grad = oracles.dense_seg(fixed.channels, moving.channels, u)
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
    opened = dataclasses.replace(state, mask_boxes=tuple(
        None if box is None else whole for box in state.mask_boxes))
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
    pts = field.u.copy()
    for a, axis in enumerate(state.grid):
        pts[a] += axis
    moved, moved_pos = gradients.sample_volume_with_gradient(state.moving.data, pts)
    d_moved = np.zeros(dims)
    windows = gradients._mask_windows(state.mask_boxes, field.u, dims)
    crops = state.moving_crops
    mask_pts = np.stack([pts[(slice(None),) + window] for window in windows], axis=1)
    mask_pts -= crops.origins.T[:, :, None, None, None]
    masks, masks_pos = gradients.sample_volume_with_gradient(crops.values, mask_pts)
    np.clip(masks, 0.0, 1.0, out=masks)
    d_masks = np.zeros(masks.shape)
    d_moved += wd["sim"] * losses._lncc(state.fixed.data, moved, state.window,
                                        state.lncc_fixed, True)[1]
    grad += wd["smooth"] * losses._smoothness(field.u, True)[1]
    fixed_crops = zip(state.fixed_crops.origins.tolist(), state.fixed_crops.values)
    d_masks += wd["seg"] * losses._dice(gradients._on_windows(fixed_crops, windows),
                                        state.fixed_mass, masks, True)[1]
    _, g, g_masks = losses._prototype(moved, windows, masks, state.fixed_assign,
                                      state.fixed_protos, state.contrast_fixed,
                                      state.temperature, "both", True)
    d_moved += wd["prototype"] * g
    d_masks += wd["prototype"] * g_masks
    flat, carried = gradients._carried(state.contour_pairs, field)
    g = losses._class_chamfer(carried, *state.contour_pairs[1:], True)[1]
    for component, g_c in zip(grad.reshape(3, -1), g.T):
        np.add.at(component, flat, wd["contour"] * g_c)
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
    k, n = len(st.mask_boxes), np.prod(st.dims)
    assert st.moving_crops.values.shape[0] == st.fixed_crops.values.shape[0] == k
    assert _held_bytes(st, set()) < k * n * 8 / 2


def _twelve_organ_state(weights):
    # the geometry of test_compact_masks_need_no_dense_channel_array
    dims, k = (32, 32, 32), 12
    labels = np.zeros(dims, np.int32)
    for c in range(k):
        x, y, z = 3 + 9 * (c % 3), 3 + 9 * (c // 3 % 2), 6 + 12 * (c // 6)
        labels[x:x + 4, y:y + 4, z:z + 4] = c + 1
    fixed = one_hot(LabelVolume(dims, (1, 1, 1), labels, k))
    moving = one_hot(LabelVolume(dims, (1, 1, 1), np.roll(labels, 1, axis=1), k))
    return build_state(rand_volume(54, dims), rand_volume(55, dims),
                       weights, fixed, moving, window=3)


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
    masks = [points for data, points in calls if data is st.moving_crops.values]
    assert len(calls) == 2
    assert len(images) == 1 and images[0].shape == (3,) + st.dims
    assert len(masks) == 1 and masks[0].ndim == 5
    assert masks[0].shape[:2] == (3, len(st.mask_boxes))
    calls.clear()
    evaluate_objective(st, field, with_grad=False)
    assert calls == []


def test_sampler_call_shape(state, monkeypatch):
    # the with-gradient path calls gradients.sample_volume_with_gradient as
    # (data, points) twice: the moving image itself once, and the mask
    # channel stack itself once, at (3, K, wx, wy, wz) points; a value-only
    # evaluation never calls it
    _assert_one_sampler_call_per_kind(state, monkeypatch)


def test_sampler_call_count_does_not_grow_with_classes(monkeypatch):
    _assert_one_sampler_call_per_kind(
        _twelve_organ_state(LossWeights(1, 4, 1, 1, 0.1)), monkeypatch)


# ------------------------------------------------- contours, all classes at once

def _per_class_contour(state, field):
    """The contour term class by class: the value as the mean of the
    exhaustive ``oracles.chamfer``, the gradient as one add per class of
    ``losses._class_chamfer`` called with that class alone."""
    classes = _contour_classes(state)
    values, grad = [], np.zeros((3,) + state.dims)
    for fixed_pts, moving_pts in classes:
        index = (slice(None),) + tuple(fixed_pts.T.astype(np.intp))
        carried = fixed_pts + field.u[index].T
        values.append(oracles.chamfer(carried, moving_pts))
        one = losses._class_chamfer(carried, np.zeros(len(carried), int),
                                    moving_pts, np.zeros(len(moving_pts), int), True)[1]
        grad[index] += one.T / len(classes)
    return float(np.mean(values)), grad


def _assert_contour_matches_per_class(state, field):
    value, grad = term_evaluator(state, "contour")(field)
    want_value, want_grad = _per_class_contour(state, field)
    assert value == pytest.approx(want_value, rel=1e-12)
    assert np.allclose(grad, want_grad, rtol=1e-12, atol=1e-12 * np.abs(want_grad).max())
    assert grad.any()


def test_contour_classes_batched_match_per_class(state):
    _assert_contour_matches_per_class(state, tie_free_field(state))


def test_contour_gap_follows_the_points_extent(state):
    # the carried points land ten grid extents away from the moving points,
    # so a class gap taken from the grid would let classes mix
    field = tie_free_field(state)
    shift = 10.0 * max(DIMS) * np.array([1.0, 0.7, 0.4])[:, None, None, None]
    _assert_contour_matches_per_class(
        state, DisplacementField(DIMS, (1, 1, 1), field.u + shift))


def test_contour_voxel_of_two_classes_gets_both_gradients():
    # voxel (2, 2, 2) holds 0.5 of each class, so it is a contour point of
    # both, and the gradients of both classes must land on it
    labels = np.zeros(DIMS, np.int32)
    labels[1:3, 1:4, 1:4] = 1
    labels[3:5, 1:4, 1:4] = 2
    channels = one_hot(LabelVolume(DIMS, (1, 1, 1), labels, 2)).channels.copy()
    channels[:, 2, 2, 2] = 0.5
    fixed = OneHotMask(DIMS, (1, 1, 1), channels)
    moving = one_hot(LabelVolume(DIMS, (1, 1, 1), np.roll(labels, 1, axis=1), 2))
    st = build_state(rand_volume(71), rand_volume(72), LossWeights(0, 0, 0, 0, 1),
                     fixed, moving, window=3, max_points=512)
    fixed_pts, fixed_class = st.contour_pairs[:2]
    for c in range(2):
        assert (fixed_pts[fixed_class == c] == 2.0).all(axis=1).any(), c
    _assert_contour_matches_per_class(st, rand_field(73))
