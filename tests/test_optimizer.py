import dataclasses
import logging
import re
import tracemalloc

import numpy as np
import pytest

import protoreg
from protoreg import io, metrics, optimizer
from protoreg.gradients import build_state, evaluate_objective
from protoreg.grids import LabelVolume, build_pyramid, one_hot
from protoreg.losses import LossWeights
from protoreg.metrics import evaluate
from protoreg.optimizer import (AdamState, NonFiniteLossError, RegistrationConfig, adam_step,
                                register_pair)
from protoreg.phantom import generate, three_blob_spec, twelve_blob_spec
from protoreg.warp import (DisplacementField, jacobian_determinant, superpose, upsample_field,
                           warp_labels)
from protoreg.warp import sdlogj as warp_sdlogj

CONFIG = RegistrationConfig(learning_rate=1e-2, iterations=(10, 10, 10, 10))


def epe(u, truth):
    return float(np.sqrt(((u - truth.u) ** 2).sum(axis=0)).mean())


def small_pair(seed):
    return generate(three_blob_spec(dims=(20, 20, 20), num_blobs=2, magnitude=1.5, seed=seed))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_register_pair_registers_small_phantoms(seed):
    pair = small_pair(seed)
    result = register_pair(pair.fixed, pair.moving, pair.fixed_labels, pair.moving_labels, CONFIG)
    field = result.field

    dice0 = evaluate(pair.fixed_labels, pair.moving_labels).avg_dsc
    dice = evaluate(pair.fixed_labels, warp_labels(pair.moving_labels, field)).avg_dsc
    assert dice >= dice0 + 0.05

    epe0 = epe(np.zeros_like(field.u), pair.truth)
    assert epe(field.u, pair.truth) <= 0.9 * epe0

    assert (jacobian_determinant(field).data > 0).all()

    again = register_pair(pair.fixed, pair.moving, pair.fixed_labels, pair.moving_labels, CONFIG)
    assert np.array_equal(again.field.u, field.u)


def test_register_pair_aborts_on_a_non_finite_loss():
    # the first step of 1e30 voxels overflows the float32 smoothness term;
    # the abort names that term and the coarsest level's iteration it was
    # seen at
    pair = small_pair(0)
    config = RegistrationConfig(learning_rate=1e30, iterations=(10, 10, 10, 10))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteLossError) as raised:
        register_pair(pair.fixed, pair.moving, pair.fixed_labels, pair.moving_labels, config)
    assert raised.value.terms == ("smooth",)
    assert (raised.value.level, raised.value.iteration) == (3, 1)


def test_register_pair_runs_a_level_too_small_for_lncc_without_similarity(caplog):
    # four levels of (16, 24, 24) end at (2, 3, 3), which holds no 3^3 window
    pair = generate(three_blob_spec(dims=(16, 24, 24), num_blobs=2, magnitude=1.5, seed=0))
    with caplog.at_level(logging.WARNING, logger="protoreg.optimizer"):
        result = register_pair(pair.fixed, pair.moving, pair.fixed_labels, pair.moving_labels,
                               CONFIG)
    assert "level 3 ((2, 3, 3)): too small for any LNCC window, similarity off" in caplog.text
    assert np.isfinite(result.field.u).all() and np.isfinite(result.final_breakdown.total)


def test_config_from_dict():
    config = RegistrationConfig(levels=3, iterations=(7, 5, 3), learning_rate=1e-2,
                                weights=LossWeights(1, 2, 0, 0.5, 0.1), window=5,
                                max_contour_points=128, temperature=0.2, seed=4)
    assert RegistrationConfig.from_dict({
        "levels": 3, "iterations": [7, 5, 3], "learning_rate": 1e-2,
        "weights": [1, 2, 0, 0.5, 0.1], "window": 5, "max_contour_points": 128,
        "temperature": 0.2, "seed": 4}) == config
    # the shape the benchmark's workloads pass: list weights, list iterations
    benchmark = {"levels": 4, "learning_rate": 1e-2, "beta1": 0.9, "beta2": 0.999,
                 "adam_eps": 1e-8, "weights": [1.0, 4.0, 1.0, 1.0, 0.1], "window": 9,
                 "max_contour_points": 2048, "temperature": 0.1, "seed": 0,
                 "iterations": [100, 60, 40, 30]}
    assert RegistrationConfig.from_dict(benchmark) == RegistrationConfig(
        learning_rate=1e-2, iterations=(100, 60, 40, 30), weights=LossWeights(1, 4, 1, 1, 0.1))
    named = RegistrationConfig.from_dict({"weights": {"sim": 2.0, "contour": 0.0}})
    assert named == RegistrationConfig(weights=LossWeights(sim=2.0, contour=0.0))


@pytest.mark.parametrize("weights", [(1, 4, 1, 1, 0.1), [1, 4, 1, 1, 0.1],
                                     {"sim": 1, "smooth": 4, "contour": 0.1}])
def test_config_converts_weights_given_to_the_constructor(weights):
    # a tuple, list or dict of weights used to construct and then fail in
    # register_pair on ``weights.uses_masks``
    config = RegistrationConfig(weights=weights, learning_rate=1e-2, levels=1, iterations=2,
                                window=5)
    assert config == RegistrationConfig.from_dict(
        {"weights": weights, "learning_rate": 1e-2, "levels": 1, "iterations": 2, "window": 5})
    assert config.weights == LossWeights(1, 4, 1, 1, 0.1)
    pair = small_pair(0)
    result = register_pair(pair.fixed, pair.moving, pair.fixed_labels, pair.moving_labels, config)
    assert np.isfinite(result.field.u).all()


@pytest.mark.parametrize("window", [8, 2, 1, -3])
def test_config_rejects_a_window_that_is_even_or_below_3(window):
    with pytest.raises(ValueError, match="window"):
        RegistrationConfig(window=window)
    assert RegistrationConfig(window=3).window == 3


@pytest.mark.parametrize("window", [5.0, 9.5, np.float64(7.0)])
def test_config_rejects_a_window_that_is_not_an_integer(window):
    # a float window used to construct and then fail in the LNCC slicing
    with pytest.raises(ValueError, match="window"):
        RegistrationConfig(window=window)
    assert RegistrationConfig(window=np.int64(5)).window == 5


@pytest.mark.parametrize("levels", [2.5, 2.0, np.float32(3.0)])
def test_config_rejects_levels_that_are_not_an_integer(levels):
    # a float count used to pass ``levels < 1`` and then fail in
    # ``default_iterations``
    with pytest.raises(ValueError, match="levels"):
        RegistrationConfig(levels=levels)
    assert RegistrationConfig(levels=np.int32(2)).levels == 2


@pytest.mark.parametrize("levels, iterations", [(1, 2.5), (2, (3.9, 1.2)), (1, 0.5),
                                                (2, (3, 2.0))])
def test_config_rejects_iteration_counts_that_are_not_integers(levels, iterations):
    # a float count used to be truncated without a word (2.5 ran 2 steps,
    # (3.9, 1.2) ran (3, 1)), and 0.5 was reported as a count below 1
    with pytest.raises(ValueError, match="iteration counts must be integers") as raised:
        RegistrationConfig(levels=levels, iterations=iterations)
    assert str(iterations) in str(raised.value)
    assert RegistrationConfig(levels=2, iterations=(np.int64(3), 2)).iterations == (3, 2)
    assert RegistrationConfig(levels=2, iterations=np.int32(4)).iterations == (4, 4)


@pytest.mark.parametrize("name", ["beta1", "beta2"])
@pytest.mark.parametrize("value", [1.0, 1.5, -0.1])
def test_config_rejects_an_adam_beta_outside_0_1(name, value):
    with pytest.raises(ValueError, match=name):
        RegistrationConfig(**{name: value})
    assert getattr(RegistrationConfig(**{name: 0.0}), name) == 0.0


@pytest.mark.parametrize("name", ["adam_eps", "temperature"])
@pytest.mark.parametrize("value", [0.0, -1e-8])
def test_config_rejects_a_non_positive_divisor(name, value):
    with pytest.raises(ValueError, match=name):
        RegistrationConfig(**{name: value})


@pytest.mark.parametrize("points", [0, -1])
def test_config_rejects_no_contour_points(points):
    with pytest.raises(ValueError, match="max_contour_points"):
        RegistrationConfig(max_contour_points=points)
    assert RegistrationConfig(max_contour_points=1).max_contour_points == 1


@pytest.mark.parametrize("points", [2.5, 2048.0])
def test_config_rejects_a_contour_point_count_that_is_not_an_integer(points):
    with pytest.raises(ValueError, match="max_contour_points"):
        RegistrationConfig(max_contour_points=points)


@pytest.mark.parametrize("rate", [float("nan"), float("inf")])
def test_config_rejects_a_learning_rate_that_is_not_finite(rate):
    with pytest.raises(ValueError, match="learning_rate"):
        RegistrationConfig(learning_rate=rate)


@pytest.mark.parametrize("rate", [1e39, 1e200])
def test_config_rejects_a_learning_rate_beyond_float32(rate):
    # the registration runs in float32, which cannot hold the step
    with pytest.raises(ValueError, match="learning_rate"):
        RegistrationConfig(learning_rate=rate)


@pytest.mark.parametrize("seed", [-1, 1.5, "a"])
def test_config_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    # such a seed used to fail inside register_pair, at the first level
    # whose contour band is subsampled
    with pytest.raises(ValueError, match="seed"):
        RegistrationConfig(seed=seed)
    assert RegistrationConfig(seed=0).seed == 0
    assert RegistrationConfig(seed=np.int64(3)).seed == 3


@pytest.mark.parametrize("weights", [[1, 4], [1, 4, 1, 1, 0.1, 2]])
def test_config_from_dict_rejects_a_weight_list_of_another_length(weights):
    # a short list would leave the other terms at their defaults unseen
    with pytest.raises(ValueError, match="one value per term"):
        RegistrationConfig.from_dict({"weights": weights})
    with pytest.raises(ValueError, match="one value per term"):
        RegistrationConfig(weights=weights)


@pytest.mark.parametrize("config, unknown", [
    ({"simm": 1.0}, "['simm']"), ({"weights": {"simm": 1.0}}, "['simm']"),
    ({"levels": 2, "lr": 1e-2, "windo": 5}, "['lr', 'windo']")])
def test_config_from_dict_names_unknown_keys_in_a_value_error(config, unknown):
    # a misspelt key used to raise TypeError from a dataclass constructor
    with pytest.raises(ValueError, match=re.escape(unknown)):
        RegistrationConfig.from_dict(config)


def test_register_pair_rejects_a_moving_spacing_unlike_the_fixed():
    pair = small_pair(0)
    moving = dataclasses.replace(pair.moving, spacing=(1.0, 1.0, 5.0))
    with pytest.raises(ValueError, match="spacing"):
        register_pair(pair.fixed, moving, pair.fixed_labels, pair.moving_labels, CONFIG)
    with pytest.raises(ValueError, match="spacing"):        # also without masks
        register_pair(pair.fixed, moving, config=CONFIG)


@pytest.mark.parametrize("side", ["fixed", "moving"])
def test_register_pair_rejects_a_mask_spacing_unlike_its_volume(side):
    pair = small_pair(0)
    masks = {"fixed": pair.fixed_labels, "moving": pair.moving_labels}
    masks[side] = dataclasses.replace(masks[side], spacing=(1.0, 1.0, 5.0))
    with pytest.raises(ValueError, match="spacing"):
        register_pair(pair.fixed, pair.moving, masks["fixed"], masks["moving"], CONFIG)


def test_register_pair_accepts_spacings_equal_to_float32_precision():
    # a NIfTI header stores spacing as float32, the raw sidecar as float64
    pair = small_pair(0)
    spacing = (0.8, 0.8, 2.5)
    rounded = tuple(float(np.float32(s)) for s in spacing)
    assert rounded != spacing
    short = RegistrationConfig(learning_rate=1e-2, levels=1, iterations=(1,))
    register_pair(dataclasses.replace(pair.fixed, spacing=spacing),
                  dataclasses.replace(pair.moving, spacing=rounded),
                  dataclasses.replace(pair.fixed_labels, spacing=rounded),
                  dataclasses.replace(pair.moving_labels, spacing=spacing), short)


def test_register_pair_takes_label_maps_of_one_anatomy_lacking_the_top_class(tmp_path):
    # NIfTI gives a label map as many classes as its largest label: a map
    # holding {1, 2} reads as 2 classes and one holding {1} as 1
    dims = (8, 8, 8)
    labels = np.zeros(dims)
    labels[1:4, 1:7, 1:7] = 1
    fixed_labels = labels.copy()
    fixed_labels[5:7, 1:7, 1:7] = 2
    paths = []
    for name, data in (("fixed", fixed_labels), ("moving", labels)):
        paths.append(tmp_path / f"{name}.nii.gz")
        io.write_volume(protoreg.Volume(dims, (1, 1, 1), data), paths[-1])
    fixed_mask, moving_mask = (io.read_volume(path, "labels") for path in paths)
    assert (fixed_mask.num_classes, moving_mask.num_classes) == (2, 1)
    image = protoreg.Volume(dims, (1, 1, 1), np.random.default_rng(5).uniform(size=dims))
    config = RegistrationConfig(learning_rate=1e-2, levels=1, iterations=(2,), window=3)
    result = register_pair(image, image, fixed_mask, moving_mask, config)
    assert np.isfinite(result.field.u).all()
    assert result.final_breakdown.values["seg"] > 0


def test_register_pair_without_a_foreground_class_registers_on_intensity(caplog):
    # two all-background label maps leave the mask terms nothing to read
    pair = small_pair(0)
    empty = LabelVolume(pair.fixed.dims, (1, 1, 1), np.zeros(pair.fixed.dims, np.int32), 0)
    with caplog.at_level(logging.WARNING, logger="protoreg.optimizer"):
        result = register_pair(pair.fixed, pair.moving, empty, empty, CONFIG)
    assert "unsupervised mode" in caplog.text and result.unsupervised
    assert not any(result.final_breakdown.weights.as_dict()[name] for name in
                   ("seg", "prototype", "contour"))
    assert np.isfinite(result.field.u).all()


def test_adam_step_is_the_closed_form_update():
    rng = np.random.default_rng(7)
    dims = (5, 4, 3)
    config = RegistrationConfig(learning_rate=3e-2, beta1=0.8, beta2=0.99, adam_eps=1e-6)
    field = DisplacementField(dims, (1, 1, 1), rng.normal(size=(3,) + dims))
    moments = AdamState(rng.normal(size=(3,) + dims), rng.uniform(size=(3,) + dims), 4)
    grad = rng.normal(size=(3,) + dims)
    b1, b2, t = config.beta1, config.beta2, moments.t + 1
    m = b1 * moments.m + (1.0 - b1) * grad
    v = b2 * moments.v + (1.0 - b2) * grad * grad
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    want = field.u - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)
    start = field.u.copy()

    stepped, after = adam_step(field, grad, moments, config)
    assert after.t == t
    assert (after.m == m).all() and (after.v == v).all()
    assert (stepped.u == want).all()
    assert (field.u == start).all()          # the given field is never written


def test_adam_step_makes_one_field_sized_array():
    # the moments are updated in place and the gradient is the scratch: the
    # one array made is the new u (and the field's one-byte finiteness mask)
    dims = (32, 32, 32)
    rng = np.random.default_rng(8)
    field = DisplacementField(dims, (1, 1, 1), rng.normal(size=(3,) + dims))
    moments = AdamState(rng.normal(size=(3,) + dims), rng.uniform(size=(3,) + dims), 2)
    grad = rng.normal(size=(3,) + dims)
    tracemalloc.start()
    try:
        adam_step(field, grad, moments, SHORT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < field.u.nbytes * 9 // 8 + 65536


@pytest.fixture(scope="module")
def twelve_organs():
    return generate(twelve_blob_spec(dims=(32, 32, 32), seed=0))


SHORT = RegistrationConfig(learning_rate=1e-2, iterations=(2, 2, 2, 2))


def test_register_pair_working_memory_is_bounded(twelve_organs):
    # twelve organs on 32^3, all five terms: the peak is the finest level's
    # evaluation, 16.6 float64 arrays of the grid's size in float32 (about
    # 33 when the registration ran in float64); a dense mask pyramid, a
    # second field per level, a gradient accumulator held under the
    # prototype term, a term's zeroed gradient or a float64 array on the
    # evaluation path would each add to it
    pair = twelve_organs
    assert pair.fixed_labels.num_classes == 12
    tracemalloc.start()
    try:
        result = register_pair(pair.fixed, pair.moving, pair.fixed_labels, pair.moving_labels,
                               SHORT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 19 * np.prod(pair.fixed.dims) * 8
    assert result.final_breakdown.values["seg"] > 0
    assert result.field.u.dtype == np.float64


def test_register_pair_optimizes_in_float32_and_returns_float64(monkeypatch):
    # every level's state, field, gradient and Adam moments are float32; the
    # returned field is float64 and holds the float32 optimum exactly
    seen = []

    def evaluate(state, field, with_grad=True):
        breakdown, grad = evaluate_objective(state, field, with_grad)
        arrays = [state.fixed.data, state.moving.data, state.moving_masks.values, field.u]
        arrays += [grad] if with_grad else []
        arrays += [] if state.contour_band is None else [state.contour_band.maps]
        seen.append({array.dtype for array in arrays})
        return breakdown, grad

    def step(field, grad, moments, config):
        stepped, moments = adam_step(field, grad, moments, config)
        seen.append({stepped.u.dtype, moments.m.dtype, moments.v.dtype})
        return stepped, moments

    monkeypatch.setattr(optimizer, "evaluate_objective", evaluate)
    monkeypatch.setattr(optimizer, "adam_step", step)
    pair = small_pair(0)
    result = register_pair(pair.fixed, pair.moving, pair.fixed_labels, pair.moving_labels,
                           RegistrationConfig(learning_rate=1e-2, iterations=(3, 3, 3, 3)))
    assert len(seen) == 4 * 3 * 2 + 4
    assert all(dtypes == {np.dtype(np.float32)} for dtypes in seen)
    assert result.field.u.dtype == np.float64
    assert np.array_equal(result.field.u.astype(np.float32), result.field.u)
    assert result.sdlogj == warp_sdlogj(result.field)


def test_float64_inputs_register_as_their_float32_casts_bit_for_bit():
    # the volumes and one-hot masks are cast to float32 once, before the
    # pyramids, so float64 volumes with int32 label arrays and their float32
    # casts with uint8 labels give one field and one trajectory
    pair = generate(three_blob_spec(magnitude=1.5, seed=2))
    labels = (pair.fixed_labels, pair.moving_labels)
    wide = [pair.fixed, pair.moving] + [
        LabelVolume(m.dims, m.spacing, m.labels.astype(np.int32), m.num_classes) for m in labels]
    narrow = [protoreg.Volume(v.dims, v.spacing, v.data.astype(np.float32))
              for v in (pair.fixed, pair.moving)] + [
        LabelVolume(m.dims, m.spacing, m.labels.astype(np.uint8), m.num_classes) for m in labels]
    assert wide[0].data.dtype == np.float64 and narrow[0].data.dtype == np.float32
    config = RegistrationConfig(learning_rate=1e-2, iterations=(4, 4, 4, 4))
    results = [register_pair(*inputs, config) for inputs in (wide, narrow)]
    assert np.array_equal(results[0].field.u, results[1].field.u)
    assert all(np.array_equal(a, b) for a, b in zip(results[0].trajectories,
                                                     results[1].trajectories))


def test_mask_pyramids_averaged_in_float32_equal_float64_ones_cast():
    # box means of 0/1 values are dyadic: each level of the mask pyramid
    # built from the float32 cast is the float64 pyramid's level cast to
    # float32, crop for crop
    pair = generate(three_blob_spec(magnitude=1.5, seed=2))
    mask = one_hot(pair.fixed_labels)
    cast_first = build_pyramid(optimizer._cast(mask, np.float32), 4)
    cast_after = [optimizer._cast(level, np.float32) for level in build_pyramid(mask, 4)]
    for ours, theirs in zip(cast_first, cast_after):
        assert ours.dims == theirs.dims
        for a, b in zip(ours.crops, theirs.crops):
            assert a.origin == b.origin and a.values.dtype == np.float32
            assert np.array_equal(a.values, b.values)


def test_one_field_loop_matches_base_plus_correction():
    # Adam moving the field itself takes the steps it would take on a
    # zero-initialized correction on top of the start field: after 20
    # steps the two fields agree to rounding
    pair = small_pair(1)
    fixed, moving = (build_pyramid(v, 2)[1] for v in (pair.fixed, pair.moving))
    masks = [build_pyramid(one_hot(labels), 2)[1]
             for labels in (pair.fixed_labels, pair.moving_labels)]
    state = build_state(fixed, moving, CONFIG.weights, *masks, window=5, max_points=256)
    coarse = np.random.default_rng(3).uniform(-0.5, 0.5, (3,) + build_pyramid(fixed, 2)[1].dims)
    start = upsample_field(DisplacementField(coarse.shape[1:], (2, 2, 2), coarse), fixed.dims)

    field, totals, _ = optimizer._optimize_level(state, start, 20, CONFIG, level=1)

    delta = DisplacementField.zeros(fixed.dims, fixed.spacing)
    moments = AdamState.zeros_like(delta.u)
    for _ in range(20):
        _, grad = evaluate_objective(state, superpose(start, delta))
        delta, moments = adam_step(delta, grad, moments, CONFIG)
    want = superpose(start, delta).u
    assert np.abs(want - start.u).max() > 0.05
    assert np.abs(field.u - want).max() < 1e-10
    assert totals.size == 21 and totals[-1] < totals[0]


def test_optimize_level_leaves_its_start_field_unchanged(twelve_organs):
    pair = twelve_organs
    masks = [one_hot(labels) for labels in (pair.fixed_labels, pair.moving_labels)]
    state = build_state(pair.fixed, pair.moving, CONFIG.weights, *masks)
    u = np.random.default_rng(9).normal(0, 0.5, (3,) + pair.fixed.dims)
    start = DisplacementField(pair.fixed.dims, (1, 1, 1), u.copy())
    field, _, _ = optimizer._optimize_level(state, start, 3, CONFIG, level=0)
    assert (start.u == u).all()
    assert not (field.u == u).all()


def test_package_root_exports_the_user_surface():
    assert sorted(protoreg.__all__) == sorted([
        "register_pair", "RegistrationConfig", "RegistrationResult", "LossWeights",
        "Volume", "LabelVolume", "DisplacementField", "DimsMismatchError",
        "read_volume", "write_volume",
        "warp_volume", "warp_labels", "jacobian_determinant", "sdlogj",
        "evaluate",
    ])


def test_entry_points_import_from_the_package_root():
    from protoreg import RegistrationConfig as Config, evaluate as score, read_volume
    from protoreg import register_pair as register
    assert (register, Config, read_volume, score) == (
        register_pair, RegistrationConfig, io.read_volume, metrics.evaluate)
    assert all(hasattr(protoreg, name) for name in protoreg.__all__)
