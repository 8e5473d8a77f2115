import dataclasses
import tracemalloc

import numpy as np
import pytest

import protoreg
from protoreg import io, metrics, optimizer
from protoreg.gradients import build_state, evaluate_objective
from protoreg.grids import OneHotMask, build_pyramid, one_hot
from protoreg.losses import LossWeights
from protoreg.metrics import evaluate
from protoreg.optimizer import (AdamState, NonFiniteLossError, RegistrationConfig, adam_step,
                                register_pair)
from protoreg.phantom import generate, three_blob_spec, twelve_blob_spec
from protoreg.warp import (DisplacementField, jacobian_determinant, superpose, upsample_field,
                           warp_labels)

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
    # the first step of 1e200 voxels overflows the smoothness term; the abort
    # names that term and the coarsest level's iteration it was seen at
    pair = small_pair(0)
    config = RegistrationConfig(learning_rate=1e200, iterations=(10, 10, 10, 10))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteLossError) as raised:
        register_pair(pair.fixed, pair.moving, pair.fixed_labels, pair.moving_labels, config)
    assert raised.value.terms == ("smooth",)
    assert (raised.value.level, raised.value.iteration) == (3, 1)


def test_config_from_dict():
    config = RegistrationConfig(levels=3, iterations=(7, 5, 3), learning_rate=1e-2,
                                weights=LossWeights(1, 2, 0, 0.5, 0.1), window=5,
                                max_contour_points=128, temperature=0.2, seed=4)
    assert RegistrationConfig.from_dict(config.to_dict()) == config
    # the shape the benchmark's workloads pass: list weights, list iterations
    benchmark = {"levels": 4, "learning_rate": 1e-2, "beta1": 0.9, "beta2": 0.999,
                 "adam_eps": 1e-8, "weights": [1.0, 4.0, 1.0, 1.0, 0.1], "window": 9,
                 "max_contour_points": 2048, "temperature": 0.1, "seed": 0,
                 "iterations": [100, 60, 40, 30]}
    assert RegistrationConfig.from_dict(benchmark) == RegistrationConfig(
        learning_rate=1e-2, iterations=(100, 60, 40, 30), weights=LossWeights(1, 4, 1, 1, 0.1))
    named = RegistrationConfig.from_dict({"weights": {"sim": 2.0, "contour": 0.0}})
    assert named == RegistrationConfig(weights=LossWeights(sim=2.0, contour=0.0))


@pytest.mark.parametrize("window", [8, 2, 1, -3])
def test_config_rejects_a_window_that_is_even_or_below_3(window):
    with pytest.raises(ValueError, match="window"):
        RegistrationConfig(window=window)
    assert RegistrationConfig(window=3).window == 3


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


@pytest.fixture(scope="module")
def twelve_organs():
    return generate(twelve_blob_spec(dims=(32, 32, 32), seed=0))


SHORT = RegistrationConfig(learning_rate=1e-2, iterations=(2, 2, 2, 2))


def test_register_pair_makes_no_dense_mask_array(twelve_organs, monkeypatch):
    # the masks go from the label maps to every level's state as crops
    def dense(self):
        raise AssertionError("OneHotMask.channels read on the registration path")

    monkeypatch.setattr(OneHotMask, "channels", property(dense))
    pair = twelve_organs
    assert pair.fixed_labels.num_classes == 12
    result = register_pair(pair.fixed, pair.moving, pair.fixed_labels, pair.moving_labels, SHORT)
    assert result.final_breakdown.values["seg"] > 0


def test_register_pair_working_memory_is_bounded(twelve_organs):
    # twelve organs on 32^3, all five terms: the peak is the finest level's
    # evaluation and Adam step, about 35 float64 arrays of the grid's size;
    # a dense mask pyramid, a second field per level or a gradient
    # accumulator held under the prototype term would each add to it
    pair = twelve_organs
    tracemalloc.start()
    try:
        register_pair(pair.fixed, pair.moving, pair.fixed_labels, pair.moving_labels, SHORT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * np.prod(pair.fixed.dims) * 8


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
    moments = AdamState.zeros((3,) + fixed.dims)
    for _ in range(20):
        _, grad = evaluate_objective(state, superpose(start, delta))
        delta, moments = adam_step(delta, grad, moments, CONFIG)
    want = superpose(start, delta).u
    assert np.abs(want - start.u).max() > 0.05
    assert np.abs(field.u - want).max() < 1e-10
    assert totals.size == 21 and totals[-1] < totals[0]


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
