import numpy as np
import pytest

from protoreg.losses import LossWeights
from protoreg.metrics import evaluate
from protoreg.optimizer import NonFiniteLossError, RegistrationConfig, register_pair
from protoreg.phantom import generate, three_blob_spec
from protoreg.warp import jacobian_determinant, warp_labels

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
