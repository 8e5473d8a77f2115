import numpy as np
import pytest

from protoreg.metrics import evaluate
from protoreg.optimizer import RegistrationConfig, register_pair
from protoreg.phantom import generate, three_blob_spec
from protoreg.warp import jacobian_determinant, warp_labels

CONFIG = RegistrationConfig(learning_rate=1e-2, iterations=(10, 10, 10, 10))


def epe(u, truth):
    return float(np.sqrt(((u - truth.u) ** 2).sum(axis=0)).mean())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_register_pair_registers_small_phantoms(seed):
    pair = generate(three_blob_spec(dims=(20, 20, 20), num_blobs=2, magnitude=1.5, seed=seed))
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
