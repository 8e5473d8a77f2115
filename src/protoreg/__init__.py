"""Mask-assisted deformable 3D registration by direct optimization of a
dense displacement field.

The names below are the user surface: read a pair, register it, warp and
score the result.  The objective's terms, their gradients and the pyramid
live in the submodules (``losses``, ``gradients``, ``grids``, ``warp``).
"""

__version__ = "0.1.0"

from .grids import DimsMismatchError, LabelVolume, Volume
from .io import read_volume, write_volume
from .losses import LossWeights
from .metrics import evaluate
from .optimizer import RegistrationConfig, RegistrationResult, register_pair
from .warp import DisplacementField, jacobian_determinant, sdlogj, warp_labels, warp_volume

__all__ = [
    "register_pair", "RegistrationConfig", "RegistrationResult", "LossWeights",
    "Volume", "LabelVolume", "DisplacementField", "DimsMismatchError",
    "read_volume", "write_volume",
    "warp_volume", "warp_labels", "jacobian_determinant", "sdlogj",
    "evaluate",
]
