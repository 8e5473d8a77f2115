"""Mask-assisted deformable 3D registration by direct optimization of a
dense displacement field."""

__version__ = "0.1.0"

from .grids import (
    DimsMismatchError,
    LabelVolume,
    OneHotMask,
    Pyramid,
    Volume,
    argmax_labels,
    build_pyramid,
    downsample,
    one_hot,
)
from .gradients import contour_loss, total_loss
from .losses import (
    ContourPointSet,
    FeatureVolume,
    LossBreakdown,
    LossWeights,
    PrototypeSet,
    align_loss,
    chamfer,
    contrast_loss,
    dice_loss,
    extract_contour_points,
    extract_prototypes,
    feature_volume,
    lncc,
    prototype_loss,
    smoothness,
)
from .warp import (
    DisplacementField,
    jacobian_determinant,
    sdlogj,
    superpose,
    trilinear_sample,
    upsample_field,
    warp_labels,
    warp_volume,
)

__all__ = [name for name in dir() if not name.startswith("_")]
