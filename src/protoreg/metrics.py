"""Evaluation metrics: hard-label Dice and field smoothness."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import DimsMismatchError, LabelVolume
from .warp import DisplacementField, SdLogJResult, sdlogj


@dataclass(frozen=True)
class EvalReport:
    """Per-class and aggregate overlap plus field-smoothness numbers for one
    registered (or unregistered) pair."""

    per_class: tuple               # float or None per class, 1..K order
    avg_dsc: float
    sdlogj: float
    sdlogj_excluded: int


def evaluate(fixed_mask: LabelVolume, warped_mask: LabelVolume,
             field: DisplacementField | None = None) -> EvalReport:
    """Score a warped hard label map against the fixed one.

    ``warped_mask`` is expected to come from warping the one-hot moving mask
    and taking the thresholded argmax; pass ``field=None`` to skip the
    Jacobian-based smoothness numbers (reported as 0).  Per class the hard
    Dice is 2|A∩B|/(|A|+|B|), and None for a class empty on both sides
    (left out of the average); all of them come from one count of the
    (fixed, warped) label pairs.
    """
    if fixed_mask.dims != warped_mask.dims:
        raise DimsMismatchError(f"evaluate: {fixed_mask.dims} vs {warped_mask.dims}")
    if field is not None and field.dims != fixed_mask.dims:
        raise DimsMismatchError(f"evaluate: field {field.dims} vs masks {fixed_mask.dims}")
    k = max(fixed_mask.num_classes, warped_mask.num_classes)
    # the labels are uint8: the pair index is formed in intp
    pair = fixed_mask.labels.ravel().astype(np.intp) * (k + 1) + warped_mask.labels.ravel()
    pairs = np.bincount(pair, minlength=(k + 1) ** 2).reshape(k + 1, k + 1)
    sizes = pairs.sum(axis=1) + pairs.sum(axis=0)        # |A| + |B| per class
    per_class = tuple(2.0 * float(pairs[c, c]) / int(sizes[c]) if sizes[c] else None
                      for c in range(1, k + 1))
    present = [v for v in per_class if v is not None]
    avg = float(np.mean(present)) if present else math.nan
    quality = SdLogJResult(0.0, 0) if field is None else sdlogj(field)
    return EvalReport(per_class, avg, quality.value, quality.excluded)
