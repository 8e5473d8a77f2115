"""Evaluation metrics: hard-label Dice and field smoothness."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import DimsMismatchError, LabelVolume
from .warp import DisplacementField, SdLogJResult, sdlogj


def dsc(a: LabelVolume, b: LabelVolume, class_label: int) -> float | None:
    """Hard Dice 2|A∩B|/(|A|+|B|) for one class; None when the class is
    empty on both sides (absent, excluded from averages)."""
    if a.dims != b.dims:
        raise DimsMismatchError(f"dsc: {a.dims} vs {b.dims}")
    set_a = a.labels == class_label
    set_b = b.labels == class_label
    na = int(set_a.sum())
    nb = int(set_b.sum())
    if na == 0 and nb == 0:
        return None
    return 2.0 * float((set_a & set_b).sum()) / (na + nb)


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
    Jacobian-based smoothness numbers (reported as 0).
    """
    if fixed_mask.dims != warped_mask.dims:
        raise DimsMismatchError(f"evaluate: {fixed_mask.dims} vs {warped_mask.dims}")
    k = max(fixed_mask.num_classes, warped_mask.num_classes)
    per_class = tuple(dsc(fixed_mask, warped_mask, c) for c in range(1, k + 1))
    present = [v for v in per_class if v is not None]
    avg = float(np.mean(present)) if present else math.nan
    quality = SdLogJResult(0.0, 0) if field is None else sdlogj(field)
    return EvalReport(per_class, avg, quality.value, quality.excluded)
