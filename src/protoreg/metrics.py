"""Evaluation metrics (hard-label Dice, field smoothness) and report emission."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

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
    registered pair (or its unregistered "initial" row)."""

    pair_id: str
    class_names: tuple
    per_class: tuple               # float or None per class, 1..K order
    avg_dsc: float
    std_dsc: float                 # spread across present classes
    sdlogj: float
    sdlogj_excluded: int

    def to_dict(self) -> dict:
        return {
            "pair_id": self.pair_id,
            "classes": {
                name: self.per_class[i] for i, name in enumerate(self.class_names)
            },
            "avg_dsc": self.avg_dsc,
            "std_dsc_across_classes": self.std_dsc,
            "sdlogj": self.sdlogj,
            "sdlogj_excluded_voxels": self.sdlogj_excluded,
        }


def default_class_names(k: int) -> tuple:
    return tuple(f"class_{i}" for i in range(1, k + 1))


def evaluate(fixed_mask: LabelVolume, warped_mask: LabelVolume,
             field: DisplacementField | None = None,
             pair_id: str = "pair", class_names=None) -> EvalReport:
    """Score a warped hard label map against the fixed one.

    ``warped_mask`` is expected to come from warping the one-hot moving mask
    and taking the thresholded argmax; pass ``field=None`` to skip the
    Jacobian-based smoothness numbers (reported as 0).
    """
    if fixed_mask.dims != warped_mask.dims:
        raise DimsMismatchError(f"evaluate: {fixed_mask.dims} vs {warped_mask.dims}")
    k = max(fixed_mask.num_classes, warped_mask.num_classes)
    names = tuple(class_names) if class_names else default_class_names(k)
    if len(names) != k:
        raise ValueError(f"evaluate: {len(names)} class names for {k} classes")
    per_class = tuple(dsc(fixed_mask, warped_mask, c) for c in range(1, k + 1))
    present = [v for v in per_class if v is not None]
    avg = float(np.mean(present)) if present else math.nan
    std = float(np.std(present)) if present else math.nan
    quality = SdLogJResult(0.0, 0) if field is None else sdlogj(field)
    return EvalReport(pair_id, names, per_class, avg, std, quality.value, quality.excluded)


CSV_COLUMNS = ("pair_id", "class_name", "dsc", "avg_dsc", "sdlogj")


def write_report_csv(reports, path) -> None:
    """One row per (report, class); absent classes get an empty dsc cell."""
    if isinstance(reports, EvalReport):
        reports = [reports]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rep in reports:
            for name, value in zip(rep.class_names, rep.per_class):
                writer.writerow([
                    rep.pair_id, name,
                    "" if value is None else repr(value),
                    repr(rep.avg_dsc), repr(rep.sdlogj),
                ])


def write_report_json(reports, path) -> None:
    if isinstance(reports, EvalReport):
        reports = [reports]
    Path(path).write_text(json.dumps([rep.to_dict() for rep in reports], indent=2) + "\n")
