"""The objective's one forward path and its analytic gradient wrt the field.

``build_state`` makes a level's ``ObjectiveState``: each constant of the
level once, only for the terms with a positive weight.  A state evaluates
only the terms it was built for, through ``evaluate_objective`` or
``term_evaluator``; a positive weight on any other term raises
``ValueError``.

``evaluate_objective`` samples the moving image at the points p + u(p)
(``warp.add_voxel_coords``), the moving masks on their windows
(``warp.mask_points``; ``warp`` shows that these are the dense samples bit
for bit) and the contour term's moving distance maps at its band points
p + u(p), all classes in one call at (3, P, n) points (u at the band's flat
indices plus their box coordinates, both made by ``build_state``), and
scores every term with its function in ``losses``.  Each returns the
term's value and, with ``with_grad``, its gradient wrt the term's direct
input (moved intensities, moved mask stack, u, or sampled maps); this
module chains those gradients onto u through the spatial derivative of
every trilinear sample, for the contour term by one fancy-index add per
class, as a class's band points are distinct voxels.  A value-only evaluation
(``with_grad=False``: each level's final breakdown, every finite-difference
probe) samples through ``sample_volume`` and takes no spatial derivative.

The masks are never dense: the state holds the moving channels as a
``warp.MaskStack`` and the fixed ones as their own crops, which Dice reads
on the moving windows (``grids._on_windows``).  Element by element the
arithmetic is that of a whole-grid evaluation, but the sums run in another
order, so the results agree with it to rounding (about 1e-16 relative in
float64), not bit for bit.

An evaluation frees the image and mask sample points once sampled, before
any term runs, and works in place on what stays live (the moved image and
mask stack, their spatial derivatives and their gradient accumulators).  The gradient
wrt u is made after the seg and prototype terms, which never write it;
smoothness, its first writer, writes straight into it, and it is then
scaled by the weight (w*g is the 0 + w*g of an accumulation).  The chain
rule forms d_moved * moved_pos and d_masks * masks_pos in the derivative
arrays.  Each in-place step keeps the operation order of the allocating
form, so values and gradients are that form's bit for bit.

An evaluation computes in the dtype of its arrays (see ``grids``): a state
built from float32 volumes and masks, evaluated at a float32 field, runs in
float32 from the sample points to the gradient, and a float64 one in
float64, which is where the finite-difference checks run.  Known non-smooth
points, excluded from finite-difference verification: sample positions
crossing lattice planes or the clamp boundary, class-presence flips,
degenerate correlation windows, and the kink of the soft Dice term at
exactly-hard masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from . import losses
from .grids import DimsMismatchError, OneHotMask, Volume, _on_windows, argmax_labels
from .losses import LossBreakdown, LossWeights, PrototypeSet, TERM_NAMES
from .warp import (DisplacementField, MaskStack, add_voxel_coords, mask_points, mask_stack,
                   sample_volume, sample_volume_with_gradient)


@dataclass(frozen=True)
class ObjectiveState:
    """Per-resolution bundle of everything the objective needs besides the
    field, made only by ``build_state``, each constant only for the terms
    with a positive weight: the LNCC fixed side ``lncc_fixed`` (window
    bands, w**3 and the fixed image's window sums; similarity), the fixed
    masks' per-class masses ``fixed_mass`` and own crops ``fixed_crops``
    (Dice), the fixed prototypes ``fixed_protos``, hard assignment
    ``fixed_assign`` and ``contrast_fixed`` (prototype), the moving masks
    ``moving_masks`` (a ``warp.MaskStack``; Dice or prototype) and
    ``contour_band`` (contour: the band points as flat indices and as box
    coordinates, and the distance maps; see ``losses._contour_band``).
    ``terms`` names the terms it was built for, so ``replace`` may switch
    terms off (lower weights) but not on.
    """

    fixed: Volume
    moving: Volume
    weights: LossWeights
    temperature: float
    terms: frozenset = frozenset()
    fixed_protos: PrototypeSet | None = None
    fixed_assign: np.ndarray | None = None
    contrast_fixed: float = 0.0
    moving_masks: MaskStack | None = dataclass_field(default=None, repr=False)
    fixed_crops: tuple | None = dataclass_field(default=None, repr=False)
    lncc_fixed: tuple | None = dataclass_field(default=None, repr=False)
    fixed_mass: np.ndarray | None = dataclass_field(default=None, repr=False)
    contour_band: losses.ContourBand | None = dataclass_field(default=None, repr=False)

    @property
    def dims(self):
        return self.fixed.dims


def build_state(fixed: Volume, moving: Volume, weights: LossWeights,
                fixed_onehot: OneHotMask | None = None,
                moving_onehot: OneHotMask | None = None,
                window: int = 9, temperature: float = 0.1,
                max_points: int = 2048, seed: int = 0) -> ObjectiveState:
    """Precompute the deformation-independent pieces of the objective, each
    only when a term with a positive weight reads it.  The masks are read
    here, only with a positive mask weight, and not kept: the state holds
    their crops.  Mask-dependent weights need both masks, over one class
    universe of at least one class (``ValueError``), on the volumes' grid
    (``DimsMismatchError``); the prototype term needs 2 voxels on every
    axis (``ValueError``)."""
    if fixed.dims != moving.dims:
        raise DimsMismatchError(f"build_state: fixed {fixed.dims} vs moving {moving.dims}")
    if weights.uses_masks:
        if fixed_onehot is None or moving_onehot is None:
            raise ValueError("build_state: mask-dependent weights need both masks")
        if fixed_onehot.num_classes != moving_onehot.num_classes:
            raise ValueError("build_state: masks cover different class universes")
        if fixed_onehot.num_classes == 0:
            raise ValueError("build_state: mask-dependent weights need a foreground class, "
                             "and the masks have none")
        if fixed_onehot.dims != fixed.dims or moving_onehot.dims != fixed.dims:
            raise DimsMismatchError(f"build_state: masks {fixed_onehot.dims} and "
                                    f"{moving_onehot.dims} vs volumes {fixed.dims}")
        if weights.prototype > 0 and min(fixed.dims) < 2:
            raise ValueError(f"build_state: the prototype term needs at least 2 voxels on "
                             f"every axis, got dims {fixed.dims}")

    built = {"terms": frozenset(name for name, w in weights.as_dict().items() if w > 0)}
    if weights.sim > 0:     # also checks the window
        built["lncc_fixed"] = losses._lncc_fixed(fixed.data, window)
    if weights.seg > 0:
        built["fixed_mass"] = losses._fixed_mass(fixed_onehot)
        built["fixed_crops"] = fixed_onehot.crops
    if weights.seg > 0 or weights.prototype > 0:
        built["moving_masks"] = mask_stack(moving_onehot)
    if weights.prototype > 0:
        fixed_feats = losses._features_forward(fixed.data)[0]
        built["fixed_protos"] = losses.extract_prototypes(fixed_feats, fixed_onehot)
        built["fixed_assign"] = argmax_labels(fixed_onehot).labels
        built["contrast_fixed"] = losses._contrast(
            fixed_feats, built["fixed_assign"], built["fixed_protos"], temperature)
    if weights.contour > 0:
        built["contour_band"] = losses._contour_band(fixed_onehot, moving_onehot,
                                                     max_points, seed)
    return ObjectiveState(fixed, moving, weights, float(temperature), **built)


# ------------------------------------------------------------- full objective

def evaluate_objective(state: ObjectiveState, field: DisplacementField,
                       with_grad: bool = True, proto_mode: str = "both"):
    """Evaluate the weighted objective; optionally also its gradient wrt u.

    Term values in the returned breakdown are unweighted; the gradient is of
    the weighted total.  A positive weight on a term the state was built
    without raises ``ValueError``.  ``proto_mode`` restricts the prototype
    term to its "contrast" or "align" half (used by the per-term gradient
    checks).
    """
    if field.dims != state.dims:
        raise DimsMismatchError(f"evaluate_objective: field {field.dims} vs state {state.dims}")
    wd = state.weights.as_dict()
    unbuilt = [name for name, w in wd.items() if w > 0 and name not in state.terms]
    if unbuilt:
        raise ValueError(f"evaluate_objective: the state was built without the "
                         f"{', '.join(unbuilt)} term (weight 0 at build_state)")
    values = {name: 0.0 for name in TERM_NAMES}

    def sample(data, points):
        if with_grad:
            return sample_volume_with_gradient(data, points)
        return sample_volume(data, points), None

    # each set of sample points is freed once sampled, before any term runs
    need_moved = wd["sim"] > 0 or wd["prototype"] > 0
    moved = moved_pos = d_moved = None
    if need_moved:
        moved, moved_pos = sample(state.moving.data, add_voxel_coords(field.u.copy()))
        d_moved = np.zeros_like(moved) if with_grad else None

    need_mask = wd["seg"] > 0 or wd["prototype"] > 0
    windows = masks = None
    if need_mask:
        windows, pts = mask_points(state.moving_masks, field.u)
        masks, masks_pos = sample(state.moving_masks.values, pts)
        pts = None
        np.clip(masks, 0.0, 1.0, out=masks)
        d_masks = np.zeros_like(masks) if with_grad else None

    if wd["sim"] > 0:
        values["sim"], g = losses._lncc(state.fixed.data, moved, state.lncc_fixed, with_grad)
        if with_grad:
            d_moved += wd["sim"] * g

    if wd["seg"] > 0:
        values["seg"], g = losses._dice(_on_windows(state.fixed_crops, windows),
                                          state.fixed_mass, masks, with_grad)
        if with_grad:
            d_masks += wd["seg"] * g

    if wd["prototype"] > 0:
        values["prototype"], g, g_masks = losses._prototype(
            moved, windows, masks, state.fixed_assign, state.fixed_protos,
            state.contrast_fixed, state.temperature, proto_mode, with_grad)
        if with_grad:
            d_moved += wd["prototype"] * g
            if g_masks is not None:
                d_masks += wd["prototype"] * g_masks

    # the seg and prototype terms never write the accumulator: it is made
    # after them, so that it does not sit under their temporaries
    grad = np.zeros_like(field.u) if with_grad else None
    if wd["smooth"] > 0:
        # the accumulator's first writer: its gradient goes straight in
        values["smooth"], _ = losses._smoothness(field.u, grad)
        if with_grad:
            grad *= wd["smooth"]

    band = state.contour_band
    if wd["contour"] > 0 and band is not None:
        # the band points p + u(p), in their maps' boxes: (3, P, n)
        pts = field.u.reshape(3, -1)[:, band.index]
        pts += band.coords
        sampled, sampled_pos = sample(band.maps, pts)
        values["contour"], g = losses._contour(band, sampled, with_grad)
        if with_grad:
            sampled_pos *= wd["contour"] * g
            # band points are distinct within a class: one add per class
            for k, count in enumerate(band.counts):
                grad.reshape(3, -1)[:, band.index[k, :count]] += sampled_pos[:, k, :count]

    # the chain rule through the warp, in the spatial derivatives' arrays
    if with_grad and need_moved:
        moved_pos *= d_moved
        grad += moved_pos
    if with_grad and need_mask:
        masks_pos *= d_masks
        losses._add_on_windows(grad, windows, masks_pos)

    breakdown = LossBreakdown.from_terms(values, state.weights)
    return breakdown, grad


TERM_CHECKS = ("sim", "smooth", "seg", "contrast", "align", "contour")


def term_evaluator(state: ObjectiveState, term: str):
    """Single-term evaluator with unit weight, for per-term gradient checks.

    ``term`` names one of: sim, smooth, seg, contrast, align, contour (the
    two prototype halves are checked independently).  The state must have
    been built with the term (contrast and align: the prototype term), else
    the evaluator raises ``ValueError`` (see ``evaluate_objective``).
    """
    if term not in TERM_CHECKS:
        raise ValueError(f"term must be one of {TERM_CHECKS}, got {term!r}")
    name = "prototype" if term in ("contrast", "align") else term
    proto_mode = term if name == "prototype" else "both"
    sub = replace(state, weights=LossWeights(**{n: float(n == name) for n in TERM_NAMES}))

    def evaluate(field: DisplacementField, with_grad: bool = True):
        breakdown, grad = evaluate_objective(sub, field, with_grad=with_grad,
                                             proto_mode=proto_mode)
        return breakdown.total, grad

    return evaluate
