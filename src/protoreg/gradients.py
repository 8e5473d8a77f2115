"""The objective's one forward path and its analytic gradient wrt the field.

``build_state`` is the one constructor of a level's ``ObjectiveState``: it
makes each constant of the level once, only for the terms with a positive
weight, and a state evaluates only the terms it was built for, through
``evaluate_objective`` or ``term_evaluator``; a positive weight on any other
term raises ``ValueError``.

``evaluate_objective`` samples the moving image and masks through the field,
carries the fixed contour points into moving space (``_carried``), and
scores every term with its function in ``losses``.  Each of those returns
the term's value and, with ``with_grad``, its gradient wrt the term's direct
input (moved intensities, moved mask channels, u, or the carried points);
this module only chains those gradients through the warp onto u: through the
spatial derivative of every trilinear sample, and, for the contour points,
by adding each point's gradient to the voxel it was carried from.  A
value-only evaluation (``with_grad=False``: each level's final breakdown,
every finite-difference probe) samples through ``sample_volume`` and takes
no spatial derivative.  Every evaluation takes all classes in one pass: one
sampler call for all mask channels, and the contour points of all classes,
stacked once per level, carried together (``chamfer_tie_margin`` too);
their gradient lands on u through ``np.add.at``, as at a coarse level one
voxel can be a contour point of two classes.  The finite-difference tools
live here too.

Each moving mask channel is sampled only on the block of output voxels whose
sample point can reach the channel's support, which is exact.  A clamped
trilinear sample reads the two lattice neighbours of its (clamped)
coordinate on each axis, so outside the channel's non-zero index range
[a, b] grown by one voxel to [a-1, b+1], all eight corners are 0 and the
value and the spatial derivative are exactly 0 (at a clamped coordinate the
corner that could be non-zero has weight 0 and the derivative is zeroed).
The range stays open on a face the support touches (a = 0 or b = n-1),
because every sample clamped onto that face reads it.  The moved masks are
never dense: the windows are padded to one shape and kept inside the grid
(``_mask_windows``), which only adds samples that are exactly 0, their
points are gathered into one (3, K, wx, wy, wz) array, and the moved masks
stay that stack (see ``losses``) with its spatial derivative.

The stored masks are not dense either, nor are the masks ``build_state``
reads: a ``grids.OneHotMask`` holds each channel on its support box, and
``build_state`` reads those crops only (masses, boxes, contour points, the
fixed hard assignment and the fixed prototypes) and never densifies them.
It keeps each channel as a crop of its own (``MaskCrops``): its
support [a, b] grown by one zero layer below and two above, to
[a-1, b+2] within the grid, so still open on a face the support touches;
the crops are padded to one shape and kept inside the grid like the
windows.  A window's points are shifted by its channel's crop origin and
sampled from the crop stack in the same one call.  The two layers above
are what make this exact: a sample at the lattice point b+1 reads the cell
[b+1, b+2] above it, whose corners are 0, so its derivative is 0; a crop
ending at b+1 would clamp it into the cell [b, b+1] and give the backward
difference -m[b] instead.  With those layers every sample reads the same
corners with the same fractions as on the dense channel (a shift by an
integer origin is exact in floating point) or reads only zeros, so the
moved masks and their derivatives are bit for bit the dense ones.  Dice
reads the fixed channels on the windows from their own crops
(``grids._on_windows``).  Element by element the arithmetic is that of the dense
sampling, but the sums run in another order, so the results agree with a
whole-grid evaluation to rounding (about 1e-16 relative), not bit for bit.

An evaluation releases its sample points, those of the whole grid
(``pts``) and of the mask windows (``mask_pts``), as soon as the moving
mask channels are sampled, before any term runs; so the terms' temporaries
sit on top of the samples, their spatial derivatives and the accumulators
of the moved image's and masks' gradients only.  The gradient wrt u is
accumulated from the smoothness term on, after the seg and prototype terms,
which never write it, so it is not live under their temporaries.  The
support helpers (``_support_box``, ``_crop``, ``_one_shape``,
``_sample_window``) live in ``warp``, which scores labels the same way
(``warp_labels``).

All accumulation is float64.  Known non-smooth points, excluded from
finite-difference verification: sample positions crossing lattice planes or
the clamp boundary, Chamfer nearest-neighbor ties, class-presence flips,
degenerate correlation windows, and the kink of the soft Dice term at
exactly-hard masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from . import losses
from .grids import DimsMismatchError, OneHotMask, Volume, _on_windows, argmax_labels
from .losses import LossBreakdown, LossWeights, PrototypeSet, TERM_NAMES
from .warp import (DisplacementField, _crop, _one_shape, _sample_window, _support_box,
                   sample_volume, sample_volume_with_gradient)


class MaskCrops(NamedTuple):
    """K mask channels kept on their crops: channel k is ``values[k]``
    placed with its first voxel at grid voxel ``origins[k]``, and 0
    everywhere else (see the module docstring)."""

    values: np.ndarray          # (K, bx, by, bz)
    origins: np.ndarray         # (K, 3) integer


@dataclass(frozen=True)
class ObjectiveState:
    """Per-resolution bundle of everything the objective needs besides the
    field, made only by ``build_state``, which computes each constant once
    and only for the terms with a positive weight: the open voxel-centre
    ``grid`` (when anything is sampled), the LNCC window sums ``lncc_fixed``
    (similarity), the fixed masks' per-class masses ``fixed_mass`` and
    their ``fixed_crops`` (Dice), the prototypes, hard assignments and fixed
    half of the contrast term (prototype), the moving masks' ``mask_boxes``
    and ``moving_crops`` (Dice or prototype) and ``contour_pairs`` (contour;
    see ``_contour_pairs``).  ``terms`` names the terms it was built for.

    A state holds no dense (K, nx, ny, nz) mask array.  Each mask channel
    is kept as a crop of one shape (``MaskCrops``): its non-zero index
    range [a, b] grown to [a-1, b+2] within the grid, one zero layer below
    and two above, so that a sample at the lattice point b+1 reads the zero
    cell above it, as on the dense channel (see the module docstring).

    A state evaluates only the terms it was built for, so ``replace`` may
    switch terms off (lower weights) but not on; ``evaluate_objective``
    rejects a positive weight on a term missing from ``terms``.

    ``mask_boxes`` holds, per moving mask channel, the support box derived
    from it: per axis the source-coordinate range (lo, hi) outside which a
    sample of the channel and its spatial derivative are exactly 0.  It is
    the non-zero index range [a, b] grown by one voxel, open (-inf or +inf)
    on a face the support touches; an all-zero channel has None.  Each
    channel is sampled on a window holding every output voxel whose sample
    point can fall inside its box (see the module docstring).
    """

    fixed: Volume
    moving: Volume
    weights: LossWeights
    window: int
    temperature: float
    terms: frozenset = frozenset()
    fixed_protos: PrototypeSet | None = None
    fixed_assign: np.ndarray | None = None
    contrast_fixed: float = 0.0
    mask_boxes: tuple = ()
    moving_crops: MaskCrops | None = dataclass_field(default=None, repr=False)
    fixed_crops: MaskCrops | None = dataclass_field(default=None, repr=False)
    grid: tuple | None = dataclass_field(default=None, repr=False)
    lncc_fixed: tuple | None = dataclass_field(default=None, repr=False)
    fixed_mass: np.ndarray | None = dataclass_field(default=None, repr=False)
    contour_pairs: tuple | None = dataclass_field(default=None, repr=False)

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
    their crops.  Mask-dependent weights need both masks (``ValueError``),
    over one class universe (``ValueError``) and on the volumes' grid
    (``DimsMismatchError``)."""
    if fixed.dims != moving.dims:
        raise DimsMismatchError(f"build_state: fixed {fixed.dims} vs moving {moving.dims}")
    if weights.uses_masks:
        if fixed_onehot is None or moving_onehot is None:
            raise ValueError("build_state: mask-dependent weights need both masks")
        if fixed_onehot.num_classes != moving_onehot.num_classes:
            raise ValueError("build_state: masks cover different class universes")
        if fixed_onehot.dims != fixed.dims or moving_onehot.dims != fixed.dims:
            raise DimsMismatchError(f"build_state: masks {fixed_onehot.dims} and "
                                    f"{moving_onehot.dims} vs volumes {fixed.dims}")

    built = {"terms": frozenset(name for name, w in weights.as_dict().items() if w > 0)}
    if weights.sim > 0 or weights.seg > 0 or weights.prototype > 0:
        built["grid"] = np.ix_(*map(np.arange, fixed.dims))
    if weights.sim > 0:     # also checks the window
        built["lncc_fixed"] = losses._lncc_fixed(fixed.data, window)
    if weights.seg > 0:
        built["fixed_mass"] = losses._fixed_mass(fixed_onehot)
        built["fixed_crops"] = _crops(fixed_onehot)
    if weights.seg > 0 or weights.prototype > 0:
        built["mask_boxes"] = tuple(None if crop is None else _support_box(crop.support, fixed.dims)
                                    for crop in moving_onehot.crops)
        built["moving_crops"] = _crops(moving_onehot)
    if weights.prototype > 0:
        fixed_feats = losses._features_forward(fixed.data)[0]
        built["fixed_protos"] = losses.extract_prototypes(fixed_feats, fixed_onehot)
        built["fixed_assign"] = argmax_labels(fixed_onehot).labels
        built["contrast_fixed"] = losses._contrast(
            fixed_feats, built["fixed_assign"], built["fixed_protos"], temperature
        )[0]
    if weights.contour > 0:
        built["contour_pairs"] = _contour_pairs(*(
            [losses.extract_contour_points(mask, c, max_points, seed)
             for c in range(1, mask.num_classes + 1)]
            for mask in (fixed_onehot, moving_onehot)))
    return ObjectiveState(fixed, moving, weights, window, temperature, **built)


def _crops(mask: OneHotMask) -> MaskCrops:
    """The channels of ``mask`` on their crops: per axis [a-1, b+2] within
    the grid, padded to one shape (``_one_shape``)."""
    crops = _one_shape([None if crop is None else _crop(crop.support, mask.dims)
                        for crop in mask.crops], mask.dims)
    return MaskCrops(_on_windows(mask.crops, crops),
                     np.array([[s.start for s in crop] for crop in crops], dtype=np.intp))


def _mask_windows(boxes, u: np.ndarray, dims):
    """One window per mask channel, all of one shape (``_one_shape`` of the
    ``_sample_window`` of each box)."""
    u_min, u_max = u.min(axis=(1, 2, 3)).tolist(), u.max(axis=(1, 2, 3)).tolist()
    return _one_shape([None if box is None else _sample_window(box, u_min, u_max, dims)
                       for box in boxes], dims)


def _contour_pairs(sets_f, sets_m):
    """The classes with contour points on both sides, numbered 0..P-1:
    (fixed points (N, 3), their classes, moving points (M, 3), their
    classes), each stacked over the classes of the fixed and moving contour
    sets ``sets_f`` and ``sets_m``; None without such a class."""
    moving_by_class = {c.class_label: c.points for c in sets_m if len(c) > 0}
    sides = [(cf.points, moving_by_class[cf.class_label]) for cf in sets_f
             if len(cf) > 0 and cf.class_label in moving_by_class]
    columns = [(f, np.full(len(f), c), m, np.full(len(m), c)) for c, (f, m) in enumerate(sides)]
    return tuple(map(np.concatenate, zip(*columns))) if sides else None


def _carried(pairs, field: DisplacementField):
    """The contour transport of ``_contour_pairs``: the flat lattice index
    of the fixed points and the fixed points carried into moving space.

    phi(p) = p + u(p) sends output-grid coordinates to moving-image
    coordinates (the pull-back convention of the warps), so the fixed points
    are the ones carried.  They are voxel centers (``ContourPointSet`` admits
    no other points), where trilinear sampling of u is a read of one voxel;
    so u is indexed at them, and d(carried)/d(u) is the identity at that
    voxel.  Points outside the field's grid raise ``ValueError``.
    """
    fixed = pairs[0]
    if (fixed >= field.dims).any():
        raise ValueError(f"contour points lie outside the field's grid {field.dims}")
    flat = np.ravel_multi_index(tuple(fixed.T.astype(np.intp)), field.dims)
    return flat, fixed + field.u.reshape(3, -1)[:, flat].T


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
    dims = state.dims

    need_moved = wd["sim"] > 0 or wd["prototype"] > 0
    need_mask = wd["seg"] > 0 or wd["prototype"] > 0
    if need_moved or need_mask:
        pts = field.u.copy()
        for a, axis in enumerate(state.grid):
            pts[a] += axis

    def sample(data, points):
        if with_grad:
            return sample_volume_with_gradient(data, points)
        return sample_volume(data, points), None

    moved = moved_pos = None
    if need_moved:
        moved, moved_pos = sample(state.moving.data, pts)
    d_moved = np.zeros(dims) if (with_grad and need_moved) else None

    windows = masks = None
    if need_mask:
        windows = _mask_windows(state.mask_boxes, field.u, dims)
        crops = state.moving_crops
        mask_pts = np.stack([pts[(slice(None),) + window] for window in windows], axis=1)
        mask_pts -= crops.origins.T[:, :, None, None, None]
        masks, masks_pos = sample(crops.values, mask_pts)
        np.clip(masks, 0.0, 1.0, out=masks)
        d_masks = np.zeros(masks.shape) if with_grad else None
    pts = mask_pts = None       # every sample is taken: free the points for the terms

    if wd["sim"] > 0:
        values["sim"], g = losses._lncc(state.fixed.data, moved, state.window,
                                          state.lncc_fixed, with_grad)
        if with_grad:
            d_moved += wd["sim"] * g

    if wd["seg"] > 0:
        fixed_crops = zip(state.fixed_crops.origins.tolist(), state.fixed_crops.values)
        values["seg"], g = losses._dice(_on_windows(fixed_crops, windows),
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
    grad = np.zeros((3,) + dims) if with_grad else None
    if wd["smooth"] > 0:
        values["smooth"], g = losses._smoothness(field.u, with_grad)
        if with_grad:
            grad += wd["smooth"] * g

    pairs = state.contour_pairs
    if wd["contour"] > 0 and pairs is not None:
        flat, carried = _carried(pairs, field)
        values["contour"], g = losses._class_chamfer(carried, *pairs[1:], with_grad)
        if with_grad:
            for component, g_c in zip(grad.reshape(3, -1), g.T):
                np.add.at(component, flat, wd["contour"] * g_c)

    if with_grad and need_moved:
        grad += d_moved * moved_pos
    if with_grad and need_mask:
        losses._add_on_windows(grad, windows, d_masks * masks_pos)

    breakdown = LossBreakdown.from_terms(values, state.weights)
    return breakdown, grad


# --------------------------------------------------------- FD verification

def finite_diff_check(evaluator, field: DisplacementField, probe_count: int = 64,
                      eps: float = 1e-3, seed: int = 0):
    """Central-difference probe of ``evaluator(field, with_grad) -> (value, grad)``.

    Probes ``probe_count`` random (component, voxel) entries and reports the
    worst absolute and relative disagreement; the relative denominator is
    max(|analytic|, |numeric|, 1e-8).  The evaluator must be deterministic,
    with any subsampling seeds held fixed across probes.
    """
    _, grad = evaluator(field, True)
    flat_grad = grad.ravel()
    rng = np.random.default_rng(seed)
    idx = rng.choice(flat_grad.size, size=min(probe_count, flat_grad.size), replace=False)

    def value_at(i, delta):
        u = field.u.copy()
        u.ravel()[i] += delta
        return evaluator(DisplacementField(field.dims, field.spacing, u), False)[0]

    max_abs = 0.0
    max_rel = 0.0
    for i in idx:
        numeric = (value_at(i, eps) - value_at(i, -eps)) / (2.0 * eps)
        analytic = flat_grad[i]
        abs_err = abs(numeric - analytic)
        rel_err = abs_err / max(abs(numeric), abs(analytic), 1e-8)
        max_abs = max(max_abs, abs_err)
        max_rel = max(max_rel, rel_err)
    return max_abs, max_rel


def chamfer_tie_margin(state: ObjectiveState, field: DisplacementField) -> float:
    """Smallest gap between first and second nearest-neighbor distances over
    both Chamfer query directions.

    The contour gradient holds the nearest-neighbor assignment fixed, so
    finite-difference probes disagree with it when a probe step crosses a
    tie; callers should resample instances whose margin is below a few probe
    steps.  Each direction is one query over all classes.  Returns +inf
    without a contour term or when no class has two points on a side.
    """
    pairs = state.contour_pairs
    margin = np.inf
    if pairs is None:
        return margin
    _, fixed_class, _, moving_class = pairs
    a, b = losses._lifted(_carried(pairs, field)[1], *pairs[1:])
    for query, query_class, tree, tree_class in ((a, fixed_class, b, moving_class),
                                                 (b, moving_class, a, fixed_class)):
        # only a class with two points in the tree has a same-class 2nd neighbour
        two = (np.bincount(tree_class) > 1)[query_class]
        if two.any():
            d, _ = cKDTree(tree).query(query[two], k=2)
            margin = min(margin, float((d[:, 1] - d[:, 0]).min()))
    return margin


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
