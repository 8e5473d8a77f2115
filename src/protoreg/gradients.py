"""The objective's one forward path and its analytic gradient wrt the field.

``evaluate_objective`` samples the moving image and masks through the field,
carries the fixed contour points into moving space (``_carried_contours``),
and scores every term with its function in ``losses``.  Each of those returns
the term's value and, with ``with_grad``, its gradient wrt the term's direct
input (moved intensities, moved mask channels, u, or the carried points);
this module only chains those gradients through the warp onto u: through the
spatial derivative of every trilinear sample, and, for the contour points,
by adding each point's gradient to the voxel it was carried from.  A
value-only evaluation (``with_grad=False``: ``total_loss``, each level's
final breakdown, every finite-difference probe) samples through
``sample_volume`` and takes no spatial derivative.  ``contour_loss`` and
``chamfer_tie_margin`` use the same contour transport.  The
finite-difference tools that check all of this live here too.

Each moving mask channel is sampled only on the block of output voxels whose
sample point can reach the channel's support, which is exact.  A clamped
trilinear sample reads the two lattice neighbours of its (clamped)
coordinate on each axis, so outside the channel's non-zero index range
[a, b] grown by one voxel to [a-1, b+1], all eight corners are 0 and the
value and the spatial derivative are exactly 0 (at a clamped coordinate the
corner that could be non-zero has weight 0 and the derivative is zeroed).
The range stays open on a face the support touches (a = 0 or b = n-1),
because every sample clamped onto that face reads it.  The moved masks are
never dense: each sampled channel stays a ``(k, window, values)`` block
(see ``losses``) with its spatial derivative, the Dice and prototype terms
reduce over the blocks, and each block's mask gradient is chained onto u on
its window only.  Element by element the arithmetic is that of the dense
sampling, but the sums run in another order, so the results agree with it
to rounding (about 1e-16 relative), not bit for bit.

All accumulation is float64.  Known non-smooth points, excluded from
finite-difference verification: sample positions crossing lattice planes or
the clamp boundary, Chamfer nearest-neighbor ties, class-presence flips,
degenerate correlation windows, and the kink of the soft Dice term at
exactly-hard masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np
from scipy.spatial import cKDTree

from . import losses
from .grids import DimsMismatchError, OneHotMask, Volume, argmax_labels
from .losses import LossBreakdown, LossWeights, PrototypeSet, TERM_NAMES
from .warp import DisplacementField, identity_grid, sample_volume, sample_volume_with_gradient


@dataclass(frozen=True)
class ObjectiveState:
    """Per-resolution bundle of everything the objective needs besides the
    field.  Its fixed-side constants are computed once per level: prototypes,
    hard assignments, the fixed half of the contrast term, both contour
    sets, and, derived whenever a state is made (``replace`` too), the LNCC
    window sums ``lncc_fixed`` (when the similarity weight is positive) and
    the fixed masks' per-class masses ``fixed_mass`` for Dice.

    ``mask_boxes`` holds, per moving mask channel, the support box derived
    from it: per axis the source-coordinate range (lo, hi) outside which a
    sample of the channel and its spatial derivative are exactly 0.  It is
    the non-zero index range [a, b] grown by one voxel, open (-inf or +inf)
    on a face the support touches; an all-zero channel has None.  Only the
    output voxels whose sample points can fall inside the box are sampled,
    and the samples stay that block (see the module docstring).
    """

    fixed: Volume
    moving: Volume
    weights: LossWeights
    window: int
    temperature: float
    fixed_onehot: OneHotMask | None = None
    moving_onehot: OneHotMask | None = None
    fixed_protos: PrototypeSet | None = None
    fixed_assign: np.ndarray | None = None
    contrast_fixed: float = 0.0
    fixed_contours: tuple = ()
    moving_contours: tuple = ()
    mask_boxes: tuple = ()
    lncc_fixed: tuple | None = dataclass_field(init=False, default=None, repr=False)
    fixed_mass: np.ndarray | None = dataclass_field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.weights.sim > 0:     # also checks the window
            object.__setattr__(self, "lncc_fixed", losses._lncc_fixed(self.fixed.data, self.window))
        if self.fixed_onehot is not None:
            object.__setattr__(self, "fixed_mass", losses._fixed_mass(self.fixed_onehot.channels))

    @property
    def dims(self):
        return self.fixed.dims


def build_state(fixed: Volume, moving: Volume, weights: LossWeights,
                fixed_onehot: OneHotMask | None = None,
                moving_onehot: OneHotMask | None = None,
                window: int = 9, temperature: float = 0.1,
                max_points: int = 2048, seed: int = 0) -> ObjectiveState:
    """Precompute the deformation-independent pieces of the objective."""
    if fixed.dims != moving.dims:
        raise DimsMismatchError(f"build_state: fixed {fixed.dims} vs moving {moving.dims}")
    if not weights.uses_masks:
        return ObjectiveState(fixed, moving, weights, window, temperature)
    if fixed_onehot is None or moving_onehot is None:
        raise ValueError("build_state: mask-dependent weights need both masks")
    if fixed_onehot.num_classes != moving_onehot.num_classes:
        raise ValueError("build_state: masks cover different class universes")

    fixed_protos = fixed_assign = None
    contrast_fixed = 0.0
    if weights.prototype > 0:
        fixed_feats = losses.feature_volume(fixed)
        fixed_protos = losses.extract_prototypes(fixed_feats, fixed_onehot)
        fixed_assign = argmax_labels(fixed_onehot).labels
        contrast_fixed = losses._contrast(
            fixed_feats.channels, fixed_assign, fixed_protos, temperature
        )[0]

    fixed_contours: tuple = ()
    moving_contours: tuple = ()
    if weights.contour > 0:
        k = fixed_onehot.num_classes
        fixed_contours = tuple(
            losses.extract_contour_points(fixed_onehot, c, max_points, seed)
            for c in range(1, k + 1)
        )
        moving_contours = tuple(
            losses.extract_contour_points(moving_onehot, c, max_points, seed)
            for c in range(1, k + 1)
        )
    return ObjectiveState(
        fixed, moving, weights, window, temperature,
        fixed_onehot, moving_onehot, fixed_protos, fixed_assign,
        contrast_fixed, fixed_contours, moving_contours,
        tuple(_support_box(ch) for ch in moving_onehot.channels),
    )


def _support_box(channel: np.ndarray):
    """Per axis (lo, hi): the non-zero index range [a, b] of ``channel``
    grown to [a-1, b+1], open on a face the support touches; None when the
    channel is all zero."""
    box = []
    for axis, n in enumerate(channel.shape):
        others = tuple(a for a in range(3) if a != axis)
        nonzero = np.flatnonzero(channel.any(axis=others))
        if nonzero.size == 0:
            return None
        a, b = int(nonzero[0]), int(nonzero[-1])
        box.append((a - 1.0 if a > 0 else -np.inf, b + 1.0 if b < n - 1 else np.inf))
    return tuple(box)


def _sample_window(box, u_min, u_max, dims):
    """Slices of the output block holding every voxel p whose sample point
    p + u(p) can fall in ``box``, given u_min <= u <= u_max per axis; None
    when the block is empty.

    On one axis that is [ceil(lo - max u), floor(hi - min u)] within the
    grid.  Each end is settled by testing p + max u >= lo (p + min u <= hi)
    in the float arithmetic that forms the sample points, so a point rounded
    onto a face of the box is kept.
    """
    window = []
    for (lo, hi), lo_u, hi_u, n in zip(box, u_min, u_max, dims):
        start, stop = 0, n - 1
        if lo > -np.inf:
            start = max(0, int(np.ceil(lo - hi_u)) - 1)
            if start + hi_u < lo:
                start += 1
        if hi < np.inf:
            stop = min(n - 1, int(np.floor(hi - lo_u)) + 1)
            if stop + lo_u > hi:
                stop -= 1
        if start > stop:
            return None
        window.append(slice(start, stop + 1))
    return tuple(window)


def _carried_contours(fixed_contours, moving_contours, field: DisplacementField):
    """The contour transport: per class with points on both sides, yield
    (lattice index of the fixed points, moving points, fixed points carried
    into moving space).

    phi(p) = p + u(p) sends output-grid coordinates to moving-image
    coordinates (the pull-back convention of the warps), so the fixed points
    are the ones carried.  They are voxel centers (``ContourPointSet`` admits
    no other points), where trilinear sampling of u is a read of one voxel;
    so u is indexed at them, and d(carried)/d(u) is the identity at that
    voxel.  Points outside the field's grid raise ``ValueError``.
    """
    moving_by_class = {c.class_label: c.points for c in moving_contours if len(c) > 0}
    for cf in fixed_contours:
        moving_pts = moving_by_class.get(cf.class_label)
        if moving_pts is None or len(cf) == 0:
            continue
        if (cf.points >= field.dims).any():
            raise ValueError(f"contour points of class {cf.class_label} lie outside "
                             f"the field's grid {field.dims}")
        index = tuple(cf.points.T.astype(np.intp))
        yield index, moving_pts, cf.points + field.u[(slice(None),) + index].T


def contour_loss(moving_contours, fixed_contours, field: DisplacementField) -> float:
    """Per-class Chamfer between the two contour sets under the current map,
    averaged over classes with points on both sides; the fixed points are
    carried through the field (see ``_carried_contours``)."""
    transport = _carried_contours(fixed_contours, moving_contours, field)
    values = [losses._chamfer(carried, moving_pts)[0] for _, moving_pts, carried in transport]
    return float(np.mean(values)) if values else 0.0


# ------------------------------------------------------------- full objective

def evaluate_objective(state: ObjectiveState, field: DisplacementField,
                       with_grad: bool = True, proto_mode: str = "both"):
    """Evaluate the weighted objective; optionally also its gradient wrt u.

    Term values in the returned breakdown are unweighted; the gradient is of
    the weighted total.  ``proto_mode`` restricts the prototype term to its
    "contrast" or "align" half (used by the per-term gradient checks).
    """
    if field.dims != state.dims:
        raise DimsMismatchError(f"evaluate_objective: field {field.dims} vs state {state.dims}")
    wd = state.weights.as_dict()
    values = {name: 0.0 for name in TERM_NAMES}
    dims = state.dims
    grad = np.zeros((3,) + dims) if with_grad else None

    need_moved = wd["sim"] > 0 or wd["prototype"] > 0
    need_mask = wd["seg"] > 0 or wd["prototype"] > 0
    pts = identity_grid(dims) + field.u if (need_moved or need_mask) else None

    def sample(data, points):
        if with_grad:
            return sample_volume_with_gradient(data, points)
        return sample_volume(data, points), None

    moved = moved_pos = None
    if need_moved:
        moved, moved_pos = sample(state.moving.data, pts)
    d_moved = np.zeros(dims) if (with_grad and need_moved) else None

    blocks = []         # (channel, output window, clipped moved values)
    block_pos = []      # each block's spatial derivative
    if need_mask:
        channels = state.moving_onehot.channels
        u_min = field.u.min(axis=(1, 2, 3))
        u_max = field.u.max(axis=(1, 2, 3))
        for k, (ch, box) in enumerate(zip(channels, state.mask_boxes, strict=True)):
            window = None if box is None else _sample_window(box, u_min, u_max, dims)
            if window is None:
                continue
            value, pos = sample(ch, pts[(slice(None),) + window])
            blocks.append((k, window, np.clip(value, 0.0, 1.0, out=value)))
            block_pos.append(pos)
    d_blocks = [0.0] * len(blocks)

    if wd["sim"] > 0:
        values["sim"], g = losses._lncc(state.fixed.data, moved, state.window,
                                          state.lncc_fixed, with_grad)
        if with_grad:
            d_moved += wd["sim"] * g

    if wd["smooth"] > 0:
        values["smooth"], g = losses._smoothness(field.u, with_grad)
        if with_grad:
            grad += wd["smooth"] * g

    if wd["seg"] > 0:
        values["seg"], g = losses._dice(state.fixed_onehot.channels, state.fixed_mass,
                                          blocks, with_grad)
        if with_grad:
            d_blocks = [d + wd["seg"] * gb for d, gb in zip(d_blocks, g)]

    if wd["prototype"] > 0:
        values["prototype"], g, g_blocks = losses._prototype(
            moved, blocks, state.fixed_assign, state.fixed_protos,
            state.contrast_fixed, state.temperature, proto_mode, with_grad)
        if with_grad:
            d_moved += wd["prototype"] * g
            if g_blocks is not None:
                d_blocks = [d + wd["prototype"] * gb for d, gb in zip(d_blocks, g_blocks)]

    if wd["contour"] > 0:
        class_values = []
        class_grads = []
        for index, moving_pts, carried in _carried_contours(
                state.fixed_contours, state.moving_contours, field):
            value, g = losses._chamfer(carried, moving_pts, with_grad)
            class_values.append(value)
            class_grads.append((index, g))
        if class_values:
            values["contour"] = float(np.mean(class_values))
            if with_grad:
                scale = wd["contour"] / len(class_values)
                for index, g in class_grads:
                    grad[(slice(None),) + index] += scale * g.T

    if with_grad and need_moved:
        grad += d_moved * moved_pos
    if with_grad:
        for (_, window, _), d, pos in zip(blocks, d_blocks, block_pos):
            grad[(slice(None),) + window] += d * pos

    breakdown = LossBreakdown.from_terms(values, state.weights)
    return breakdown, grad


def total_loss(fixed: Volume, moving: Volume, field: DisplacementField,
               weights: LossWeights,
               fixed_mask: OneHotMask | None = None,
               moving_mask: OneHotMask | None = None,
               window: int = 9, temperature: float = 0.1,
               max_points: int = 2048, seed: int = 0) -> LossBreakdown:
    """Evaluate every active term at the given field and report the breakdown.

    Terms with zero weight are skipped (reported as 0.0); mask-dependent
    terms require both masks.
    """
    if fixed.dims != moving.dims or fixed.dims != field.dims:
        raise DimsMismatchError(
            f"total_loss: dims differ (fixed {fixed.dims}, moving {moving.dims}, "
            f"field {field.dims})"
        )
    if weights.uses_masks and (fixed_mask is None or moving_mask is None):
        raise ValueError("total_loss: mask-dependent weights are active but masks are missing")
    state = build_state(fixed, moving, weights, fixed_mask, moving_mask,
                        window=window, temperature=temperature, max_points=max_points, seed=seed)
    return evaluate_objective(state, field, with_grad=False)[0]


def grad_total(state: ObjectiveState, field: DisplacementField,
               weights: LossWeights | None = None):
    """Weighted objective and its analytic gradient, term by term."""
    if weights is not None and weights != state.weights:
        state = replace(state, weights=weights)
    return evaluate_objective(state, field, with_grad=True)


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


def breakdown_evaluator(state: ObjectiveState):
    """Adapt evaluate_objective to the (field, with_grad) -> (total, grad)
    shape that finite_diff_check expects."""

    def evaluate(field: DisplacementField, with_grad: bool = True):
        breakdown, grad = evaluate_objective(state, field, with_grad=with_grad)
        return breakdown.total, grad

    return evaluate


def chamfer_tie_margin(state: ObjectiveState, field: DisplacementField) -> float:
    """Smallest gap between first and second nearest-neighbor distances over
    both Chamfer query directions.

    The contour gradient holds the nearest-neighbor assignment fixed, so
    finite-difference probes disagree with it when a probe step crosses a
    tie; callers should resample instances whose margin is below a few probe
    steps.  Returns +inf when no class has points on both sides.
    """
    margin = np.inf
    for _, moving_pts, carried in _carried_contours(
            state.fixed_contours, state.moving_contours, field):
        if len(moving_pts) > 1:
            d, _ = cKDTree(moving_pts).query(carried, k=2)
            margin = min(margin, float((d[:, 1] - d[:, 0]).min()))
        if len(carried) > 1:
            d, _ = cKDTree(carried).query(moving_pts, k=2)
            margin = min(margin, float((d[:, 1] - d[:, 0]).min()))
    return margin


TERM_CHECKS = ("sim", "smooth", "seg", "contrast", "align", "contour")


def term_evaluator(state: ObjectiveState, term: str):
    """Single-term evaluator with unit weight, for per-term gradient checks.

    ``term`` names one of: sim, smooth, seg, contrast, align, contour (the
    two prototype halves are checked independently).
    """
    if term not in TERM_CHECKS:
        raise ValueError(f"term must be one of {TERM_CHECKS}, got {term!r}")
    proto_mode = "both"
    if term in ("contrast", "align"):
        proto_mode = term
        weights = LossWeights(0, 0, 0, 1, 0)
    else:
        weights = LossWeights(**{n: 0.0 for n in TERM_NAMES} | {term: 1.0})
    sub = replace(state, weights=weights)

    def evaluate(field: DisplacementField, with_grad: bool = True):
        breakdown, grad = evaluate_objective(sub, field, with_grad=with_grad,
                                             proto_mode=proto_mode)
        return breakdown.total, grad

    return evaluate
