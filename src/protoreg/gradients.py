"""The objective's one forward path and its analytic gradient wrt the field.

``evaluate_objective`` samples the moving image and masks through the field,
carries the fixed contour points into moving space, and scores every term
with the array-level helpers of ``losses``; with ``with_grad`` it also runs
each term's backward pass, kept here.  ``total_loss`` and ``contour_loss``
are views over the same path: the first is ``build_state`` followed by a
value-only evaluation, the second scores the one contour transport,
``_carried_contours``, which ``chamfer_tie_margin`` also uses.

Each term is differentiated through exactly the chain used by the forward
pass: trilinear warping (clamped borders, locally constant outside),
feature standardization, masked average pooling, and the Chamfer
nearest-neighbor assignment held fixed during the backward pass.  All
accumulation is float64.

Known non-smooth points, excluded from finite-difference verification:
sample positions crossing lattice planes or the clamp boundary, Chamfer
nearest-neighbor ties, class-presence flips, degenerate correlation windows,
and the kink of the soft Dice term at exactly-hard masks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from . import losses
from .grids import DimsMismatchError, OneHotMask, Volume
from .losses import NORM_EPS, LossBreakdown, LossWeights, PrototypeSet, TERM_NAMES
from .warp import (
    DisplacementField,
    central_difference_adjoint,
    identity_grid,
    interp_stencil,
    sample_volume_with_gradient,
)


@dataclass(frozen=True)
class ObjectiveState:
    """Per-resolution bundle of everything the objective needs besides the
    field.  Fixed-image prototypes, hard assignments, the fixed half of the
    contrast term and both contour sets are constants of the optimization
    and precomputed once."""

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
    if weights.sim > 0:
        losses._check_window(fixed.dims, window)
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
        fixed_assign = losses.hard_assignments(fixed_onehot)
        stats = losses._contrast_stats(
            fixed_feats.channels, fixed_assign, fixed_protos, temperature
        )
        contrast_fixed = 0.0 if stats is None else stats["value"]

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
    )


# ----------------------------------------------------------- term backwards

def _lncc_backward(stats: dict, fixed: np.ndarray, moved: np.ndarray) -> np.ndarray:
    """d(loss)/d(moved intensity).  Window statistics are recomputed as box
    sums rather than cached per window (windows overlap heavily)."""
    window = stats["window"]
    center = stats["center"]
    valid = stats["valid"]
    a, b, c = stats["a"], stats["b"], stats["c"]
    alpha = np.zeros_like(a)
    beta = np.zeros_like(a)
    np.divide(2.0 * a, b * c, out=alpha, where=valid)
    np.divide(2.0 * a * a, b * c * c, out=beta, where=valid)

    def embed(x):
        full = np.zeros(fixed.shape)
        full[center] = x
        return full

    box = lambda x: losses._box_sum(x, window)
    dsum = (
        fixed * box(embed(alpha))
        - box(embed(alpha * stats["mean_i"]))
        - moved * box(embed(beta))
        + box(embed(beta * stats["mean_j"]))
    )
    return -dsum / stats["count"]


def _smoothness_gradient(d: np.ndarray) -> np.ndarray:
    """Adjoint of the forward-difference stencil applied to 2*d/N, where
    ``d`` holds the forward differences of u that gave the value."""
    n = float(np.prod(d.shape[2:]))
    grad = np.zeros(d.shape[1:])
    for a in range(3):
        shifted = np.zeros(d.shape[1:])
        src = [slice(None)] * 4
        dst = [slice(None)] * 4
        src[1 + a] = slice(0, -1)
        dst[1 + a] = slice(1, None)
        shifted[tuple(dst)] = d[a][tuple(src)]
        grad += (2.0 / n) * (shifted - d[a])
    return grad


def _dice_channel_coefficients(stats: dict, fixed_channels: np.ndarray) -> list:
    """d(loss)/d(warped channel k) for every present class, else None."""
    present = stats["present"]
    n_present = int(present.sum())
    coeffs = []
    for k in range(fixed_channels.shape[0]):
        if not present[k] or n_present == 0:
            coeffs.append(None)
            continue
        b = stats["denom"][k]
        coeffs.append(-(2.0 * fixed_channels[k] / b - 2.0 * stats["inter"][k] / (b * b)) / n_present)
    return coeffs


def _features_backward(dch: np.ndarray, cache: dict) -> np.ndarray:
    """Pull a gradient on the feature channels back onto the raw intensities,
    through both standardizations and the gradient-magnitude chain."""

    def destandardize(g, ch, sig):
        return (g - g.mean() - ch * (g * ch).mean()) / sig

    d_data = destandardize(dch[0], cache["ch0"], cache["sig0"])
    dgm = destandardize(dch[1], cache["ch1"], cache["sig1"])
    for a in range(3):
        dga = dgm * cache["grads"][a] / cache["gm"]
        d_data += central_difference_adjoint(dga, a)
    return d_data


def _contrast_backward(stats: dict, shape) -> np.ndarray:
    """d(contrast)/d(features), scattered to the full channel grid."""
    softmax, cos, phat = stats["softmax"], stats["cos"], stats["phat"]
    fhat, norms, fg_idx = stats["fhat"], stats["norms"], stats["fg_idx"]
    n = fg_idx.size
    w = softmax.copy()
    w[stats["pos"], np.arange(n)] -= 1.0
    term = phat.T @ w                             # (C, N)
    cterm = (w * cos).sum(axis=0)                 # (N,)
    normed = norms > NORM_EPS
    df_fg = (term - fhat * (cterm * normed)) / (stats["temperature"] * norms * n)
    df = np.zeros((shape[0], int(np.prod(shape[1:]))))
    df[:, fg_idx] = df_fg
    return df.reshape(shape)


def _align_backward(protos_f: PrototypeSet, protos_m: PrototypeSet, mass: np.ndarray,
                    moved_feats_flat: np.ndarray, moved_mask_flat: np.ndarray):
    """Alignment gradients on features and mask channels, given the moved
    prototypes and mask mass that ``losses._pool_prototypes`` returned.

    Returns (dF flat (C, N), list of per-class dM (N,) or None).
    """
    df = np.zeros_like(moved_feats_flat)
    dm = [None] * moved_mask_flat.shape[0]
    for kk in np.flatnonzero(protos_f.present & protos_m.present):
        m = moved_mask_flat[kk]
        s = mass[kk]
        p_m = protos_m.vectors[kk]
        p_f = protos_f.vectors[kk]
        n_m = max(float(np.linalg.norm(p_m)), NORM_EPS)
        n_f = max(float(np.linalg.norm(p_f)), NORM_EPS)
        phat_m = p_m / n_m
        phat_f = p_f / n_f
        cos = float(phat_f @ phat_m)
        if np.linalg.norm(p_m) > NORM_EPS:
            dcos_dpm = (phat_f - cos * phat_m) / n_m
        else:
            dcos_dpm = phat_f / n_m
        g = -dcos_dpm
        df += np.outer(g, m) / s
        dm[kk] = (g @ moved_feats_flat - float(g @ p_m)) / s
    return df, dm


def _carried_contours(fixed_contours, moving_contours, field: DisplacementField):
    """The contour transport: per class with points on both sides, yield
    (fixed points, moving points, fixed points carried into moving space).

    phi(p) = p + u(p) sends output-grid coordinates to moving-image
    coordinates (the pull-back convention of the warps), so the fixed points
    are the ones carried.  u is sampled at the static fixed points, which
    keeps the transport differentiable in u.
    """
    moving_by_class = {c.class_label: c.points for c in moving_contours if len(c) > 0}
    for cf in fixed_contours:
        moving_pts = moving_by_class.get(cf.class_label)
        if moving_pts is None or len(cf) == 0:
            continue
        disp = np.stack(
            [sample_volume_with_gradient(field.u[c], cf.points.T)[0] for c in range(3)],
            axis=1,
        )
        yield cf.points, moving_pts, cf.points + disp


def contour_loss(moving_contours, fixed_contours, field: DisplacementField) -> float:
    """Per-class Chamfer between the two contour sets under the current map,
    averaged over classes with points on both sides; the fixed points are
    carried through the field (see ``_carried_contours``)."""
    values = [losses._chamfer_stats(carried, moving_pts)[0]
              for _, moving_pts, carried in _carried_contours(fixed_contours, moving_contours, field)]
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

    moved = moved_pos = None
    if need_moved:
        moved, moved_pos = sample_volume_with_gradient(state.moving.data, pts)
    d_moved = np.zeros(dims) if (with_grad and need_moved) else None

    moved_mask = mask_pos = d_mask = None
    if need_mask:
        k = state.moving_onehot.num_classes
        raw = []
        mask_pos = []
        for kk in range(k):
            val, pg = sample_volume_with_gradient(state.moving_onehot.channels[kk], pts)
            raw.append(val)
            mask_pos.append(pg)
        moved_mask = np.clip(np.stack(raw), 0.0, 1.0)
        if with_grad:
            d_mask = np.zeros((k,) + dims)

    if wd["sim"] > 0:
        stats = losses._lncc_stats(state.fixed.data, moved, state.window)
        values["sim"] = stats["value"]
        if with_grad:
            d_moved += wd["sim"] * _lncc_backward(stats, state.fixed.data, moved)

    if wd["smooth"] > 0:
        values["smooth"], diffs = losses._smoothness_stats(field.u)
        if with_grad:
            grad += wd["smooth"] * _smoothness_gradient(diffs)

    if wd["seg"] > 0:
        stats = losses._dice_stats(state.fixed_onehot.channels, moved_mask)
        values["seg"] = stats["value"]
        if with_grad:
            for kk, coef in enumerate(_dice_channel_coefficients(stats, state.fixed_onehot.channels)):
                if coef is not None:
                    d_mask[kk] += wd["seg"] * coef

    if wd["prototype"] > 0:
        feats, cache = losses._features_forward(moved)
        d_feats = np.zeros_like(feats) if with_grad else None
        value_proto = 0.0
        if proto_mode in ("both", "contrast"):
            cstats = losses._contrast_stats(
                feats, state.fixed_assign, state.fixed_protos, state.temperature
            )
            contrast_moved = 0.0 if cstats is None else cstats["value"]
            value_proto += 0.5 * (contrast_moved + state.contrast_fixed)
            if with_grad and cstats is not None:
                d_feats += 0.5 * _contrast_backward(cstats, feats.shape)
        if proto_mode in ("both", "align"):
            flat_f = feats.reshape(feats.shape[0], -1)
            flat_m = moved_mask.reshape(moved_mask.shape[0], -1)
            protos_m, mass = losses._pool_prototypes(flat_f, flat_m)
            value_proto += losses.align_loss(state.fixed_protos, protos_m)
            if with_grad:
                df_align, dm_align = _align_backward(state.fixed_protos, protos_m, mass,
                                                     flat_f, flat_m)
                d_feats += df_align.reshape(feats.shape)
                for kk, dm in enumerate(dm_align):
                    if dm is not None:
                        d_mask[kk] += wd["prototype"] * dm.reshape(dims)
        values["prototype"] = value_proto
        if with_grad:
            d_moved += wd["prototype"] * _features_backward(d_feats, cache)

    if wd["contour"] > 0:
        class_values = []
        pending = []
        for fixed_pts, moving_pts, carried in _carried_contours(
                state.fixed_contours, state.moving_contours, field):
            value, j_idx, i_idx = losses._chamfer_stats(carried, moving_pts)
            class_values.append(value)
            if with_grad:
                g_pts = 2.0 * (carried - moving_pts[j_idx]) / len(fixed_pts)
                np.add.at(g_pts, i_idx, 2.0 * (carried[i_idx] - moving_pts) / len(moving_pts))
                pending.append((fixed_pts, g_pts))
        if class_values:
            values["contour"] = float(np.mean(class_values))
            if with_grad:
                scale = wd["contour"] / len(class_values)
                for orig_pts, g_pts in pending:
                    idx, wts = interp_stencil(dims, orig_pts)
                    for corner in range(8):
                        ix = (idx[corner, :, 0], idx[corner, :, 1], idx[corner, :, 2])
                        for c in range(3):
                            np.add.at(grad[c], ix, scale * wts[corner] * g_pts[:, c])

    if with_grad and need_moved:
        grad += d_moved * moved_pos
    if with_grad and need_mask:
        for kk in range(moved_mask.shape[0]):
            grad += d_mask[kk] * mask_pos[kk]

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
    for fixed_pts, moving_pts, carried in _carried_contours(
            state.fixed_contours, state.moving_contours, field):
        if len(moving_pts) > 1:
            d, _ = cKDTree(moving_pts).query(carried, k=2)
            margin = min(margin, float((d[:, 1] - d[:, 0]).min()))
        if len(fixed_pts) > 1:
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
