"""Objective terms for mask-assisted registration, on arrays already warped.

Five terms are combined into the optimized total: windowed normalized
cross-correlation of intensities (negated so lower is better), diffusion
smoothness of the displacement, soft Dice on warped masks, a prototype term
(voxel-to-prototype contrast plus cross-image prototype alignment on a fixed
2-channel feature bank), and a symmetric Chamfer loss between mask contour
points.

Each term is one private function that returns its value and, with
``with_grad``, its gradient with respect to its direct input: ``_lncc``
(moved intensities), ``_smoothness`` (u), ``_dice`` (moved mask channels),
``_contrast`` and ``_align`` (moved features; ``_align`` also the moved mask
channels), ``_prototype`` (both halves pulled back through the feature bank
onto the moved intensities, via ``_features_forward``/``_features_backward``)
and ``_class_chamfer`` (the carried contour points of every class).  These
are each term's only forward implementation, and the objective is scored
only through ``gradients.evaluate_objective`` (one term at a time:
``gradients.term_evaluator``).  Nothing here warps or transports:
``evaluate_objective`` samples the moving image and masks, carries the
contour points, and chains these gradients through the warp onto u.  The
constants of a level (``_lncc_fixed``, ``_fixed_mass``,
``extract_prototypes``, ``extract_contour_points``) are made once, by
``gradients.build_state``.

Moved mask channels come as one stack: ``values`` (K, wx, wy, wz) and
``windows``, K tuples of slices of the grid of that shape; channel k is
``values[k]`` on ``windows[k]`` and 0 elsewhere.  ``_dice`` takes the fixed
channels on the same windows (``gradients`` reads them from the fixed
masks' crops) and ``_align`` gathers the features on them (one slice copy
per channel); both reduce with array operations and return one mask
gradient shaped like ``values``; windows may overlap, so gradients go back
onto the grid by one slice-add per channel (``_add_on_windows``).
``extract_prototypes`` pools each class on its mask crop, and
``extract_contour_points`` finds a class's boundary on its crop.

Conventions fixed here and relied on elsewhere:
  * the correlation term is the negative mean of squared window NCC over all
    full windows, so it lives in [-1, 0]; windows with variance below 1e-5 on
    either side contribute 0; the fixed side (``_lncc_fixed``) is per level;
  * smoothness penalizes the displacement u, not the full map p + u(p);
  * Dice averages over classes present on at least one side and skips classes
    empty on both;
  * alignment sums (1 - cosine) over classes present in both prototype sets;
  * Chamfer is averaged over classes present in both contour collections, and
    the fixed-side points are carried by the current field into moving space
    before the nearest-neighbor terms are formed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.ndimage import uniform_filter
from scipy.spatial import cKDTree

from .grids import OneHotMask, _on_windows
from .warp import _one_shape, central_difference, central_difference_adjoint

VARIANCE_EPS = 1e-5      # window variance floor for the correlation term
DICE_EPS = 1e-7          # soft Dice denominator guard
PRESENCE_EPS = 1e-7      # minimum mask mass for a class to count as present
NORM_EPS = 1e-8          # cosine-similarity norm guard


# ------------------------------------------------------------------- types

@dataclass(frozen=True)
class LossWeights:
    """Weights for (similarity, smoothness, segmentation, prototype, contour)."""

    sim: float = 1.0
    smooth: float = 4.0
    seg: float = 1.0
    prototype: float = 1.0
    contour: float = 0.1

    def __post_init__(self):
        for name, w in self.as_dict().items():
            if not np.isfinite(w) or w < 0:
                raise ValueError(f"LossWeights: {name} must be finite and >= 0, got {w}")

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in TERM_NAMES}

    def without_masks(self) -> "LossWeights":
        return LossWeights(self.sim, self.smooth, 0.0, 0.0, 0.0)

    @property
    def uses_masks(self) -> bool:
        return self.seg > 0 or self.prototype > 0 or self.contour > 0


TERM_NAMES = tuple(f.name for f in fields(LossWeights))   # the five terms, in field order


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term values, their weights, and the weighted total."""

    values: dict
    weights: LossWeights
    total: float

    @classmethod
    def from_terms(cls, values: dict, weights: LossWeights) -> "LossBreakdown":
        wd = weights.as_dict()
        total = sum(wd[name] * values[name] for name in TERM_NAMES)
        return cls(dict(values), weights, float(total))


@dataclass(frozen=True)
class PrototypeSet:
    """One feature vector per class; absent classes carry no usable vector."""

    vectors: np.ndarray        # (K, C)
    present: np.ndarray        # (K,) bool

    def __post_init__(self):
        object.__setattr__(self, "vectors", np.asarray(self.vectors, dtype=np.float64))
        object.__setattr__(self, "present", np.asarray(self.present, dtype=bool))
        if self.vectors.ndim != 2 or self.present.shape != (self.vectors.shape[0],):
            raise ValueError("PrototypeSet: vectors must be (K, C) with matching present flags")


@dataclass(frozen=True)
class ContourPointSet:
    """Sampled boundary points of one class region, at voxel centers: every
    coordinate is a non-negative integer, so the contour transport reads the
    field at these points straight off the lattice."""

    class_label: int
    points: np.ndarray         # (N, 3)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not ((pts >= 0) & (pts == np.floor(pts))).all():
            raise ValueError("ContourPointSet: points must be voxel centers "
                             "(non-negative integer coordinates)")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]


# ------------------------------------------------------- similarity (LNCC)

def _box_sums(stacked: np.ndarray, window: int) -> np.ndarray:
    """Sum over the centered window at every voxel of each volume in the
    (C, nx, ny, nz) ``stacked`` (zero outside the volume)."""
    return uniform_filter(stacked, size=window, mode="constant", cval=0.0,
                          axes=(1, 2, 3)) * float(window ** 3)


def _check_window(dims, window: int) -> None:
    if window < 3 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 3, got {window}")
    if window > min(dims):
        raise ValueError(f"window {window} exceeds smallest dim of {dims}")


def _lncc_fixed(fixed: np.ndarray, window: int):
    """The fixed image's side of the correlation term, a constant of the
    level: its window sums s_i, its variance terms b = s_ii - s_i**2/w**3,
    and which windows clear the variance floor on that side."""
    _check_window(fixed.shape, window)
    w3 = float(window ** 3)
    center = (slice(None),) + (slice(window // 2, -(window // 2)),) * 3
    s_i, s_ii = _box_sums(np.stack([fixed, fixed * fixed]), window)[center]
    b = s_ii - s_i * s_i / w3
    # a copy of s_i, so that the state does not hold the whole-grid sums
    return s_i.copy(), b, b / w3 >= VARIANCE_EPS


def _lncc(fixed: np.ndarray, moved: np.ndarray, window: int, fixed_sums,
          with_grad: bool = False):
    """Correlation value and, with ``with_grad``, d(value)/d(moved), given
    the fixed side's ``_lncc_fixed`` sums.  The three moving-side window sums
    run as one stacked box filter, and so do the four of the backward pass,
    which recomputes window sums as box sums rather than caching per window
    (windows overlap heavily)."""
    s_i, b, valid_fixed = fixed_sums
    w3 = float(window ** 3)
    center = (slice(None),) + (slice(window // 2, -(window // 2)),) * 3
    s_j, s_jj, s_ij = _box_sums(np.stack([moved, moved * moved, fixed * moved]), window)[center]
    a = s_ij - s_i * s_j / w3
    c = s_jj - s_j * s_j / w3
    valid = valid_fixed & (c / w3 >= VARIANCE_EPS)
    ncc2 = np.zeros_like(a)
    np.divide(a * a, b * c, out=ncc2, where=valid)
    count = int(np.prod([n - window + 1 for n in fixed.shape]))
    value = float(-ncc2.sum() / count)
    if not with_grad:
        return value, None
    full = np.zeros((4,) + fixed.shape)
    alpha, alpha_i, beta, beta_j = full[center]
    np.divide(2.0 * a, b * c, out=alpha, where=valid)
    np.divide(2.0 * a * a, b * c * c, out=beta, where=valid)
    np.multiply(alpha, s_i / w3, out=alpha_i)
    np.multiply(beta, s_j / w3, out=beta_j)
    box_alpha, box_alpha_i, box_beta, box_beta_j = _box_sums(full, window)
    dsum = fixed * box_alpha - box_alpha_i - moved * box_beta + box_beta_j
    return value, -dsum / count


# ---------------------------------------------------------------- smoothness

def _smoothness(u: np.ndarray, with_grad: bool = False):
    """Smoothness value and, with ``with_grad``, d(value)/d(u).  Per axis
    the forward differences d = u[hi] - u[lo] add their squares to the
    value, and the gradient takes 2*d/N off ``lo`` and puts it on ``hi``."""
    n = float(np.prod(u.shape[1:]))
    total = 0.0
    grad = np.zeros(u.shape) if with_grad else None
    for axis in (1, 2, 3):
        d = np.diff(u, axis=axis)
        total += (d * d).sum()
        if with_grad:
            d *= 2.0 / n
            g, step = np.swapaxes(grad, 0, axis), np.swapaxes(d, 0, axis)
            g[:-1] -= step
            g[1:] += step
    return float(total / n), grad


# --------------------------------------------------------------------- Dice

def _add_on_windows(target: np.ndarray, windows, stack: np.ndarray) -> None:
    """Add ``stack[..., k, :, :, :]`` onto ``target`` on ``windows[k]``."""
    lead = (slice(None),) * (target.ndim - 3)
    for k, window in enumerate(windows):
        target[lead + window] += stack[lead + (k,)]


def _fixed_mass(fixed: OneHotMask) -> np.ndarray:
    """Per-class mass of the fixed mask, summed on its crops; a constant of
    the level."""
    return np.array([0.0 if crop is None else crop.values.sum() for crop in fixed.crops])


def _dice(fixed: np.ndarray, sum_f: np.ndarray, values: np.ndarray, with_grad: bool = False):
    """Soft Dice loss of the moved mask stack ``values`` against the fixed
    channels ``fixed`` on the same blocks (the whole grid, or each channel's
    window), of per-class mass ``sum_f`` and, with ``with_grad``,
    d(loss)/d(values), 0 on classes absent on both sides."""
    k = len(values)
    inter = (fixed * values).reshape(k, -1).sum(axis=1)
    sum_m = values.reshape(k, -1).sum(axis=1)
    present = (sum_f > PRESENCE_EPS) | (sum_m > PRESENCE_EPS)
    denom = sum_f + sum_m + DICE_EPS
    dice = 2.0 * inter / denom
    value = float(1.0 - dice[present].mean()) if present.any() else 0.0
    if not with_grad:
        return value, None
    b = denom[:, None, None, None]
    grad = -(2.0 * fixed / b - 2.0 * inter[:, None, None, None] / (b * b)) / max(present.sum(), 1)
    grad[~present] = 0.0
    return value, grad


# --------------------------------------------------------------- prototypes

def _standardize(data: np.ndarray) -> tuple[np.ndarray, float]:
    mu = data.mean()
    sigma = np.sqrt(((data - mu) ** 2).mean() + 1e-12)
    return (data - mu) / sigma, float(sigma)


def _features_forward(data: np.ndarray) -> tuple[np.ndarray, dict]:
    """Compute the 2-channel feature bank plus the intermediates that
    ``_features_backward`` needs."""
    ch0, sig0 = _standardize(data)
    grads = [central_difference(data, a) for a in range(3)]
    gm = np.sqrt(grads[0] ** 2 + grads[1] ** 2 + grads[2] ** 2 + 1e-12)
    ch1, sig1 = _standardize(gm)
    cache = {"ch0": ch0, "sig0": sig0, "grads": grads, "gm": gm, "ch1": ch1, "sig1": sig1}
    return np.stack([ch0, ch1]), cache


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


def _pool_prototypes(region: np.ndarray, values: np.ndarray) -> tuple[PrototypeSet, np.ndarray]:
    """Masked average pooling: per class k, the (C, K, ...) features
    ``region[:, k]`` averaged under the mask values ``values[k]`` in one
    ``einsum``; also returns the per-class mask mass it divided by."""
    k = len(values)
    mass = values.reshape(k, -1).sum(axis=1)
    present = mass >= PRESENCE_EPS
    vectors = np.divide(np.einsum("ckxyz,kxyz->kc", region, values), mass[:, None],
                        out=np.zeros((k, region.shape[0])), where=present[:, None])
    return PrototypeSet(vectors, present), mass


def extract_prototypes(features: np.ndarray, mask: OneHotMask) -> PrototypeSet:
    """Masked average pooling: per class, the mask-weighted mean of the
    (C, nx, ny, nz) ``features`` on the grid of ``mask``, pooled on the
    class's crop (padded to one shape, ``_one_shape``)."""
    windows = _one_shape([None if crop is None else crop.box for crop in mask.crops], mask.dims)
    region = np.stack([features[(slice(None),) + window] for window in windows], axis=1)
    return _pool_prototypes(region, _on_windows(mask.crops, windows))[0]


def _contrast(features: np.ndarray, assign: np.ndarray, protos: PrototypeSet,
              temperature: float, with_grad: bool = False):
    """Contrast value and, with ``with_grad``, d(value)/d(features).

    The term (and its gradient) is zero when fewer than two classes are
    present or no voxel is assigned to a present class.
    """
    grad = np.zeros(features.shape) if with_grad else None
    rows = np.flatnonzero(protos.present)
    if rows.size < 2:
        return 0.0, grad
    class_ids = rows + 1
    fg_idx = np.flatnonzero(np.isin(assign.ravel(), class_ids))
    n = fg_idx.size
    if n == 0:
        return 0.0, grad
    c = features.shape[0]
    f = features.reshape(c, -1)[:, fg_idx]                     # (C, N)
    norms = np.maximum(np.linalg.norm(f, axis=0), NORM_EPS)
    fhat = f / norms
    p = protos.vectors[rows]                                   # (P, C)
    pnorms = np.maximum(np.linalg.norm(p, axis=1), NORM_EPS)
    phat = p / pnorms[:, None]
    cos = phat @ fhat                                          # (P, N)
    logits = cos / temperature
    shifted = logits - logits.max(axis=0, keepdims=True)
    expv = np.exp(shifted)
    z = expv.sum(axis=0)
    # row index of each voxel's assigned class within the (sorted) present-class list
    pos = np.searchsorted(class_ids, assign.ravel()[fg_idx])
    value = float(-(shifted[pos, np.arange(n)] - np.log(z)).mean())
    if not with_grad:
        return value, None
    w = expv / z
    w[pos, np.arange(n)] -= 1.0
    cterm = (w * cos).sum(axis=0)                              # (N,)
    normed = norms > NORM_EPS
    df_fg = (phat.T @ w - fhat * (cterm * normed)) / (temperature * norms * n)
    grad.reshape(c, -1)[:, fg_idx] = df_fg
    return value, grad


def _align(protos_f: PrototypeSet, features: np.ndarray, windows, values: np.ndarray,
           with_grad: bool = False):
    """Alignment of ``protos_f`` with the prototypes pooled from ``features``
    under the moved mask stack ``values`` on ``windows`` (see the module
    docstring): the sum of (1 - cosine) over classes present in both sets.
    Returns (value, d/d(features), d/d(values)); both gradients are None
    without ``with_grad``."""
    region = np.stack([features[(slice(None),) + window] for window in windows], axis=1)
    protos_m, mass = _pool_prototypes(region, values)
    both = protos_f.present & protos_m.present
    n_f = np.maximum(np.linalg.norm(protos_f.vectors, axis=1), NORM_EPS)
    n_m = np.maximum(np.linalg.norm(protos_m.vectors, axis=1), NORM_EPS)
    phat_f = protos_f.vectors / n_f[:, None]
    phat_m = protos_m.vectors / n_m[:, None]
    cos = np.einsum("kc,kc->k", phat_f, phat_m)
    value = float((1.0 - cos[both]).sum())
    if not with_grad:
        return value, None, None
    # per class, d(value)/d(prototype) divided by the mass it was pooled under
    g = -np.where((n_m > NORM_EPS)[:, None], phat_f - cos[:, None] * phat_m, phat_f) / n_m[:, None]
    g = np.divide(g, mass[:, None], out=np.zeros_like(g), where=both[:, None])
    df = np.zeros_like(features)
    _add_on_windows(df, windows, np.einsum("kc,kxyz->ckxyz", g, values))
    dm = (np.einsum("kc,ckxyz->kxyz", g, region)
          - np.einsum("kc,kc->k", g, protos_m.vectors)[:, None, None, None])
    return value, df, dm


def _prototype(moved: np.ndarray, windows, mask_values: np.ndarray, assign: np.ndarray,
               protos_f: PrototypeSet, contrast_fixed: float, temperature: float,
               mode: str = "both", with_grad: bool = False):
    """The prototype term on the moved image and the moved mask stack (see
    the module docstring): the contrast of the moved features averaged with
    the fixed image's ``contrast_fixed``, both against the fixed prototypes
    ``protos_f`` under the fixed hard assignment ``assign``, plus the
    alignment; ``mode`` keeps only the "contrast" or the "align" half.
    Returns (value, d/d(moved), d/d(mask_values)); gradients are None
    without ``with_grad``, the mask one also for "contrast"."""
    feats, cache = _features_forward(moved)
    value = 0.0
    d_feats = np.zeros_like(feats) if with_grad else None
    d_masks = None
    if mode in ("both", "contrast"):
        contrast_moved, g = _contrast(feats, assign, protos_f, temperature, with_grad)
        value += 0.5 * (contrast_moved + contrast_fixed)
        if with_grad:
            d_feats += 0.5 * g
    if mode in ("both", "align"):
        align, g, d_masks = _align(protos_f, feats, windows, mask_values, with_grad)
        value += align
        if with_grad:
            d_feats += g
    if not with_grad:
        return value, None, None
    return value, _features_backward(d_feats, cache), d_masks


# ------------------------------------------------------------------ contours

def extract_contour_points(mask: OneHotMask, class_label: int, max_points: int = 2048,
                           seed: int = 0) -> ContourPointSet:
    """Boundary voxels of one class region (channel values >= 0.5),
    optionally subsampled.

    A voxel is a boundary voxel when it is foreground and at least one of its
    six face neighbors is background; neighbors outside the volume count as
    background.  When more than ``max_points`` boundary voxels exist, a
    seeded uniform subsample is taken.
    """
    crop = mask.crops[class_label - 1]
    if crop is None:
        return ContourPointSet(class_label, np.zeros((0, 3)))
    fg = crop.values >= 0.5
    # a layer of background around the crop stands for everything outside it
    padded = np.pad(fg, 1)
    interior = fg.copy()
    for a in range(3):
        for off in (-1, 1):
            interior &= np.roll(padded, off, axis=a)[1:-1, 1:-1, 1:-1]
    boundary = fg & ~interior
    pts = np.argwhere(boundary).astype(np.float64) + crop.origin
    if pts.shape[0] > max_points:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(pts.shape[0], size=max_points, replace=False))
        pts = pts[keep]
    return ContourPointSet(class_label, pts)


def _lifted(a: np.ndarray, a_class: np.ndarray, b: np.ndarray, b_class: np.ndarray):
    """``a`` and ``b`` with a 4th coordinate class * gap, the gap wider than
    the points' diagonal: pairs across classes are then farther apart than
    any pair within one, whose distances stay the 3-D ones bit for bit."""
    gap = 2.0 * (max(a.max(), b.max()) - min(a.min(), b.min())) + 1.0
    return np.column_stack([a, a_class * gap]), np.column_stack([b, b_class * gap])


def _class_chamfer(a: np.ndarray, a_class: np.ndarray, b: np.ndarray, b_class: np.ndarray,
                   with_grad: bool = False):
    """Mean over classes 0..P-1 (``a_class``, ``b_class``; each on both
    sides) of the symmetric Chamfer, the mean squared nearest-neighbour
    distance from the class's points in (N, 3) ``a`` to those in (M, 3)
    ``b`` plus the same from ``b`` to ``a``, and, with ``with_grad``,
    d(value)/d(a) with the nearest-neighbour assignment held fixed; from
    one KD-tree pair over the ``_lifted`` points of every class."""
    a4, b4 = _lifted(a, a_class, b, b_class)
    da, a_to_b = cKDTree(b4).query(a4)
    db, b_to_a = cKDTree(a4).query(b4)
    n_a, n_b = np.bincount(a_class), np.bincount(b_class)
    value = float((np.bincount(a_class, da ** 2) / n_a + np.bincount(b_class, db ** 2) / n_b).mean())
    if not with_grad:
        return value, None
    grad = 2.0 * (a - b[a_to_b]) / (len(n_a) * n_a[a_class])[:, None]
    np.add.at(grad, b_to_a, 2.0 * (a[b_to_a] - b) / (len(n_b) * n_b[b_class])[:, None])
    return value, grad
