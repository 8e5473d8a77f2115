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
and ``_chamfer`` (the carried contour points).  The public per-term functions
are value-only views over them.  Nothing here warps or transports:
``gradients.evaluate_objective`` samples the moving image and masks, carries
the contour points, and chains these gradients through the warp onto u.

Moved mask channels come as blocks: a list of ``(k, window, values)``, where
``window`` is a tuple of slices of the grid and ``values`` holds channel k
on it.  A channel is 0 outside its block and 0 everywhere without one, so
``_dice``, ``_pool_prototypes`` and ``_align`` reduce over the blocks only,
and their mask gradients are one array per block, on its window.  The dense
views (``dice_loss``, ``extract_prototypes``) pass each channel as one
whole-grid block (``_whole_blocks``).

Conventions fixed here and relied on elsewhere:
  * the correlation term is the negative mean of squared window NCC over all
    full windows, so it lives in [-1, 0]; windows with variance below 1e-5 on
    either side contribute 0;
  * smoothness penalizes the displacement u, not the full map p + u(p);
  * Dice averages over classes present on at least one side and skips classes
    empty on both;
  * alignment sums (1 - cosine) over classes present in both prototype sets;
  * Chamfer is averaged over classes present in both contour collections, and
    the fixed-side points are carried by the current field into moving space
    before the nearest-neighbor terms are formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter
from scipy.spatial import cKDTree

from .grids import DimsMismatchError, LabelVolume, OneHotMask, Volume, argmax_labels
from .warp import DisplacementField, central_difference, central_difference_adjoint

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
        return {
            "sim": self.sim,
            "smooth": self.smooth,
            "seg": self.seg,
            "prototype": self.prototype,
            "contour": self.contour,
        }

    def without_masks(self) -> "LossWeights":
        return LossWeights(self.sim, self.smooth, 0.0, 0.0, 0.0)

    @property
    def uses_masks(self) -> bool:
        return self.seg > 0 or self.prototype > 0 or self.contour > 0


TERM_NAMES = ("sim", "smooth", "seg", "prototype", "contour")


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
class FeatureVolume:
    """Per-voxel feature channels, shaped (C, nx, ny, nz)."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    channels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "channels", np.asarray(self.channels, dtype=np.float64))
        if self.channels.ndim != 4 or self.channels.shape[1:] != self.dims:
            raise ValueError(
                f"FeatureVolume: channels shape {self.channels.shape} vs dims {self.dims}"
            )
        if not np.isfinite(self.channels).all():
            raise ValueError("FeatureVolume: non-finite feature values")

    @property
    def num_channels(self) -> int:
        return self.channels.shape[0]


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

    @property
    def num_classes(self) -> int:
        return self.vectors.shape[0]


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

def _box_sum(data: np.ndarray, window: int) -> np.ndarray:
    """Sum over the centered window at every voxel (zero outside the volume)."""
    return uniform_filter(data, size=window, mode="constant", cval=0.0) * float(window ** 3)


def _check_window(dims, window: int) -> None:
    if window < 3 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 3, got {window}")
    if window > min(dims):
        raise ValueError(f"window {window} exceeds smallest dim of {dims}")


def _lncc(fixed: np.ndarray, moved: np.ndarray, window: int, with_grad: bool = False):
    """Correlation value and, with ``with_grad``, d(value)/d(moved).  The
    backward pass recomputes window sums as box sums rather than caching per
    window (windows overlap heavily)."""
    w3 = float(window ** 3)
    r = window // 2
    center = tuple(slice(r, n - r) for n in fixed.shape)
    s_i = _box_sum(fixed, window)[center]
    s_j = _box_sum(moved, window)[center]
    s_ii = _box_sum(fixed * fixed, window)[center]
    s_jj = _box_sum(moved * moved, window)[center]
    s_ij = _box_sum(fixed * moved, window)[center]
    a = s_ij - s_i * s_j / w3
    b = s_ii - s_i * s_i / w3
    c = s_jj - s_j * s_j / w3
    valid = (b / w3 >= VARIANCE_EPS) & (c / w3 >= VARIANCE_EPS)
    ncc2 = np.zeros_like(a)
    np.divide(a * a, b * c, out=ncc2, where=valid)
    count = int(np.prod([n - window + 1 for n in fixed.shape]))
    value = float(-ncc2.sum() / count)
    if not with_grad:
        return value, None
    alpha = np.zeros_like(a)
    beta = np.zeros_like(a)
    np.divide(2.0 * a, b * c, out=alpha, where=valid)
    np.divide(2.0 * a * a, b * c * c, out=beta, where=valid)

    def box(x):
        full = np.zeros(fixed.shape)
        full[center] = x
        return _box_sum(full, window)

    dsum = (fixed * box(alpha) - box(alpha * (s_i / w3))
            - moved * box(beta) + box(beta * (s_j / w3)))
    return value, -dsum / count


def lncc(fixed: Volume, moved: Volume, window: int = 9) -> float:
    """Negative mean squared local NCC over all full windows; in [-1, 0]."""
    if fixed.dims != moved.dims:
        raise DimsMismatchError(f"lncc: {fixed.dims} vs {moved.dims}")
    _check_window(fixed.dims, window)
    return _lncc(fixed.data, moved.data, window)[0]


# ---------------------------------------------------------------- smoothness

def _forward_diffs(u: np.ndarray) -> np.ndarray:
    """Forward differences of (3, nx, ny, nz) along each axis -> (3, 3, ...).

    The trailing border along each axis is zero.
    """
    d = np.zeros((3,) + u.shape)
    for a in range(3):
        src = [slice(None)] * 4
        dst = [slice(None)] * 4
        src[1 + a] = slice(1, None)
        dst[1 + a] = slice(0, -1)
        d[a][tuple(dst)] = u[tuple(src)] - u[tuple(dst)]
    return d


def _smoothness(u: np.ndarray, with_grad: bool = False):
    """Smoothness value and, with ``with_grad``, d(value)/d(u): the adjoint of
    the forward-difference stencil applied to 2*d/N."""
    d = _forward_diffs(u)
    n = float(np.prod(u.shape[1:]))
    value = float((d * d).sum() / n)
    if not with_grad:
        return value, None
    grad = np.zeros(u.shape)
    for a in range(3):
        shifted = np.zeros(u.shape)
        src = [slice(None)] * 4
        dst = [slice(None)] * 4
        src[1 + a] = slice(0, -1)
        dst[1 + a] = slice(1, None)
        shifted[tuple(dst)] = d[a][tuple(src)]
        grad += (2.0 / n) * (shifted - d[a])
    return value, grad


def smoothness(field: DisplacementField) -> float:
    """Mean over voxels of the squared forward-difference gradient of u."""
    return _smoothness(field.u)[0]


# --------------------------------------------------------------------- Dice

def _whole_blocks(channels: np.ndarray) -> list:
    """Each of the (K, nx, ny, nz) ``channels`` as one whole-grid block, the
    block form that ``_dice``, ``_pool_prototypes`` and ``_align`` read."""
    whole = (slice(None),) * (channels.ndim - 1)
    return [(k, whole, ch) for k, ch in enumerate(channels)]


def _dice(fixed_channels: np.ndarray, blocks, with_grad: bool = False):
    """Soft Dice loss of the moved mask channels given as ``blocks`` of
    ``(k, window, values)`` (see the module docstring) and, with
    ``with_grad``, d(loss)/d(block values): one array per block, on its
    window, zero on classes absent from both sides."""
    k = fixed_channels.shape[0]
    inter = np.zeros(k)
    sum_m = np.zeros(k)
    for i, window, values in blocks:
        inter[i] = (fixed_channels[(i,) + window] * values).sum()
        sum_m[i] = values.sum()
    sum_f = fixed_channels.reshape(k, -1).sum(axis=1)
    present = (sum_f > PRESENCE_EPS) | (sum_m > PRESENCE_EPS)
    denom = sum_f + sum_m + DICE_EPS
    dice = 2.0 * inter / denom
    value = float(1.0 - dice[present].mean()) if present.any() else 0.0
    if not with_grad:
        return value, None
    n_present = int(present.sum())
    grads = []
    for i, window, values in blocks:
        if not present[i]:
            grads.append(np.zeros_like(values))
            continue
        b = denom[i]
        grads.append(-(2.0 * fixed_channels[(i,) + window] / b
                       - 2.0 * inter[i] / (b * b)) / n_present)
    return value, grads


def dice_loss(fixed: OneHotMask, moved_soft: OneHotMask) -> float:
    """1 - mean soft Dice over classes present on either side."""
    if fixed.num_classes != moved_soft.num_classes:
        raise ValueError(
            f"dice_loss: class counts differ ({fixed.num_classes} vs {moved_soft.num_classes})"
        )
    if fixed.dims != moved_soft.dims:
        raise DimsMismatchError(f"dice_loss: {fixed.dims} vs {moved_soft.dims}")
    return _dice(fixed.channels, _whole_blocks(moved_soft.channels))[0]


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


def feature_volume(vol: Volume) -> FeatureVolume:
    """Fixed 2-channel bank: intensity and central-difference gradient
    magnitude, each standardized to zero mean / unit variance over the volume."""
    channels, _ = _features_forward(vol.data)
    return FeatureVolume(vol.dims, vol.spacing, channels)


def _pool_prototypes(features: np.ndarray, blocks, k: int) -> tuple[PrototypeSet, np.ndarray]:
    """Masked average pooling of (C, nx, ny, nz) ``features`` under the K
    mask channels given as ``blocks`` (see ``_dice``), each on its window
    only; also returns the per-class mask mass that the pooling divided by."""
    c = features.shape[0]
    mass = np.zeros(k)
    vectors = np.zeros((k, c))
    for i, window, values in blocks:
        mass[i] = values.sum()
        if mass[i] >= PRESENCE_EPS:
            region = features[(slice(None),) + window]
            vectors[i] = region.reshape(c, -1) @ values.ravel() / mass[i]
    return PrototypeSet(vectors, mass >= PRESENCE_EPS), mass


def extract_prototypes(features: FeatureVolume, mask: OneHotMask) -> PrototypeSet:
    """Masked average pooling: per class, the mask-weighted mean feature."""
    if features.dims != mask.dims:
        raise DimsMismatchError(f"extract_prototypes: {features.dims} vs {mask.dims}")
    return _pool_prototypes(features.channels, _whole_blocks(mask.channels),
                            mask.num_classes)[0]


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


def contrast_loss(features: FeatureVolume, mask: OneHotMask, protos: PrototypeSet,
                  temperature: float = 0.1) -> float:
    """Mean over foreground voxels of -log softmax over cosine similarity to
    the class prototypes; 0 when fewer than two classes are present."""
    if features.dims != mask.dims:
        raise DimsMismatchError(f"contrast_loss: {features.dims} vs {mask.dims}")
    return _contrast(features.channels, argmax_labels(mask).labels, protos, temperature)[0]


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = max(float(np.linalg.norm(a)), NORM_EPS)
    nb = max(float(np.linalg.norm(b)), NORM_EPS)
    return float(a @ b) / (na * nb)


def align_loss(protos_f: PrototypeSet, protos_m: PrototypeSet) -> float:
    """Sum of (1 - cosine) over classes present in both sets; one-sided
    classes are skipped."""
    if protos_f.num_classes != protos_m.num_classes:
        raise ValueError("align_loss: prototype sets cover different class universes")
    both = protos_f.present & protos_m.present
    total = 0.0
    for k in np.flatnonzero(both):
        total += 1.0 - _cosine(protos_f.vectors[k], protos_m.vectors[k])
    return float(total)


def _align(protos_f: PrototypeSet, features: np.ndarray, blocks, with_grad: bool = False):
    """Alignment of ``protos_f`` with the prototypes pooled from ``features``
    under the soft mask channels given as ``blocks`` (see ``_dice``).
    Returns (value, d/d(features), d/d(block values)), the last one array
    per block on its window; both gradients are None without ``with_grad``."""
    protos_m, mass = _pool_prototypes(features, blocks, protos_f.num_classes)
    value = align_loss(protos_f, protos_m)
    if not with_grad:
        return value, None, None
    both = protos_f.present & protos_m.present
    df = np.zeros_like(features)
    dm = []
    for k, window, values in blocks:
        if not both[k]:
            dm.append(np.zeros_like(values))
            continue
        p_m = protos_m.vectors[k]
        n_m = max(float(np.linalg.norm(p_m)), NORM_EPS)
        n_f = max(float(np.linalg.norm(protos_f.vectors[k])), NORM_EPS)
        phat_m = p_m / n_m
        phat_f = protos_f.vectors[k] / n_f
        cos = float(phat_f @ phat_m)
        g = -((phat_f - cos * phat_m) if n_m > NORM_EPS else phat_f) / n_m
        region = (slice(None),) + window
        df[region] += np.multiply.outer(g, values) / mass[k]
        g_f = g @ features[region].reshape(g.size, -1)
        dm.append((g_f.reshape(values.shape) - float(g @ p_m)) / mass[k])
    return value, df, dm


def _prototype(moved: np.ndarray, blocks, assign: np.ndarray,
               protos_f: PrototypeSet, contrast_fixed: float, temperature: float,
               mode: str = "both", with_grad: bool = False):
    """The prototype term (see ``prototype_loss``) on the moved image and the
    moved mask channels given as ``blocks`` (see ``_dice``), given the fixed
    image's contrast ``contrast_fixed``; ``mode`` keeps only the "contrast"
    or the "align" half.  Returns (value, d/d(moved), d/d(block values));
    gradients are None without ``with_grad``, and the block gradients are
    None for the contrast half alone."""
    feats, cache = _features_forward(moved)
    value = 0.0
    d_feats = np.zeros_like(feats) if with_grad else None
    d_blocks = None
    if mode in ("both", "contrast"):
        contrast_moved, g = _contrast(feats, assign, protos_f, temperature, with_grad)
        value += 0.5 * (contrast_moved + contrast_fixed)
        if with_grad:
            d_feats += 0.5 * g
    if mode in ("both", "align"):
        align, g, d_blocks = _align(protos_f, feats, blocks, with_grad)
        value += align
        if with_grad:
            d_feats += g
    if not with_grad:
        return value, None, None
    return value, _features_backward(d_feats, cache), d_blocks


def prototype_loss(moved_feats: FeatureVolume, fixed_feats: FeatureVolume,
                   fixed_mask: OneHotMask, moved_mask: OneHotMask,
                   temperature: float = 0.1) -> float:
    """Contrast plus alignment.

    The contrast half averages the warped-moving features and the fixed
    features, both scored against the fixed image's prototypes under the
    fixed mask's hard assignments (so prototypes and assignments are
    constants of the deformation).  Alignment compares fixed prototypes with
    prototypes pooled from the warped moving features under the warped
    moving mask.
    """
    protos_f = extract_prototypes(fixed_feats, fixed_mask)
    contrast = 0.5 * (
        contrast_loss(moved_feats, fixed_mask, protos_f, temperature)
        + contrast_loss(fixed_feats, fixed_mask, protos_f, temperature)
    )
    protos_m = extract_prototypes(moved_feats, moved_mask)
    return contrast + align_loss(protos_f, protos_m)


# ------------------------------------------------------------------ contours

def extract_contour_points(mask, class_label: int, max_points: int = 2048,
                           seed: int = 0) -> ContourPointSet:
    """Boundary voxels of one class region, optionally subsampled.

    A voxel is a boundary voxel when it is foreground and at least one of its
    six face neighbors is background; neighbors outside the volume count as
    background.  When more than ``max_points`` boundary voxels exist, a
    seeded uniform subsample is taken.
    """
    if isinstance(mask, LabelVolume):
        fg = mask.labels == class_label
    elif isinstance(mask, OneHotMask):
        fg = mask.channels[class_label - 1] >= 0.5
    else:
        raise TypeError(f"extract_contour_points: unsupported mask type {type(mask).__name__}")

    interior = np.ones_like(fg)
    for a in range(3):
        for off in (-1, 1):
            neighbor = np.zeros_like(fg)
            src = [slice(None)] * 3
            dst = [slice(None)] * 3
            if off == 1:
                src[a], dst[a] = slice(1, None), slice(0, -1)
            else:
                src[a], dst[a] = slice(0, -1), slice(1, None)
            neighbor[tuple(dst)] = fg[tuple(src)]
            interior &= neighbor
    boundary = fg & ~interior
    pts = np.argwhere(boundary).astype(np.float64)
    if pts.shape[0] > max_points:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(pts.shape[0], size=max_points, replace=False))
        pts = pts[keep]
    return ContourPointSet(class_label, pts)


def _chamfer(a: np.ndarray, b: np.ndarray, with_grad: bool = False):
    """Chamfer value between (N, 3) ``a`` and (M, 3) ``b`` and, with
    ``with_grad``, d(value)/d(a) with the nearest-neighbor assignment held
    fixed."""
    da, a_to_b = cKDTree(b).query(a)
    db, b_to_a = cKDTree(a).query(b)
    value = float((da ** 2).mean() + (db ** 2).mean())
    if not with_grad:
        return value, None
    grad = 2.0 * (a - b[a_to_b]) / len(a)
    np.add.at(grad, b_to_a, 2.0 * (a[b_to_a] - b) / len(b))
    return value, grad


def chamfer(set_m: ContourPointSet | np.ndarray, set_f: ContourPointSet | np.ndarray) -> float:
    """Symmetric mean squared nearest-neighbor distance between two point sets."""
    a = set_m.points if isinstance(set_m, ContourPointSet) else np.asarray(set_m, dtype=np.float64)
    b = set_f.points if isinstance(set_f, ContourPointSet) else np.asarray(set_f, dtype=np.float64)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("chamfer: both point sets must be nonempty")
    return _chamfer(a, b)[0]
