"""Objective terms for mask-assisted registration, on arrays already warped.

Five terms are combined into the optimized total: windowed normalized
cross-correlation of intensities (negated so lower is better), diffusion
smoothness of the displacement, soft Dice on warped masks, a prototype term
(voxel-to-prototype contrast plus cross-image prototype alignment on a fixed
2-channel feature bank: the intensity and the magnitude of its central
differences, ``np.gradient``'s), and a contour term on signed distance maps.

Each term is one private function that returns its value and, when asked,
its gradient wrt its direct input: ``_lncc`` (moved intensities),
``_smoothness`` (u), ``_dice`` (moved mask channels), ``_prototype`` (its
halves ``_contrast`` and ``_align`` pulled back through the feature bank
onto the moved intensities; ``_align`` also onto the moved mask channels)
and ``_contour`` (the moving distance maps sampled at the band points).
Nothing here warps: the objective is scored only through
``gradients.evaluate_objective``, which samples and chains these gradients
onto u.  The constants of a level are made once, by
``gradients.build_state``: ``_lncc_fixed`` (the window bands, w**3 and
the fixed image's window sums), ``_fixed_mass``, ``extract_prototypes``
(each class pooled on its mask crop) and ``_contour_band``.

The contour term is chamfer matching on a distance transform (Borgefors,
1988) as a boundary loss on signed distance maps (Kervadec et al., 2019).
Per class with a non-empty hard mask (channel >= ``FOREGROUND_THRESHOLD``)
on both sides, S_f and S_m are the signed Euclidean distance maps of the
fixed and moving masks, positive outside; beyond the grid is background.
The term is the class mean of the mean, over the fixed band points p with
|S_f(p)| <= ``CONTOUR_BAND``, of (S_m(p + u(p)) - S_f(p))**2.  Per class,
``_contour_band`` keeps the band points as flat grid indices, which read
u, and as coordinates in the class's box, to which u(p) is added, with
their S_f, and S_m on a box holding the fixed band's box and the moving
mask, both grown by the band and one voxel (no (K, nx, ny, nz) array).
Within its box a map is the whole grid's; outside it the sampler clamps,
so the value is held and its derivative is 0.

Everything here runs on numpy alone.  The correlation term's window sums
are band products (``grids._band_products``): per axis, a 0/1 matrix of
shape (n, n - w + 1) sums each full window (``_bands``), and the same
matrices transposed spread per-window values back onto the voxels, the
exact adjoint; ``_lncc_fixed`` makes the bands once per level.
The distance maps come from an exact separable squared Euclidean distance
transform in integer arithmetic (``_squared_distance``): the lower envelope
of parabolas (Felzenszwalb and Huttenlocher, 2012), g[i] = min_j f[j] +
(i - j)**2, along x, y and z in turn, by offsets d until d*d reaches the
largest g; along x, f is 0 at the features.  Squared distances are
integers, so every step is exact, and one square root per map gives the
float64 that ``scipy.ndimage.distance_transform_edt`` gives, bit for bit;
float32 masks take that map cast to float32.

Every term computes in the dtype of the arrays it is given (see
``grids``): float32 arrays give float32 arrays throughout, and float64 ones
run the same operations in float64.  Scalars that enter array arithmetic
are Python floats, which take the arrays' dtype under every NumPy
promotion rule, where a NumPy float64 scalar would promote a float32 array
under NEP 50 (NumPy >= 2).  Reductions run in the arrays' dtype, and term
values are reported as Python floats.

Moved mask channels come as one stack, sampled on the windows of
``warp.mask_points``: ``values`` (K, wx, wy, wz) and ``windows``, K tuples
of slices of the grid of that shape; channel k is ``values[k]`` on
``windows[k]`` and 0 elsewhere.  ``_dice`` takes the fixed channels on the
same windows and ``_align`` gathers the features on them; both return one
mask gradient shaped like ``values``, which goes back onto the grid by one
slice-add per channel (``_add_on_windows``; windows may overlap).

Conventions fixed here and relied on elsewhere:
  * the correlation term is the negative mean of squared window NCC over all
    full windows, so it lives in [-1, 0]; windows with variance below 1e-5 on
    either side contribute 0; the fixed side (``_lncc_fixed``) is per level;
  * smoothness penalizes the displacement u, not the full map p + u(p);
  * Dice averages over classes present on at least one side and skips classes
    empty on both;
  * alignment sums (1 - cosine) over classes present in both prototype sets;
  * the contour term is averaged over the classes with a hard mask on both
    sides, and is 0 without such a class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .grids import (FOREGROUND_THRESHOLD, OneHotMask, _band_products, _crops_dtype, _is_bool,
                    _on_windows)
from .warp import _one_shape

VARIANCE_EPS = 1e-5      # window variance floor for the correlation term
DICE_EPS = 1e-7          # soft Dice denominator guard
PRESENCE_EPS = 1e-7      # minimum mask mass for a class to count as present
NORM_EPS = 1e-8          # cosine-similarity norm guard
CONTOUR_BAND = 3.0       # half-width of the contour term's band around each boundary, voxels


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
            if _is_bool(w):
                raise ValueError(f"LossWeights: {name} must be a number, not a bool, got {w}")
            if not np.isfinite(w) or w < 0:
                raise ValueError(f"LossWeights: {name} must be finite and >= 0, got {w}")
            object.__setattr__(self, name, float(w))    # a Python float: see the module docstring

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


class PrototypeSet(NamedTuple):
    """One feature vector per class; absent classes carry no usable vector."""

    vectors: np.ndarray        # (K, C), in the features' dtype
    present: np.ndarray        # (K,) bool


# ------------------------------------------------------- similarity (LNCC)

def _bands(dims, window: int, dtype) -> list:
    """Per axis of ``dims`` the (n, n - window + 1) 0/1 matrix of ``dtype``
    whose column j holds ones on rows j .. j + window - 1: ``_band_products``
    with them sums each full window, and with their transposes spreads
    per-window values back onto the voxels, the exact adjoint."""
    offsets = (np.arange(n)[:, None] - np.arange(n - window + 1) for n in dims)
    return [((offset >= 0) & (offset < window)).astype(dtype) for offset in offsets]


def _check_window(dims, window: int) -> None:
    if window < 3 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 3, got {window}")
    if window > min(dims):
        raise ValueError(f"window {window} exceeds smallest dim of {dims}")


def _lncc_fixed(fixed: np.ndarray, window: int):
    """The fixed image's side of the correlation term, a constant of the
    level: the window bands (``_bands``) and w**3, the fixed window sums
    s_i, its variance terms b = s_ii - s_i**2/w**3, and which windows clear
    the variance floor on that side."""
    _check_window(fixed.shape, window)
    w3 = float(window ** 3)
    bands = _bands(fixed.shape, window, fixed.dtype)
    s_i, b = _band_products(np.stack([fixed, fixed * fixed]), *bands)
    b -= s_i * s_i / w3
    return bands, w3, s_i, b, b / w3 >= VARIANCE_EPS


def _lncc(fixed: np.ndarray, moved: np.ndarray, fixed_side, with_grad: bool = False):
    """Correlation value and, with ``with_grad``, d(value)/d(moved), given
    the fixed side ``fixed_side`` from ``_lncc_fixed``.  The three
    moving-side window sums are one stacked ``_band_products`` on its
    window bands.  The backward pass spreads three per-window coefficient
    stacks back onto the voxels with one product on the transposed bands
    (the adjoint) rather than caching per window (windows overlap heavily):
    d/d(moved) = -(fixed * S(alpha) - moved * S(beta) + S(beta * mean_j -
    alpha * mean_i)) / count.

    Each quotient is taken only on the valid windows (``np.divide`` with
    ``where``) into a zeroed array: it is 0 elsewhere, and no division by 0
    happens."""
    bands, w3, s_i, b, valid_fixed = fixed_side
    sums = np.empty((3,) + moved.shape, moved.dtype)
    sums[0] = moved
    np.multiply(moved, moved, out=sums[1])
    np.multiply(fixed, moved, out=sums[2])
    s_j, s_jj, s_ij = _band_products(sums, *bands)
    sums = None
    a = s_ij - s_i * s_j / w3
    c = s_jj - s_j * s_j / w3
    valid = valid_fixed & (c / w3 >= VARIANCE_EPS)
    bc = b * c
    ncc2 = np.divide(np.multiply(a, a), bc, out=np.zeros_like(a), where=valid)
    count = a.size
    value = -float(ncc2.sum()) / count
    if not with_grad:
        return value, None
    coef = np.zeros((3,) + a.shape, a.dtype)
    alpha, beta, shift = coef
    two_a = 2.0 * a
    np.divide(two_a, bc, out=alpha, where=valid)
    two_a *= a
    bc *= c
    np.divide(two_a, bc, out=beta, where=valid)
    # beta * mean_j - alpha * mean_i
    np.multiply(beta, s_j / w3, out=shift)
    shift -= alpha * (s_i / w3)
    a = c = bc = two_a = s_j = s_jj = s_ij = ncc2 = None
    dsum, spread_beta, spread_shift = _band_products(coef, *(band.T for band in bands))
    # -(fixed * S(alpha) - moved * S(beta) + S(shift)) / count, in place
    dsum *= fixed
    spread_beta *= moved
    dsum -= spread_beta
    dsum += spread_shift
    np.negative(dsum, out=dsum)
    dsum /= count
    return value, dsum


# ---------------------------------------------------------------- smoothness

def _smoothness(u: np.ndarray, grad: np.ndarray | None = None):
    """Smoothness value and, when given the array ``grad`` (an evaluation
    passes its zeroed accumulator), d(value)/d(u) added into it.  Per axis
    the forward differences d = u[hi] - u[lo] add their squares to the
    value, and the gradient takes 2*d/N off ``lo`` and puts it on ``hi``.

    Per axis, with s its stride in the flattened u, the differences are one
    contiguous ``flat[s:] - flat[:-s]`` over all three components, in a
    buffer shared by the axes; an entry that wraps past the axis's end is
    zeroed, and the value is the dot product of what is left with itself.
    The gradient takes it with two contiguous shifted slices."""
    n = float(np.prod(u.shape[1:]))
    total = 0.0
    flat, size = u.reshape(-1), u.size
    diffs = np.empty(size, u.dtype)
    grid = diffs.reshape(u.shape)
    for axis, s in zip((1, 2, 3), (u.shape[2] * u.shape[3], u.shape[3], 1)):
        d = diffs[:size - s]
        np.subtract(flat[s:], flat[:-s], out=d)
        grid[(slice(None),) * axis + (-1,)] = 0.0                # the wrapped entries
        # einsum, not np.dot: a float64 dot starts BLAS threads
        total += float(np.einsum("i,i->", d, d))
        if grad is not None:
            d *= 2.0 / n
            g = grad.reshape(-1)
            g[:-s] -= d
            g[s:] += d
    return float(total / n), grad


# --------------------------------------------------------------------- Dice

def _add_on_windows(target: np.ndarray, windows, stack: np.ndarray) -> None:
    """Add ``stack[..., k, :, :, :]`` onto ``target`` on ``windows[k]``."""
    lead = (slice(None),) * (target.ndim - 3)
    for k, window in enumerate(windows):
        target[lead + window] += stack[lead + (k,)]


def _fixed_mass(fixed: OneHotMask) -> np.ndarray:
    """Per-class mass of the fixed mask, summed on its crops; a constant of
    the level, in the crops' dtype."""
    return np.array([0.0 if crop is None else crop.values.sum() for crop in fixed.crops],
                    _crops_dtype(fixed.crops))


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
    value = 1.0 - float(dice[present].mean()) if present.any() else 0.0
    if not with_grad:
        return value, None
    b = denom[:, None, None, None]
    grad = (-(2.0 * fixed / b - 2.0 * inter[:, None, None, None] / (b * b))
            / max(int(present.sum()), 1))
    grad[~present] = 0.0
    return value, grad


# --------------------------------------------------------------- prototypes

def _standardize(data: np.ndarray, out: np.ndarray) -> float:
    """Write (data - mean) / std into ``out`` and return the std; the squared
    deviations are formed in ``out`` first."""
    mu = float(data.mean())
    np.subtract(data, mu, out=out)
    sigma = math.sqrt(float(np.multiply(out, out, out=out).mean()) + 1e-12)
    np.subtract(data, mu, out=out)
    out /= sigma
    return sigma


def _features_forward(data: np.ndarray) -> tuple[np.ndarray, dict]:
    """Compute the 2-channel feature bank (the standardized intensity and
    magnitude of its ``np.gradient``) into one (2, nx, ny, nz) array, plus
    the intermediates that ``_features_backward`` needs."""
    feats = np.empty((2,) + data.shape, data.dtype)
    sig0 = _standardize(data, feats[0])
    grads = np.gradient(data)
    # the squared magnitude, grads[0]**2 + grads[1]**2 + grads[2]**2 + 1e-12,
    # with the second channel's slot as scratch until it is written
    gm = grads[0] * grads[0]
    for g in grads[1:]:
        gm += np.multiply(g, g, out=feats[1])
    gm += 1e-12
    np.sqrt(gm, out=gm)
    sig1 = _standardize(gm, feats[1])
    cache = {"feats": feats, "sig0": sig0, "grads": grads, "gm": gm, "sig1": sig1}
    return feats, cache


def central_difference_adjoint(g: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """The transpose of ``np.gradient`` along ``axis`` (unit spacing,
    ``edge_order=1``) applied to ``g``, written into ``out`` (overwritten;
    ``g``'s shape)."""
    out[...] = 0.0
    h, o = np.swapaxes(g, 0, axis), np.swapaxes(out, 0, axis)
    o[2:] += 0.5 * h[1:-1]
    o[:-2] -= 0.5 * h[1:-1]
    o[0] -= h[0]
    o[1] += h[0]
    o[-1] += h[-1]
    o[-2] -= h[-1]
    return out


def _features_backward(dch: np.ndarray, cache: dict) -> np.ndarray:
    """Pull a gradient on the feature channels back onto the raw intensities,
    through both standardizations, the gradient magnitude and the central
    differences (``central_difference_adjoint``), in place: ``dch`` and the
    cached differences are overwritten; the result is the one array made."""

    def destandardize(g, ch, sig, out):
        # (g - g.mean() - ch * (g * ch).mean()) / sig into out, g as scratch
        g_mean = g.mean()
        gch_mean = np.multiply(g, ch, out=out).mean()
        np.subtract(g, g_mean, out=out)
        out -= np.multiply(ch, gch_mean, out=g)
        out /= sig
        return out

    ch0, ch1 = cache["feats"]
    d_data = destandardize(dch[0], ch0, cache["sig0"], np.empty(dch.shape[1:], dch.dtype))
    dgm = destandardize(dch[1], ch1, cache["sig1"], dch[0])
    for a, ga in enumerate(cache["grads"]):
        # d(gm)/d(grads[a]) = grads[a] / gm, onto the cached difference
        ga *= dgm
        ga /= cache["gm"]
        d_data += central_difference_adjoint(ga, a, out=dch[1])
    return d_data


def _pool_prototypes(region: np.ndarray, values: np.ndarray) -> tuple[PrototypeSet, np.ndarray]:
    """Masked average pooling: per class k, the (C, K, ...) features
    ``region[:, k]`` averaged under the mask values ``values[k]`` in one
    ``einsum``; also returns the per-class mask mass it divided by."""
    k = len(values)
    mass = values.reshape(k, -1).sum(axis=1)
    present = mass >= PRESENCE_EPS
    vectors = np.divide(np.einsum("ckxyz,kxyz->kc", region, values), mass[:, None],
                        out=np.zeros((k, region.shape[0]), np.result_type(region, values)),
                        where=present[:, None])
    return PrototypeSet(vectors, present), mass


def extract_prototypes(features: np.ndarray, mask: OneHotMask) -> PrototypeSet:
    """Masked average pooling: per class, the mask-weighted mean of the
    (C, nx, ny, nz) ``features`` on the grid of ``mask``, pooled on the
    class's crop (padded to one shape, ``_one_shape``)."""
    windows = _one_shape([None if crop is None else crop.box for crop in mask.crops], mask.dims)
    region = np.stack([features[(slice(None),) + window] for window in windows], axis=1)
    return _pool_prototypes(region, _on_windows(mask.crops, windows))[0]


def _contrast(features: np.ndarray, assign: np.ndarray, protos: PrototypeSet,
              temperature: float, d_features: np.ndarray | None = None) -> float:
    """Contrast value; with ``d_features``, also adds half of
    d(value)/d(features) into it, on the assigned voxels only: the moved
    contrast enters ``_prototype``'s value with weight 0.5.

    The term (and its gradient) is zero when fewer than two classes are
    present or no voxel is assigned to a present class.
    """
    rows = np.flatnonzero(protos.present)
    if rows.size < 2:
        return 0.0
    class_ids = rows + 1
    fg_idx = np.flatnonzero(np.isin(assign.ravel(), class_ids))
    n = fg_idx.size
    if n == 0:
        return 0.0
    c = features.shape[0]
    f = features.reshape(c, -1)[:, fg_idx]                     # (C, N)
    norms = np.maximum(np.linalg.norm(f, axis=0), NORM_EPS)
    fhat = f / norms
    p = protos.vectors[rows]                                   # (P, C)
    pnorms = np.maximum(np.linalg.norm(p, axis=1), NORM_EPS)
    phat = p / pnorms[:, None]
    cos = phat @ fhat                                          # (P, N)
    shifted = cos / temperature                                # the logits, shifted in place
    shifted -= shifted.max(axis=0, keepdims=True)
    # row index of each voxel's assigned class within the (sorted) present-class list
    pos = np.searchsorted(class_ids, assign.ravel()[fg_idx])
    picked = shifted[pos, np.arange(n)]
    w = np.exp(shifted, out=shifted)
    z = w.sum(axis=0)
    value = float(-(picked - np.log(z)).mean())
    if d_features is None:
        return value
    w /= z
    w[pos, np.arange(n)] -= 1.0
    cterm = np.multiply(w, cos, out=cos).sum(axis=0)           # (N,)
    normed = norms > NORM_EPS
    df_fg = (phat.T @ w - fhat * (cterm * normed)) / (temperature * norms * n)
    d_features.reshape(c, -1)[:, fg_idx] += 0.5 * df_fg
    return value


def _align(protos_f: PrototypeSet, features: np.ndarray, windows, values: np.ndarray,
           d_features: np.ndarray | None = None):
    """Alignment of ``protos_f`` with the prototypes pooled from ``features``
    under the moved mask stack ``values`` on ``windows`` (see the module
    docstring): the sum of (1 - cosine) over classes present in both sets.
    Returns (value, d/d(values)); with ``d_features``, also adds
    d(value)/d(features) into it on the windows, else the mask gradient is
    None."""
    region = np.stack([features[(slice(None),) + window] for window in windows], axis=1)
    protos_m, mass = _pool_prototypes(region, values)
    both = protos_f.present & protos_m.present
    n_f = np.maximum(np.linalg.norm(protos_f.vectors, axis=1), NORM_EPS)
    n_m = np.maximum(np.linalg.norm(protos_m.vectors, axis=1), NORM_EPS)
    phat_f = protos_f.vectors / n_f[:, None]
    phat_m = protos_m.vectors / n_m[:, None]
    cos = np.einsum("kc,kc->k", phat_f, phat_m)
    value = float((1.0 - cos[both]).sum())
    if d_features is None:
        return value, None
    # per class, d(value)/d(prototype) divided by the mass it was pooled under
    g = -np.where((n_m > NORM_EPS)[:, None], phat_f - cos[:, None] * phat_m, phat_f) / n_m[:, None]
    g = np.divide(g, mass[:, None], out=np.zeros_like(g), where=both[:, None])
    for k, window in enumerate(windows):       # g ⊗ values, one channel at a time
        d_features[(slice(None),) + window] += g[k][:, None, None, None] * values[k]
    dm = (np.einsum("kc,ckxyz->kxyz", g, region)
          - np.einsum("kc,kc->k", g, protos_m.vectors)[:, None, None, None])
    return value, dm


def _prototype(moved: np.ndarray, windows, mask_values: np.ndarray, assign: np.ndarray,
               protos_f: PrototypeSet, contrast_fixed: float, temperature: float,
               mode: str = "both", with_grad: bool = False):
    """The prototype term on the moved image and the moved mask stack (see
    the module docstring): the contrast of the moved features averaged with
    the fixed image's ``contrast_fixed``, both against the fixed prototypes
    ``protos_f`` under the fixed hard assignment ``assign``, plus the
    alignment; ``mode`` keeps only the "contrast" or the "align" half.
    Returns (value, d/d(moved), d/d(mask_values)); gradients are None
    without ``with_grad``, the mask one also for "contrast".

    Both halves add their feature gradients into one zeroed array, the
    alignment first: it is the first writer on its windows, so the sum is
    the one of two separately zeroed gradients, bit for bit."""
    feats, cache = _features_forward(moved)
    value = 0.0
    d_feats = np.zeros_like(feats) if with_grad else None
    d_masks = None
    if mode in ("both", "align"):
        align, d_masks = _align(protos_f, feats, windows, mask_values, d_feats)
        value += align
    if mode in ("both", "contrast"):
        contrast_moved = _contrast(feats, assign, protos_f, temperature, d_feats)
        value += 0.5 * (contrast_moved + contrast_fixed)
    if not with_grad:
        return value, None, None
    return value, _features_backward(d_feats, cache), d_masks


# ------------------------------------------------------------------ contours

class ContourBand(NamedTuple):
    """The contour term's constants of a level, for the P classes on both
    sides, each padded to n band points by repeating its last."""

    index: np.ndarray       # (P, n) flat grid index of each fixed band point
    target: np.ndarray      # (P, n) S_f there
    counts: np.ndarray      # (P,) real band points per class
    maps: np.ndarray        # (P, bx, by, bz) S_m, each on its box
    coords: np.ndarray      # (3, P, n) each band point in its class's box, in the maps' dtype


def _parabola_pass(f: np.ndarray, unreached: int) -> np.ndarray:
    """g[i] = min_j f[j] + (i - j)**2, the lower envelope of parabolas, along
    axis 1 of the C-ordered int32 ``f``, where an entry equal to
    ``unreached`` (above every squared distance of the box) stands for "no
    feature yet"; on 0 at the features it is the squared distance to the
    nearest feature on each line.  Offset d = 1, 2, ...
    lowers g by f[i + d] + d*d and f[i - d] + d*d, until d*d reaches the
    largest g: no farther offset can lower it.  A line of unreached entries
    stays so; it holds 0 while the offsets run, so that it does not keep
    them running."""
    lost = f.min(axis=1, keepdims=True) == unreached
    g = f * ~lost
    scratch = np.empty_like(f)
    n = f.shape[1]
    for d in range(1, n):
        if d * d >= g.max():
            break
        candidate = np.add(f[:, d:], d * d, out=scratch[:, :n - d])
        np.minimum(g[:, :-d], candidate, out=g[:, :-d])
        candidate = np.add(f[:, :-d], d * d, out=scratch[:, :n - d])
        np.minimum(g[:, d:], candidate, out=g[:, d:])
    g += lost * np.int32(unreached)
    return g


def _squared_distance(features: np.ndarray) -> np.ndarray:
    """Per channel of the (C, nx, ny, nz) bool ``features``, each holding a
    True voxel, the squared Euclidean distance of every voxel to the nearest
    True one, as integers.  Separable: ``_parabola_pass`` along x, on 0 at
    the features and ``unreached`` elsewhere, then along y and along z, each
    on a copy that puts its axis first for contiguous slabs."""
    # no value passes 2 * big**2: int32 is exact while nx + ny + nz < 32,768
    big = sum(features.shape[1:])
    unreached = big * big
    sq = np.where(features, np.int32(0), np.int32(unreached))
    sq = _parabola_pass(sq, unreached)  # (c, x, y, z)
    sq = _parabola_pass(np.ascontiguousarray(sq.transpose(0, 2, 1, 3)), unreached)  # (c, y, x, z)
    sq = _parabola_pass(np.ascontiguousarray(sq.transpose(0, 3, 1, 2)), unreached)  # (c, z, y, x)
    return sq.transpose(0, 3, 2, 1)


def _signed_distance(crops, boxes) -> np.ndarray:
    """S of each crop's hard mask on its box: (C, bx, by, bz) for C crops on
    ``boxes`` of one shape, each holding its crop grown by one voxel; a
    layer of background stands for everything past a box.  The distances
    to the masks and to their complements are one stacked
    ``_squared_distance`` and one square root, in float64; S is then cast
    to the crops' dtype."""
    fg = np.pad(_on_windows(crops, boxes) >= FOREGROUND_THRESHOLD, [(0, 0)] + [(1, 1)] * 3)
    root = np.sqrt(_squared_distance(np.concatenate([fg, ~fg])), order="C")
    signed = (root[:len(fg)] - root[len(fg):])[:, 1:-1, 1:-1, 1:-1]
    return signed.astype(_crops_dtype(crops), copy=False)


def _contour_band(fixed: OneHotMask, moving: OneHotMask, max_points: int, seed: int):
    """The contour term's ``ContourBand`` (see the module docstring), or
    None without a class on both sides; a class with more than
    ``max_points`` band points keeps a uniform subsample seeded by
    ``seed``.

    The maps are one ``_signed_distance`` call per class, on its fixed and
    moving crops, so the transients are those of one class (each channel's
    transform is independent of the others).  S_f is made on its class's
    S_m box, which holds the fixed mask grown by the band and one voxel:
    there it is the whole grid's map, and every band point lies in it, so
    the band points, their order and their S_f are those of any such box."""
    dims, by = fixed.dims, int(CONTOUR_BAND) + 1

    def grown(crop):
        return tuple(slice(max(o - by, 0), min(o + m + by, n))
                     for o, m, n in zip(crop.origin, crop.values.shape, dims))

    classes = [(f, m) for f, m in zip(fixed.crops, moving.crops)
               if f is not None and m is not None
               and (f.values >= FOREGROUND_THRESHOLD).any()
               and (m.values >= FOREGROUND_THRESHOLD).any()]
    if not classes:
        return None
    boxes = _one_shape([tuple(slice(min(a.start, b.start), max(a.stop, b.stop))
                              for a, b in zip(grown(f), grown(m))) for f, m in classes], dims)
    maps = np.empty((len(classes),) + tuple(s.stop - s.start for s in boxes[0]),
                    _crops_dtype([crop for pair in classes for crop in pair]))
    index, target, coords = [], [], []
    for (f, m), box, s_m in zip(classes, boxes, maps):
        s_f, s_m[...] = _signed_distance([f, m], [box, box])
        local = np.argwhere(np.abs(s_f) <= CONTOUR_BAND)
        if len(local) > max_points:
            rng = np.random.default_rng(seed)
            local = local[np.sort(rng.choice(len(local), size=max_points, replace=False))]
        index.append(np.ravel_multi_index(tuple((local + [s.start for s in box]).T), dims))
        target.append(s_f[tuple(local.T)])
        coords.append(local.T.astype(maps.dtype))
    counts = np.array([len(i) for i in index])
    n = counts.max()
    return ContourBand(np.stack([np.pad(i, (0, n - len(i)), "edge") for i in index]),
                       np.stack([np.pad(t, (0, n - len(t)), "edge") for t in target]), counts,
                       maps,
                       np.stack([np.pad(c, [(0, 0), (0, n - c.shape[1])], "edge")
                                 for c in coords], axis=1))


def _contour(band: ContourBand, sampled: np.ndarray, with_grad: bool = False):
    """Contour value from S_m sampled at the carried band points,
    ``sampled`` (P, n), and with ``with_grad`` d(value)/d(sampled), 0 on
    the padding.  The per-class scales are formed in ``sampled``'s dtype."""
    counts = band.counts.astype(sampled.dtype)
    residual = sampled - band.target
    residual *= np.arange(sampled.shape[1]) < band.counts[:, None]
    value = float(((residual * residual).sum(axis=1) / counts).mean())
    if not with_grad:
        return value, None
    residual *= (2.0 / (len(counts) * counts))[:, None]
    return value, residual
