"""Spatial transformation of volumes and masks by dense displacement fields.

A field stores one 3-vector per voxel in voxel units; the map it encodes is
``phi(p) = p + u(p)``.  Sampling is trilinear with clamp-to-edge borders,
consistently in the forward warps and in the analytic gradients built on top
of them.  Everything here is a pure function over immutable inputs.

Every sampler runs one gather (``_sample``): the flat index of each point's
lower cell corner is formed once, and the 8 corners are read at fixed
offsets from it.  Interpolation keeps the ``(1 - f) * a + f * b`` form, so
a point on the lattice reads its voxel exactly and a zero field warps bit
for bit.  The spatial derivative reuses the interpolation's intermediates:
d/dz from the xy-interpolated faces, d/dy from the x-interpolated edges,
d/dx from the x-differences of the corners.  With leading batch axes,
``data`` shaped B + (nx, ny, nz) at points (3,) + B + S samples each
``data[b]`` at ``points[:, b]`` in the one gather, its flat indices offset
by b * nx * ny * nz.

A sampler's working memory is bounded: the points are taken in blocks of
``SAMPLE_BLOCK`` in their flat order, so each of the two dozen temporaries
of the gather and the interpolation holds at most one block, and only the
outputs (value and derivative) grow with the number of points.  A block may
start inside a batch entry, so each point's batch offset comes from its own
flat position.  Every output element is formed by the same operations on
the same operands whichever block it falls in, and each block is written
into its slice of outputs allocated once per call, so a blocked call is bit
for bit the unblocked one.  Every call, of one block or many, takes this
one path and makes no array beyond its outputs and one block's temporaries.

``warp_labels`` scores without a dense K-channel array: each class is
sampled only where it can be non-zero, from its ``one_hot`` crop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grids import (ChannelCrop, DimsMismatchError, LabelVolume, OneHotMask, Volume, _on_windows,
                    argmax_labels, halved_dims, one_hot)

# Points per block of the trilinear sampler: no temporary of a call holds
# more than this many points (128 kB of float64).  Whole registrations at
# 32^3 and 48^3 timed blocks of 4,096 to 32,768 points alike, within noise.
SAMPLE_BLOCK = 16384


@dataclass(frozen=True)
class DisplacementField:
    """Dense displacement field, ``u`` shaped (3, nx, ny, nz), voxel units."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=np.float64))
        if self.u.shape != (3,) + self.dims:
            raise ValueError(f"DisplacementField: u shape {self.u.shape} != (3, *{self.dims})")
        if not np.isfinite(self.u).all():
            raise ValueError("DisplacementField: non-finite displacement values")

    @classmethod
    def zeros(cls, dims, spacing=(1.0, 1.0, 1.0)):
        return cls(tuple(dims), spacing, np.zeros((3,) + tuple(dims)))


def identity_grid(dims) -> np.ndarray:
    """Voxel-center coordinates, shaped (3, nx, ny, nz)."""
    axes = [np.arange(n, dtype=np.float64) for n in dims]
    return np.stack(np.meshgrid(*axes, indexing="ij"))


def _sample(data: np.ndarray, points: np.ndarray, with_grad: bool):
    """Trilinear sample and, with ``with_grad``, its derivative (see the
    module docstring), ``SAMPLE_BLOCK`` points at a time.  Flat point i of
    ``points`` samples batch entry i // (points per entry) of ``data``."""
    dims, batch = data.shape[-3:], data.shape[:-3]
    flat = data.ravel()
    voxels = int(np.prod(dims))
    per_entry = max(int(np.prod(points.shape[1 + len(batch):])), 1)
    pts = points.reshape(3, -1)
    count = pts.shape[1]
    value = np.empty(count)
    grad = np.empty((3, count)) if with_grad else None
    for start in range(0, count, SAMPLE_BLOCK):
        block = slice(start, min(start + SAMPLE_BLOCK, count))
        base = np.arange(block.start, block.stop, dtype=np.intp)
        base //= per_entry
        base *= voxels
        _sample_block(flat, dims, pts[:, block], base, value[block],
                      None if grad is None else grad[:, block])
    value = value.reshape(points.shape[1:])
    return (value, grad.reshape(points.shape)) if with_grad else value


def _sample_block(flat, dims, points, base, value, grad):
    """Fill ``value`` (m,) with the values of ``flat`` at ``points`` (3, m),
    each point's flat index starting from ``base`` (m,), which is updated in
    place; with ``grad`` (3, m) also fill it with the derivative.  Corner
    cijk is offset by i, j, k on x, y, z; an axis with one voxel has offset
    0 and fraction 0."""
    steps, fracs, inside = [], [], []
    for a, n in enumerate(dims):
        stride = int(np.prod(dims[a + 1:]))
        c = np.clip(points[a], 0.0, n - 1.0)
        i0 = c.astype(np.intp)
        np.minimum(i0, max(n - 2, 0), out=i0)
        fracs.append(c - i0)
        if grad is not None:
            inside.append(c == points[a])
        base += i0 * stride
        steps.append(stride if n > 1 else 0)
    sx, sy, sz = steps
    c000, c100, c010, c110, c001, c101, c011, c111 = (
        flat.take(base + off) for off in (0, sx, sy, sx + sy, sz, sx + sz, sy + sz, sx + sy + sz))
    fx, fy, fz = fracs
    gx, gy, gz = 1 - fx, 1 - fy, 1 - fz
    c00 = c000 * gx + c100 * fx
    c10 = c010 * gx + c110 * fx
    c01 = c001 * gx + c101 * fx
    c11 = c011 * gx + c111 * fx
    c0 = c00 * gy + c10 * fy
    c1 = c01 * gy + c11 * fy
    if grad is not None:
        grad[0] = (((c100 - c000) * gy + (c110 - c010) * fy) * gz
                   + ((c101 - c001) * gy + (c111 - c011) * fy) * fz)
        grad[1] = (c10 - c00) * gz + (c11 - c01) * fz
        grad[2] = c1 - c0
        for a in range(3):
            grad[a] *= inside[a]
    np.add(c0 * gz, c1 * fz, out=value)


def sample_volume(data: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Trilinear-sample ``data`` (batch axes first) at ``points`` (3, ...)."""
    return _sample(data, points, with_grad=False)


def sample_volume_with_gradient(data: np.ndarray, points: np.ndarray):
    """Sample and also return d(value)/d(point) shaped like ``points``.

    The spatial derivative is zeroed wherever the pre-clamp coordinate falls
    outside [0, n-1] on that axis (clamped samples are locally constant).
    """
    return _sample(data, points, with_grad=True)


def warp_volume(vol: Volume, field: DisplacementField) -> Volume:
    """Resample: out(p) = vol(p + u(p))."""
    if vol.dims != field.dims:
        raise DimsMismatchError(f"warp_volume: volume {vol.dims} vs field {field.dims}")
    pts = identity_grid(vol.dims) + field.u
    return Volume(vol.dims, vol.spacing, sample_volume(vol.data, pts))


def warp_labels(labels: LabelVolume, field: DisplacementField) -> LabelVolume:
    """Hard-label warp: ``argmax_labels`` of the one-hot channels warped
    each on its own (clipped to [0, 1]), with the 0.5 background threshold.

    No (K, nx, ny, nz) array is made.  Class c is sampled only on the
    window of output voxels whose sample point can reach its support box,
    from its ``one_hot`` crop grown to ``_crop``, the way the objective
    samples its mask channels (see ``gradients``), so every value is the
    dense one bit for bit and every voxel outside the window reads exactly
    0.  The warped windows are the crops of the mask ``argmax_labels`` reads.
    """
    if labels.dims != field.dims:
        raise DimsMismatchError(f"warp_labels: labels {labels.dims} vs field {field.dims}")
    dims, u = labels.dims, field.u
    u_min, u_max = u.min(axis=(1, 2, 3)).tolist(), u.max(axis=(1, 2, 3)).tolist()
    warped = []
    for crop in one_hot(labels).crops:
        window = None if crop is None else _sample_window(
            _support_box(crop.support, dims), u_min, u_max, dims)
        if window is None:
            warped.append(None)
            continue
        source = _crop(crop.support, dims)
        pts = u[(slice(None),) + window].copy()
        for p, axis, s in zip(pts, np.ix_(*(np.arange(w.start, w.stop) for w in window)), source):
            p += axis
            p -= s.start
        values = sample_volume(_on_windows([crop], [source])[0], pts)
        np.clip(values, 0.0, 1.0, out=values)
        warped.append(ChannelCrop(tuple(w.start for w in window), values))
    return argmax_labels(OneHotMask(dims, labels.spacing, crops=warped))


# ------------------------------------------------- masks on their support

def _support_box(support, dims):
    """Per axis (lo, hi): the non-zero index range [a, b] grown to
    [a-1, b+1], open on a face the support touches; None without support.
    Outside it a sample and its spatial derivative are exactly 0."""
    if support is None:
        return None
    return tuple((a - 1.0 if a > 0 else -math.inf, b + 1.0 if b < n - 1 else math.inf)
                 for (a, b), n in zip(support, dims))


def _crop(support, dims):
    """Slices of the grid on [a-1, b+2] per axis, within the grid: the
    support with one zero layer below and two above, enough for a sample
    of the crop to read what the whole channel gives (see ``gradients``)."""
    return tuple(slice(max(a - 1, 0), min(b + 3, n)) for (a, b), n in zip(support, dims))


def _one_shape(blocks, dims):
    """``blocks`` (per entry a tuple of slices of the grid, or None) padded
    to one shape, per axis the longest block: each starts at
    min(start, n - length), inside the grid; None gets a block at the
    origin."""
    lengths = [[s.stop - s.start for s in b] for b in blocks if b is not None]
    shape = np.max(lengths, axis=0).tolist() if lengths else (1, 1, 1)
    starts = [(0, 0, 0) if b is None else [s.start for s in b] for b in blocks]
    return tuple(tuple(slice(min(a, n - m), min(a, n - m) + m) for a, n, m in zip(st, dims, shape))
                 for st in starts)


def _sample_window(box, u_min, u_max, dims):
    """Slices of the output block holding every voxel p whose sample point
    p + u(p) can fall in ``box``, given u_min <= u <= u_max per axis (Python
    floats); None when the block is empty.

    On one axis that is [ceil(lo - max u), floor(hi - min u)] within the
    grid.  Each end is settled by testing p + max u >= lo (p + min u <= hi)
    in the float arithmetic that forms the sample points, so a point rounded
    onto a face of the box is kept.
    """
    window = []
    for (lo, hi), lo_u, hi_u, n in zip(box, u_min, u_max, dims):
        start, stop = 0, n - 1
        if lo > -math.inf:
            start = max(0, math.ceil(lo - hi_u) - 1)
            if start + hi_u < lo:
                start += 1
        if hi < math.inf:
            stop = min(n - 1, math.floor(hi - lo_u) + 1)
            if stop + lo_u > hi:
                stop -= 1
        if start > stop:
            return None
        window.append(slice(start, stop + 1))
    return tuple(window)


# ------------------------------------------------------- field operations

def upsample_field(field: DisplacementField, target_dims) -> DisplacementField:
    """Trilinear-upsample each component onto the ceil-doubled grid, then
    scale vectors by 2 (one coarse voxel spans two fine voxels).

    Fine voxel f maps to coarse coordinate (f - 0.5) / 2, which aligns the
    box-filter pyramid's cell centers.
    """
    target_dims = tuple(int(d) for d in target_dims)
    if halved_dims(target_dims) != field.dims:
        raise DimsMismatchError(
            f"upsample_field: target {target_dims} does not ceil-halve to {field.dims}"
        )
    fine = identity_grid(target_dims)
    coarse_pts = (fine - 0.5) / 2.0
    u = np.stack([sample_volume(field.u[c], coarse_pts) for c in range(3)]) * 2.0
    return DisplacementField(target_dims, tuple(s / 2 for s in field.spacing), u)


def superpose(base: DisplacementField, delta: DisplacementField) -> DisplacementField:
    """Additive composition of two fields on the same lattice."""
    if base.dims != delta.dims:
        raise DimsMismatchError(f"superpose: {base.dims} vs {delta.dims}")
    return DisplacementField(base.dims, base.spacing, base.u + delta.u)


# ------------------------------------------------------- field differentials

def central_difference(data: np.ndarray, axis: int) -> np.ndarray:
    """Central differences with one-sided stencils at the ends (unit spacing)."""
    out = np.zeros_like(data)
    if data.shape[axis] < 2:
        return out
    d, o = np.swapaxes(data, 0, axis), np.swapaxes(out, 0, axis)
    o[1:-1] = 0.5 * (d[2:] - d[:-2])
    o[0] = d[1] - d[0]
    o[-1] = d[-1] - d[-2]
    return out


def central_difference_adjoint(g: np.ndarray, axis: int) -> np.ndarray:
    """Transpose of :func:`central_difference` (needed for exact backprop)."""
    out = np.zeros_like(g)
    if g.shape[axis] < 2:
        return out
    h, o = np.swapaxes(g, 0, axis), np.swapaxes(out, 0, axis)
    o[2:] += 0.5 * h[1:-1]
    o[:-2] -= 0.5 * h[1:-1]
    o[0] -= h[0]
    o[1] += h[0]
    o[-1] += h[-1]
    o[-2] -= h[-1]
    return out


def jacobian_determinant(field: DisplacementField) -> Volume:
    """Per-voxel det(I + grad u), central differences at unit voxel spacing."""
    if min(field.dims) < 3:
        raise ValueError(f"jacobian_determinant: dims {field.dims} must all be >= 3")
    jac = np.empty((3, 3) + field.dims)
    for c in range(3):
        for a in range(3):
            jac[c, a] = central_difference(field.u[c], a)
        jac[c, c] += 1.0
    det = (
        jac[0, 0] * (jac[1, 1] * jac[2, 2] - jac[1, 2] * jac[2, 1])
        - jac[0, 1] * (jac[1, 0] * jac[2, 2] - jac[1, 2] * jac[2, 0])
        + jac[0, 2] * (jac[1, 0] * jac[2, 1] - jac[1, 1] * jac[2, 0])
    )
    return Volume(field.dims, field.spacing, det)


class SdLogJResult(NamedTuple):
    value: float
    excluded: int


def sdlogj(field: DisplacementField, eps: float = 1e-6) -> SdLogJResult:
    """Standard deviation of log det(J(phi)) over voxels with det > eps.

    Non-positive (or tiny) determinants are excluded and counted; an
    all-excluded field reports 0.0.  A field with an axis under 3 voxels has
    no Jacobian (``jacobian_determinant``) and reports (0.0, 0).
    """
    if min(field.dims) < 3:
        return SdLogJResult(0.0, 0)
    det = jacobian_determinant(field).data
    ok = det > eps
    excluded = int(det.size - ok.sum())
    if not ok.any():
        return SdLogJResult(0.0, excluded)
    return SdLogJResult(float(np.std(np.log(det[ok]))), excluded)
