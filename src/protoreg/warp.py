"""Spatial transformation of volumes and masks by dense displacement fields.

A field stores one 3-vector per voxel in voxel units; the map it encodes is
``phi(p) = p + u(p)``, and every sample point is formed as u + p by
``add_voxel_coords``, on the whole grid or on windows of it.  Sampling is
trilinear with clamp-to-edge borders, consistently in the forward warps and
in the analytic gradients built on top of them.  Everything here is a pure
function over immutable inputs, and computes in the dtype of the arrays it
is given (``grids.float_dtype``): a sampler call runs in float32 when both
the data and the points are float32, in float64 otherwise.

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

A sampler call on a grid's array (C-ordered, of the call's dtype)
allocates only its outputs (value and derivative) and one workspace: 14
rows of the call's dtype, 3 intp and 3 bool rows of ``SAMPLE_BLOCK``
points; ``data.ravel()`` copies any other array.  The points are taken in
blocks in their flat order, and each block is computed in that workspace
in place, through ``out=``: the corners are read by ``np.take`` straight
into their rows, the edges and faces overwrite the corners they were made
from, and the derivative's rows serve as scratch until they are written.
A block may start inside a batch entry, so each point's batch offset comes
from its own flat position.  The in-place steps keep the order of
operations of the interpolation and derivative formulas above, and every
output element is formed by the same operations on the same operands
whichever block it falls in, so a blocked call is bit for bit the
unblocked one.

A mask channel is sampled only on its support, both while the field is
optimized (``gradients.evaluate_objective``) and when it is scored
(``warp_labels``): ``mask_stack`` keeps the channels on crops, and
``mask_points`` gives each channel's window of output voxels and the points
p + u(p) on it.  This is exact.  A clamped trilinear sample reads the two
lattice neighbours of its clamped coordinate per axis, so outside its box,
the channel's non-zero index range [a, b] grown to [a-1, b+1], the value
and the spatial derivative are exactly 0; the box stays open on a face the
support touches (a = 0 or b = n-1), which every clamped sample reads.  A
crop holds [a-1, b+2] within the grid, one zero layer below the support and
two above: a sample at the lattice point b+1 reads the zero cell [b+1, b+2]
above it, so its derivative is 0, where a crop ending at b+1 would clamp it
into [b, b+1] and give the backward difference -m[b].  A window holds every
voxel whose point can fall in the box; ``_sample_window`` tests its ends in
the float arithmetic that forms the points, in the points' dtype, so a point
rounded onto a box face is kept.  Crops and windows are padded to one shape within the grid
(``_one_shape``), which only adds samples that are exactly 0 or read the
whole channel, so all channels take one sampler call.  A point is
(u + p) - origin; where it can read a non-zero corner it lies above the
origin, so the integer shift is exact, and every sample reads the same
corners with the same fractions as on the whole channel, or only zeros:
the sampled masks and derivatives are the whole channels' bit for bit.
Each step holds in any binary float dtype, so in float32 as in float64:
the coordinates and shifts are integers, exact in either, and each point is
rounded once, from u + p, in the points' dtype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grids import (ChannelCrop, DimsMismatchError, LabelVolume, OneHotMask, Volume, _on_windows,
                    _validate_grid, argmax_labels, float_array, float_dtype, halved_dims,
                    one_hot)

# Points per block of the trilinear sampler.  A float64 call's workspace
# holds 17.4 float64 rows of a block, 0.57 MB at 4,096 points, under one 48^3
# grid array (a float32 call's, 0.34 MB).  One
# whole-grid call with derivative at 48^3 takes 14 ms against 19 ms with
# 16,384-point blocks of allocated temporaries (process time, median of 15,
# 2-core host); whole 48^3 registrations timed blocks of 4,096 to 16,384
# points alike, within noise.
SAMPLE_BLOCK = 4096

# Jacobian determinants at or below this are excluded from SDlogJ.
DET_EPS = 1e-6


@dataclass(frozen=True)
class DisplacementField:
    """Dense displacement field, ``u`` shaped (3, nx, ny, nz), voxel units;
    float32 stays float32, any other dtype is cast to float64."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))
        object.__setattr__(self, "u", float_array(self.u))
        if self.u.shape != (3,) + self.dims:
            raise ValueError(f"DisplacementField: u shape {self.u.shape} != (3, *{self.dims})")
        _validate_grid(self.dims, self.spacing, self.u.shape[1:], "DisplacementField")
        if not np.isfinite(self.u).all():
            raise ValueError("DisplacementField: non-finite displacement values")

    @classmethod
    def zeros(cls, dims, spacing=(1.0, 1.0, 1.0)):
        return cls(tuple(dims), spacing, np.zeros((3,) + tuple(dims)))


def _sample(data: np.ndarray, points: np.ndarray, with_grad: bool):
    """Trilinear sample and, with ``with_grad``, its derivative (see the
    module docstring), ``SAMPLE_BLOCK`` points at a time.  Flat point i of
    ``points`` samples batch entry i // (points per entry) of ``data``, in
    ``float_dtype(data, points)``."""
    data = np.asarray(data)
    dtype = float_dtype(data, points)
    data = np.asarray(data, dtype=dtype)
    dims, batch, flat = data.shape[-3:], data.shape[:-3], data.ravel()
    voxels = math.prod(dims)
    per_entry = max(math.prod(points.shape[1 + len(batch):]), 1)
    pts = points.reshape(3, -1)
    count = pts.shape[1]
    value = np.empty(count, dtype)
    grad = np.empty((3, count), dtype) if with_grad else None
    width = min(SAMPLE_BLOCK, count)
    work = np.empty((14, width), dtype)
    index = np.empty((2, width), dtype=np.intp)
    ramp = np.arange(width, dtype=np.intp)
    outside = np.empty((3, width), dtype=bool) if with_grad else None
    for start in range(0, count, SAMPLE_BLOCK):
        stop = min(start + SAMPLE_BLOCK, count)
        m = stop - start
        base, cell = index[:, :m]
        np.add(ramp[:m], start, out=base)
        base //= per_entry
        base *= voxels
        _sample_block(flat, dims, pts[:, start:stop], base, cell, work[:, :m],
                      value[start:stop], None if grad is None else grad[:, start:stop],
                      None if outside is None else outside[:, :m])
    value = value.reshape(points.shape[1:])
    return (value, grad.reshape(points.shape)) if with_grad else value


def _sample_block(flat, dims, points, base, cell, work, value, grad, outside):
    """Fill ``value`` (m,) with the values of ``flat`` at ``points`` (3, m),
    each point's flat index starting from ``base`` (m,); with ``grad``
    (3, m) also fill it with the derivative.  Every step is computed in
    place: ``base`` and ``cell`` (m,) intp, ``work`` (14, m) and ``outside``
    (3, m) bool are scratch, and the rows of ``grad`` serve as scratch until
    they are written.  Corner cijk is offset by i, j, k on x, y, z; an axis
    with one voxel has offset 0 and fraction 0."""
    fracs, comps, corners = work[0:3], work[3:6], work[6:14]
    strides = (dims[1] * dims[2], dims[2], 1)
    for a, (n, stride) in enumerate(zip(dims, strides)):
        c = fracs[a]
        np.clip(points[a], 0.0, n - 1.0, out=c)
        if grad is not None:
            np.not_equal(c, points[a], out=outside[a])
        np.copyto(cell, c, casting="unsafe")          # i0 = c.astype(intp)
        np.minimum(cell, max(n - 2, 0), out=cell)
        np.copyto(comps[a], cell)
        cell *= stride
        base += cell
    fracs -= comps                                    # f = c - i0
    np.subtract(1, fracs, out=comps)                  # g = 1 - f
    sx, sy, sz = (stride if n > 1 else 0 for n, stride in zip(dims, strides))
    for row, off in zip(corners, (0, sx, sy, sx + sy, sz, sx + sz, sy + sz, sx + sy + sz)):
        # mode="clip" reads in place (the indices are in range); "raise" buffers ``out``
        np.take(flat[off:], base, out=row, mode="clip")
    c000, c100, c010, c110, c001, c101, c011, c111 = corners
    fx, fy, fz = fracs
    gx, gy, gz = comps
    if grad is not None:
        d0, d1, d2 = grad
        # d/dx = ((c100 - c000) gy + (c110 - c010) fy) gz + ((c101 - c001) gy + (c111 - c011) fy) fz
        np.subtract(c100, c000, out=d0)
        d0 *= gy
        np.subtract(c110, c010, out=d1)
        d1 *= fy
        d0 += d1
        d0 *= gz
        np.subtract(c101, c001, out=d1)
        d1 *= gy
        np.subtract(c111, c011, out=d2)
        d2 *= fy
        d1 += d2
        d1 *= fz
        d0 += d1
    # the edges c0jk gx + c1jk fx, over c0jk: c00, c10, c01, c11
    lo, hi = corners[0::2], corners[1::2]
    lo *= gx
    hi *= fx
    lo += hi
    c00, c10, c01, c11 = lo
    if grad is not None:
        # d/dy = (c10 - c00) gz + (c11 - c01) fz
        np.subtract(c10, c00, out=d1)
        d1 *= gz
        np.subtract(c11, c01, out=d2)
        d2 *= fz
        d1 += d2
    # the faces c0k gy + c1k fy, over c0k: c0, c1
    lo, hi = lo[0::2], lo[1::2]
    lo *= gy
    hi *= fy
    lo += hi
    c0, c1 = lo
    if grad is not None:
        np.subtract(c1, c0, out=d2)                   # d/dz
        np.multiply(grad, 0.0, out=grad, where=outside)
    c0 *= gz
    c1 *= fz
    np.add(c0, c1, out=value)


def sample_volume(data: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Trilinear-sample ``data`` (batch axes first) at ``points`` (3, ...)."""
    return _sample(data, points, with_grad=False)


def sample_volume_with_gradient(data: np.ndarray, points: np.ndarray):
    """Sample and also return d(value)/d(point) shaped like ``points``.

    The spatial derivative is zeroed wherever the pre-clamp coordinate falls
    outside [0, n-1] on that axis (clamped samples are locally constant).
    """
    return _sample(data, points, with_grad=True)


def add_voxel_coords(points: np.ndarray, starts=(0, 0, 0)) -> np.ndarray:
    """Add to ``points`` (3, ..., wx, wy, wz), which holds u on blocks of the
    grid whose first voxels are ``starts`` (..., 3), the coordinates of each
    block's voxels p, in place, so that it holds the sample points u + p;
    returns it.  The coordinates are integers formed in the points' dtype,
    so each point is rounded once, in that dtype."""
    starts = np.asarray(starts, dtype=points.dtype)
    for a, p in enumerate(points):
        shape = [-1 if b == a else 1 for b in range(3)]
        coords = np.arange(p.shape[a - 3], dtype=points.dtype).reshape(shape)
        p += starts[..., a, None, None, None] + coords
    return points


def warp_volume(vol: Volume, field: DisplacementField) -> Volume:
    """Resample: out(p) = vol(p + u(p))."""
    if vol.dims != field.dims:
        raise DimsMismatchError(f"warp_volume: volume {vol.dims} vs field {field.dims}")
    return Volume(vol.dims, vol.spacing, sample_volume(vol.data, add_voxel_coords(field.u.copy())))


def warp_labels(labels: LabelVolume, field: DisplacementField) -> LabelVolume:
    """Hard-label warp: ``argmax_labels`` of the one-hot channels warped
    (clipped to [0, 1]).  The channels are sampled on their windows (see
    the module docstring), so no (K, nx, ny, nz) array is made: the warped
    windows are the crops of the mask ``argmax_labels`` reads, untrimmed,
    as each contains its channel's support."""
    if labels.dims != field.dims:
        raise DimsMismatchError(f"warp_labels: labels {labels.dims} vs field {field.dims}")
    mask = one_hot(labels)
    if mask.num_classes == 0:
        return argmax_labels(mask)
    stack = mask_stack(mask)
    windows, points = mask_points(stack, field.u)
    values = sample_volume(stack.values, points)
    np.clip(values, 0.0, 1.0, out=values)
    crops = tuple(ChannelCrop(tuple(s.start for s in w), v) for w, v in zip(windows, values))
    return argmax_labels(OneHotMask(labels.dims, labels.spacing, crops))


# ------------------------------------------------- masks on their support

class MaskStack(NamedTuple):
    """K mask channels on crops of one shape (see the module docstring):
    channel k is ``values[k]`` placed with its first voxel at grid voxel
    ``origins[k]``, and 0 everywhere else; ``boxes[k]`` is its box, per
    axis the source-coordinate range (lo, hi) outside which its samples are
    exactly 0, or None for an all-zero channel."""

    values: np.ndarray          # (K, bx, by, bz)
    origins: np.ndarray         # (K, 3) integer
    boxes: tuple


def mask_stack(mask: OneHotMask) -> MaskStack:
    """The channels of ``mask`` on their crops, per axis [a-1, b+2] within
    the grid padded to one shape, with their boxes, per axis [a-1, b+1]
    open on a face the support touches."""
    dims = mask.dims
    supports = [None if crop is None else crop.support for crop in mask.crops]
    crops = _one_shape([None if s is None else
                        tuple(slice(max(a - 1, 0), min(b + 3, n)) for (a, b), n in zip(s, dims))
                        for s in supports], dims)
    boxes = tuple(None if s is None else
                  tuple((a - 1.0 if a > 0 else -math.inf, b + 1.0 if b < n - 1 else math.inf)
                        for (a, b), n in zip(s, dims))
                  for s in supports)
    origins = np.array([[s.start for s in crop] for crop in crops], dtype=np.intp)
    return MaskStack(_on_windows(mask.crops, crops), origins, boxes)


def mask_points(stack: MaskStack, u: np.ndarray):
    """The windows of ``stack``'s channels under the field ``u`` (K tuples
    of slices of the grid, of one shape) and the sample points on them,
    (u + p) - origin in each channel's crop, shaped (3, K, wx, wy, wz)."""
    dims = u.shape[1:]
    u_min, u_max = u.min(axis=(1, 2, 3)).tolist(), u.max(axis=(1, 2, 3)).tolist()
    windows = _one_shape([None if box is None else
                          _sample_window(box, u_min, u_max, dims, u.dtype.type)
                          for box in stack.boxes], dims)
    points = np.empty((3, len(windows)) + tuple(s.stop - s.start for s in windows[0]), u.dtype)
    for k, window in enumerate(windows):
        points[:, k] = u[(slice(None),) + window]
    add_voxel_coords(points, [[s.start for s in window] for window in windows])
    points -= stack.origins.T.astype(u.dtype)[:, :, None, None, None]
    return windows, points


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


def _sample_window(box, u_min, u_max, dims, scalar):
    """Slices of the output block holding every voxel p whose sample point
    p + u(p) can fall in ``box``, given u_min <= u <= u_max per axis (Python
    floats holding values of u); None when the block is empty.

    On one axis that is [ceil(lo - max u), floor(hi - min u)] within the
    grid, taken exactly in Python floats.  Each end is settled by testing
    p + max u >= lo (p + min u <= hi) in the float arithmetic that forms the
    sample points, in the points' dtype (``scalar``, its NumPy scalar type),
    so a point rounded onto a face of the box is kept.
    """
    window = []
    for (lo, hi), lo_u, hi_u, n in zip(box, u_min, u_max, dims):
        start, stop = 0, n - 1
        if lo > -math.inf:
            start = max(0, math.ceil(lo - hi_u) - 1)
            if scalar(start) + scalar(hi_u) < lo:
                start += 1
        if hi < math.inf:
            stop = min(n - 1, math.floor(hi - lo_u) + 1)
            if scalar(stop) + scalar(lo_u) > hi:
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
    coarse_pts = (np.indices(target_dims, dtype=field.u.dtype) - 0.5) / 2.0
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


def central_difference_adjoint(g: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """Transpose of :func:`central_difference` (needed for exact backprop),
    written into ``out`` (overwritten; ``g``'s shape)."""
    out[...] = 0.0
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
    jac = np.empty((3, 3) + field.dims, field.u.dtype)
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


def sdlogj(field: DisplacementField) -> SdLogJResult:
    """Standard deviation of log det(J(phi)) over voxels with det >
    ``DET_EPS``.

    Non-positive (or tiny) determinants are excluded and counted; an
    all-excluded field reports 0.0.  A field with an axis under 3 voxels has
    no Jacobian (``jacobian_determinant``) and reports (0.0, 0).
    """
    if min(field.dims) < 3:
        return SdLogJResult(0.0, 0)
    det = jacobian_determinant(field).data
    ok = det > DET_EPS
    excluded = int(det.size - ok.sum())
    if not ok.any():
        return SdLogJResult(0.0, excluded)
    return SdLogJResult(float(np.std(np.log(det[ok]))), excluded)
