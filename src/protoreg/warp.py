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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grids import DimsMismatchError, LabelVolume, OneHotMask, Volume, argmax_labels, halved_dims, one_hot


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
    module docstring).  Corner cijk is offset by i, j, k on x, y, z; an axis
    with one voxel has offset 0 and fraction 0."""
    flat = data.ravel()
    dims, batch = data.shape[-3:], data.shape[:-3]
    base = np.empty(points.shape[1:], dtype=np.intp)
    base[...] = np.arange(0, data.size, int(np.prod(dims))).reshape(
        batch + (1,) * (base.ndim - len(batch)))
    steps, fracs, inside = [], [], []
    for a, n in enumerate(dims):
        stride = int(np.prod(dims[a + 1:]))
        c = np.clip(points[a], 0.0, n - 1.0)
        i0 = c.astype(np.intp)
        np.minimum(i0, max(n - 2, 0), out=i0)
        fracs.append(c - i0)
        if with_grad:
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
    value = c0 * gz + c1 * fz
    if not with_grad:
        return value
    grad = np.empty(points.shape)
    grad[0] = (((c100 - c000) * gy + (c110 - c010) * fy) * gz
               + ((c101 - c001) * gy + (c111 - c011) * fy) * fz)
    grad[1] = (c10 - c00) * gz + (c11 - c01) * fz
    grad[2] = c1 - c0
    for a in range(3):
        grad[a] *= inside[a]
    return value, grad


def sample_volume(data: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Trilinear-sample ``data`` (batch axes first) at ``points`` (3, ...)."""
    return _sample(data, points, with_grad=False)


def sample_volume_with_gradient(data: np.ndarray, points: np.ndarray):
    """Sample and also return d(value)/d(point) shaped like ``points``.

    The spatial derivative is zeroed wherever the pre-clamp coordinate falls
    outside [0, n-1] on that axis (clamped samples are locally constant).
    """
    return _sample(data, points, with_grad=True)


def trilinear_sample(vol: Volume, point) -> float:
    """Value of ``vol`` at one continuous coordinate (voxel units)."""
    p = np.asarray(point, dtype=np.float64).reshape(3, 1)
    return float(sample_volume(vol.data, p)[0])


def warp_volume(vol: Volume, field: DisplacementField) -> Volume:
    """Resample: out(p) = vol(p + u(p))."""
    if vol.dims != field.dims:
        raise DimsMismatchError(f"warp_volume: volume {vol.dims} vs field {field.dims}")
    pts = identity_grid(vol.dims) + field.u
    return Volume(vol.dims, vol.spacing, sample_volume(vol.data, pts))


def warp_onehot(mask: OneHotMask, field: DisplacementField) -> OneHotMask:
    """Warp each channel independently; values stay in [0, 1]."""
    if mask.dims != field.dims:
        raise DimsMismatchError(f"warp_onehot: mask {mask.dims} vs field {field.dims}")
    pts = identity_grid(mask.dims) + field.u
    out = np.stack([sample_volume(mask.channels[k], pts) for k in range(mask.num_classes)])
    return OneHotMask(mask.dims, mask.spacing, np.clip(out, 0.0, 1.0))


def warp_labels(labels: LabelVolume, field: DisplacementField) -> LabelVolume:
    """Hard-label warp: one-hot, soft warp, then argmax with 0.5 background
    threshold."""
    return argmax_labels(warp_onehot(one_hot(labels), field))


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
    all-excluded field reports 0.0.
    """
    det = jacobian_determinant(field).data
    ok = det > eps
    excluded = int(det.size - ok.sum())
    if not ok.any():
        return SdLogJResult(0.0, excluded)
    return SdLogJResult(float(np.std(np.log(det[ok]))), excluded)
