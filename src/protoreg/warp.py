"""Spatial transformation of volumes and masks by dense displacement fields.

A field stores one 3-vector per voxel in voxel units; the map it encodes is
``phi(p) = p + u(p)``.  Sampling is trilinear with clamp-to-edge borders,
consistently in the forward warps and in the analytic gradients built on top
of them.  Everything here is a pure function over immutable inputs.
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


def _clamped_cell(coord: np.ndarray, n: int):
    """Clamp to [0, n-1] and split into lower corner index + fraction."""
    c = np.clip(coord, 0.0, n - 1.0)
    if n < 2:
        i0 = np.zeros(c.shape, dtype=np.intp)
        return i0, i0, np.zeros_like(c)
    i0 = np.minimum(np.floor(c), n - 2).astype(np.intp)
    return i0, i0 + 1, c - i0


def _corners(data: np.ndarray, cells):
    (x0, x1, _), (y0, y1, _), (z0, z1, _) = cells
    return (
        data[x0, y0, z0], data[x1, y0, z0], data[x0, y1, z0], data[x1, y1, z0],
        data[x0, y0, z1], data[x1, y0, z1], data[x0, y1, z1], data[x1, y1, z1],
    )


def _interp(corners, fx, fy, fz):
    c000, c100, c010, c110, c001, c101, c011, c111 = corners
    c00 = c000 * (1 - fx) + c100 * fx
    c10 = c010 * (1 - fx) + c110 * fx
    c01 = c001 * (1 - fx) + c101 * fx
    c11 = c011 * (1 - fx) + c111 * fx
    c0 = c00 * (1 - fy) + c10 * fy
    c1 = c01 * (1 - fy) + c11 * fy
    return c0 * (1 - fz) + c1 * fz


def sample_volume(data: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Trilinear-sample ``data`` at continuous ``points`` shaped (3, ...)."""
    cells = [_clamped_cell(points[a], data.shape[a]) for a in range(3)]
    fx, fy, fz = (c[2] for c in cells)
    return _interp(_corners(data, cells), fx, fy, fz)


def sample_volume_with_gradient(data: np.ndarray, points: np.ndarray):
    """Sample and also return d(value)/d(point) shaped like ``points``.

    The spatial derivative is zeroed wherever the pre-clamp coordinate falls
    outside [0, n-1] on that axis (clamped samples are locally constant).
    """
    cells = [_clamped_cell(points[a], data.shape[a]) for a in range(3)]
    fx, fy, fz = (c[2] for c in cells)
    c000, c100, c010, c110, c001, c101, c011, c111 = _corners(data, cells)

    value = _interp((c000, c100, c010, c110, c001, c101, c011, c111), fx, fy, fz)

    dx = (((c100 - c000) * (1 - fy) + (c110 - c010) * fy) * (1 - fz)
          + ((c101 - c001) * (1 - fy) + (c111 - c011) * fy) * fz)
    dy = (((c010 - c000) * (1 - fx) + (c110 - c100) * fx) * (1 - fz)
          + ((c011 - c001) * (1 - fx) + (c111 - c101) * fx) * fz)
    dz = (((c001 - c000) * (1 - fx) + (c101 - c100) * fx) * (1 - fy)
          + ((c011 - c010) * (1 - fx) + (c111 - c110) * fx) * fy)
    grad = np.stack([dx, dy, dz])
    for a in range(3):
        inside = (points[a] >= 0.0) & (points[a] <= data.shape[a] - 1.0)
        grad[a] *= inside
    return value, grad


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
    n = data.shape[axis]
    out = np.zeros_like(data)
    if n < 2:
        return out
    sl = [slice(None)] * data.ndim

    def at(i):
        s = list(sl)
        s[axis] = i
        return tuple(s)

    out[at(slice(1, n - 1))] = 0.5 * (data[at(slice(2, n))] - data[at(slice(0, n - 2))])
    out[at(0)] = data[at(1)] - data[at(0)]
    out[at(n - 1)] = data[at(n - 1)] - data[at(n - 2)]
    return out


def central_difference_adjoint(g: np.ndarray, axis: int) -> np.ndarray:
    """Transpose of :func:`central_difference` (needed for exact backprop)."""
    n = g.shape[axis]
    out = np.zeros_like(g)
    if n < 2:
        return out
    sl = [slice(None)] * g.ndim

    def at(i):
        s = list(sl)
        s[axis] = i
        return tuple(s)

    if n > 2:
        out[at(slice(2, n))] += 0.5 * g[at(slice(1, n - 1))]
        out[at(slice(0, n - 2))] -= 0.5 * g[at(slice(1, n - 1))]
    out[at(0)] -= g[at(0)]
    out[at(1)] += g[at(0)]
    out[at(n - 1)] += g[at(n - 1)]
    out[at(n - 2)] -= g[at(n - 1)]
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
