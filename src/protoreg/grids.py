"""Grid containers (volumes, label maps, one-hot masks) and image pyramids
(``build_pyramid``: a tuple of grids, finest first, each halved).

All grids are indexed ``data[x, y, z]`` with ``data.shape == dims`` on
C-ordered arrays: each constructor takes its array with
``np.ascontiguousarray``, so no code past it sees another layout.  The
serialized layout (:mod:`protoreg.io`) is x-fastest / z-slowest.  Grids are
immutable after construction and safe to share across threads.

Two float dtypes are held (``float_dtype``): ``Volume`` and
``warp.DisplacementField`` keep a float32 array as float32 and cast every
other dtype to float64, and a one-hot crop keeps the dtype it was made in
(``one_hot`` makes float64).  Everything computed from grids runs in their
dtype: float32 only when every array it reads is float32, float64
otherwise, with the same operations in both.  ``downsample`` averages in
the grid's dtype and ``_on_windows`` places crops in theirs.

``_band_products`` applies a separable linear filter as one matrix per
axis: ``downsample``'s box means (``_halved``), the correlation term's
window sums and their adjoint (``losses``) and the phantom's Gaussian.  One
linear filter is not run through it: ``warp.upsample_field``, linear
interpolation onto the doubled lattice, samples a dense coordinate grid
through the trilinear sampler.

A ``LabelVolume`` holds its labels in the smallest unsigned type that
holds ``num_classes`` (``np.min_scalar_type``): uint8 up to 255 classes,
uint16 up to 65,535, and so on.  The label range is checked on the
array given, before the narrowing, so an out-of-range label raises rather
than wraps.  ``argmax_labels`` builds its map in that type.

A one-hot mask is crop-backed: each channel is held only on a box
(``ChannelCrop``), and nothing here makes a (K, nx, ny, nz) array.
``one_hot`` and ``downsample`` trim each crop to its channel's support:
``one_hot`` takes the boxes from the label map (``_label_boxes``: per axis,
one ``bincount`` of (class, slab) pairs over the foreground voxels gives
each class's first and last slab, the boxes ``ndimage.find_objects``
returns), and ``downsample`` halves each crop on the whole grid's cells,
so a coarse crop is the dense pyramid's crop bit for bit.
``argmax_labels`` keeps a running maximum over the crops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


# A voxel whose strongest channel stays below this is background.
FOREGROUND_THRESHOLD = 0.5


class DimsMismatchError(ValueError):
    """Two grids that must share a voxel lattice do not."""


def float_dtype(*arrays) -> type:
    """float32 when every one of ``arrays`` is float32, float64 otherwise."""
    return np.float32 if all(a.dtype == np.float32 for a in arrays) else np.float64


def float_array(data) -> np.ndarray:
    """``data`` as a C-ordered array of its ``float_dtype``; an array that
    already is one is returned as it is."""
    data = np.asarray(data)
    return np.ascontiguousarray(data, dtype=float_dtype(data))


def _crops_dtype(crops) -> type:
    """``float_dtype`` of the values of ``crops`` ((origin, values) pairs or
    None); float64 when every crop is None."""
    values = [crop[1] for crop in crops if crop is not None]
    return float_dtype(*values) if values else np.float64


def _is_integer(value) -> bool:
    """An int or NumPy integer, not a bool (an int subclass; ``np.bool_`` is
    neither)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_bool(value) -> bool:
    """A bool or NumPy bool, which arithmetic would take as 1 or 0."""
    return isinstance(value, (bool, np.bool_))


def _grid_dims(dims, name) -> tuple:
    """``dims`` as three ints >= 1; a float, bool or string raises ``ValueError``."""
    if len(dims) != 3 or not all(_is_integer(d) and d >= 1 for d in dims):
        raise ValueError(f"{name}: dims must be three integers >= 1, got {dims}")
    return tuple(int(d) for d in dims)


def _validate_grid(dims, spacing, shape, name) -> tuple:
    """``(dims, spacing)`` as ints and floats, checked, with ``shape`` == dims."""
    dims = _grid_dims(dims, name)
    if len(spacing) != 3 or not all(0.0 < float(s) < np.inf for s in spacing):
        raise ValueError(f"{name}: spacing must be three finite positive lengths, got {spacing}")
    if tuple(shape) != dims:
        raise ValueError(f"{name}: data shape {tuple(shape)} != dims {dims}")
    return dims, tuple(float(s) for s in spacing)


@dataclass(frozen=True)
class Volume:
    """Scalar 3D intensity grid with voxel spacing in millimetres."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", float_array(self.data))
        dims, spacing = _validate_grid(self.dims, self.spacing, self.data.shape, "Volume")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        if not np.isfinite(self.data).all():
            raise ValueError("Volume: data contains non-finite values")


@dataclass(frozen=True)
class LabelVolume:
    """Integer anatomical labels; 0 is background, foreground classes are 1..K."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        labels = np.asarray(self.labels)
        dims, spacing = _validate_grid(self.dims, self.spacing, labels.shape, "LabelVolume")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        if not _is_integer(self.num_classes):
            raise ValueError(f"LabelVolume: num_classes must be an integer, "
                             f"got {self.num_classes!r}")
        object.__setattr__(self, "num_classes", int(self.num_classes))
        # checked before the narrowing, so no label is truncated or wraps into it
        if labels.dtype.kind == "f":
            bad = labels[~np.isfinite(labels) | (labels != np.floor(labels))]
            if bad.size:
                raise ValueError(f"LabelVolume: labels must be integers, got {bad[0]}")
        if labels.min(initial=0) < 0 or labels.max(initial=0) > self.num_classes:
            raise ValueError(
                f"LabelVolume: labels must lie in [0, {self.num_classes}], "
                f"got range [{labels.min()}, {labels.max()}]"
            )
        object.__setattr__(self, "labels", np.ascontiguousarray(
            labels, dtype=np.min_scalar_type(self.num_classes)))


class ChannelCrop(NamedTuple):
    """One mask channel on a box: ``values`` placed with its first voxel at
    grid voxel ``origin``, and 0 everywhere else."""

    origin: tuple
    values: np.ndarray      # (bx, by, bz)

    @property
    def box(self) -> tuple:
        return tuple(slice(o, o + m) for o, m in zip(self.origin, self.values.shape))

    @property
    def support(self) -> tuple:
        """Per axis the index range (a, b) of the box, both ends included."""
        return tuple((o, o + m - 1) for o, m in zip(self.origin, self.values.shape))


class OneHotMask(NamedTuple):
    """Per-class soft channels in [0, 1]; background has no channel.

    Channel k-1 corresponds to label k.  Hard masks are {0, 1} valued;
    downsampled and warped masks become soft.  Each channel is kept only on
    a crop (``crops``: a ``ChannelCrop`` per channel, None for an all-zero
    one) that contains the channel's support, and is the support itself
    when ``one_hot`` or ``downsample`` made it.  No (K, nx, ny, nz) array is
    held.
    """

    dims: tuple
    spacing: tuple
    crops: tuple

    @property
    def num_classes(self) -> int:
        return len(self.crops)


def _on_windows(crops, windows) -> np.ndarray:
    """Mask channels on ``windows`` (one tuple of slices of the grid per
    channel, all of one shape): (K, wx, wy, wz), 0 where a window leaves its
    channel's crop, in the crops' dtype.  ``crops`` holds per channel an
    (origin, values) pair, or None for an all-zero channel."""
    out = np.zeros((len(windows),) + tuple(s.stop - s.start for s in windows[0]),
                   _crops_dtype(crops))
    for k, (window, crop) in enumerate(zip(windows, crops)):
        if crop is None:
            continue
        target, source = [], []
        for s, o, m in zip(window, crop[0], crop[1].shape):
            lo, hi = max(s.start, o), min(s.stop, o + m)
            target.append(slice(lo - s.start, hi - s.start))
            source.append(slice(lo - o, hi - o))
        if all(t.start < t.stop for t in target):
            out[k][tuple(target)] = crop[1][tuple(source)]
    return out


def halved_dims(dims) -> tuple[int, int, int]:
    return tuple(-(-int(d) // 2) for d in dims)


def _label_boxes(labels: np.ndarray, num_classes: int) -> list:
    """Per class 1..``num_classes`` the box of its voxels, a tuple of slices
    (``ndimage.find_objects``'s boxes), or None for an absent class.  One
    ``bincount`` per axis over the foreground voxels marks the slabs that
    hold each class; a box runs from its first marked slab to its last."""
    flat = np.flatnonzero(labels != 0)      # 7x faster than on the labels
    classes = labels.ravel()[flat].astype(np.intp)
    spans = []
    for n, coord in zip(labels.shape, np.unravel_index(flat, labels.shape)):
        seen = np.bincount(classes * n + coord, minlength=(num_classes + 1) * n)
        seen = seen.reshape(num_classes + 1, n)[1:] > 0
        spans.append((seen.argmax(axis=1), n - seen[:, ::-1].argmax(axis=1)))
    present = seen.any(axis=1)
    return [tuple(slice(int(lo[c]), int(hi[c])) for lo, hi in spans) if present[c] else None
            for c in range(num_classes)]


def one_hot(labels: LabelVolume) -> OneHotMask:
    """Label k as the hard channel k-1, each cropped to the label's box
    (``_label_boxes``); no (K, nx, ny, nz) array is made."""
    boxes = _label_boxes(labels.labels, labels.num_classes)
    crops = tuple(None if box is None else
                  ChannelCrop(tuple(s.start for s in box),
                              (labels.labels[box] == c).astype(np.float64))
                  for c, box in enumerate(boxes, start=1))
    return OneHotMask(labels.dims, labels.spacing, crops)


def argmax_labels(mask: OneHotMask) -> LabelVolume:
    """Invert one_hot: per voxel, the strongest channel wins if it reaches
    ``FOREGROUND_THRESHOLD``, otherwise background; a tie goes to the
    lowest class, as with ``argmax``.

    A running maximum over each channel's crop, taken with a strict ``>``,
    so no (K, nx, ny, nz) array is made.  A voxel that reaches the
    (positive) threshold lies in the crop of every channel that reaches its
    maximum, which makes this the dense argmax exactly.
    """
    best = np.zeros(mask.dims, _crops_dtype(mask.crops))
    labels = np.zeros(mask.dims, np.min_scalar_type(mask.num_classes))
    for c, crop in enumerate(mask.crops, start=1):
        if crop is None:
            continue
        region = best[crop.box]
        wins = crop.values > region
        region[wins] = crop.values[wins]
        labels[crop.box][wins] = c
    labels[best < FOREGROUND_THRESHOLD] = 0
    return LabelVolume(mask.dims, mask.spacing, labels, mask.num_classes)


def _band_products(stacked: np.ndarray, bx, by, bz) -> np.ndarray:
    """A separable linear filter: (C, nx, ny, nz) -> (C, mx, my, mz) in
    ``stacked``'s dtype, out[c, a, b, d] = sum over i, j, k of bx[i, a] *
    by[j, b] * bz[k, d] * stacked[c, i, j, k], one axis at a time in the
    order x, z, then y.  Each BLAS product is one slab, (m, n) @ (n, n) at
    most, which BLAS runs on one thread; one product per axis over a whole
    volume would start its helper threads, which cost more CPU time than
    they save."""
    out = np.empty((len(stacked), bx.shape[1], by.shape[1], bz.shape[1]), stacked.dtype)
    for volume, result in zip(stacked, out):
        partial = np.matmul(bx.T, volume.transpose(1, 0, 2))     # (ny, mx, nz)
        partial = partial @ bz                                    # (ny, mx, mz)
        np.matmul(by.T, partial.transpose(1, 0, 2), out=result)  # (mx, my, mz)
    return out


def _halved(data: np.ndarray) -> np.ndarray:
    """The means of ``data``'s cells of 2 x 2 x 2 voxels, fewer at an odd
    end: per axis a band of 0.5 on each pair of slabs and 1.0 on a trailing
    odd one, so an axis of size 1 is left alone."""
    cells = (np.repeat(np.eye(-(-n // 2), dtype=data.dtype), 2, axis=0)[:n] for n in data.shape)
    return _band_products(data[None], *(cell / cell.sum(axis=0) for cell in cells))[0]


def downsample(grid):
    """Halve each axis (ceil) by box-filter averaging.

    Works on Volume and OneHotMask; one-hot channels are averaged
    independently and become soft.  A channel is averaged on its crop only:
    the crop is grown to start at an even index and to end at an even index
    or the grid's end, with zeros, so its cells are the whole grid's cells
    and each coarse value is formed by the same operations as on the dense
    channel, bit for bit.  Each coarse slab of a crop trimmed to its
    support averages a slab that holds a non-zero, so the coarse crop is
    trimmed too.
    """
    spacing = tuple(s * 2 if d >= 2 else s for s, d in zip(grid.spacing, grid.dims))
    if isinstance(grid, Volume):
        return Volume(halved_dims(grid.dims), spacing, _halved(grid.data))
    if isinstance(grid, OneHotMask):
        crops = []
        for crop in grid.crops:
            if crop is None:
                crops.append(None)
                continue
            start = [o - o % 2 for o in crop.origin]
            stop = [min(b + 1 + (b + 1) % 2, n) for (_, b), n in zip(crop.support, grid.dims)]
            cells = _on_windows([crop], [tuple(map(slice, start, stop))])[0]
            crops.append(ChannelCrop(tuple(a // 2 for a in start), _halved(cells)))
        return OneHotMask(halved_dims(grid.dims), spacing, tuple(crops))
    raise TypeError(f"downsample: unsupported grid type {type(grid).__name__}")


def build_pyramid(grid, levels: int) -> tuple:
    """``levels`` grids, ``grid`` first and each next one halved from the one
    before (``downsample``); rejects schedules that would shrink any axis
    below 2 voxels at the coarsest level."""
    if levels < 1:
        raise ValueError("build_pyramid: levels must be >= 1")
    dims = grid.dims
    for _ in range(levels - 1):
        dims = halved_dims(dims)
    if min(dims) < 2:
        raise ValueError(
            f"build_pyramid: {levels} levels reduce dims {grid.dims} to {dims}; "
            "all axes must stay >= 2"
        )
    out = [grid]
    for _ in range(levels - 1):
        out.append(downsample(out[-1]))
    return tuple(out)
