"""Grid containers (volumes, label maps, one-hot masks) and image pyramids
(``build_pyramid``: a tuple of grids, finest first, each halved).

All grids are indexed ``data[x, y, z]`` with ``data.shape == dims``.  The
serialized layout (see :mod:`protoreg.io`) is x-fastest / z-slowest, which is
Fortran order for arrays shaped this way.  Instances are treated as immutable
after construction and are safe to share across threads.

A one-hot mask is crop-backed: each channel is held only on its support box
(``ChannelCrop``), and nothing here makes a (K, nx, ny, nz) array except the
``OneHotMask.channels`` view.  ``one_hot`` takes the boxes from the label
map (``ndimage.find_objects``), ``downsample`` halves each crop on the
whole grid's cells, so a coarse crop is the dense pyramid's crop bit for
bit, and ``argmax_labels`` keeps a running maximum over the crops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import ndimage


class DimsMismatchError(ValueError):
    """Two grids that must share a voxel lattice do not."""


def _validate_grid(dims, spacing, data, name):
    if len(dims) != 3 or any(int(d) < 1 for d in dims):
        raise ValueError(f"{name}: dims must be three counts >= 1, got {dims}")
    if len(spacing) != 3 or any(float(s) <= 0 for s in spacing):
        raise ValueError(f"{name}: spacing must be three positive lengths, got {spacing}")
    if data.shape != tuple(dims):
        raise ValueError(f"{name}: data shape {data.shape} != dims {tuple(dims)}")


@dataclass(frozen=True)
class Volume:
    """Scalar 3D intensity grid with voxel spacing in millimetres."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))
        object.__setattr__(self, "data", np.asarray(self.data, dtype=np.float64))
        _validate_grid(self.dims, self.spacing, self.data, "Volume")
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
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int32))
        object.__setattr__(self, "num_classes", int(self.num_classes))
        _validate_grid(self.dims, self.spacing, self.labels, "LabelVolume")
        if self.labels.min(initial=0) < 0 or self.labels.max(initial=0) > self.num_classes:
            raise ValueError(
                f"LabelVolume: labels must lie in [0, {self.num_classes}], "
                f"got range [{self.labels.min()}, {self.labels.max()}]"
            )


class ChannelCrop(NamedTuple):
    """One mask channel on its support box: ``values`` placed with its first
    voxel at grid voxel ``origin``, and 0 everywhere else."""

    origin: tuple
    values: np.ndarray      # (bx, by, bz)

    @property
    def box(self) -> tuple:
        return tuple(slice(o, o + m) for o, m in zip(self.origin, self.values.shape))

    @property
    def support(self) -> tuple:
        """Per axis the index range (a, b) of the box, both ends included."""
        return tuple((o, o + m - 1) for o, m in zip(self.origin, self.values.shape))


@dataclass(frozen=True, init=False)
class OneHotMask:
    """Per-class soft channels in [0, 1]; background has no channel.

    Channel k-1 corresponds to label k.  Hard masks are {0, 1} valued;
    downsampled and warped masks become soft.  Each channel is kept only on
    its support box (``crops``: a ``ChannelCrop`` per channel, None for an
    all-zero one); every crop is trimmed to the channel's non-zero index
    range, so the boxes are the channels' supports.  No (K, nx, ny, nz)
    array is held.

    ``OneHotMask(dims, spacing, channels)`` crops dense (K, nx, ny, nz)
    channels; ``OneHotMask(dims, spacing, crops=...)`` takes the crops.
    ``channels`` densifies on each read, as a dense reference for the
    tests; the registration path never reads it.
    """

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    crops: tuple

    def __init__(self, dims, spacing, channels=None, *, crops=None):
        dims = tuple(int(d) for d in dims)
        if (channels is None) == (crops is None):
            raise TypeError("OneHotMask: pass either channels or crops")
        if channels is not None:
            channels = np.asarray(channels, dtype=np.float64)
            if channels.ndim != 4 or channels.shape[1:] != dims:
                raise ValueError(
                    f"OneHotMask: channels shape {channels.shape} incompatible with dims {dims}"
                )
            crops = [ChannelCrop((0, 0, 0), ch) for ch in channels]
        crops = tuple(None if crop is None else _trimmed(crop, dims) for crop in crops)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", tuple(float(s) for s in spacing))
        object.__setattr__(self, "crops", crops)

    @property
    def num_classes(self) -> int:
        return len(self.crops)

    @property
    def channels(self) -> np.ndarray:
        """The dense (K, nx, ny, nz) channels, made anew on each read."""
        out = np.zeros((self.num_classes,) + self.dims)
        for channel, crop in zip(out, self.crops):
            if crop is not None:
                channel[crop.box] = crop.values
        return out


def _support(values: np.ndarray):
    """Per axis the non-zero index range (a, b) of a 3-D array; None when
    it is all zero."""
    support = []
    for axis in range(3):
        others = tuple(a for a in range(3) if a != axis)
        nonzero = np.flatnonzero(values.any(axis=others))
        if nonzero.size == 0:
            return None
        support.append((int(nonzero[0]), int(nonzero[-1])))
    return tuple(support)


def _trimmed(crop, dims) -> ChannelCrop | None:
    """A float64 copy of ``crop`` (an (origin, values) pair) trimmed to its
    non-zero index range; None when it is all zero.  Raises ``ValueError``
    for a crop that leaves the grid or a value outside [0, 1]."""
    origin, values = tuple(int(o) for o in crop[0]), np.asarray(crop[1])
    if values.ndim != 3 or any(o < 0 or o + m > n for o, m, n in zip(origin, values.shape, dims)):
        raise ValueError(f"OneHotMask: crop of shape {values.shape} at {origin} "
                         f"leaves the grid {dims}")
    support = _support(values)
    if support is None:
        return None
    values = values[tuple(slice(a, b + 1) for a, b in support)].astype(np.float64)
    if values.min() < -1e-9 or values.max() > 1 + 1e-9:
        raise ValueError("OneHotMask: channel values must lie in [0, 1]")
    return ChannelCrop(tuple(o + a for o, (a, _) in zip(origin, support)), values)


def _on_windows(crops, windows) -> np.ndarray:
    """Mask channels on ``windows`` (one tuple of slices of the grid per
    channel, all of one shape): (K, wx, wy, wz), 0 where a window leaves its
    channel's crop.  ``crops`` yields per channel an (origin, values) pair,
    or None for an all-zero channel."""
    out = np.zeros((len(windows),) + tuple(s.stop - s.start for s in windows[0]))
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


def one_hot(labels: LabelVolume) -> OneHotMask:
    """Label k as the hard channel k-1, each cropped to the label's box
    (``ndimage.find_objects``); no (K, nx, ny, nz) array is made."""
    boxes = ndimage.find_objects(labels.labels, max_label=labels.num_classes)
    crops = [None if box is None else
             ChannelCrop(tuple(s.start for s in box), labels.labels[box] == c)
             for c, box in enumerate(boxes, start=1)]
    return OneHotMask(labels.dims, labels.spacing, crops=crops)


def argmax_labels(mask: OneHotMask, threshold: float = 0.5) -> LabelVolume:
    """Invert one_hot: per voxel, the strongest channel wins if it reaches
    ``threshold`` (> 0), otherwise background; a tie goes to the lowest
    class, as with ``argmax``.

    A running maximum over each channel's crop, taken with a strict ``>``,
    so no (K, nx, ny, nz) array is made.  A voxel that reaches a positive
    threshold lies in the crop of every channel that reaches its maximum,
    which makes this the dense argmax exactly.
    """
    if not threshold > 0:
        raise ValueError(f"argmax_labels: threshold must be > 0, got {threshold}")
    best = np.zeros(mask.dims)
    labels = np.zeros(mask.dims, np.int32)
    for c, crop in enumerate(mask.crops, start=1):
        if crop is None:
            continue
        region = best[crop.box]
        wins = crop.values > region
        region[wins] = crop.values[wins]
        labels[crop.box][wins] = c
    labels[best < threshold] = 0
    return LabelVolume(mask.dims, mask.spacing, labels, mask.num_classes)


def _box_mean_axis(data: np.ndarray, axis: int) -> np.ndarray:
    """Mean of non-overlapping pairs along one axis; a trailing odd slab
    passes through unchanged. Axes of size 1 are left alone."""
    n = data.shape[axis]
    if n < 2:
        return data
    idx = np.arange(0, n, 2)
    sums = np.add.reduceat(data, idx, axis=axis)
    counts = np.full(len(idx), 2.0)
    if n % 2 == 1:
        counts[-1] = 1.0
    shape = [1] * data.ndim
    shape[axis] = len(idx)
    return sums / counts.reshape(shape)


def downsample(grid):
    """Halve each axis (ceil) by box-filter averaging.

    Works on Volume and OneHotMask; one-hot channels are averaged
    independently and become soft.  A channel is averaged on its crop only:
    the crop is grown to start at an even index and to end at an even index
    or the grid's end, with zeros, so its cells are the whole grid's cells
    and each coarse value is formed by the same operations as on the dense
    channel, bit for bit.
    """
    spacing = tuple(s * 2 if d >= 2 else s for s, d in zip(grid.spacing, grid.dims))
    if isinstance(grid, Volume):
        data = grid.data
        for ax in range(3):
            data = _box_mean_axis(data, ax)
        return Volume(data.shape, spacing, data)
    if isinstance(grid, OneHotMask):
        crops = []
        for crop in grid.crops:
            if crop is None:
                crops.append(None)
                continue
            start = [o - o % 2 for o in crop.origin]
            stop = [min(b + 1 + (b + 1) % 2, n) for (_, b), n in zip(crop.support, grid.dims)]
            cells = _on_windows([crop], [tuple(map(slice, start, stop))])[0]
            for ax in range(3):
                cells = _box_mean_axis(cells, ax)
            crops.append(ChannelCrop(tuple(a // 2 for a in start), np.clip(cells, 0.0, 1.0)))
        return OneHotMask(halved_dims(grid.dims), spacing, crops=crops)
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
