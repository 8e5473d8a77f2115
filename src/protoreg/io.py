"""File I/O: the native raw format and a small NIfTI-1 subset.

Raw format: ``<name>.f32raw`` holds a little-endian float32 payload in
x-fastest/z-slowest order; ``<name>.json`` is a sidecar with
``{dims, spacing, kind, num_classes}``.  Displacement fields store the three
components consecutively, each in the same layout, with ``kind: "field"``
and ``units: "voxels"``.  A read converts an x-fastest payload to the C order
that grids hold (:mod:`protoreg.grids`) in the one copy it makes.

Reads keep the stored precision: a float64 payload stays float64, and every
other one (float32, uint8, int16, and the raw format's float32) reads as
float32, each exactly.  Scaling runs in that dtype.  Label maps are held in
``LabelVolume``'s narrow unsigned type.

NIfTI-1 subset: 348-byte header, magic "n+1"/"ni1", datatypes uint8/int16/
float32/float64, optional gzip.  A header may declare up to 7 dims when
every dim past the third is 1, as a one-volume 4D series does; any other
dim past the third raises.  Dims, pixdim and the intensity scaling
``scl_slope * stored + scl_inter`` (applied when the slope is non-zero and
finite, to images and labels alike) are honored; orientation matrices are
ignored (a warning is logged when one is present).

Label maps, the raw ``labels`` kind and NIfTI read with ``kind="labels"``,
must hold integers (after scaling, to within ``LABEL_TOLERANCE``); other
values raise ``IOFormatError`` rather than being rounded.
"""

from __future__ import annotations

import gzip
import json
import logging
import struct
from pathlib import Path

import numpy as np

from .grids import LabelVolume, Volume, _validate_grid

logger = logging.getLogger(__name__)


class IOFormatError(IOError):
    """Base class for file-format problems."""


class MalformedHeaderError(IOFormatError):
    pass


class UnsupportedDatatypeError(IOFormatError):
    pass


class TruncatedPayloadError(IOFormatError):
    pass


LABEL_TOLERANCE = 1e-3   # largest distance of a stored label from an integer


def _integral_labels(data: np.ndarray, path) -> np.ndarray:
    """``data`` rounded to integers, in its own dtype; a value more than
    ``LABEL_TOLERANCE`` from an integer, not finite or negative raises
    ``IOFormatError`` (the tolerance admits integers scaled by a float32
    ``scl_slope``).  ``LabelVolume`` narrows the result."""
    labels = np.rint(data)
    if not (np.abs(data - labels) <= LABEL_TOLERANCE).all():
        raise IOFormatError(f"{path}: non-integral values cannot be labels")
    if labels.min(initial=0) < 0:
        raise IOFormatError(f"{path}: negative values cannot be labels")
    return labels


# ---------------------------------------------------------------- raw format

def _raw_paths(path) -> tuple[Path, Path]:
    base = Path(path)
    if base.suffix in (".f32raw", ".json"):
        base = base.with_suffix("")
    return base.with_suffix(".f32raw"), base.with_suffix(".json")


def write_raw(grid, path) -> None:
    """Write a Volume, LabelVolume, or DisplacementField pair of files."""
    from .warp import DisplacementField

    raw_path, json_path = _raw_paths(path)
    meta = {"dims": list(grid.dims), "spacing": list(grid.spacing)}
    if isinstance(grid, Volume):
        meta["kind"] = "volume"
        payload = grid.data.astype("<f4").tobytes(order="F")
    elif isinstance(grid, LabelVolume):
        meta["kind"] = "labels"
        meta["num_classes"] = grid.num_classes
        payload = grid.labels.astype("<f4").tobytes(order="F")
    elif isinstance(grid, DisplacementField):
        meta["kind"] = "field"
        meta["units"] = "voxels"
        payload = b"".join(grid.u[c].astype("<f4").tobytes(order="F") for c in range(3))
    else:
        raise TypeError(f"write_raw: unsupported type {type(grid).__name__}")
    raw_path.write_bytes(payload)
    json_path.write_text(json.dumps(meta, indent=2) + "\n")


def read_raw(path):
    """Read whatever the sidecar says lives at ``path`` (volume/labels/field)."""
    from .warp import DisplacementField

    raw_path, json_path = _raw_paths(path)
    if not json_path.is_file():
        raise IOFormatError(f"missing sidecar {json_path}")
    if not raw_path.is_file():
        raise IOFormatError(f"missing payload {raw_path}")
    try:
        meta = json.loads(json_path.read_text())
        dims = tuple(int(d) for d in meta["dims"])
        spacing = tuple(float(s) for s in meta["spacing"])
        kind = meta["kind"]
        _validate_grid(dims, spacing, dims, "sidecar")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedHeaderError(f"bad sidecar {json_path}: {exc}") from exc

    nvox = int(np.prod(dims))
    blob = raw_path.read_bytes()
    n_channels = 3 if kind == "field" else 1
    if len(blob) < 4 * nvox * n_channels:
        raise TruncatedPayloadError(
            f"{raw_path}: expected {4 * nvox * n_channels} bytes, found {len(blob)}"
        )
    # channel after channel, each x-fastest: Fortran order on dims + (channels,)
    data = (np.frombuffer(blob, dtype="<f4", count=nvox * n_channels)
            .reshape(dims + (n_channels,), order="F").transpose(3, 0, 1, 2)
            .astype(np.float32, order="C"))

    if kind == "volume":
        return Volume(dims, spacing, data[0])
    if kind == "labels":
        k = int(meta.get("num_classes", data.max()))
        labels = _integral_labels(data[0], raw_path)
        if labels.max(initial=0) > k:
            raise MalformedHeaderError(f"{json_path}: num_classes {k} is below the largest "
                                       f"stored label {int(labels.max())}")
        return LabelVolume(dims, spacing, labels, k)
    if kind == "field":
        return DisplacementField(dims, spacing, data)
    raise MalformedHeaderError(f"{json_path}: unknown kind {kind!r}")


# ------------------------------------------------------------- NIfTI subset

_NIFTI_DTYPES = {2: np.uint8, 4: np.dtype("<i2"), 16: np.dtype("<f4"), 64: np.dtype("<f8")}
_HDR_SIZE = 348


def _read_bytes(path) -> bytes:
    blob = Path(path).read_bytes()
    if blob[:2] == b"\x1f\x8b":
        blob = gzip.decompress(blob)
    return blob


def read_nifti(path, kind: str = "image"):
    """Read a 3D NIfTI-1 file as a Volume (``kind="image"``) or LabelVolume
    (``kind="labels"``); any other kind raises ``ValueError``.

    Raises MalformedHeaderError / UnsupportedDatatypeError /
    TruncatedPayloadError for the respective defects.
    """
    if kind not in ("image", "labels"):
        raise ValueError(f"read_nifti: kind must be 'image' or 'labels', got {kind!r}")
    blob = _read_bytes(path)
    if len(blob) < _HDR_SIZE:
        raise MalformedHeaderError(f"{path}: file shorter than the 348-byte header")
    magic = blob[344:348]
    if magic[:3] not in (b"n+1", b"ni1"):
        raise MalformedHeaderError(f"{path}: magic {magic!r} is not a NIfTI-1 signature")
    sizeof_hdr = struct.unpack_from("<i", blob, 0)[0]
    if sizeof_hdr != _HDR_SIZE:
        raise MalformedHeaderError(f"{path}: sizeof_hdr {sizeof_hdr} != 348")

    dim = struct.unpack_from("<8h", blob, 40)
    if not 1 <= dim[0] <= 7:
        raise MalformedHeaderError(f"{path}: dim[0]={dim[0]} is not in 1..7")
    if any(d != 1 for d in dim[4:dim[0] + 1]):
        raise MalformedHeaderError(f"{path}: only 3D images supported, "
                                   f"dim[1..{dim[0]}] = {dim[1:dim[0] + 1]}")
    # NIfTI-1 ignores the entries past dim[0]
    dims = tuple(dim[i] if i <= dim[0] else 1 for i in (1, 2, 3))
    if min(dims) < 1:
        raise MalformedHeaderError(f"{path}: dim[1..{dim[0]}] = {dim[1:dim[0] + 1]} must be >= 1")

    datatype, bitpix = struct.unpack_from("<2h", blob, 70)
    if datatype not in _NIFTI_DTYPES:
        raise UnsupportedDatatypeError(
            f"{path}: datatype code {datatype} not in {tuple(_NIFTI_DTYPES)}")
    dtype = np.dtype(_NIFTI_DTYPES[datatype])
    if bitpix != dtype.itemsize * 8:
        raise MalformedHeaderError(f"{path}: bitpix {bitpix} inconsistent with datatype {datatype}")

    pixdim = struct.unpack_from("<8f", blob, 76)
    spacing = tuple(p if 0 < p < np.inf else 1.0 for p in pixdim[1:4])
    if spacing != pixdim[1:4]:
        logger.warning("%s: non-positive or non-finite pixdim entries replaced by 1.0", path)

    vox_offset = struct.unpack_from("<f", blob, 108)[0]
    if not vox_offset.is_integer():          # false for NaN and infinities too
        raise MalformedHeaderError(f"{path}: vox_offset {vox_offset} is not a whole byte count")
    vox_offset = int(vox_offset) if vox_offset >= _HDR_SIZE else 352
    slope, inter = struct.unpack_from("<2f", blob, 112)
    scaled = slope != 0 and np.isfinite(slope)
    if scaled and not np.isfinite(inter):
        raise MalformedHeaderError(f"{path}: scl_inter {inter} is not finite")
    qform_code, sform_code = struct.unpack_from("<2h", blob, 252)
    if qform_code > 0 or sform_code > 0:
        logger.warning("%s: orientation matrices present but ignored; spacing only", path)

    nvox = int(np.prod(dims))
    payload = blob[vox_offset:]
    if len(payload) < nvox * dtype.itemsize:
        raise TruncatedPayloadError(
            f"{path}: payload holds {len(payload)} bytes, need {nvox * dtype.itemsize}"
        )
    data = np.frombuffer(payload, dtype=dtype, count=nvox).reshape(dims, order="F")
    # a copy in C order: float64 stays float64, every other payload is exact in float32
    real = np.float64 if dtype == np.float64 else np.float32
    data = data.astype(real, order="C")
    if scaled:
        data *= real(slope)
        data += real(inter)

    if kind == "labels":
        labels = _integral_labels(data, path)
        return LabelVolume(dims, spacing, labels, int(labels.max()))
    return Volume(dims, spacing, data)


def write_nifti(vol: Volume, path) -> None:
    """Write a Volume as single-file float32 NIfTI-1 (gzipped for .gz paths)."""
    hdr = bytearray(_HDR_SIZE)
    struct.pack_into("<i", hdr, 0, _HDR_SIZE)
    struct.pack_into("<8h", hdr, 40, 3, *vol.dims, 1, 1, 1, 1)
    struct.pack_into("<2h", hdr, 70, 16, 32)
    struct.pack_into("<8f", hdr, 76, 1.0, *vol.spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", hdr, 108, 352.0)
    hdr[344:348] = b"n+1\x00"
    blob = bytes(hdr) + b"\x00" * 4 + vol.data.astype("<f4").tobytes(order="F")
    path = Path(path)
    if path.suffix == ".gz":
        path.write_bytes(gzip.compress(blob, mtime=0))
    else:
        path.write_bytes(blob)


# ----------------------------------------------------------------- dispatch

def read_volume(path, kind: str = "auto"):
    """Load a volume or label map, dispatching on the file extension.

    For the raw format the sidecar decides; for NIfTI pass kind="image" or
    "labels" ("auto" means image).  Any other kind raises ``ValueError``.
    """
    if kind not in ("auto", "image", "labels"):
        raise ValueError(f"read_volume: kind must be 'auto', 'image' or 'labels', got {kind!r}")
    p = Path(path)
    name = p.name.lower()
    if name.endswith((".nii", ".nii.gz")):
        return read_nifti(p, "labels" if kind == "labels" else "image")
    if name.endswith((".f32raw", ".json")) or _raw_paths(p)[1].is_file():
        grid = read_raw(p)
        if kind == "labels" and isinstance(grid, Volume):
            raise IOFormatError(f"{path}: sidecar says volume, labels requested")
        if kind == "image" and isinstance(grid, LabelVolume):
            raise IOFormatError(f"{path}: sidecar says labels, image requested")
        return grid
    raise IOFormatError(f"{path}: unrecognized format (expect .f32raw/.json or .nii[.gz])")


def write_volume(grid, path) -> None:
    """Write to the format implied by the extension (.nii[.gz] or raw)."""
    name = Path(path).name.lower()
    if name.endswith((".nii", ".nii.gz")):
        if not isinstance(grid, Volume):
            raise TypeError("write_volume: NIfTI output implemented for intensity volumes only")
        write_nifti(grid, path)
    else:
        write_raw(grid, path)
