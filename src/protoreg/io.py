"""File I/O: NIfTI-1 for every grid, and a raw format for label maps.

``write_volume`` writes a ``.nii``/``.nii.gz`` path as one NIfTI-1 file
(gzipped for ``.gz``): a ``Volume`` as float32, a ``LabelVolume`` as uint8
(int16 past 255 classes), a ``warp.DisplacementField`` as a float32 vector
image.  Other paths get the raw format, label maps only, kept while the
benchmark's label inputs are written in it: ``<name>.f32raw`` holds the
labels as x-fastest little-endian float32, ``<name>.json`` the sidecar
``{dims, spacing, kind: "labels", num_classes}``.

A field has dim (5, nx, ny, nz, 1, 3, 1, 1), intent_code 1007
(NIFTI_INTENT_VECTOR), x fastest and the component slowest: the layout ITK
and ANTs write.  An ITK or ANTs reader must be told its units and sign:
voxels along the grid axes, and a pull-back, out(p) = moving(p + u(p)).  A
float64 field is rounded once to float32.  ``read_nifti`` knows a field by
its header (intent 1007, dim[4] = 1, dim[5] = 3) and never reads it as labels.

Reads return C order (:mod:`protoreg.grids`) in their one copy and keep the
stored precision: float64 stays float64, and every other payload reads
exactly as float32, the dtype scaling runs in.  Label maps are held in
``LabelVolume``'s narrow unsigned type; a value not an integer (after
scaling, to within ``LABEL_TOLERANCE``) raises ``IOFormatError``.

NIfTI-1 subset: 348-byte header, magic "n+1" (the two-file "ni1" form, a
``.hdr`` beside an ``.img``, raises), datatypes uint8/int16/float32/float64,
optional gzip, up to 7 dims when each past the third is 1 (a one-volume 4D
series) or a field's dim[5].  Dims, pixdim and the scaling
``scl_slope * stored + scl_inter`` (for a non-zero, finite slope) are
honored; orientation matrices are ignored, with a warning.
"""

from __future__ import annotations

import gzip
import json
import logging
import struct
from pathlib import Path

import numpy as np

from .grids import LabelVolume, Volume, _is_integer, _validate_grid
from .warp import DisplacementField

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


def _payload(blob: bytes, dtype: np.dtype, dims: tuple, channels: int, path) -> np.ndarray:
    """(channels, *dims) in C order from an x-fastest payload holding one
    channel after another: float64 stays float64, the rest read as float32."""
    count = int(np.prod(dims)) * channels
    if len(blob) < count * dtype.itemsize:
        raise TruncatedPayloadError(
            f"{path}: payload holds {len(blob)} bytes, need {count * dtype.itemsize}")
    real = np.float64 if dtype == np.float64 else np.float32
    return (np.frombuffer(blob, dtype=dtype, count=count)
            .reshape(dims + (channels,), order="F").transpose(3, 0, 1, 2)
            .astype(real, order="C"))


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


def write_raw(labels: LabelVolume, path) -> None:
    """Write a LabelVolume as the raw pair of files; any other grid raises
    ``TypeError`` (``write_nifti`` writes every grid)."""
    if not isinstance(labels, LabelVolume):
        raise TypeError(f"write_raw: the raw format holds label maps only, "
                        f"got {type(labels).__name__}")
    raw_path, json_path = _raw_paths(path)
    meta = {"dims": list(labels.dims), "spacing": list(labels.spacing), "kind": "labels",
            "num_classes": labels.num_classes}
    raw_path.write_bytes(labels.labels.astype("<f4").tobytes(order="F"))
    json_path.write_text(json.dumps(meta, indent=2) + "\n")


def read_raw(path) -> LabelVolume:
    """Read the raw label map at ``path``; a sidecar whose kind is not
    "labels" raises ``MalformedHeaderError``."""
    raw_path, json_path = _raw_paths(path)
    for part in (json_path, raw_path):
        if not part.is_file():
            raise IOFormatError(f"missing {part}")
    try:
        meta = json.loads(json_path.read_text())
        dims, spacing = _validate_grid(meta["dims"], meta["spacing"], meta["dims"], "sidecar")
        if meta["kind"] != "labels":
            raise ValueError(f"kind {meta['kind']!r}; the raw format holds label maps only")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedHeaderError(f"bad sidecar {json_path}: {exc}") from exc

    data = _payload(raw_path.read_bytes(), np.dtype("<f4"), dims, 1, raw_path)[0]
    labels = _integral_labels(data, raw_path)
    k = meta.get("num_classes", int(labels.max(initial=0)))
    if not _is_integer(k) or labels.max(initial=0) > k:
        raise MalformedHeaderError(f"{json_path}: num_classes {k!r} is not an integer at or "
                                   f"above the largest stored label {int(labels.max())}")
    return LabelVolume(dims, spacing, labels, k)


# ------------------------------------------------------------- NIfTI subset

_NIFTI_DTYPES = {2: np.uint8, 4: np.dtype("<i2"), 16: np.dtype("<f4"), 64: np.dtype("<f8")}
_HDR_SIZE = 348
_INTENT_VECTOR = 1007     # NIFTI_INTENT_VECTOR


def read_nifti(path, kind: str = "image"):
    """Read a NIfTI-1 file as a Volume (``kind="image"``) or LabelVolume
    (``kind="labels"``), or a vector header as a DisplacementField; any
    other kind raises ``ValueError``, and a defect its ``IOFormatError``."""
    if kind not in ("image", "labels"):
        raise ValueError(f"read_nifti: kind must be 'image' or 'labels', got {kind!r}")
    blob = Path(path).read_bytes()
    if blob[:2] == b"\x1f\x8b":
        blob = gzip.decompress(blob)
    if len(blob) < _HDR_SIZE:
        raise MalformedHeaderError(f"{path}: file shorter than the 348-byte header")
    magic = blob[344:348]
    if magic[:3] != b"n+1":
        raise MalformedHeaderError(f"{path}: magic {magic!r} is not 'n+1', the one-file "
                                   f"NIfTI-1 (the two-file 'ni1' form is not supported)")
    sizeof_hdr = struct.unpack_from("<i", blob, 0)[0]
    if sizeof_hdr != _HDR_SIZE:
        raise MalformedHeaderError(f"{path}: sizeof_hdr {sizeof_hdr} != 348")

    dim = struct.unpack_from("<8h", blob, 40)
    if not 1 <= dim[0] <= 7:
        raise MalformedHeaderError(f"{path}: dim[0]={dim[0]} is not in 1..7")
    past_third = dim[4:dim[0] + 1]
    intent = struct.unpack_from("<h", blob, 68)[0]
    vector = intent == _INTENT_VECTOR and past_third[:2] == (1, 3)
    if any(d != 1 for d in (past_third[2:] if vector else past_third)):
        raise MalformedHeaderError(f"{path}: only 3D images and vector fields supported, "
                                   f"dim[1..{dim[0]}] = {dim[1:dim[0] + 1]}")
    if vector and kind == "labels":
        raise IOFormatError(f"{path}: a vector (displacement field) file cannot be read as labels")
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
    if max(struct.unpack_from("<2h", blob, 252)) > 0:    # qform_code, sform_code
        logger.warning("%s: orientation matrices present but ignored; spacing only", path)

    data = _payload(blob[vox_offset:], dtype, dims, 3 if vector else 1, path)
    if scaled:
        data *= data.dtype.type(slope)
        data += data.dtype.type(inter)

    if vector:
        return DisplacementField(dims, spacing, data)
    if kind == "labels":
        labels = _integral_labels(data[0], path)
        return LabelVolume(dims, spacing, labels, int(labels.max()))
    return Volume(dims, spacing, data[0])


def write_nifti(grid, path) -> None:
    """Write a Volume (float32), LabelVolume (uint8, int16 past 255 classes)
    or DisplacementField (a float32 vector image) as single-file NIfTI-1,
    gzipped for .gz paths; see the module docstring for the field's layout."""
    if not isinstance(grid, (Volume, LabelVolume, DisplacementField)):
        raise TypeError(f"write_nifti: unsupported type {type(grid).__name__}")
    dim, intent = (3, *grid.dims, 1, 1, 1, 1), 0
    if isinstance(grid, Volume):
        data, datatype = grid.data, 16
    elif isinstance(grid, LabelVolume):
        if grid.num_classes > np.iinfo(np.int16).max:
            raise ValueError(f"write_nifti: {grid.num_classes} classes exceed int16")
        data, datatype = grid.labels, 2 if grid.num_classes <= 255 else 4
    else:
        # x fastest, the component slowest: Fortran order on (nx, ny, nz, 3)
        data, datatype = grid.u.transpose(1, 2, 3, 0), 16
        dim, intent = (5, *grid.dims, 1, 3, 1, 1), _INTENT_VECTOR
    dtype = np.dtype(_NIFTI_DTYPES[datatype])
    hdr = bytearray(_HDR_SIZE)
    struct.pack_into("<i", hdr, 0, _HDR_SIZE)
    struct.pack_into("<8h", hdr, 40, *dim)
    struct.pack_into("<3h", hdr, 68, intent, datatype, dtype.itemsize * 8)
    struct.pack_into("<8f", hdr, 76, 1.0, *grid.spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", hdr, 108, 352.0)
    hdr[344:348] = b"n+1\x00"
    blob = bytes(hdr) + b"\x00" * 4 + data.astype(dtype).tobytes(order="F")
    path = Path(path)
    path.write_bytes(gzip.compress(blob, mtime=0) if path.suffix == ".gz" else blob)


# ----------------------------------------------------------------- dispatch

def read_volume(path, kind: str = "auto"):
    """Load a grid, dispatching on the file extension.  NIfTI: a LabelVolume
    for ``kind="labels"``, else a Volume, or a DisplacementField from a vector
    header.  Raw: a LabelVolume; ``kind="image"`` raises ``IOFormatError``.
    Any other kind raises ``ValueError``."""
    if kind not in ("auto", "image", "labels"):
        raise ValueError(f"read_volume: kind must be 'auto', 'image' or 'labels', got {kind!r}")
    name = Path(path).name.lower()
    if name.endswith((".nii", ".nii.gz")):
        return read_nifti(path, "labels" if kind == "labels" else "image")
    if name.endswith((".f32raw", ".json")) or _raw_paths(path)[1].is_file():
        if kind == "image":
            raise IOFormatError(f"{path}: the raw format holds label maps only, image requested")
        return read_raw(path)
    raise IOFormatError(f"{path}: unrecognized format (expect .f32raw/.json or .nii[.gz])")


def write_volume(grid, path) -> None:
    """Write ``grid`` as NIfTI to a .nii or .nii.gz path (``write_nifti``),
    else in the raw format, which takes a LabelVolume only."""
    name = Path(path).name.lower()
    (write_nifti if name.endswith((".nii", ".nii.gz")) else write_raw)(grid, path)
