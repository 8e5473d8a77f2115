import gzip
import json
import struct

import numpy as np
import pytest

from protoreg.grids import LabelVolume, Volume
from protoreg.io import (
    IOFormatError,
    MalformedHeaderError,
    TruncatedPayloadError,
    UnsupportedDatatypeError,
    read_nifti,
    read_raw,
    read_volume,
    write_nifti,
    write_raw,
)
from protoreg.warp import DisplacementField


def test_raw_roundtrip_volume_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.normal(size=(8, 8, 8)).astype(np.float32).astype(np.float64)
    vol = Volume((8, 8, 8), (1.0, 1.5, 2.0), data)
    write_raw(vol, tmp_path / "vol")
    back = read_volume(tmp_path / "vol.f32raw")
    assert isinstance(back, Volume)
    assert back.data.dtype == np.float32
    assert back.dims == vol.dims
    assert back.spacing == vol.spacing
    assert np.array_equal(back.data, vol.data)


def test_raw_roundtrip_labels(tmp_path):
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 4, size=(5, 4, 3))
    lv = LabelVolume((5, 4, 3), (1, 1, 1), labels, 3)
    write_raw(lv, tmp_path / "seg")
    back = read_raw(tmp_path / "seg")
    assert isinstance(back, LabelVolume)
    assert back.num_classes == 3
    assert back.labels.dtype == np.uint8
    assert np.array_equal(back.labels, lv.labels)


def test_raw_labels_reject_non_integral_values(tmp_path):
    write_raw(LabelVolume((2, 2, 2), (1, 1, 1), np.zeros((2, 2, 2)), 3), tmp_path / "seg")
    payload = np.array([0, 1.4, 2.6, 0, 1, 2, 0, 1], dtype="<f4")
    (tmp_path / "seg.f32raw").write_bytes(payload.tobytes())
    with pytest.raises(IOFormatError, match="non-integral"):
        read_raw(tmp_path / "seg")


def test_raw_labels_reject_a_sidecar_below_the_largest_label(tmp_path):
    write_raw(LabelVolume((3, 1, 1), (1, 1, 1), [[[0]], [[1]], [[2]]], 2), tmp_path / "seg")
    sidecar = tmp_path / "seg.json"
    meta = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps(meta | {"num_classes": 1}))
    with pytest.raises(MalformedHeaderError, match="num_classes 1"):
        read_raw(tmp_path / "seg")


def test_raw_labels_reject_negative_values(tmp_path):
    write_raw(LabelVolume((2, 1, 1), (1, 1, 1), np.zeros((2, 1, 1)), 1), tmp_path / "seg")
    (tmp_path / "seg.f32raw").write_bytes(np.array([0, -1], dtype="<f4").tobytes())
    with pytest.raises(IOFormatError, match="negative"):
        read_raw(tmp_path / "seg")


def test_raw_roundtrip_field(tmp_path):
    rng = np.random.default_rng(2)
    u = rng.normal(size=(3, 4, 4, 4)).astype(np.float32).astype(np.float64)
    field = DisplacementField((4, 4, 4), (1, 1, 1), u)
    write_raw(field, tmp_path / "field")
    back = read_raw(tmp_path / "field")
    assert isinstance(back, DisplacementField)
    assert back.u.dtype == np.float32
    assert np.array_equal(back.u, field.u)


def test_raw_field_rejects_a_non_positive_spacing(tmp_path):
    write_raw(DisplacementField.zeros((2, 2, 2)), tmp_path / "field")
    meta = json.loads((tmp_path / "field.json").read_text())
    (tmp_path / "field.json").write_text(json.dumps(meta | {"spacing": [0, 0, -2]}))
    with pytest.raises(MalformedHeaderError, match="spacing"):
        read_raw(tmp_path / "field")


@pytest.mark.parametrize("geometry", [{"dims": [-4, 3, 2]}, {"dims": [0, 3, 2]},
                                      {"dims": [4, 3]}, {"spacing": [0, 1, 1]},
                                      {"spacing": [1, float("nan"), 1]}],
                         ids=["negative_dim", "zero_dim", "two_dims", "zero_spacing",
                              "nan_spacing"])
def test_raw_rejects_a_malformed_sidecar_geometry(tmp_path, geometry):
    write_raw(Volume((4, 3, 2), (1, 1, 1), np.zeros((4, 3, 2))), tmp_path / "v")
    meta = json.loads((tmp_path / "v.json").read_text())
    (tmp_path / "v.json").write_text(json.dumps(meta | geometry))
    with pytest.raises(MalformedHeaderError, match="dims" if "dims" in geometry else "spacing"):
        read_raw(tmp_path / "v")


def test_reads_return_c_ordered_arrays(tmp_path):
    # the payloads are x-fastest; every read is held in C order
    data = np.arange(24.0).reshape(4, 3, 2)
    write_raw(Volume(data.shape, (1, 1, 1), data), tmp_path / "v")
    write_raw(LabelVolume(data.shape, (1, 1, 1), data % 3, 2), tmp_path / "seg")
    write_raw(DisplacementField(data.shape, (1, 1, 1), np.stack([data] * 3)), tmp_path / "u")
    write_nifti(Volume(data.shape, (1, 1, 1), data), tmp_path / "v.nii")
    arrays = [read_raw(tmp_path / "v").data, read_raw(tmp_path / "seg").labels,
              read_raw(tmp_path / "u").u, read_nifti(tmp_path / "v.nii").data,
              read_nifti(tmp_path / "v.nii", kind="labels").labels]
    for array, want in zip(arrays, [data, data % 3, np.stack([data] * 3), data, data]):
        assert array.flags.c_contiguous and np.array_equal(array, want)


def test_raw_payload_layout_is_x_fastest(tmp_path):
    data = np.arange(8, dtype=np.float64).reshape(2, 2, 2)
    write_raw(Volume((2, 2, 2), (1, 1, 1), data), tmp_path / "v")
    flat = np.frombuffer((tmp_path / "v.f32raw").read_bytes(), dtype="<f4")
    # index (x, y, z) -> flat (z*ny + y)*nx + x
    assert flat[1] == data[1, 0, 0]
    assert flat[2] == data[0, 1, 0]
    assert flat[4] == data[0, 0, 1]


def test_raw_truncated_payload(tmp_path):
    vol = Volume((4, 4, 4), (1, 1, 1), np.zeros((4, 4, 4)))
    write_raw(vol, tmp_path / "v")
    blob = (tmp_path / "v.f32raw").read_bytes()
    (tmp_path / "v.f32raw").write_bytes(blob[:-8])
    with pytest.raises(TruncatedPayloadError):
        read_raw(tmp_path / "v")


def _build_nifti_int16(dims, spacing, values, magic=b"n+1\x00", datatype=4, bitpix=16,
                       payload_trim=0, slope=0.0, inter=0.0):
    """Hand-assembled NIfTI-1 bytes, offsets straight from the header layout."""
    hdr = bytearray(348)
    struct.pack_into("<i", hdr, 0, 348)
    struct.pack_into("<8h", hdr, 40, 3, *dims, 1, 1, 1, 1)
    struct.pack_into("<2h", hdr, 70, datatype, bitpix)
    struct.pack_into("<8f", hdr, 76, 1.0, *spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", hdr, 108, 352.0)
    struct.pack_into("<2f", hdr, 112, slope, inter)
    hdr[344:348] = magic
    payload = b"".join(struct.pack("<h", v) for v in values)
    if payload_trim:
        payload = payload[:-payload_trim]
    return bytes(hdr) + b"\x00" * 4 + payload


def test_nifti_int16_fixture_exact(tmp_path):
    # values laid out x-fastest: index (x,y,z) -> 4z + 2y + x
    values = [10, -3, 7, 0, 250, -32768, 32767, 42]
    blob = _build_nifti_int16((2, 2, 2), (1.5, 2.0, 2.5), values)
    path = tmp_path / "small.nii"
    path.write_bytes(blob)
    vol = read_nifti(path)
    assert vol.dims == (2, 2, 2)
    assert vol.spacing == (1.5, 2.0, 2.5)
    assert vol.data[1, 0, 0] == -3.0
    assert vol.data[0, 1, 0] == 7.0
    assert vol.data[0, 0, 1] == 250.0
    assert vol.data[1, 1, 1] == 42.0


def test_nifti_scaling_applied(tmp_path):
    values = [10, -3, 7, 0, 250, -32768, 32767, 42]
    path = tmp_path / "scaled.nii"
    path.write_bytes(_build_nifti_int16((2, 2, 2), (1, 1, 1), values, slope=0.5, inter=-10.0))
    vol = read_nifti(path)
    stored = np.array(values, dtype=np.float64).reshape((2, 2, 2), order="F")
    assert np.array_equal(vol.data, stored * 0.5 - 10.0)
    assert vol.data[1, 0, 0] == -11.5


def test_nifti_zero_slope_means_unscaled(tmp_path):
    values = [10, -3, 7, 0, 250, -32768, 32767, 42]
    path = tmp_path / "unscaled.nii"
    path.write_bytes(_build_nifti_int16((2, 2, 2), (1, 1, 1), values, slope=0.0, inter=-10.0))
    vol = read_nifti(path)
    assert np.array_equal(vol.data, np.array(values, dtype=np.float64).reshape((2, 2, 2), order="F"))


def test_nifti_scaling_applies_to_labels(tmp_path):
    # labels stored as 2*label - 1 with slope 0.5 and intercept 0.5
    path = tmp_path / "labels.nii"
    path.write_bytes(_build_nifti_int16((2, 2, 2), (1, 1, 1), [-1, 1, 3, -1, 1, 3, -1, 1],
                                        slope=0.5, inter=0.5))
    lv = read_nifti(path, kind="labels")
    assert lv.num_classes == 2
    assert np.array_equal(lv.labels.ravel(order="F"), [0, 1, 2, 0, 1, 2, 0, 1])


def test_nifti_nonfinite_intercept_rejected(tmp_path):
    path = tmp_path / "nan_inter.nii"
    path.write_bytes(_build_nifti_int16((2, 2, 2), (1, 1, 1), [0] * 8, slope=1.0,
                                        inter=float("nan")))
    with pytest.raises(MalformedHeaderError):
        read_nifti(path)


def _nifti_payload_bytes(values, datatype, dtype, slope=0.0, inter=0.0):
    """A 2x2x2 NIfTI-1 file holding ``values`` x-fastest as ``dtype``."""
    bitpix = np.dtype(dtype).itemsize * 8
    hdr = _build_nifti_int16((2, 2, 2), (1, 1, 1), [], datatype=datatype, bitpix=bitpix,
                             slope=slope, inter=inter)
    return hdr + np.asarray(values).astype(dtype).tobytes()


# payload -> (datatype code, stored dtype, values, dtype read); the values
# other than float64 are exact in float32, and so are their scaled values
PAYLOADS = {
    "uint8": (2, "<u1", [10, 3, 7, 0, 250, 255, 1, 42], np.float32),
    "int16": (4, "<i2", [10, -3, 7, 0, 250, -32768, 32767, 42], np.float32),
    "float32": (16, "<f4", [0.25, -2.5, 0.75, 0.0, 1024.5, 7.0, -1.0, 3.0], np.float32),
    "float64": (64, "<f8", [0.1, -2.5e300, 1.0 / 3.0, 0.0, 5e-324, 7.0, -1.0, 2.0 ** 60],
                np.float64),
}


def test_nifti_float64_exact(tmp_path):
    values = np.array([0.1, -2.5e300, 1.0 / 3.0, 0.0, 5e-324, 7.0, -1.0, 2.0 ** 60])
    hdr = bytearray(_build_nifti_int16((2, 2, 2), (1.0, 1.0, 1.0), [], datatype=64, bitpix=64))
    path = tmp_path / "f64.nii"
    path.write_bytes(bytes(hdr) + values.astype("<f8").tobytes())
    vol = read_nifti(path)
    assert np.array_equal(vol.data, values.reshape((2, 2, 2), order="F"))


@pytest.mark.parametrize("scaling", [(0.0, 0.0), (0.5, -10.0)], ids=["unscaled", "scaled"])
@pytest.mark.parametrize("payload", sorted(PAYLOADS))
def test_nifti_payloads_read_as_float32_unless_float64(tmp_path, payload, scaling):
    # scaled in the dtype read
    datatype, dtype, values, read = PAYLOADS[payload]
    slope, inter = scaling
    path = tmp_path / f"{payload}.nii"
    path.write_bytes(_nifti_payload_bytes(values, datatype, dtype, slope, inter))
    vol = read_nifti(path)
    stored = np.array(values, dtype=np.float64).reshape((2, 2, 2), order="F")
    assert vol.data.dtype == read
    assert np.array_equal(vol.data, stored * slope + inter if slope else stored)


@pytest.mark.parametrize("payload", sorted(PAYLOADS))
def test_nifti_label_payloads_read_as_uint8_labels(tmp_path, payload):
    datatype, dtype, _, _ = PAYLOADS[payload]
    path = tmp_path / f"{payload}_labels.nii"
    path.write_bytes(_nifti_payload_bytes([0, 1, 2, 0, 3, 2, 0, 1], datatype, dtype))
    lv = read_nifti(path, kind="labels")
    assert lv.num_classes == 3 and lv.labels.dtype == np.uint8
    assert np.array_equal(lv.labels.ravel(order="F"), [0, 1, 2, 0, 3, 2, 0, 1])


def test_nifti_bad_magic(tmp_path):
    blob = _build_nifti_int16((2, 2, 2), (1, 1, 1), [0] * 8, magic=b"bad\x00")
    path = tmp_path / "bad.nii"
    path.write_bytes(blob)
    with pytest.raises(MalformedHeaderError):
        read_nifti(path)


def test_nifti_unsupported_datatype(tmp_path):
    blob = _build_nifti_int16((2, 2, 2), (1, 1, 1), [0] * 8, datatype=8, bitpix=32)
    path = tmp_path / "int32.nii"
    path.write_bytes(blob)
    with pytest.raises(UnsupportedDatatypeError):
        read_nifti(path)


def test_nifti_truncated_payload(tmp_path):
    blob = _build_nifti_int16((2, 2, 2), (1, 1, 1), [0] * 8, payload_trim=4)
    path = tmp_path / "short.nii"
    path.write_bytes(blob)
    with pytest.raises(TruncatedPayloadError):
        read_nifti(path)


def test_nifti_rejects_a_non_positive_dim(tmp_path):
    path = tmp_path / "negative_dim.nii"
    path.write_bytes(_build_nifti_int16((-4, 3, 2), (1, 1, 1), range(24)))
    with pytest.raises(MalformedHeaderError, match="dim"):
        read_nifti(path)


def test_nifti_ignores_dims_past_dim0(tmp_path):
    # dim[0] = 2 with a stale dim[3] = 2: a 4 x 3 image, one slice deep
    blob = bytearray(_build_nifti_int16((4, 3, 2), (1, 1, 1), range(24)))
    struct.pack_into("<h", blob, 40, 2)
    path = tmp_path / "2d.nii"
    path.write_bytes(bytes(blob))
    vol = read_nifti(path)
    assert vol.dims == (4, 3, 1)
    assert np.array_equal(vol.data[:, :, 0], np.arange(12.0).reshape((4, 3), order="F"))


@pytest.mark.parametrize("trailing", [(1,), (1, 1), (1, 1, 1, 1)])
def test_nifti_reads_a_3d_image_with_trailing_singleton_dims(tmp_path, trailing):
    # a 3D image stored as a one-volume 4D series, and as 5D and 7D headers
    blob = bytearray(_build_nifti_int16((4, 3, 2), (1, 1, 1), range(24)))
    struct.pack_into("<h", blob, 40, 3 + len(trailing))
    struct.pack_into(f"<{len(trailing)}h", blob, 48, *trailing)
    path = tmp_path / "series.nii"
    path.write_bytes(bytes(blob))
    vol = read_nifti(path)
    assert vol.dims == (4, 3, 2)
    assert np.array_equal(vol.data, np.arange(24.0).reshape((4, 3, 2), order="F"))


@pytest.mark.parametrize("ndim,trailing", [(4, (2,)), (5, (1, 3)), (8, (1, 1, 1, 1))])
def test_nifti_rejects_dims_past_the_third_that_are_not_1(tmp_path, ndim, trailing):
    # two volumes of a series, a 5D vector field (dim[5] = 3), and dim[0] = 8
    blob = bytearray(_build_nifti_int16((4, 3, 2), (1, 1, 1), range(48)))
    struct.pack_into("<h", blob, 40, ndim)
    struct.pack_into(f"<{len(trailing)}h", blob, 48, *trailing)
    path = tmp_path / "nd.nii"
    path.write_bytes(bytes(blob))
    match = r"dim\[0\]=8" if ndim == 8 else rf"dim\[1\.\.{ndim}\] = \(4, 3, 2, {trailing[0]}"
    with pytest.raises(MalformedHeaderError, match=match):
        read_nifti(path)


@pytest.mark.parametrize("offset", [float("nan"), float("inf"), float("-inf"), 352.7, 347.5])
def test_nifti_rejects_a_vox_offset_that_is_not_a_whole_byte_count(tmp_path, offset):
    # NaN used to raise a bare ValueError, an infinity OverflowError, and
    # 352.7 was truncated to 352
    blob = bytearray(_build_nifti_int16((2, 2, 2), (1, 1, 1), range(8)))
    struct.pack_into("<f", blob, 108, offset)
    path = tmp_path / "offset.nii"
    path.write_bytes(bytes(blob))
    with pytest.raises(MalformedHeaderError, match=f"vox_offset {offset}"):
        read_nifti(path)


@pytest.mark.parametrize("offset", [0.0, 347.0, -4.0])
def test_nifti_reads_a_vox_offset_inside_the_header_as_352(tmp_path, offset):
    blob = bytearray(_build_nifti_int16((2, 2, 2), (1, 1, 1), range(8)))
    struct.pack_into("<f", blob, 108, offset)
    path = tmp_path / "offset.nii"
    path.write_bytes(bytes(blob))
    assert np.array_equal(read_nifti(path).data, np.arange(8.0).reshape((2, 2, 2), order="F"))


def test_nifti_write_read_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    data = rng.normal(size=(3, 4, 5)).astype(np.float32).astype(np.float64)
    vol = Volume((3, 4, 5), (1.0, 1.0, 3.0), data)
    write_nifti(vol, tmp_path / "a.nii")
    back = read_nifti(tmp_path / "a.nii")
    assert np.array_equal(back.data, vol.data)
    assert back.spacing == (1.0, 1.0, 3.0)


def test_nifti_gzip_roundtrip(tmp_path):
    vol = Volume((2, 3, 2), (1, 1, 1), np.arange(12, dtype=np.float64).reshape(2, 3, 2))
    write_nifti(vol, tmp_path / "a.nii.gz")
    raw = (tmp_path / "a.nii.gz").read_bytes()
    assert raw[:2] == b"\x1f\x8b"
    back = read_nifti(tmp_path / "a.nii.gz")
    assert np.array_equal(back.data, vol.data)


def test_nifti_labels_kind(tmp_path):
    blob = _build_nifti_int16((2, 2, 2), (1, 1, 1), [0, 1, 2, 0, 1, 2, 0, 1])
    path = tmp_path / "labels.nii"
    path.write_bytes(blob)
    lv = read_nifti(path, kind="labels")
    assert isinstance(lv, LabelVolume)
    assert lv.num_classes == 2


def test_nifti_labels_reject_non_integral_values(tmp_path):
    data = np.zeros((2, 2, 2))
    data[1, 0, 0], data[0, 1, 0] = 1.4, 2.6
    write_nifti(Volume((2, 2, 2), (1, 1, 1), data), tmp_path / "soft.nii")
    with pytest.raises(IOFormatError, match="non-integral"):
        read_nifti(tmp_path / "soft.nii", kind="labels")


def test_nifti_labels_reject_negative_values(tmp_path):
    path = tmp_path / "negative.nii"
    path.write_bytes(_build_nifti_int16((2, 2, 2), (1, 1, 1), [0, -1] * 4))
    with pytest.raises(IOFormatError, match="negative"):
        read_nifti(path, kind="labels")


def test_nifti_labels_accept_integers_scaled_by_a_float32_slope(tmp_path):
    # 10 * float32(0.1) is 1.0000000149: integral to within the tolerance
    path = tmp_path / "tenths.nii"
    path.write_bytes(_build_nifti_int16((2, 2, 2), (1, 1, 1), [0, 10, 20, 30] * 2, slope=0.1))
    lv = read_nifti(path, kind="labels")
    assert np.array_equal(lv.labels.ravel(order="F"), [0, 1, 2, 3] * 2)


def test_nifti_orientation_warning(tmp_path, caplog):
    blob = bytearray(_build_nifti_int16((2, 2, 2), (1, 1, 1), [0] * 8))
    struct.pack_into("<2h", blob, 252, 1, 0)  # qform_code = 1
    path = tmp_path / "oriented.nii"
    path.write_bytes(bytes(blob))
    import logging

    with caplog.at_level(logging.WARNING, logger="protoreg.io"):
        read_nifti(path)
    assert any("orientation" in rec.message for rec in caplog.records)


def test_nifti_replaces_an_infinite_pixdim(tmp_path, caplog):
    # like a non-positive one: a grid's spacing must be finite
    path = tmp_path / "inf_pixdim.nii"
    path.write_bytes(_build_nifti_int16((2, 2, 2), (1.5, np.inf, 2.0), [0] * 8))
    import logging

    with caplog.at_level(logging.WARNING, logger="protoreg.io"):
        assert read_nifti(path).spacing == (1.5, 1.0, 2.0)
    assert any("pixdim" in rec.message for rec in caplog.records)


def test_reads_reject_an_unknown_kind(tmp_path):
    # "label" for "labels" would read a NIfTI label map as a float Volume,
    # and a raw file would ignore it
    write_nifti(Volume((2, 2, 2), (1, 1, 1), np.ones((2, 2, 2))), tmp_path / "v.nii")
    write_raw(Volume((2, 2, 2), (1, 1, 1), np.ones((2, 2, 2))), tmp_path / "v")
    for path in (tmp_path / "v.nii", tmp_path / "v.f32raw"):
        with pytest.raises(ValueError, match="'auto', 'image' or 'labels', got 'label'"):
            read_volume(path, "label")
    for kind in ("label", "auto"):
        with pytest.raises(ValueError, match=f"'image' or 'labels', got '{kind}'"):
            read_nifti(tmp_path / "v.nii", kind)


def test_read_volume_unknown_extension(tmp_path):
    path = tmp_path / "mystery.xyz"
    path.write_text("nope")
    with pytest.raises(IOError):
        read_volume(path)
