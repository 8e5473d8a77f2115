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
    write_volume,
)
from protoreg.warp import DisplacementField


def test_nifti_roundtrip_volume_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.normal(size=(8, 8, 8)).astype(np.float32).astype(np.float64)
    vol = Volume((8, 8, 8), (1.0, 1.5, 2.0), data)
    write_volume(vol, tmp_path / "vol.nii")
    back = read_volume(tmp_path / "vol.nii")
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


def test_nifti_roundtrip_field(tmp_path):
    # a float32 vector image: dim (5, nx, ny, nz, 1, 3, 1, 1), intent 1007,
    # x fastest and the component slowest
    u = np.random.default_rng(2).normal(size=(3, 4, 3, 2)).astype(np.float32)
    field = DisplacementField((4, 3, 2), (1.0, 1.5, 2.0), u)
    for name in ("field.nii", "field.nii.gz"):
        write_volume(field, tmp_path / name)
        back = read_volume(tmp_path / name)
        assert isinstance(back, DisplacementField)
        assert back.u.dtype == np.float32 and back.u.flags.c_contiguous
        assert back.dims == (4, 3, 2) and back.spacing == (1.0, 1.5, 2.0)
        assert np.array_equal(back.u, u)
        blob = gzip.decompress((tmp_path / name).read_bytes()) if name.endswith(".gz") \
            else (tmp_path / name).read_bytes()
        assert struct.unpack_from("<8h", blob, 40) == (5, 4, 3, 2, 1, 3, 1, 1)
        assert struct.unpack_from("<3h", blob, 68) == (1007, 16, 32)
        payload = np.frombuffer(blob, dtype="<f4", offset=352)
        assert payload.size == u.size
        assert payload[1] == u[0, 1, 0, 0] and payload[4] == u[0, 0, 1, 0]
        assert payload[4 * 3 * 2] == u[1, 0, 0, 0]


def test_nifti_field_rounds_float64_once_to_float32(tmp_path):
    u = np.random.default_rng(4).normal(size=(3, 2, 2, 2))
    write_nifti(DisplacementField((2, 2, 2), (1, 1, 1), u), tmp_path / "field.nii")
    back = read_nifti(tmp_path / "field.nii")
    assert back.u.dtype == np.float32 and np.array_equal(back.u, u.astype(np.float32))


def test_nifti_field_replaces_a_non_positive_spacing(tmp_path, caplog):
    # as for an image: the reader replaces the pixdim rather than rejecting it
    write_nifti(DisplacementField.zeros((2, 2, 2)), tmp_path / "field.nii")
    blob = bytearray((tmp_path / "field.nii").read_bytes())
    struct.pack_into("<3f", blob, 80, 0.0, 0.0, -2.0)
    (tmp_path / "field.nii").write_bytes(bytes(blob))
    import logging

    with caplog.at_level(logging.WARNING, logger="protoreg.io"):
        back = read_nifti(tmp_path / "field.nii")
    assert isinstance(back, DisplacementField) and back.spacing == (1.0, 1.0, 1.0)
    assert any("pixdim" in rec.message for rec in caplog.records)


@pytest.mark.parametrize("num_classes, datatype, dtype", [(3, 2, "<u1"), (300, 4, "<i2")])
def test_nifti_label_map_roundtrip(tmp_path, num_classes, datatype, dtype):
    labels = np.random.default_rng(6).integers(0, num_classes + 1, size=(5, 4, 3))
    labels[0, 0, 0] = num_classes
    write_volume(LabelVolume((5, 4, 3), (1.0, 2.0, 1.0), labels, num_classes),
                 tmp_path / "seg.nii.gz")
    blob = gzip.decompress((tmp_path / "seg.nii.gz").read_bytes())
    assert struct.unpack_from("<2h", blob, 70) == (datatype, np.dtype(dtype).itemsize * 8)
    assert np.array_equal(np.frombuffer(blob, dtype=dtype, offset=352),
                          labels.ravel(order="F"))
    back = read_volume(tmp_path / "seg.nii.gz", "labels")
    assert isinstance(back, LabelVolume) and back.num_classes == num_classes
    assert back.spacing == (1.0, 2.0, 1.0)
    assert back.labels.dtype == np.min_scalar_type(num_classes)
    assert np.array_equal(back.labels, labels)


def test_nifti_label_map_past_int16_is_refused(tmp_path):
    with pytest.raises(ValueError, match="int16"):
        write_nifti(LabelVolume((2, 1, 1), (1, 1, 1), [[[0]], [[40000]]], 40000),
                    tmp_path / "seg.nii")


def test_write_nifti_writes_a_volume_as_the_float32_header_and_payload(tmp_path):
    # the header _build_nifti_int16 assembles by hand, with a float32 payload
    data = np.arange(24.0).reshape(4, 3, 2) / 7
    write_nifti(Volume((4, 3, 2), (1.0, 1.5, 2.0), data), tmp_path / "v.nii")
    want = _build_nifti_int16((4, 3, 2), (1.0, 1.5, 2.0), [], datatype=16, bitpix=32)
    assert (tmp_path / "v.nii").read_bytes() == want + data.astype("<f4").tobytes(order="F")


def test_nifti_rejects_an_unknown_grid(tmp_path):
    with pytest.raises(TypeError, match="ndarray"):
        write_nifti(np.zeros((2, 2, 2)), tmp_path / "a.nii")


@pytest.mark.parametrize("grid", [Volume((2, 2, 2), (1, 1, 1), np.zeros((2, 2, 2))),
                                  DisplacementField.zeros((2, 2, 2))],
                         ids=["volume", "field"])
def test_write_raw_takes_label_maps_only(tmp_path, grid):
    for write in (write_raw, write_volume):
        with pytest.raises(TypeError, match="label maps only"):
            write(grid, tmp_path / "g.f32raw")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["volume", "field", "label"])
def test_read_raw_rejects_a_sidecar_kind_other_than_labels(tmp_path, kind):
    write_raw(LabelVolume((2, 2, 2), (1, 1, 1), np.zeros((2, 2, 2)), 1), tmp_path / "seg")
    meta = json.loads((tmp_path / "seg.json").read_text())
    (tmp_path / "seg.json").write_text(json.dumps(meta | {"kind": kind}))
    with pytest.raises(MalformedHeaderError, match=f"kind '{kind}'"):
        read_raw(tmp_path / "seg")


def test_read_volume_of_a_raw_file_as_an_image_raises(tmp_path):
    write_raw(LabelVolume((2, 2, 2), (1, 1, 1), np.zeros((2, 2, 2)), 1), tmp_path / "seg")
    with pytest.raises(IOFormatError, match="label maps only"):
        read_volume(tmp_path / "seg.f32raw", "image")
    assert isinstance(read_volume(tmp_path / "seg.f32raw"), LabelVolume)


@pytest.mark.parametrize("num_classes", [2.5, "3", True])
def test_raw_labels_reject_a_sidecar_num_classes_that_is_not_an_integer(tmp_path,
                                                                        num_classes):
    write_raw(LabelVolume((2, 1, 1), (1, 1, 1), [[[0]], [[1]]], 3), tmp_path / "seg")
    meta = json.loads((tmp_path / "seg.json").read_text())
    (tmp_path / "seg.json").write_text(json.dumps(meta | {"num_classes": num_classes}))
    with pytest.raises(MalformedHeaderError, match="num_classes"):
        read_raw(tmp_path / "seg")


@pytest.mark.parametrize("geometry", [{"dims": [-4, 3, 2]}, {"dims": [0, 3, 2]},
                                      {"dims": [4, 3]}, {"spacing": [0, 1, 1]},
                                      {"spacing": [1, float("nan"), 1]}],
                         ids=["negative_dim", "zero_dim", "two_dims", "zero_spacing",
                              "nan_spacing"])
def test_raw_rejects_a_malformed_sidecar_geometry(tmp_path, geometry):
    write_raw(LabelVolume((4, 3, 2), (1, 1, 1), np.zeros((4, 3, 2)), 1), tmp_path / "v")
    meta = json.loads((tmp_path / "v.json").read_text())
    (tmp_path / "v.json").write_text(json.dumps(meta | geometry))
    with pytest.raises(MalformedHeaderError, match="dims" if "dims" in geometry else "spacing"):
        read_raw(tmp_path / "v")


def test_reads_return_c_ordered_arrays(tmp_path):
    # the payloads are x-fastest; every read is held in C order
    data = np.arange(24.0).reshape(4, 3, 2)
    write_raw(LabelVolume(data.shape, (1, 1, 1), data % 3, 2), tmp_path / "seg")
    write_nifti(DisplacementField(data.shape, (1, 1, 1), np.stack([data] * 3)),
                tmp_path / "u.nii")
    write_nifti(Volume(data.shape, (1, 1, 1), data), tmp_path / "v.nii")
    write_nifti(LabelVolume(data.shape, (1, 1, 1), data, 23), tmp_path / "seg.nii")
    arrays = [read_raw(tmp_path / "seg").labels, read_nifti(tmp_path / "u.nii").u,
              read_nifti(tmp_path / "v.nii").data,
              read_nifti(tmp_path / "v.nii", kind="labels").labels,
              read_nifti(tmp_path / "seg.nii", kind="labels").labels]
    for array, want in zip(arrays, [data % 3, np.stack([data] * 3), data, data, data]):
        assert array.flags.c_contiguous and np.array_equal(array, want)


def test_raw_payload_layout_is_x_fastest(tmp_path):
    data = np.arange(8, dtype=np.float64).reshape(2, 2, 2)
    write_raw(LabelVolume((2, 2, 2), (1, 1, 1), data, 7), tmp_path / "v")
    flat = np.frombuffer((tmp_path / "v.f32raw").read_bytes(), dtype="<f4")
    # index (x, y, z) -> flat (z*ny + y)*nx + x
    assert flat[1] == data[1, 0, 0]
    assert flat[2] == data[0, 1, 0]
    assert flat[4] == data[0, 0, 1]


def test_raw_truncated_payload(tmp_path):
    write_raw(LabelVolume((4, 4, 4), (1, 1, 1), np.zeros((4, 4, 4)), 1), tmp_path / "v")
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


def test_nifti_rejects_the_two_file_magic(tmp_path):
    # "ni1" puts the image in a separate .img file; its bytes at offset 352
    # are not the image
    write_nifti(Volume((2, 2, 2), (1, 1, 1), np.arange(8.0).reshape(2, 2, 2)), tmp_path / "a.nii")
    blob = bytearray((tmp_path / "a.nii").read_bytes())
    blob[344:348] = b"ni1\x00"
    (tmp_path / "a.nii").write_bytes(bytes(blob))
    with pytest.raises(MalformedHeaderError, match="two-file 'ni1'"):
        read_nifti(tmp_path / "a.nii")


def _build_nifti_vector(u, intent=1007, slope=0.0, inter=0.0):
    """Hand-assembled float32 vector NIfTI-1 bytes for ``u`` (a nested list
    indexed [component][x][y][z]): dim (5, nx, ny, nz, 1, 3), x fastest and
    the component slowest."""
    nx, ny, nz = len(u[0]), len(u[0][0]), len(u[0][0][0])
    hdr = bytearray(348)
    struct.pack_into("<i", hdr, 0, 348)
    struct.pack_into("<8h", hdr, 40, 5, nx, ny, nz, 1, 3, 0, 0)
    struct.pack_into("<3h", hdr, 68, intent, 16, 32)
    struct.pack_into("<8f", hdr, 76, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", hdr, 108, 352.0)
    struct.pack_into("<2f", hdr, 112, slope, inter)
    hdr[344:348] = b"n+1\x00"
    payload = b"".join(struct.pack("<f", u[c][x][y][z]) for c in range(3)
                       for z in range(nz) for y in range(ny) for x in range(nx))
    return bytes(hdr) + b"\x00" * 4 + payload


def test_nifti_reads_a_vector_file_written_elsewhere(tmp_path):
    # component c at voxel (x, y, z) stores 100c + 4z + 2y + x, scaled by 0.5 - 1
    stored = [[[[100 * c + 4 * z + 2 * y + x for z in range(2)] for y in range(2)]
               for x in range(2)] for c in range(3)]
    path = tmp_path / "warp.nii"
    path.write_bytes(_build_nifti_vector(stored, slope=0.5, inter=-1.0))
    field = read_nifti(path)
    assert isinstance(field, DisplacementField) and field.dims == (2, 2, 2)
    assert field.u.dtype == np.float32
    assert np.array_equal(field.u, np.array(stored, dtype=np.float32) * 0.5 - 1.0)
    assert (field.u[0, 1, 0, 0], field.u[1, 0, 1, 0], field.u[2, 0, 0, 1]) == (-0.5, 50.0, 101.0)
    with pytest.raises(IOFormatError, match="cannot be read as labels"):
        read_nifti(path, kind="labels")
    # the same header without the vector intent is a 5D image, rejected as before
    path.write_bytes(_build_nifti_vector(stored, intent=0))
    with pytest.raises(MalformedHeaderError, match=r"dim\[1\.\.5\] = \(2, 2, 2, 1, 3\)"):
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
    write_raw(LabelVolume((2, 2, 2), (1, 1, 1), np.ones((2, 2, 2)), 1), tmp_path / "v")
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
