"""Read one pair through ``protoreg.io``, register it with all five terms
at the default learning rate on numpy alone, write the field to
``field.nii.gz`` and read it back, and score it.  Fail if the images do not
read as float32 or the label maps as uint8, the returned field is not
float64, the field read back is not a ``DisplacementField`` equal to it in
float32, any ``scipy`` module was loaded on the way, or the score is not
finite.

    PYTHONPATH=src python tests/register_numpy_only.py            # a generated phantom
    PYTHONPATH=src python tests/register_numpy_only.py DIRECTORY  # the pair in DIRECTORY

Without an argument the pair is generated with ``protoreg.phantom``: two
blobs on 20^3, moved by a smooth field of at most 1.5 voxels.  It is written
to a temporary directory as the benchmark writes its inputs (NIfTI images,
raw label maps) and read back from there.  With an argument, the images and
label maps are read from the files ``FILES`` names in DIRECTORY.  Needs
numpy and ``protoreg`` only, so it runs where scipy is not installed.
"""

import sys
import tempfile

import numpy as np

import protoreg
from protoreg import io
from protoreg.phantom import generate, three_blob_spec

FILES = {"fixed": "fixed.nii.gz", "moving": "moving.nii.gz",
         "fixed_labels": "fixed_labels.f32raw", "moving_labels": "moving_labels.f32raw"}


def built_pair() -> dict:
    pair = generate(three_blob_spec(dims=(20, 20, 20), num_blobs=2, magnitude=1.5, seed=0))
    return {name: getattr(pair, name) for name in FILES}


def read_pair(directory: str) -> dict:
    return {name: io.read_volume(f"{directory}/{fname}") for name, fname in FILES.items()}


def written_and_read_back(pair: dict) -> dict:
    with tempfile.TemporaryDirectory() as directory:
        for name, fname in FILES.items():
            io.write_volume(pair[name], f"{directory}/{fname}")
        return read_pair(directory)


def main(argv) -> None:
    pair = read_pair(argv[0]) if argv else written_and_read_back(built_pair())
    # the reads keep the stored precision: float32 images, one-byte label maps
    dtypes = [pair["fixed"].data.dtype, pair["moving"].data.dtype,
              pair["fixed_labels"].labels.dtype, pair["moving_labels"].labels.dtype]
    assert dtypes == [np.float32] * 2 + [np.uint8] * 2, dtypes
    config = protoreg.RegistrationConfig(levels=2, iterations=(4, 4), window=5)
    result = protoreg.register_pair(pair["fixed"], pair["moving"], pair["fixed_labels"],
                                    pair["moving_labels"], config)
    values = result.final_breakdown.values
    assert all(np.isfinite(v) and v != 0.0 for v in values.values()), values
    # optimized in float32, returned in float64
    assert result.field.u.dtype == np.float64, result.field.u.dtype
    with tempfile.TemporaryDirectory() as directory:
        io.write_volume(result.field, f"{directory}/field.nii.gz")
        field = io.read_volume(f"{directory}/field.nii.gz")
    # a NIfTI vector image, rounded once to float32
    assert isinstance(field, protoreg.DisplacementField), type(field)
    assert np.array_equal(field.u, result.field.u.astype(np.float32)), "field read back differs"
    report = protoreg.evaluate(pair["fixed_labels"],
                               protoreg.warp_labels(pair["moving_labels"], result.field),
                               result.field)
    assert 0.0 <= report.avg_dsc <= 1.0, report.avg_dsc     # false for NaN
    assert np.isfinite(report.sdlogj), report.sdlogj
    loaded = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
    assert not loaded, f"registering and scoring loaded {len(loaded)} scipy modules: {loaded[:4]}"
    print("registered with", ", ".join(sorted(values)), "and no scipy module:",
          f"Dice {report.avg_dsc:.4f}, SDlogJ {report.sdlogj:.4f}")


if __name__ == "__main__":
    main(sys.argv[1:])
