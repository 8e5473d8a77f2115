"""Read one pair through ``protoreg.io``, register it with all five terms
on numpy alone and score it, and fail if the images do not read as float32
or the label maps as uint8, any ``scipy`` module was loaded on the way, the
returned field is not float64, or the score is not finite.

    PYTHONPATH=src python tests/register_numpy_only.py            # two shifted spheres
    PYTHONPATH=src python tests/register_numpy_only.py DIRECTORY  # the pair in DIRECTORY

Without an argument the pair is built here with numpy: two spheres of two
classes, shifted by a voxel and a half between the images.  It is written
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

FILES = {"fixed": "fixed.nii.gz", "moving": "moving.nii.gz",
         "fixed_labels": "fixed_labels.f32raw", "moving_labels": "moving_labels.f32raw"}
DIMS = (20, 20, 20)
SHIFT = 1.5          # voxels along x, moving against fixed


def spheres(dims=DIMS, shift=0.0):
    """An image of two blurred-edged spheres of intensities 1 and 0.6 and
    its label map (classes 1 and 2), both moved by ``shift`` along x."""
    coords = np.indices(dims, dtype=np.float64)
    coords[0] -= shift
    image, labels = np.zeros(dims), np.zeros(dims, np.int32)
    for label, (center, radius, intensity) in enumerate(
            [((8.0, 9.0, 10.0), 5.0, 1.0), ((13.0, 12.0, 9.0), 3.0, 0.6)], start=1):
        distance = np.sqrt(sum((c - o) ** 2 for c, o in zip(coords, center)))
        image += intensity / (1.0 + np.exp(2.0 * (distance - radius)))
        labels[distance <= radius] = label
    return (protoreg.Volume(dims, (1, 1, 1), image),
            protoreg.LabelVolume(dims, (1, 1, 1), labels, 2))


def built_pair() -> dict:
    (fixed, fixed_labels), (moving, moving_labels) = spheres(), spheres(shift=SHIFT)
    return {"fixed": fixed, "moving": moving,
            "fixed_labels": fixed_labels, "moving_labels": moving_labels}


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
    config = protoreg.RegistrationConfig(levels=2, iterations=(4, 4), window=5,
                                         learning_rate=1e-2)
    result = protoreg.register_pair(pair["fixed"], pair["moving"], pair["fixed_labels"],
                                    pair["moving_labels"], config)
    values = result.final_breakdown.values
    assert all(np.isfinite(v) and v != 0.0 for v in values.values()), values
    # optimized in float32, returned in float64
    assert result.field.u.dtype == np.float64, result.field.u.dtype
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
