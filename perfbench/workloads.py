"""The benchmark's workloads: pinned phantom specs and registration configs.

Every ``RegistrationConfig`` and ``PhantomSpec`` field is written out here, so
that a later change of a library default cannot silently change a workload.
``learning_rate`` is pinned at 1e-2 because the library default of 1e-4 does
not register: on ``three_blob_spec(seed=0)`` Dice stays at 0.787, so the
quality columns could not catch a speed-up that breaks registration.
"""

from __future__ import annotations

from dataclasses import dataclass

# RegistrationConfig fields shared by every workload; ``iterations`` is per
# workload.  Weights are (sim, smooth, seg, prototype, contour).
CONFIG = {
    "levels": 4,
    "learning_rate": 1e-2,
    "beta1": 0.9,
    "beta2": 0.999,
    "adam_eps": 1e-8,
    "weights": [1.0, 4.0, 1.0, 1.0, 0.1],
    "window": 9,
    "max_contour_points": 2048,
    "temperature": 0.1,
    "seed": 0,
}

# PhantomSpec fields shared by every workload; ``dims``, ``num_blobs`` and
# ``magnitude`` are per workload and ``seed`` comes from the command line.
PHANTOM = {
    "blob_kind": "sphere",
    "contrasts": None,
    "noise_sigma": 0.01,
    "deformation": "smooth",
    "smoothing": 8.0,
    "falloff": 2.5,
    "texture_amplitude": 0.15,
    "texture_scale": 8.0,
    "shift": None,
    "blob_radius": None,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dims: tuple
    num_blobs: int
    iterations: tuple       # per level, coarse -> fine
    masks: bool             # False: register_pair's unsupervised path
    phantoms: int           # distinct phantom pairs a run registers
    magnitude: float = 3.0  # largest true displacement, voxels

    def config_dict(self) -> dict:
        return CONFIG | {"iterations": list(self.iterations)}

    def phantom_seeds(self, seed: int) -> list:
        """Phantom seeds of run ``seed``: a block of its own, so that runs
        with different seeds share no phantom."""
        return list(range(seed * self.phantoms, (seed + 1) * self.phantoms))

    def phantom_dict(self, seed: int) -> dict:
        return PHANTOM | {"dims": list(self.dims), "num_blobs": self.num_blobs,
                          "magnitude": self.magnitude, "seed": seed}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="cardiac3_32",
        why="32^3, K=3, all five terms, 750 small evaluations: per-call overhead "
            "and contour transport show; only 3 mask channels",
        dims=(32, 32, 32), num_blobs=3, iterations=(300, 200, 150, 100),
        masks=True, phantoms=4,
    ),
    Workload(
        name="abdomen12_48",
        why="48^3, K=12, all five terms: mask-heavy, under 1% of sampled mask "
            "values non-zero; mask warp, Dice and prototype work show",
        dims=(48, 48, 48), num_blobs=12, iterations=(100, 60, 40, 30),
        masks=True, phantoms=3,
    ),
    Workload(
        name="intensity64",
        why="64^3 without masks (similarity and smoothness only): LNCC, image "
            "warp, Adam and upsample dominate; mask work must leave it unchanged",
        dims=(64, 64, 64), num_blobs=6, iterations=(200, 150, 100, 60),
        masks=False, phantoms=2,
    ),
    # Not a benchmark workload: the tiny configuration the smoke test runs.
    Workload(
        name="smoke20",
        why="smoke test of the benchmark itself",
        dims=(20, 20, 20), num_blobs=2, iterations=(10, 10, 10, 10),
        masks=True, phantoms=2, magnitude=1.5,
    ),
)}
