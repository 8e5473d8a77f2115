"""Synthetic labeled scenes with exactly known deformations.

The fixed scene is rendered analytically from blob geometry.  The moving
image is rendered at the numerically inverted map, so that warping moving by
the stored truth field recovers the fixed image up to interpolation error;
labels are evaluated with the same geometry and are therefore exactly
consistent.  Intensity blobs are flat inside the labeled region and fall off
smoothly outside it, keeping trilinear interpolation error small.  A
low-frequency scene texture (``texture_amplitude``) is added on top of that
profile, so with default settings the intensity is neither flat inside a label
nor ever exactly 0 outside one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from .grids import LabelVolume, Volume
from .warp import DisplacementField, sample_volume


@dataclass(frozen=True)
class PhantomSpec:
    dims: tuple = (32, 32, 32)
    num_blobs: int = 3
    blob_kind: str = "sphere"            # "sphere" | "ellipsoid"
    contrasts: tuple | None = None       # per blob; default ramps 1.0 -> 0.6
    noise_sigma: float = 0.01
    deformation: str = "smooth"          # "rigid" | "smooth" | "none"
    magnitude: float = 3.0               # max displacement norm in voxels
    smoothing: float = 8.0               # Gaussian sigma for the random field
    falloff: float = 2.5                 # intensity ramp width outside blobs
    texture_amplitude: float = 0.15      # consistent low-frequency scene texture
    texture_scale: float = 8.0           # shortest texture wavelength in voxels
    shift: tuple | None = None           # explicit rigid shift vector
    blob_radius: float | None = None     # override the dims-derived radius cap
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if self.num_blobs < 1:
            raise ValueError("PhantomSpec: need at least one blob")
        if self.blob_kind not in ("sphere", "ellipsoid"):
            raise ValueError(f"PhantomSpec: unknown blob kind {self.blob_kind!r}")
        if self.deformation not in ("rigid", "smooth", "none"):
            raise ValueError(f"PhantomSpec: unknown deformation {self.deformation!r}")
        if self.noise_sigma < 0:
            raise ValueError("PhantomSpec: noise sigma must be >= 0")
        if self.contrasts is not None and len(self.contrasts) != self.num_blobs:
            raise ValueError("PhantomSpec: one contrast per blob required")


@dataclass(frozen=True)
class PhantomPair:
    fixed: Volume
    fixed_labels: LabelVolume
    moving: Volume
    moving_labels: LabelVolume
    truth: DisplacementField


def three_blob_spec(**overrides) -> PhantomSpec:
    """Desk-scale analog of a three-structure cardiac scene."""
    return PhantomSpec(**({"dims": (32, 32, 32), "num_blobs": 3} | overrides))


def twelve_blob_spec(**overrides) -> PhantomSpec:
    """Desk-scale analog of a twelve-organ abdominal scene."""
    return PhantomSpec(**({"dims": (48, 48, 48), "num_blobs": 12} | overrides))


def _smoothstep(x: np.ndarray) -> np.ndarray:
    t = np.clip(x, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


# Corner-alternating priority over a 3x3x3 anchor lattice: the first four
# entries form a tetrahedron (maximal pairwise spread), then the remaining
# corners, face centers, edge midpoints, and the center.
_ANCHOR_ORDER = (
    (0, 0, 0), (2, 2, 0), (2, 0, 2), (0, 2, 2),
    (2, 2, 2), (0, 0, 2), (0, 2, 0), (2, 0, 0),
    (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1),
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 0), (2, 0, 1), (1, 2, 0),
    (0, 2, 1), (1, 0, 2), (0, 1, 2), (2, 2, 1), (2, 1, 2), (1, 2, 2),
    (1, 1, 1),
)


def _place_blobs(spec: PhantomSpec, rng: np.random.Generator):
    """Deterministic well-separated anchors with seeded jitter and radii.

    Every blob keeps a margin of (magnitude + 2) voxels from the grid faces,
    and label regions stay pairwise disjoint with >= 2 voxels between them.
    """
    if spec.num_blobs > len(_ANCHOR_ORDER):
        raise ValueError(f"PhantomSpec: at most {len(_ANCHOR_ORDER)} blobs supported")
    margin = spec.magnitude + 2.0
    n = min(spec.dims)
    r_hi = spec.blob_radius if spec.blob_radius else max(3.0, 0.16 * n)

    for _ in range(8):      # shrink radii until the anchor box is feasible
        lo = r_hi + margin
        his = np.array([d - 1 - (r_hi + margin) for d in spec.dims])
        if np.all(his - lo >= 2.0):
            break
        r_hi *= 0.8
    else:
        raise ValueError(
            f"PhantomSpec: dims {spec.dims} leave no room for blobs with margin {margin:.1f}"
        )

    span = his - lo
    anchors = np.array([
        lo + span * np.array(cell) / 2.0 for cell in _ANCHOR_ORDER[: spec.num_blobs]
    ])
    jitter = min(1.5, 0.08 * span.min())
    centers = anchors + rng.uniform(-jitter, jitter, size=anchors.shape)

    if spec.num_blobs > 1:
        diffs = centers[:, None, :] - centers[None, :, :]
        dists = np.sqrt((diffs ** 2).sum(-1))
        np.fill_diagonal(dists, np.inf)
        r_cap = (dists.min() - 2.0) / 2.0
        if r_cap < 2.0:
            raise ValueError(
                f"PhantomSpec: {spec.num_blobs} blobs do not fit dims {spec.dims} "
                f"with margin {margin:.1f}"
            )
        r_hi = min(r_hi, r_cap)
    r_lo = r_hi if spec.blob_radius else 0.8 * r_hi

    blobs = []
    for center in centers:
        radius = rng.uniform(r_lo, r_hi)
        if spec.blob_kind == "ellipsoid":
            semi = np.clip(radius * rng.uniform(0.75, 1.25, size=3), None, r_hi)
        else:
            semi = np.full(3, radius)
        blobs.append((center, semi))
    return blobs


def _texture_waves(spec: PhantomSpec, rng: np.random.Generator):
    """Low-frequency cosine bank rendered into both scenes consistently.

    Flat blob interiors leave tangential motion invisible to every loss
    term; a smooth scene texture makes the truth field identifiable."""
    if spec.texture_amplitude <= 0:
        return []
    n_waves = 6
    amp = spec.texture_amplitude / np.sqrt(n_waves / 2.0)   # sum has ~unit-amp std
    waves = []
    for _ in range(n_waves):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        wavelength = rng.uniform(spec.texture_scale, 2.0 * spec.texture_scale)
        waves.append((2.0 * np.pi / wavelength * direction, rng.uniform(0, 2 * np.pi), amp))
    return waves


def _render(coords: np.ndarray, blobs, contrasts, falloff: float, waves=()):
    """Analytic intensity and hard labels at continuous coordinates (3, ...)."""
    intensity = np.zeros(coords.shape[1:])
    labels = np.zeros(coords.shape[1:], dtype=np.int32)
    for i, (center, semi) in enumerate(blobs):
        delta = coords - center.reshape(3, *([1] * (coords.ndim - 1)))
        rho = np.sqrt(((delta / semi.reshape(3, *([1] * (coords.ndim - 1)))) ** 2).sum(axis=0))
        dist_out = (rho - 1.0) * semi.min()
        profile = contrasts[i] * _smoothstep(1.0 - dist_out / falloff)
        intensity = np.maximum(intensity, profile)
        labels[rho <= 1.0] = i + 1
    for k_vec, phase, amp in waves:
        arg = (coords * k_vec.reshape(3, *([1] * (coords.ndim - 1)))).sum(axis=0) + phase
        intensity = intensity + amp * np.cos(arg)
    return intensity, labels


def _truth_field(spec: PhantomSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.deformation == "none" or spec.magnitude == 0:
        return np.zeros((3,) + spec.dims)
    if spec.deformation == "rigid":
        if spec.shift is not None:
            vec = np.asarray(spec.shift, dtype=np.float64)
        else:
            direction = rng.normal(size=3)
            vec = spec.magnitude * direction / np.linalg.norm(direction)
        return np.broadcast_to(vec.reshape(3, 1, 1, 1), (3,) + spec.dims).copy()
    noise = rng.normal(size=(3,) + spec.dims)
    u = np.stack([gaussian_filter(noise[c], spec.smoothing, mode="constant") for c in range(3)])
    norms = np.sqrt((u ** 2).sum(axis=0))
    peak = norms.max()
    if peak > 0:
        u *= spec.magnitude / peak
    return u


def _invert_map(u: np.ndarray, iterations: int = 30) -> np.ndarray:
    """Fixed-point inverse of phi = id + u: psi(q) = q - u(psi(q)).

    Converges for the smooth fields produced here (displacement gradients
    well below 1)."""
    grid = np.indices(u.shape[1:], dtype=np.float64)
    psi = grid.copy()
    for _ in range(iterations):
        disp = np.stack([sample_volume(u[c], psi) for c in range(3)])
        psi = grid - disp
    return psi


def generate(spec: PhantomSpec) -> PhantomPair:
    """Render a (fixed, moving, truth) triple with consistent labels.

    ``warp_volume(moving, truth)`` reproduces the fixed image up to
    interpolation error, and the same holds for the one-hot labels.
    Independent noise is added to each intensity volume at the end.
    """
    rng = np.random.default_rng(spec.seed)
    blobs = _place_blobs(spec, rng)
    contrasts = spec.contrasts
    if contrasts is None:
        k = spec.num_blobs
        contrasts = tuple(1.0 - 0.4 * i / max(k - 1, 1) for i in range(k))

    waves = _texture_waves(spec, rng)
    u = _truth_field(spec, rng)
    fixed_int, fixed_lab = _render(np.indices(spec.dims, dtype=np.float64), blobs, contrasts,
                                   spec.falloff, waves)
    psi = _invert_map(u)
    moving_int, moving_lab = _render(psi, blobs, contrasts, spec.falloff, waves)

    if spec.noise_sigma > 0:
        fixed_int = fixed_int + rng.normal(0.0, spec.noise_sigma, spec.dims)
        moving_int = moving_int + rng.normal(0.0, spec.noise_sigma, spec.dims)

    spacing = (1.0, 1.0, 1.0)
    k = spec.num_blobs
    return PhantomPair(
        fixed=Volume(spec.dims, spacing, fixed_int),
        fixed_labels=LabelVolume(spec.dims, spacing, fixed_lab, k),
        moving=Volume(spec.dims, spacing, moving_int),
        moving_labels=LabelVolume(spec.dims, spacing, moving_lab, k),
        truth=DisplacementField(spec.dims, spacing, u),
    )
