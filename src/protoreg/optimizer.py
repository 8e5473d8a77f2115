"""Adam on the displacement field and the coarse-to-fine registration driver.

One registration optimizes one field per pyramid level: the coarsest level
starts from zero, and every finer level starts from the previous level's
field upsampled onto its grid.  Adam moves that field itself, from fresh
moments at each level, and the objective is evaluated on it; there is no
zero-initialized correction and no superposition of two fields.  Each Adam
step updates the moments in place and takes the evaluation's gradient, dead
after the step, as its scratch: the one array it makes is the new u, so
the field it was given, a level's start field included, is never written.

The masks enter as ``one_hot`` crops of the label maps and are halved on
their crops (``grids.downsample``); no dense (K, nx, ny, nz) mask array is
made on the way to a level's ``build_state``.

``register_pair`` optimizes in float32: the two volumes and the two
one-hot masks are cast to float32 once (``_cast``; a float32 volume is not
copied), before the pyramids, which are then averaged in float32.  So every
level's images and mask crops, its constants, the field, Adam's moments and
every array of an evaluation are float32, which halves the registration's
working memory and the bytes each pass over the grid moves.  A float64
volume registers exactly as its float32 cast does.  The field is cast to
float64 once, at the end, so the returned ``RegistrationResult`` holds a
float64 field.  ``adam_step`` and the objective compute in the dtype of the
arrays they are given, so a float64 field and state still run in float64.
``RegistrationConfig`` rejects a learning rate beyond float32's range,
which float32 cannot hold.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field as dataclass_field, fields, replace

import numpy as np

from .gradients import build_state, evaluate_objective
from .grids import LabelVolume, OneHotMask, Volume, build_pyramid, one_hot
from .losses import LossBreakdown, LossWeights, TERM_NAMES
from .warp import DisplacementField, SdLogJResult, sdlogj, upsample_field
# Not called here; kept in this namespace because the benchmark's tracer
# wraps it by this name.
from .warp import superpose  # noqa: F401

logger = logging.getLogger(__name__)

DEFAULT_ITERATIONS = (300, 200, 150, 100)


class NonFiniteLossError(ArithmeticError):
    """The objective stopped being finite; carries the offending term names."""

    def __init__(self, terms, level, iteration):
        self.terms = tuple(terms)
        self.level = level
        self.iteration = iteration
        super().__init__(
            f"non-finite loss in term(s) {', '.join(self.terms)} "
            f"at level {level}, iteration {iteration}"
        )


def default_iterations(levels: int) -> tuple:
    """Coarse-to-fine iteration counts; levels beyond the built-in schedule
    reuse its finest entry."""
    base = DEFAULT_ITERATIONS + (DEFAULT_ITERATIONS[-1],) * max(0, levels - 4)
    return base[:levels]


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer))


@dataclass(frozen=True)
class RegistrationConfig:
    levels: int = 4
    iterations: tuple | None = None          # per level, coarse -> fine
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    # also taken as five values, or as a dict by term name
    weights: LossWeights = dataclass_field(default_factory=LossWeights)
    window: int = 9
    max_contour_points: int = 2048          # most contour band points per class
    temperature: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not _is_integer(self.levels) or self.levels < 1:
            raise ValueError(f"RegistrationConfig: levels must be an integer >= 1, "
                             f"got {self.levels}")
        its = self.iterations
        if its is None:
            its = default_iterations(self.levels)
        else:
            its = tuple(its) if np.iterable(its) else (its,)
            if not all(_is_integer(i) for i in its):
                raise ValueError(f"RegistrationConfig: iteration counts must be integers, "
                                 f"got {self.iterations}")
            its = tuple(int(i) for i in its)
            if len(its) == 1:
                its = its * self.levels
            if len(its) != self.levels:
                raise ValueError(
                    f"RegistrationConfig: {len(its)} iteration counts for {self.levels} levels"
                )
        if any(i < 1 for i in its):
            raise ValueError("RegistrationConfig: iterations must be >= 1")
        object.__setattr__(self, "iterations", its)
        if not _is_integer(self.window) or self.window < 3 or self.window % 2 == 0:
            raise ValueError(f"RegistrationConfig: window must be an odd integer >= 3, "
                             f"got {self.window}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"RegistrationConfig: {name} must lie in [0, 1), "
                                 f"got {getattr(self, name)}")
        for name in ("learning_rate", "adam_eps", "temperature"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"RegistrationConfig: {name} must be finite and > 0, got {value}")
        largest = float(np.finfo(np.float32).max)       # the registration runs in float32
        if self.learning_rate > largest:
            raise ValueError(f"RegistrationConfig: learning_rate must be at most {largest:.4g}, "
                             f"got {self.learning_rate}")
        # Python floats, which take a float32 array's dtype under every NumPy
        # promotion rule
        for name in ("learning_rate", "beta1", "beta2", "adam_eps", "temperature"):
            object.__setattr__(self, name, float(getattr(self, name)))
        points = self.max_contour_points
        if not _is_integer(points) or points < 1:
            raise ValueError(f"RegistrationConfig: max_contour_points must be an integer >= 1, "
                             f"got {points}")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"RegistrationConfig: seed must be an integer >= 0, got {self.seed!r}")
        w = self.weights
        if isinstance(w, dict):
            _reject_unknown(w, TERM_NAMES, "weight names")
            w = LossWeights(**w)
        elif not isinstance(w, LossWeights):
            if len(w) != len(TERM_NAMES):
                raise ValueError(f"RegistrationConfig: weights needs one value per term "
                                 f"{TERM_NAMES}, got {len(w)}")
            w = LossWeights(*w)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_dict(cls, d: dict) -> "RegistrationConfig":
        _reject_unknown(d, [f.name for f in fields(cls)], "keys")
        return cls(**d)


def _reject_unknown(d: dict, names, what: str) -> None:
    """``ValueError`` naming the keys of ``d`` that are not in ``names``."""
    unknown = [key for key in d if key not in names]
    if unknown:
        raise ValueError(f"RegistrationConfig: unknown {what} {unknown}; "
                         f"expected some of {tuple(names)}")


@dataclass
class AdamState:
    """First/second moment accumulators plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros_like(cls, u: np.ndarray) -> "AdamState":
        """Zero moments of ``u``'s shape and dtype."""
        return cls(np.zeros_like(u), np.zeros_like(u), 0)


def adam_step(field: DisplacementField, grad: np.ndarray, moments: AdamState,
              config: RegistrationConfig) -> tuple[DisplacementField, AdamState]:
    """One bias-corrected Adam update applied component-wise to u:
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g, and u - lr*m_hat /
    (sqrt(v_hat) + eps) with m_hat = m/(1-b1**t), v_hat = v/(1-b2**t).

    Works in place, in that order of operations, so each value is the
    closed form's bit for bit: the moments' arrays are updated and returned,
    ``grad`` (dead after the step) is overwritten as scratch, and the one
    array made is the new u, formed as u - step, in u's dtype; the given
    field is never written."""
    t = moments.t + 1
    m, v = moments.m, moments.v
    u = np.empty_like(field.u)      # scratch until it takes the new u
    m *= config.beta1
    m += np.multiply(grad, 1.0 - config.beta1, out=u)
    v *= config.beta2
    np.multiply(grad, 1.0 - config.beta2, out=u)
    v += np.multiply(u, grad, out=u)
    step = np.divide(v, 1.0 - config.beta2 ** t, out=grad)
    np.sqrt(step, out=step)
    step += config.adam_eps
    np.divide(m, 1.0 - config.beta1 ** t, out=u)
    u *= config.learning_rate
    np.divide(u, step, out=step)
    np.subtract(field.u, step, out=u)
    return DisplacementField(field.dims, field.spacing, u), AdamState(m, v, t)


@dataclass(frozen=True)
class RegistrationResult:
    field: DisplacementField
    trajectories: tuple            # per level (coarse -> fine), totals incl. final
    final_breakdown: LossBreakdown
    level_seconds: tuple
    sdlogj: SdLogJResult
    unsupervised: bool = False


def _effective_window(window: int, dims) -> int:
    """Largest odd window that fits the level, capped by the configured one;
    0 when even 3 does not fit."""
    cap = min(dims)
    w = min(window, cap)
    if w % 2 == 0:
        w -= 1
    return w if w >= 3 else 0


def _same_spacing(a, b) -> bool:
    """Equal voxel spacings, to float32 precision: a NIfTI header stores
    them as float32, the raw format's sidecar as float64."""
    return np.allclose(a, b, rtol=1e-6, atol=0.0)


def register_pair(fixed: Volume, moving: Volume,
                  fixed_mask: LabelVolume | None = None,
                  moving_mask: LabelVolume | None = None,
                  config: RegistrationConfig | None = None) -> RegistrationResult:
    """Optimize a full-resolution displacement field aligning moving to fixed.

    Masks are optional: without them the mask-dependent weights are forced to
    zero (pure intensity mode) with a warning.  When the mask weights are all
    zero the mask inputs are never read.  The volumes must share dims and
    voxel spacing, and so must each mask and its volume (``ValueError``).
    The optimization runs in float32 (see the module docstring); the
    returned field is float64.
    """
    config = config or RegistrationConfig()
    if fixed.dims != moving.dims:
        raise ValueError(f"register_pair: fixed {fixed.dims} vs moving {moving.dims}")
    if not _same_spacing(fixed.spacing, moving.spacing):
        raise ValueError(f"register_pair: fixed spacing {fixed.spacing} vs moving {moving.spacing}")

    weights = config.weights
    # no foreground class on either map leaves the mask terms nothing to read
    unsupervised = weights.uses_masks and (
        fixed_mask is None or moving_mask is None
        or max(fixed_mask.num_classes, moving_mask.num_classes) == 0)
    if unsupervised:
        logger.warning("unsupervised mode: mask weights (seg, prototype, contour) disabled")
        weights = weights.without_masks()
    use_masks = weights.uses_masks

    if use_masks:
        if fixed_mask.dims != fixed.dims or moving_mask.dims != moving.dims:
            raise ValueError("register_pair: mask dims do not match the volumes")
        if not (_same_spacing(fixed_mask.spacing, fixed.spacing)
                and _same_spacing(moving_mask.spacing, moving.spacing)):
            raise ValueError("register_pair: mask spacing does not match the volumes")
        # a label map read from NIfTI counts classes up to its largest label,
        # so one lacking the top class reads as fewer: take both over the
        # larger class universe, as metrics.evaluate does
        k = max(fixed_mask.num_classes, moving_mask.num_classes)
        fixed_mask, moving_mask = (replace(mask, num_classes=k)
                                   for mask in (fixed_mask, moving_mask))

    fixed_pyr = build_pyramid(_cast(fixed, np.float32), config.levels)
    moving_pyr = build_pyramid(_cast(moving, np.float32), config.levels)
    if use_masks:
        fixed_mask_pyr = build_pyramid(_cast(one_hot(fixed_mask), np.float32), config.levels)
        moving_mask_pyr = build_pyramid(_cast(one_hot(moving_mask), np.float32), config.levels)

    field = None
    trajectories = []
    level_seconds = []
    final_breakdown = None

    for level in range(config.levels - 1, -1, -1):      # coarse -> fine
        t0 = time.perf_counter()
        f_l = fixed_pyr[level]
        level_weights = weights
        window = _effective_window(config.window, f_l.dims)
        if window == 0 and level_weights.sim > 0:
            logger.warning("level %d (%s): too small for any LNCC window, similarity off",
                           level, f_l.dims)
            level_weights = replace(level_weights, sim=0.0)
        state = build_state(
            f_l, moving_pyr[level], level_weights,
            fixed_mask_pyr[level] if use_masks else None,
            moving_mask_pyr[level] if use_masks else None,
            window=window, temperature=config.temperature,
            max_points=config.max_contour_points, seed=config.seed + level,
        )
        # the start field is passed, not kept: the level holds one field
        field, totals, final_breakdown = _optimize_level(
            state,
            (DisplacementField(f_l.dims, f_l.spacing, np.zeros((3,) + f_l.dims, np.float32))
             if field is None else upsample_field(field, f_l.dims)),
            config.iterations[config.levels - 1 - level], config, level)
        state = None        # dead: the next level, and sdlogj, do not run under it
        trajectories.append(totals)
        level_seconds.append(time.perf_counter() - t0)

    field = DisplacementField(field.dims, field.spacing, field.u.astype(np.float64))
    return RegistrationResult(
        field=field,
        trajectories=tuple(trajectories),
        final_breakdown=final_breakdown,
        level_seconds=tuple(level_seconds),
        sdlogj=sdlogj(field),
        unsupervised=unsupervised,
    )


def _cast(grid, dtype):
    """A ``Volume`` or the crops of a ``OneHotMask`` in ``dtype``."""
    if isinstance(grid, Volume):
        return Volume(grid.dims, grid.spacing, grid.data.astype(dtype, copy=False))
    return OneHotMask(grid.dims, grid.spacing, tuple(
        None if crop is None else crop._replace(values=crop.values.astype(dtype, copy=False))
        for crop in grid.crops))


def _optimize_level(state, field: DisplacementField, iterations: int,
                    config: RegistrationConfig, level: int):
    """``iterations`` Adam steps on ``field`` itself, from fresh moments,
    against the level's ``state``; returns the field, the totals of every
    evaluation (the last one value-only, at the returned field) and that
    last breakdown."""
    moments = AdamState.zeros_like(field.u)
    totals = np.empty(iterations + 1)
    for it in range(iterations):
        breakdown, grad = evaluate_objective(state, field)
        _abort_if_nonfinite(breakdown, level, it)
        totals[it] = breakdown.total
        field, moments = adam_step(field, grad, moments, config)
        grad = None     # dead: do not hold it through the next evaluation
    breakdown, _ = evaluate_objective(state, field, with_grad=False)
    _abort_if_nonfinite(breakdown, level, iterations)
    totals[-1] = breakdown.total
    return field, totals, breakdown


def _abort_if_nonfinite(breakdown: LossBreakdown, level: int, iteration: int) -> None:
    if np.isfinite(breakdown.total):
        return
    bad = [name for name in TERM_NAMES if not np.isfinite(breakdown.values[name])]
    raise NonFiniteLossError(bad or ["total"], level, iteration)
