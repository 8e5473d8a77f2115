"""Adam on the displacement field and the coarse-to-fine registration driver.

One registration optimizes one field per pyramid level: the coarsest level
starts from zero, and every finer level starts from the previous level's
field upsampled onto its grid.  Adam moves that field itself, from fresh
moments at each level, and the objective is evaluated on it; there is no
zero-initialized correction and no superposition of two fields.

The masks enter as ``one_hot`` crops of the label maps and are halved on
their crops (``grids.downsample``); no dense (K, nx, ny, nz) mask array is
made on the way to a level's ``build_state``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from .gradients import build_state, evaluate_objective
from .grids import LabelVolume, Volume, build_pyramid, one_hot
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


@dataclass(frozen=True)
class RegistrationConfig:
    levels: int = 4
    iterations: tuple | None = None          # per level, coarse -> fine
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weights: LossWeights = dataclass_field(default_factory=LossWeights)
    window: int = 9
    max_contour_points: int = 2048
    temperature: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("RegistrationConfig: levels must be >= 1")
        its = self.iterations
        if its is None:
            its = default_iterations(self.levels)
        else:
            its = tuple(int(i) for i in np.atleast_1d(its))
            if len(its) == 1:
                its = its * self.levels
            if len(its) != self.levels:
                raise ValueError(
                    f"RegistrationConfig: {len(its)} iteration counts for {self.levels} levels"
                )
        if any(i < 1 for i in its):
            raise ValueError("RegistrationConfig: iterations must be >= 1")
        object.__setattr__(self, "iterations", its)
        if self.learning_rate <= 0:
            raise ValueError("RegistrationConfig: learning rate must be > 0")
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError(f"RegistrationConfig: window must be odd and >= 3, got {self.window}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"RegistrationConfig: {name} must lie in [0, 1), "
                                 f"got {getattr(self, name)}")
        for name in ("adam_eps", "temperature"):
            if not getattr(self, name) > 0:
                raise ValueError(f"RegistrationConfig: {name} must be > 0, got {getattr(self, name)}")
        if self.max_contour_points < 1:
            raise ValueError(f"RegistrationConfig: max_contour_points must be >= 1, "
                             f"got {self.max_contour_points}")

    def to_dict(self) -> dict:
        return {
            "levels": self.levels,
            "iterations": list(self.iterations),
            "learning_rate": self.learning_rate,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "adam_eps": self.adam_eps,
            "weights": list(self.weights.as_dict().values()),
            "window": self.window,
            "max_contour_points": self.max_contour_points,
            "temperature": self.temperature,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RegistrationConfig":
        d = dict(d)
        if "weights" in d:
            w = d["weights"]
            d["weights"] = LossWeights(*w) if not isinstance(w, dict) else LossWeights(**w)
        if "iterations" in d and d["iterations"] is not None:
            d["iterations"] = tuple(d["iterations"])
        return cls(**d)


@dataclass
class AdamState:
    """First/second moment accumulators plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, shape) -> "AdamState":
        return cls(np.zeros(shape), np.zeros(shape), 0)


def adam_step(field: DisplacementField, grad: np.ndarray, moments: AdamState,
              config: RegistrationConfig) -> tuple[DisplacementField, AdamState]:
    """One bias-corrected Adam update applied component-wise to u."""
    t = moments.t + 1
    m = config.beta1 * moments.m + (1.0 - config.beta1) * grad
    v = config.beta2 * moments.v + (1.0 - config.beta2) * grad * grad
    m_hat = m / (1.0 - config.beta1 ** t)
    v_hat = v / (1.0 - config.beta2 ** t)
    u = field.u - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)
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
    """
    config = config or RegistrationConfig()
    if fixed.dims != moving.dims:
        raise ValueError(f"register_pair: fixed {fixed.dims} vs moving {moving.dims}")
    if not _same_spacing(fixed.spacing, moving.spacing):
        raise ValueError(f"register_pair: fixed spacing {fixed.spacing} vs moving {moving.spacing}")

    weights = config.weights
    unsupervised = False
    if weights.uses_masks and (fixed_mask is None or moving_mask is None):
        logger.warning("unsupervised mode: mask weights (seg, prototype, contour) disabled")
        weights = weights.without_masks()
        unsupervised = True
    use_masks = weights.uses_masks

    if use_masks:
        if fixed_mask.dims != fixed.dims or moving_mask.dims != moving.dims:
            raise ValueError("register_pair: mask dims do not match the volumes")
        if not (_same_spacing(fixed_mask.spacing, fixed.spacing)
                and _same_spacing(moving_mask.spacing, moving.spacing)):
            raise ValueError("register_pair: mask spacing does not match the volumes")
        if fixed_mask.num_classes != moving_mask.num_classes:
            raise ValueError(
                f"register_pair: class universes differ "
                f"({fixed_mask.num_classes} vs {moving_mask.num_classes})"
            )

    fixed_pyr = build_pyramid(fixed, config.levels)
    moving_pyr = build_pyramid(moving, config.levels)
    if use_masks:
        fixed_mask_pyr = build_pyramid(one_hot(fixed_mask), config.levels)
        moving_mask_pyr = build_pyramid(one_hot(moving_mask), config.levels)

    field = None
    trajectories = []
    level_seconds = []
    final_breakdown = None

    for level in range(config.levels - 1, -1, -1):      # coarse -> fine
        t0 = time.perf_counter()
        f_l = fixed_pyr[level]
        m_l = moving_pyr[level]
        level_weights = weights
        window = _effective_window(config.window, f_l.dims)
        if window == 0 and level_weights.sim > 0:
            logger.warning("level %d (%s): too small for any LNCC window, similarity off",
                           level, f_l.dims)
            level_weights = replace(level_weights, sim=0.0)
            window = 3
        state = build_state(
            f_l, m_l, level_weights,
            fixed_mask_pyr[level] if use_masks else None,
            moving_mask_pyr[level] if use_masks else None,
            window=window, temperature=config.temperature,
            max_points=config.max_contour_points, seed=config.seed + level,
        )
        # the start field is passed, not kept: the level holds one field
        field, totals, final_breakdown = _optimize_level(
            state,
            (DisplacementField.zeros(f_l.dims, f_l.spacing) if field is None
             else upsample_field(field, f_l.dims)),
            config.iterations[config.levels - 1 - level], config, level)
        trajectories.append(totals)
        level_seconds.append(time.perf_counter() - t0)

    return RegistrationResult(
        field=field,
        trajectories=tuple(trajectories),
        final_breakdown=final_breakdown,
        level_seconds=tuple(level_seconds),
        sdlogj=sdlogj(field),
        unsupervised=unsupervised,
    )


def _optimize_level(state, field: DisplacementField, iterations: int,
                    config: RegistrationConfig, level: int):
    """``iterations`` Adam steps on ``field`` itself, from fresh moments,
    against the level's ``state``; returns the field, the totals of every
    evaluation (the last one value-only, at the returned field) and that
    last breakdown."""
    moments = AdamState.zeros((3,) + field.dims)
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
