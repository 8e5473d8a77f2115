"""Spans around the library's layer boundaries, recorded from outside.

``Tracer.installed()`` replaces public names in the ``protoreg.optimizer`` and
``protoreg.gradients`` namespaces with timing wrappers and restores them on
exit; no file of the library changes.  Spans are kept in memory and written
out once, at the end of the run.

A span carries its name, start, end, parent span, pyramid level and phase
("register" for the traced registration, "microbench" for the per-term
timings).  The level is set by the wrapped ``build_state``, from the dims of
the state it builds; spans before the first ``build_state`` have level None.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# name in protoreg.optimizer -> span name
OPTIMIZER_NAMES = {
    "build_pyramid": "grids.build_pyramid",
    "one_hot": "grids.one_hot",
    "build_state": "gradients.build_state",
    "evaluate_objective": "gradients.evaluate_objective",
    "adam_step": "optimizer.adam_step",
    "superpose": "warp.superpose",
    "upsample_field": "warp.upsample_field",
    "sdlogj": "warp.sdlogj",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "level", "phase", "samples", "nonzero")

    def __init__(self, name, parent, level, phase):
        self.name = name
        self.parent = parent
        self.level = level
        self.phase = phase
        self.samples = 0
        self.nonzero = 0

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "level": self.level, "phase": self.phase,
                "samples": self.samples, "nonzero": self.nonzero}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.level = None
        self.phase = "register"
        self._level_of_dims: dict = {}
        self._moving_data = None

    # ------------------------------------------------------------ recording

    def _open(self, name) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None, self.level, self.phase)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name, fn):
        def wrapped(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return wrapped

    def _wrap_build_pyramid(self, fn):
        inner = self._wrap(OPTIMIZER_NAMES["build_pyramid"], fn)

        def build_pyramid(grid, levels):
            pyramid = inner(grid, levels)
            for level in range(len(pyramid)):
                self._level_of_dims.setdefault(pyramid[level].dims, level)
            return pyramid
        return build_pyramid

    def _wrap_build_state(self, fn):
        inner = self._wrap(OPTIMIZER_NAMES["build_state"], fn)

        def build_state(fixed, *args, **kwargs):
            self.level = self._level_of_dims.get(fixed.dims, self.level)
            state = inner(fixed, *args, **kwargs)
            self._moving_data = state.moving.data
            return state
        return build_state

    def _wrap_sample(self, fn):
        """Image, mask and point sampling are told apart by the ``data``
        argument (the state's moving image or not) and by the points' shape
        ((3, N) for contour transport)."""

        def sample_volume_with_gradient(data, points):
            if data is self._moving_data:
                kind = "image"
            elif points.ndim == 2:
                kind = "point"
            else:
                kind = "mask"
            span = self._open("warp." + kind + "_sample")
            try:
                value, grad = fn(data, points)
            finally:
                self._close(span)
            if kind == "mask":
                span.samples = value.size
                span.nonzero = int(np.count_nonzero(value))
            return value, grad
        return sample_volume_with_gradient

    def _wrapper(self, name, fn):
        if name == "build_pyramid":
            return self._wrap_build_pyramid(fn)
        if name == "build_state":
            return self._wrap_build_state(fn)
        return self._wrap(OPTIMIZER_NAMES[name], fn)

    @contextmanager
    def installed(self):
        from protoreg import gradients, optimizer

        targets = [(optimizer, name) for name in OPTIMIZER_NAMES]
        targets.append((gradients, "sample_volume_with_gradient"))
        originals = [getattr(module, name) for module, name in targets]
        try:
            for (module, name), fn in zip(targets, originals):
                wrapped = (self._wrap_sample(fn) if module is gradients
                           else self._wrapper(name, fn))
                setattr(module, name, wrapped)
            yield self
        finally:
            for (module, name), fn in zip(targets, originals):
                setattr(module, name, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")

    # ------------------------------------------------------------- analysis

    def select(self, name, level="any", phase="register") -> list:
        return [s for s in self.spans if s.name == name and s.phase == phase
                and (level == "any" or s.level == level)]

    def durations_ms(self, name) -> list:
        """Per-call times of ``name`` in the traced registration; when the
        registration never calls it (a maskless workload), those of the
        microbench instead."""
        spans = self.select(name) or self.select(name, phase="microbench")
        return [s.ms for s in spans]

    def self_ms(self, name, level) -> list:
        """Span time minus the time covered by its child spans."""
        child_ms: dict = {}
        for s in self.spans:
            if s.parent is not None:
                child_ms[s.parent] = child_ms.get(s.parent, 0.0) + s.ms
        return [s.ms - child_ms.get(i, 0.0) for i, s in enumerate(self.spans)
                if s.name == name and s.phase == "register" and s.level == level]

    def per_parent(self, kind, level) -> list:
        """Sampling of one kind summed per calling evaluation:
        [(ms, samples, nonzero), ...]; microbench evaluations stand in when
        the registration samples nothing of that kind."""
        for phase in ("register", "microbench"):
            sums: dict = {}
            for s in self.select("warp." + kind + "_sample", level, phase):
                ms, n, nz = sums.get(s.parent, (0.0, 0, 0))
                sums[s.parent] = (ms + s.ms, n + s.samples, nz + s.nonzero)
            if sums:
                return list(sums.values())
        return []

    def top_level_seconds(self, level) -> float:
        """Time covered by spans without a parent, in the registration.  The
        final ``sdlogj`` runs after the last level's clock has stopped."""
        return sum(s.end - s.start for s in self.spans
                   if s.parent is None and s.phase == "register" and s.level == level
                   and s.name != "warp.sdlogj")
