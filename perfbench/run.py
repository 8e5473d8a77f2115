"""Registration benchmark: one command, seeded phantom workloads.

    python3 perfbench/run.py --workload cardiac3_32 --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; ``protoreg`` is imported from its ``src/``.
Each run reads the phantom pairs of ``--seed`` (``Workload.phantom_seeds``)
from disk through ``protoreg.io``, calls ``register_pair`` and scores each
field with ``protoreg.metrics`` against the phantom's true field, so every
timing sits next to the quality it produced.

``--trace 0`` registers each of the run's pairs once, then goes round them
again while ``--seconds`` allows, and reports the end-to-end metrics; the
quality metrics are means over the pairs.  ``--trace 1`` registers the first
pair once to warm up, then untraced, traced (see ``tracer.py``) and untraced
again, then times each objective term alone, and reports the per-layer
metrics.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object.  Spans and a full report are written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import inputs
from workloads import WORKLOADS

OUT = inputs.ROOT / ".perfbench_out"
SETUP_PROBES = 3
MICROBENCH_REPS = 3
TAIL_PERCENTILES = (99.9, 99.0, 90.0)

# Printed and held to a bound (BENCHMARK.json "end_to_end").
END_TO_END = {"setup_s": "s", "register_s": "s", "peak_rss_mb": "MB",
              "dice": "frac", "epe_vox": "vox", "sdlogj": "1"}
# Printed and stored, but not held to a bound: the wall times behind the
# bounded ``setup_s`` (scaled, see below) and ``register_s`` (process CPU
# time, which leaves out time the process was not running), and folding and
# failures, which are hard checks: a registration that folds or fails makes
# the run incorrect.
REPORTED = {"setup_wall_s": "s", "register_wall_s": "s",
            "fold_frac": "frac", "failed_frac": "frac"}

# Import time on a shared machine drifts by 30-40% over tens of minutes, more
# than a bound may allow, so ``setup_s`` is the set-up wall time scaled to a
# reference speed: each probe is divided by the time another fresh interpreter
# takes to import protoreg's third-party dependencies alone, just before.
# The constant is that reference time on the machine the baseline was
# measured on; it only sets the scale.
REFERENCE_IMPORT_S = 0.46

LEVELS = range(4)
PER_LAYER = (
    {"io.read_ms": "ms", "io.bytes_read": "bytes",
     "grids.build_pyramid_ms": "ms", "grids.one_hot_ms": "ms"}
    | {f"gradients.build_state_ms.L{l}": "ms" for l in LEVELS}
    | {f"gradients.eval_ms.L{l}": "ms" for l in LEVELS}
    | {f"gradients.eval_self_ms.L{l}": "ms" for l in LEVELS}
    | {f"gradients.evals.L{l}": "count" for l in LEVELS}
    | {"warp.mask_sample_ms.L0": "ms", "warp.mask_points_sampled.L0": "count",
       "warp.mask_nonzero_frac.L0": "frac", "warp.image_sample_ms.L0": "ms",
       "warp.point_sample_ms.L0": "ms", "optimizer.adam_step_ms.L0": "ms",
       "warp.superpose_ms": "ms", "warp.upsample_field_ms": "ms"}
    | {f"optimizer.level_s.L{l}": "s" for l in LEVELS}
    | {f"losses.{t}_{m}_ms": "ms"
       for t in ("sim", "smooth", "seg", "contrast", "align", "contour") for m in ("fb", "f")}
    | {"warp.sdlogj_ms": "ms", "metrics.evaluate_ms": "ms", "trace.overhead_frac": "frac"}
    | {f"trace.coverage.L{l}": "frac" for l in LEVELS}
)


class BenchmarkError(RuntimeError):
    pass


@dataclass
class Pair:
    fixed: object
    moving: object
    fixed_labels: object
    moving_labels: object
    truth: object           # float64 (3, nx, ny, nz)
    dice0: float = math.nan
    epe0: float = math.nan


@dataclass
class Registration:
    register_s: float = math.nan        # process CPU time of register_pair
    register_wall_s: float = math.nan
    level_s: tuple = ()     # coarse -> fine, from RegistrationResult
    quality: dict | None = None
    phantom: int = 0        # index into the run's pairs
    evaluate_ms: float = math.nan
    failure: str | None = None
    field: object = None


def summarize(values) -> dict:
    """Median, plus the highest of p90/p99/p99.9 with at least ten samples
    beyond it.  No samples (a wrapped name never called) reads as 0."""
    if not values:
        return {"median": 0.0, "n": 0}
    out = {"median": statistics.median(values), "n": len(values)}
    for p in TAIL_PERCENTILES:
        if len(values) * (1.0 - p / 100.0) >= 10:
            out[f"p{p:g}"] = float(np.percentile(values, p))
            break
    return out


# ------------------------------------------------------------- registration

def load_pair(lib, directory) -> Pair:
    pair = Pair(**inputs.read_inputs(lib.io, directory),
                truth=np.load(directory / inputs.TRUTH))
    pair.dice0 = lib.metrics.evaluate(pair.fixed_labels, pair.moving_labels).avg_dsc
    pair.epe0 = float(np.sqrt((pair.truth ** 2).sum(axis=0)).mean())
    return pair


def register_and_score(lib, workload, pairs, phantom=0) -> Registration:
    pair = pairs[phantom]
    config = lib.optimizer.RegistrationConfig.from_dict(workload.config_dict())
    masks = (pair.fixed_labels, pair.moving_labels) if workload.masks else (None, None)
    rec = Registration(phantom=phantom)
    try:
        t0, c0 = perf_counter(), process_time()
        result = lib.optimizer.register_pair(pair.fixed, pair.moving, *masks, config=config)
        rec.register_s = process_time() - c0
        rec.register_wall_s = perf_counter() - t0
    except Exception:  # a failed registration is counted, not fatal
        rec.failure = "raised: " + traceback.format_exc().strip().splitlines()[-1]
        return rec
    rec.level_s = result.level_seconds
    field = rec.field = result.field
    if not np.isfinite(field.u).all():
        rec.failure = "non-finite field"
        return rec

    warped = lib.warp.warp_labels(pair.moving_labels, field)
    t0 = perf_counter()
    report = lib.metrics.evaluate(pair.fixed_labels, warped, field)
    rec.evaluate_ms = 1e3 * (perf_counter() - t0)
    det = lib.warp.jacobian_determinant(field).data
    rec.quality = {
        "dice": report.avg_dsc,
        "epe_vox": float(np.sqrt(((field.u - pair.truth) ** 2).sum(axis=0)).mean()),
        "sdlogj": report.sdlogj,
        "fold_frac": float((det <= 0).mean()),
    }
    if not rec.quality["dice"] > pair.dice0:
        rec.failure = f"Dice {rec.quality['dice']:.4f} not above unregistered {pair.dice0:.4f}"
    elif not rec.quality["epe_vox"] < pair.epe0:
        rec.failure = f"EPE {rec.quality['epe_vox']:.4f} not below unregistered {pair.epe0:.4f}"
    elif rec.quality["fold_frac"] > 0:
        rec.failure = f"field folds on {rec.quality['fold_frac']:.4g} of the voxels"
    return rec


def scored_by_phantom(records) -> dict:
    """Phantom index -> qualities of its scored registrations, in order."""
    scored = {}
    for rec in records:
        if rec.quality is not None:
            scored.setdefault(rec.phantom, []).append(rec.quality)
    return scored


def quality_mismatches(records) -> list:
    """Quality is seeded and deterministic: every registration of a pair
    must score exactly the same."""
    return [f"phantom {i}: {qs[0]} vs {q}"
            for i, qs in scored_by_phantom(records).items() for q in qs[1:] if q != qs[0]]


# ------------------------------------------------------------------- modes

def timed_run(lib, workload, pairs, seconds) -> tuple:
    """Every pair once, then round the pairs again while the next
    registration is expected to end within ``seconds``; a pair registered
    again must score exactly as before.  Quality is the mean over the pairs,
    so it does not depend on how many registrations fit in ``seconds``."""
    records = []
    t_start = perf_counter()
    while True:
        records.append(register_and_score(lib, workload, pairs, len(records) % len(pairs)))
        records[-1].field = None
        elapsed = perf_counter() - t_start
        walls = [r.register_wall_s for r in records if not math.isnan(r.register_wall_s)]
        if (len(records) >= len(pairs)
                and elapsed + statistics.median(walls or [elapsed]) > seconds):
            break
    scored = [qs[0] for qs in scored_by_phantom(records).values()]
    if not scored:
        raise BenchmarkError("no registration produced a field")
    summaries = {"register_s": summarize([r.register_s for r in records
                                          if not math.isnan(r.register_s)]),
                 "register_wall_s": summarize(walls)}
    metrics = {name: summaries[name]["median"] for name in summaries}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics |= {name: statistics.fmean(q[name] for q in scored) for name in scored[0]}
    return metrics, summaries, records


def microbench(lib, tracer, workload, pair, field) -> None:
    """Each term alone, with and without its gradient, on the fine-level
    state at the registered field.  A term's time includes the warps it
    triggers.  The state carries the masks even for a maskless workload, so
    that all six terms are timed on every grid.  The state is built through
    the traced names, so for a maskless workload this is where its
    ``one_hot`` calls and its mask and point samples are recorded."""
    config = lib.optimizer.RegistrationConfig.from_dict(workload.config_dict())
    tracer.phase, tracer.level = "microbench", 0
    state = lib.optimizer.build_state(
        pair.fixed, pair.moving, config.weights,
        lib.optimizer.one_hot(pair.fixed_labels), lib.optimizer.one_hot(pair.moving_labels),
        window=config.window, temperature=config.temperature,
        max_points=config.max_contour_points, seed=config.seed,
    )
    for term in lib.gradients.TERM_CHECKS:
        evaluate = lib.gradients.term_evaluator(state, term)
        for with_grad, mode in ((True, "fb"), (False, "f")):
            for _ in range(MICROBENCH_REPS):
                with tracer.span(f"losses.{term}_{mode}"):
                    evaluate(field, with_grad)


def traced_run(lib, workload, pairs) -> tuple:
    """On the first pair: a warm-up registration, then untraced, traced and
    untraced again, so that neither side of ``trace.overhead_frac`` runs on
    a cold process and drift over the run cancels."""
    from tracer import Tracer

    tracer = Tracer()
    records = [register_and_score(lib, workload, pairs) for _ in range(2)]
    with tracer.installed():
        records.append(register_and_score(lib, workload, pairs))
    records.append(register_and_score(lib, workload, pairs))
    failures = [r.failure for r in records if r.field is None]
    if failures:
        raise BenchmarkError(f"the traced run needs registered fields: {failures}")
    traced, untraced = records[2], (records[1], records[3])
    with tracer.installed():
        microbench(lib, tracer, workload, pairs[0], traced.field)
    levels = len(traced.level_s)
    level_s = [statistics.median(times) for times in zip(*(r.level_s for r in untraced))]
    metrics, summaries = {}, {}

    def per_call(name, values):
        summaries[name] = summarize(values)
        metrics[name] = summaries[name]["median"]

    per_call("grids.build_pyramid_ms", tracer.durations_ms("grids.build_pyramid"))
    per_call("grids.one_hot_ms", tracer.durations_ms("grids.one_hot"))
    for level in range(levels):
        suffix = f".L{level}"
        fine_index = levels - 1 - level          # level_s runs coarse -> fine
        per_call("gradients.build_state_ms" + suffix,
                 [s.ms for s in tracer.select("gradients.build_state", level)])
        evals = [s.ms for s in tracer.select("gradients.evaluate_objective", level)]
        per_call("gradients.eval_ms" + suffix, evals)
        per_call("gradients.eval_self_ms" + suffix,
                 tracer.self_ms("gradients.evaluate_objective", level))
        metrics["gradients.evals" + suffix] = len(evals)
        metrics["optimizer.level_s" + suffix] = level_s[fine_index]
        metrics["trace.coverage" + suffix] = (tracer.top_level_seconds(level)
                                              / traced.level_s[fine_index])
    for kind in ("mask", "image", "point"):
        per_call(f"warp.{kind}_sample_ms.L0", [g[0] for g in tracer.per_parent(kind, 0)])
    masks = tracer.per_parent("mask", 0)
    metrics["warp.mask_points_sampled.L0"] = statistics.median([g[1] for g in masks] or [0])
    metrics["warp.mask_nonzero_frac.L0"] = (sum(g[2] for g in masks)
                                            / max(1, sum(g[1] for g in masks)))
    per_call("optimizer.adam_step_ms.L0", [s.ms for s in tracer.select("optimizer.adam_step", 0)])
    for name in ("superpose", "upsample_field", "sdlogj"):
        per_call(f"warp.{name}_ms", tracer.durations_ms("warp." + name))
    for term in lib.gradients.TERM_CHECKS:
        for mode in ("fb", "f"):
            name = f"losses.{term}_{mode}"
            per_call(name + "_ms", [s.ms for s in tracer.select(name, phase="microbench")])
    metrics["metrics.evaluate_ms"] = statistics.median(r.evaluate_ms for r in records)
    metrics["trace.overhead_frac"] = (traced.register_s
                                      / statistics.median(r.register_s for r in untraced) - 1.0)
    return metrics, summaries, records, tracer


# -------------------------------------------------------------------- main

def import_library():
    sys.path.insert(0, str(inputs.SRC))
    import protoreg
    from protoreg import gradients, io, metrics, optimizer, warp

    if Path(protoreg.__file__).resolve().parent != inputs.SRC / "protoreg":
        raise BenchmarkError(f"protoreg imported from {protoreg.__file__}, not {inputs.SRC}")
    return argparse.Namespace(gradients=gradients, io=io, metrics=metrics,
                              optimizer=optimizer, warp=warp)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (inputs.SRC / "protoreg" / "__init__.py").is_file():
        print(f"error: no protoreg sources under {inputs.SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # The traced run registers the first pair only.
    seeds = workload.phantom_seeds(args.seed)[:1 if args.trace else None]
    directories = inputs.ensure_pairs(workload, seeds)
    probes = [inputs.probe_setup(directories[0]) for _ in range(SETUP_PROBES)]
    lib = import_library()
    pairs = [load_pair(lib, d) for d in directories]

    if args.trace:
        metrics, summaries, records, tracer = traced_run(lib, workload, pairs)
        metrics["io.read_ms"] = statistics.median(p["read_ms"] for p in probes)
        metrics["io.bytes_read"] = probes[0]["bytes_read"]
        units = PER_LAYER
    else:
        metrics, summaries, records = timed_run(lib, workload, pairs, args.seconds)
        metrics["setup_wall_s"] = statistics.median(p["setup_s"] for p in probes)
        metrics["setup_s"] = REFERENCE_IMPORT_S * statistics.median(
            p["setup_s"] / p["reference_import_s"] for p in probes)
        units = END_TO_END | REPORTED
    failed = sum(r.failure is not None for r in records)
    metrics["failed_frac"] = failed / len(records)
    mismatches = quality_mismatches(records)
    missing = [name for name in units if name not in metrics]
    correct = not failed and not mismatches and not missing

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"phantom seeds {seeds}  registrations {len(records)}")
    for rec in records:
        quality = "  ".join(f"{k} {v:.6g}" for k, v in (rec.quality or {}).items())
        print(f"  phantom {seeds[rec.phantom]}  register_s {rec.register_s:.4f}  "
              f"wall {rec.register_wall_s:.4f}  {quality}"
              + (f"  FAILED: {rec.failure}" if rec.failure else ""))
    for line in mismatches:
        print(f"  QUALITY NOT REPEATED: {line}")
    for name, unit in units.items():
        detail = ""
        if name in summaries:
            s = summaries[name]
            tail = [f"{k} {v:.6g}" for k, v in s.items() if k.startswith("p")]
            detail = f"  (median of {s['n']}" + "".join("; " + t for t in tail) + ")"
        print(f"{name:32s} {metrics.get(name, float('nan')):.6g} {unit}{detail}")
        if name in summaries and summaries[name]["n"] == 0:
            print(f"warning: {name}: no spans recorded, reported as 0")
    if args.trace:
        print("note: each losses.* time includes the warps that term triggers")
        low = [l for l in LEVELS if metrics.get(f"trace.coverage.L{l}", 1.0) < 0.9]
        if low:
            print(f"warning: spans cover under 90% of level time on levels {low}")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    stem.with_suffix(".json").write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "config": workload.config_dict(),
        "phantoms": [workload.phantom_dict(s) for s in seeds],
        "metrics": metrics, "summaries": summaries, "setup_probes": probes,
        "registrations": [{"phantom_seed": seeds[r.phantom], "register_s": r.register_s,
                           "register_wall_s": r.register_wall_s, "level_s": list(r.level_s),
                           "quality": r.quality, "failure": r.failure} for r in records],
    }, indent=1) + "\n")

    reported = END_TO_END if not args.trace else PER_LAYER
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in reported.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
