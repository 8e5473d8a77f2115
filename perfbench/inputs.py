"""Benchmark inputs on disk, and the set-up probe that reads them back.

Each phantom pair is generated once and cached under ``.perfbench_cache/``
in the checkout: images as ``.nii.gz`` and labels in the raw format, both
written by ``protoreg.io.write_volume``, so that a timed run reads its inputs
the way a user would.  The true field is kept as a float64 ``.npy``; it is
used only for scoring.  The cache directory is keyed on the phantom spec and
on the source of every ``protoreg`` module, so files written by another
version of the library, or for another spec, are never read back.

Run as a script it has three jobs, each in a fresh interpreter:

    python3 perfbench/inputs.py generate WORKLOAD SEED DIR [SEED DIR ...]
    python3 perfbench/inputs.py probe DIR
    python3 perfbench/inputs.py reference

``probe`` times ``import protoreg`` plus reading the four inputs;
``reference`` times importing protoreg's third-party dependencies alone,
which tracks how fast this machine imports at the moment.  Each prints one
JSON line.  Nothing heavy is imported at module level, so the clocks start
before numpy is loaded.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"

# input name -> (file name, read_volume kind)
FILES = {
    "fixed": ("fixed.nii.gz", "image"),
    "moving": ("moving.nii.gz", "image"),
    "fixed_labels": ("fixed_labels.f32raw", "labels"),
    "moving_labels": ("moving_labels.f32raw", "labels"),
}
TRUTH = "truth.npy"
CHILD_TIMEOUT_S = 600


def pair_dir(workload, seed: int) -> Path:
    key = hashlib.sha256(json.dumps(workload.phantom_dict(seed), sort_keys=True).encode())
    for path in sorted((SRC / "protoreg").glob("*.py")):
        key.update(path.name.encode() + b"\0" + path.read_bytes())
    return CACHE / workload.name / f"seed{seed}-{key.hexdigest()[:16]}"


def ensure_pairs(workload, seeds) -> list:
    """Directories of the run's phantom pairs; the missing ones are
    generated, all in one child process."""
    directories = [pair_dir(workload, seed) for seed in seeds]
    missing = [arg for seed, d in zip(seeds, directories) if not (d / TRUTH).is_file()
               for arg in (str(seed), str(d))]
    if missing:
        _child(["generate", workload.name, *missing])
    return directories


def probe_setup(directory: Path) -> dict:
    """Set-up cost measured in a fresh interpreter, next to the reference
    import measured in another one just before."""
    reference = json.loads(_child(["reference"]).splitlines()[-1])
    return json.loads(_child(["probe", str(directory)]).splitlines()[-1]) | reference


def _child(args) -> str:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"inputs.py {' '.join(args)} exited with {proc.returncode}")
    return proc.stdout


def read_inputs(io, directory: Path) -> dict:
    return {name: io.read_volume(directory / fname, kind)
            for name, (fname, kind) in FILES.items()}


def input_bytes(directory: Path) -> int:
    """Bytes the four reads take from disk, raw sidecars included."""
    total = 0
    for fname, _ in FILES.values():
        path = directory / fname
        total += path.stat().st_size
        if path.suffix == ".f32raw":
            total += path.with_suffix(".json").stat().st_size
    return total


def _generate(workload_name: str, seed: int, directory: Path) -> None:
    import numpy as np
    from protoreg import io
    from protoreg.phantom import PhantomSpec, generate
    from workloads import WORKLOADS

    spec = PhantomSpec(**WORKLOADS[workload_name].phantom_dict(seed))
    pair = generate(spec)
    tmp = directory.with_name(directory.name + f".tmp{os.getpid()}")
    tmp.mkdir(parents=True, exist_ok=True)
    for name, (fname, _) in FILES.items():
        io.write_volume(getattr(pair, name), tmp / fname)
    np.save(tmp / TRUTH, pair.truth.u)
    tmp.rename(directory)


def _probe(directory: Path) -> None:
    t0 = time.perf_counter()
    import protoreg  # noqa: F401
    import protoreg.optimizer  # noqa: F401
    from protoreg import io
    t1 = time.perf_counter()
    read_inputs(io, directory)
    t2 = time.perf_counter()
    print(json.dumps({"setup_s": t2 - t0, "read_ms": 1e3 * (t2 - t1),
                      "bytes_read": input_bytes(directory)}))


def _reference() -> None:
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.ndimage  # noqa: F401
    import scipy.spatial  # noqa: F401
    print(json.dumps({"reference_import_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    job, *rest = sys.argv[1:]
    if job == "generate":
        for seed, directory in zip(rest[1::2], rest[2::2]):
            _generate(rest[0], int(seed), Path(directory))
    elif job == "probe":
        _probe(Path(rest[0]))
    elif job == "reference":
        _reference()
    else:
        sys.exit(f"unknown job {job!r}")
