"""Every name a ``protoreg`` module imports is used in it, and a
registration loads no module it does not need: no ``scipy`` module at all
(only ``protoreg.phantom`` imports scipy).

The package root is left out of the first check: it imports names to
re-export them.  An import line marked ``# noqa: F401`` is kept on purpose
and is left out too.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import register_numpy_only
from protoreg import io
from protoreg.phantom import generate, three_blob_spec

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "protoreg"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from math import pi, tau as turn\nfrom json import dumps  # noqa: F401\n"
              "sys.exit(pi)\n")
    assert unused_imports(source) == ["os", "turn"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


REGISTER_16 = """
import sys
import protoreg
from protoreg.phantom import generate, three_blob_spec
pair = generate(three_blob_spec(dims=(16, 16, 16), num_blobs=1, magnitude=1.0, seed=0))
config = protoreg.RegistrationConfig(levels=2, iterations=(3, 3), window=5, learning_rate=1e-2)
result = protoreg.register_pair(pair.fixed, pair.moving, pair.fixed_labels, pair.moving_labels,
                                config)
assert all(value != 0.0 for value in result.final_breakdown.values.values())
print("scipy.spatial" in sys.modules)
"""


def test_a_registration_loads_no_scipy_spatial():
    # scipy.spatial costs about 12 MB of resident memory and 70 ms of import
    # time in a process; the contour term samples distance maps instead of
    # querying KD-trees, so a registration with all five terms needs none
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", REGISTER_16], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def imports_scipy(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom) and not node.level
                 else [])
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            return True
    return False


def test_only_the_phantom_module_imports_scipy():
    assert imports_scipy("import numpy\nfrom scipy.ndimage import label\n")
    assert not imports_scipy("import scipyx\nfrom .scipy import f\n")
    modules = sorted(path.name for path in SRC.glob("*.py"))
    assert [m for m in modules if imports_scipy((SRC / m).read_text())] == ["phantom.py"]


def test_a_registration_read_from_disk_loads_no_scipy(tmp_path):
    # numpy + scipy.ndimage take about twice the resident memory of numpy
    # alone; the phantom is written here, and a fresh interpreter reads it
    # back and registers it with all five terms (the script the numpy-only
    # CI job runs without a directory, where scipy is not installed)
    pair = generate(three_blob_spec(dims=(16, 16, 16), num_blobs=1, magnitude=1.0, seed=3))
    for name, fname in register_numpy_only.FILES.items():
        io.write_volume(getattr(pair, name), tmp_path / fname)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, register_numpy_only.__file__, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "no scipy module" in proc.stdout
