"""Every name a ``protoreg`` module imports is used in it, every public
name it defines is used by the library or the benchmark, and a
registration loads no module it does not need: no ``scipy`` module at all
(only ``protoreg.phantom`` imports scipy).

The package root is left out of the first check: it imports names to
re-export them.  An import line marked ``# noqa: F401`` is kept on purpose
and is left out too.  The second check leaves out ``phantom``, which makes
the fixtures of the tests and the benchmark.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import protoreg
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


def identifiers(node) -> set:
    """The names ``node`` reads, as a ``Name``, an ``Attribute`` or an
    import; strings and docstrings do not count."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in sub.names for part in alias.name.split("."))
    return names


def defined_names(statement) -> list:
    """The public names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def unshipped_names(library: dict, checked, users, exported=()) -> list:
    """The public top-level names of the ``checked`` modules of ``library``
    (module name -> source) that no statement of ``library`` other than
    their own definition reads, and no source in ``users`` reads either."""
    statements = {module: [(statement, identifiers(statement))
                           for statement in ast.parse(source).body]
                  for module, source in library.items()}
    # how many top-level statements of the library read each name
    readers = Counter(name for body in statements.values() for _, names in body
                      for name in names)
    outside = set(exported).union(*(identifiers(ast.parse(source)) for source in users))
    return sorted(name for module in checked for statement, names in statements[module]
                  for name in defined_names(statement)
                  if name not in outside and readers[name] == (name in names))


def test_unshipped_names_are_found():
    library = {"a": ("from .b import used\nLIMIT = 3\nGONE = 4\n"
                     "def own(x):\n    return own(x - 1)\n"
                     "def _private():\n    pass\n"),
               "b": ('def used():\n    """GONE"""\n    return 1\nclass Kept:\n    pass\n'
                     "def read_by_users():\n    pass\n")}
    users = ["import b\nb.read_by_users(a.LIMIT)\n"]
    assert unshipped_names(library, ["a", "b"], users, exported=["Kept"]) == ["GONE", "own"]


def test_the_library_ships_nothing_only_tests_call():
    # the package root's ``__all__`` is the user surface; anything else
    # must be read by the library itself or by the benchmark
    library = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    users = [path.read_text() for path in (TESTS.parent / "perfbench").glob("*.py")]
    checked = sorted(set(library) - {"__init__", "phantom"})
    assert unshipped_names(library, checked, users, protoreg.__all__) == []


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
    assert "no scipy module" in run_numpy_only_script(str(tmp_path))


def test_the_numpy_only_script_registers_its_pair_read_back_from_disk():
    # without a directory the script writes its spheres as the benchmark
    # writes its inputs and registers what io reads back: float32 images and
    # uint8 label maps (what the numpy-only and floor CI jobs run)
    assert "no scipy module" in run_numpy_only_script()


def run_numpy_only_script(*args) -> str:
    """Standard output of the script, run with ``args`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, register_numpy_only.__file__, *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
