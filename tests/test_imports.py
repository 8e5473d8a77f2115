"""Every name a ``protoreg`` module imports is used in it, every local a
function assigns is read, every public name it defines is used by the
library or the benchmark, and a registration loads no module it does not
need: no module of the package imports ``scipy``, which only the tests'
oracles use, and a registration runs where scipy cannot be imported at all.
Every name a docstring or comment cites in double backquotes, when it
starts with a ``protoreg`` module or an underscore, exists.

The package root is left out of the import check: it imports names to
re-export them.  An import line marked ``# noqa: F401`` is kept on purpose
and is left out too.  The public-name check leaves out ``phantom``, which
makes the fixtures of the tests and the benchmark.
"""

import ast
import dataclasses
import importlib
import os
import re
import subprocess
import sys
import tokenize
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


def own_scope(function):
    """The nodes of ``function``'s body, not descending into the functions,
    lambdas and classes it defines (their assignments are their own)."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(source: str) -> list:
    """``function.name`` for each local a function binds by ``=``, an
    annotated ``=`` or ``:=`` and never reads (pyflakes' F841): tuple
    targets and names starting with ``_`` are left out, and a read in a
    nested function counts."""
    found = []
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound, declared = set(), set()
        for node in own_scope(function):
            if isinstance(node, ast.Assign):
                bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                bound.update([node.target.id] if isinstance(node.target, ast.Name) else [])
            elif isinstance(node, ast.NamedExpr):
                bound.add(node.target.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        read = {node.id for node in ast.walk(function)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        read.update(node.target.id for node in ast.walk(function)
                    if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name))
        found += [f"{function.name}.{name}" for name in sorted(bound - read - declared)
                  if not name.startswith("_")]
    return sorted(found)


def test_unused_locals_are_found():
    source = ("LIMIT = 3\n"
              "def f(x):\n    dims = x.shape\n    a, b = x\n    _unused = 1\n"
              "    n: int = 2\n    total = 0\n    total += n\n    k = 1\n"
              "    def inner():\n        gone = k\n        return 1\n"
              "    if (m := b) > 0:\n        pass\n    return inner\n"
              "def g():\n    global LIMIT\n    LIMIT = 4\n    seen = 1\n    del seen\n")
    assert unused_locals(source) == ["f.dims", "f.m", "inner.gone"]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_local_it_assigns(module):
    assert unused_locals((SRC / module).read_text()) == []


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


def citations(source: str) -> list:
    """The leading dotted name of every text in double backquotes in the
    docstrings and comments of ``source``, in order."""
    nodes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    texts = [ast.get_docstring(node, clean=False) or "" for node in ast.walk(ast.parse(source))
             if isinstance(node, nodes)]
    lines = iter(source.splitlines(keepends=True))
    texts += [token.string for token in tokenize.generate_tokens(lambda: next(lines, ""))
              if token.type == tokenize.COMMENT]
    return [match.group(1) for text in texts
            for match in re.finditer(r"``([A-Za-z_][\w.]*)[^`]*``", text)]


def resolves(target, parts) -> bool:
    """Each of ``parts`` is an attribute of the one before it, starting at
    ``target``; the last may be a dataclass field without a default."""
    for i, part in enumerate(parts):
        if hasattr(target, part):
            target = getattr(target, part)
        else:
            return (i == len(parts) - 1 and dataclasses.is_dataclass(target)
                    and part in {f.name for f in dataclasses.fields(target)})
    return True


def unresolved_citations(source: str, module: str) -> list:
    """The citations of ``source``, the source of ``module``, that start
    with a package module (``warp.mask_points``) or an underscore
    (``_contour_band``, looked up in ``module`` itself) and do not resolve."""
    package = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    missing = []
    for name in citations(source):
        first, *rest = name.split(".")
        if first in package:
            target = importlib.import_module(f"protoreg.{first}")
        elif first.startswith("_"):
            target, rest = importlib.import_module(module), [first, *rest]
        else:
            continue
        if not resolves(target, rest):
            missing.append(name)
    return missing


def test_unresolved_citations_are_found():
    source = ('"""``warp.mask_points`` and ``warp.gone``, ``_contour_band(fixed)``,\n'
              '``_gone``, ``LossWeights.unknown``, ``numpy.nothing``."""\n'
              "# ``grids.Volume.data`` ``warp.MaskStack.values`` ``grids.Volume.gone``\n"
              "x = 1  # ``grids``, ``_bands``\n")
    assert citations(source)[:3] == ["warp.mask_points", "warp.gone", "_contour_band"]
    assert unresolved_citations(source, "protoreg.losses") == ["warp.gone", "_gone", "grids.Volume.gone"]


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_docstrings_and_comments_cite_names_that_exist(module):
    # nothing is declared that does not exist: a deletion that leaves a
    # citation of what it deleted fails here
    name = "protoreg" if module == "__init__.py" else f"protoreg.{module[:-3]}"
    assert unresolved_citations((SRC / module).read_text(), name) == []


REGISTER_16 = """
import sys
import protoreg
from protoreg.phantom import generate, three_blob_spec
pair = generate(three_blob_spec(dims=(16, 16, 16), num_blobs=1, magnitude=1.0, seed=0))
config = protoreg.RegistrationConfig(levels=2, iterations=(3, 3), window=5)
result = protoreg.register_pair(pair.fixed, pair.moving, pair.fixed_labels, pair.moving_labels,
                                config)
assert all(value != 0.0 for value in result.final_breakdown.values.values())
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""


def test_a_registration_loads_no_scipy_module():
    # scipy.spatial alone costs about 12 MB of resident memory and 70 ms of
    # import time in a process; a phantom made and registered with all five
    # terms needs no scipy module at all
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", REGISTER_16], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def imports_scipy(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom) and not node.level
                 else [])
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            return True
    return False


def test_no_module_imports_scipy():
    assert imports_scipy("import numpy\nfrom scipy.ndimage import label\n")
    assert not imports_scipy("import scipyx\nfrom .scipy import f\n")
    modules = sorted(path.name for path in SRC.glob("*.py"))
    assert [m for m in modules if imports_scipy((SRC / m).read_text())] == []


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
    # without a directory the script generates a phantom, writes it as the
    # benchmark writes its inputs and registers what io reads back: float32
    # images and uint8 label maps (what the numpy-only and floor CI jobs run)
    assert "no scipy module" in run_numpy_only_script()


# Runs a script as __main__ in an interpreter where ``import scipy`` raises
# ImportError, as it does where scipy is not installed.
WITHOUT_SCIPY = """
import runpy
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"No module named {name!r}")
        return None


sys.meta_path.insert(0, NoScipy())
try:
    import scipy  # noqa: F401
except ImportError:
    pass
else:
    raise SystemExit("scipy imported")
script = sys.argv.pop(1)
runpy.run_path(script, run_name="__main__")
"""


def test_the_numpy_only_script_runs_where_scipy_cannot_be_imported():
    # the numpy-only CI job: the script makes its phantom, writes, reads back
    # and registers it with every import of scipy failing
    assert "no scipy module" in run_numpy_only_script(without_scipy=True)


# pyproject.toml's pytest filterwarnings as interpreter options: the script
# fails on a warning as the tests do, in this file and in the CI jobs
WARNINGS_AS_ERRORS = ["-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
                      "-W", "error::FutureWarning"]


def test_the_numpy_only_script_runs_under_the_tests_warning_policy():
    pyproject = (TESTS.parent / "pyproject.toml").read_text().splitlines()
    line = next(line for line in pyproject if line.startswith("filterwarnings"))
    assert ast.literal_eval(line.split("=", 1)[1].strip()) == WARNINGS_AS_ERRORS[1::2]
    workflow = (TESTS.parent / ".github" / "workflows" / "tier1.yml").read_text()
    command = " ".join(["python", *WARNINGS_AS_ERRORS, "tests/register_numpy_only.py"])
    assert workflow.count(command) == 2         # the floor and numpy-only jobs


def run_numpy_only_script(*args, without_scipy: bool = False) -> str:
    """Standard output of the script, run with ``args`` in a fresh
    interpreter under ``WARNINGS_AS_ERRORS``; with ``without_scipy`` one
    where scipy cannot be imported."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    prefix = ["-c", WITHOUT_SCIPY] if without_scipy else []
    proc = subprocess.run([sys.executable, *WARNINGS_AS_ERRORS, *prefix,
                           register_numpy_only.__file__, *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
