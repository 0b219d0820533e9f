"""Each cp2tori module uses another's private (single-underscore) names
only where two modules share kernels: family reads elliptic's."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cp2tori"

# the (importing module, imported module) pair that may share private names
ALLOWED = ("family", "elliptic")


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(module, source):
    """(imported module, name) of each private name that ``module``'s
    source imports from another cp2tori module, by relative or absolute
    import; ``from . import x`` imports from the package itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            origin = node.module or "__init__"
        elif (node.module or "").startswith("cp2tori"):
            origin = node.module.partition(".")[2] or "__init__"
        else:
            continue
        found += [(origin, a.name) for a in node.names
                  if _is_private(a.name) and origin != module]
    return found


def test_no_module_imports_another_modules_private_names():
    checked = 0
    for path in sorted(SRC.glob("*.py")):
        for origin, name in private_imports(path.stem, path.read_text()):
            assert (path.stem, origin) == ALLOWED, (
                f"{path.stem} imports the private name {name} from {origin}")
            checked += 1
    assert checked > 0  # the allowed imports are found, so the walk works


def test_private_imports_are_found_in_every_import_form():
    source = """
from . import __version__, _hidden
from .family import (AlphaTriple, _c2_pair,
                     derive_grid)
from cp2tori.elliptic import _sn_cn
import numpy as np
from numpy import _private_numpy

def inner():
    from .family import _derived
"""
    assert sorted(private_imports("functionals", source)) == [
        ("__init__", "_hidden"), ("elliptic", "_sn_cn"),
        ("family", "_c2_pair"), ("family", "_derived")]
    assert private_imports("family", "from .family import _x\n") == []
