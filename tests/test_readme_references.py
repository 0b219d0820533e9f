"""Every code reference in README.md names something that exists: a
backticked ``module.name`` (or ``cp2tori.module.name``) an attribute of
that cp2tori module, and a backticked ``tests/<file>.py::name`` a name
defined in that file."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p.stem for p in (ROOT / "src" / "cp2tori").glob("*.py")
                 if p.stem != "__init__")
SPAN = re.compile(r"`([^`\n]+)`")
MODULE_REF = re.compile(r"(?<![\w.])(?:cp2tori\.)?(%s)((?:\.[A-Za-z_]\w*)+)"
                        % "|".join(MODULES))
TEST_REF = re.compile(r"(tests/[\w/]+\.py)::(\w+)")


def references(text):
    """(module references, test references) in the backticked spans of
    ``text``: (module, dotted attribute path) and (file, name) pairs."""
    spans = SPAN.findall(text)
    return ([(m, path[1:]) for s in spans for m, path in MODULE_REF.findall(s)],
            [ref for s in spans for ref in TEST_REF.findall(s)])


def _defined(source):
    """The names a module's top level defines."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_readme_references_exist():
    module_refs, test_refs = references((ROOT / "README.md").read_text())
    assert len(module_refs) >= 10 and len(test_refs) >= 2  # the patterns match
    missing = []
    for module, path in module_refs:
        obj = importlib.import_module(f"cp2tori.{module}")
        for attr in path.split("."):
            if not hasattr(obj, attr):
                missing.append(f"{module}.{path}")
                break
            obj = getattr(obj, attr)
    for file, name in test_refs:
        source = ROOT / file
        if not source.is_file() or name not in _defined(source.read_text()):
            missing.append(f"{file}::{name}")
    assert not missing, f"README.md cites names that do not exist: {missing}"


def test_references_are_found_in_spans_only():
    text = ("`family.lift_data` and `immersion._unit_frame(d, xs)`'s frame; "
            "family.outside_a_span; `samples.csv`, `cp2tori.family.quad`; "
            "`tests/conftest.py::quad_g_phases`, tests/x.py::y")
    assert references(text) == (
        [("family", "lift_data"), ("immersion", "_unit_frame"), ("family", "quad")],
        [("tests/conftest.py", "quad_g_phases")])
