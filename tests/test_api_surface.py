"""API-surface guard: every public top-level function and class of the
library has a caller inside ``src/skewext`` or is named as a feature in the
README.

A name counts as referenced when some module of the package loads it (as a
bare name or as an attribute) anywhere but in its own definition; an import
alone does not count.  A name counts as documented when it is the whole
content of a backtick span in ``README.md``, bare or qualified by its module.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "skewext"


def _modules():
    paths = sorted(PACKAGE.glob("*.py"))
    return {path.stem: ast.parse(path.read_text()) for path in paths}


def _public_definitions(modules):
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield module, node.name


def _loaded_names(modules):
    names = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _readme_names():
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
    return {span.strip() for span in spans}


def test_every_public_name_has_a_caller_or_a_readme_row():
    modules = _modules()
    loaded = _loaded_names(modules)
    documented = _readme_names()
    orphans = [
        f"{module}.{name}"
        for module, name in _public_definitions(modules)
        if name not in loaded
        and name not in documented
        and f"{module}.{name}" not in documented
        and f"skewext.{module}.{name}" not in documented
    ]
    assert orphans == []
