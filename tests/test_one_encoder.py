"""Encoder guard: the indented report has exactly one writer,
``formats.dumps``.

No call in ``src/skewext`` passes ``indent=`` to a function named ``dump``
or ``dumps`` (``json``'s, or any alias of them).  The compact
``json.dumps(echo, sort_keys=True)`` behind the argument digest stays
allowed.  Every third-party package the library imports is a declared
dependency, and ``orjson``, which writes report arrays and reads the
relation commands' input files, is imported by ``formats`` alone.
"""

import ast
import re
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "skewext"


def _indented_dump_calls():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "attr", None) or getattr(func, "id", None)
            indented = any(k.arg == "indent" for k in node.keywords)
            if name in {"dump", "dumps"} and indented:
                yield f"{path.name}:{node.lineno}"


def test_no_indented_json_dump_outside_formats_dumps():
    assert list(_indented_dump_calls()) == []


def _imports(path):
    """Top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def _declared_dependencies():
    text = (PACKAGE.parent.parent / "pyproject.toml").read_text()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    return set(re.findall(r'"([A-Za-z0-9_.-]+)', block.group(1)))


def test_every_third_party_import_is_a_declared_dependency():
    third_party = {
        name
        for path in PACKAGE.glob("*.py")
        for name in _imports(path)
        if name not in sys.stdlib_module_names
    }
    assert {"numpy", "orjson"} <= third_party
    assert third_party <= _declared_dependencies()


def test_orjson_is_imported_by_formats_only():
    importers = [p.name for p in PACKAGE.glob("*.py") if "orjson" in set(_imports(p))]
    assert importers == ["formats.py"]
