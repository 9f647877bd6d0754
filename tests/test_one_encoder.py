"""Encoder guard: the indented report has exactly one writer,
``formats.dumps``.

No call in ``src/skewext`` passes ``indent=`` to a function named ``dump``
or ``dumps`` (``json``'s, or any alias of them).  The compact
``json.dumps(echo, sort_keys=True)`` behind the argument digest stays
allowed.
"""

import ast
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
