"""Tolerance guard: a boundary system or triplet carries the tolerance it
was verified at (``report.tol``), and every check on it runs at that one.

No public function in ``boundary`` or ``extensions`` whose first parameter
is annotated ``BoundarySystem`` or ``BoundaryTriplet`` declares a ``tol``
parameter of its own.  ``verify_system`` and ``verify_triplet`` set that
tolerance and are exempt.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "skewext"
MODULES = ("boundary.py", "extensions.py")
BOUNDARY_TYPES = {"BoundarySystem", "BoundaryTriplet"}
VERIFIERS = {"verify_system", "verify_triplet"}


def _functions_on_boundary_objects():
    """(name, parameter names) of each public module-level function whose
    first parameter is annotated with a boundary type."""
    for module in MODULES:
        tree = ast.parse((PACKAGE / module).read_text())
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            if not positional or positional[0].annotation is None:
                continue
            annotation = ast.unparse(positional[0].annotation).strip("'\"")
            if annotation.rsplit(".", 1)[-1] in BOUNDARY_TYPES:
                params = positional + args.kwonlyargs + [args.vararg, args.kwarg]
                yield node.name, {p.arg for p in params if p is not None}


def test_no_tol_on_functions_of_boundary_objects():
    checked = dict(_functions_on_boundary_objects())
    # the guard sees the extension layer, not an empty set
    assert {"system_unitary_readoff", "boundary_contraction_of"} <= set(checked)
    offenders = [n for n, params in checked.items() if "tol" in params]
    assert sorted(set(offenders) - VERIFIERS) == []
