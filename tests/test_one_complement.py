"""Complement guard: every orthogonal complement the library takes is
``subspace.complement``, the tail of one complete QR.

In ``src/skewext``, a function named ``qr`` (``np.linalg.qr`` or any alias
of it) is called only by ``subspace.complement`` and by
``sampling.random_unitary``, whose unitaries are the Q of a Gaussian
matrix.  So a second QR complement cannot come back unseen; an SVD one
would show in the budgets of ``tests/test_svd_counts.py``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "skewext"


def _qr_calls():
    """(module, innermost enclosing function or None) of every call to a
    function named ``qr``, bare or as an attribute."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        # breadth-first, so an enclosing function comes before a nested one
        funcs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            if name == "qr":
                owners = [
                    f.name for f in funcs if f.lineno <= node.lineno <= f.end_lineno
                ]
                yield path.stem, owners[-1] if owners else None


def test_qr_is_called_only_by_the_complement_and_the_random_unitary():
    assert sorted(_qr_calls()) == [
        ("sampling", "random_unitary"),
        ("subspace", "complement"),
    ]
