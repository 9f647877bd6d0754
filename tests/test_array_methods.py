"""Array methods on the per-object path, and the identity subtracted at a
flat stride.

At the sizes ``sweep`` draws (n <= 6) an operation spends its time in the
fixed cost of each numpy call, so the package calls the array method a
numpy function wraps (``x.max()`` for ``np.max(x)``), ``np.concatenate``
for 2-D blocks, and lowers the diagonal of a square matrix at a flat
stride.  The guard below fails on any call of a wrapper that has such a
replacement; the exact-equality tests hold the two rewritten formulas, the
co-isometry defect and the orthonormality check of a basis, against their
first form, kept in ``tests/reference.py``.
"""

import ast
import struct
from pathlib import Path

import numpy as np
import pytest

from skewext import subspace as sub
from skewext.errors import NotOrthonormal
from skewext.linalg import coisometry_defect, subtract_identity
from skewext.sampling import complex_gaussian, random_unitary
from skewext.subspace import Subspace
from skewext.tolerances import ORTH_TOL

import reference as ref

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "skewext"

# the NaN and inf inputs make numpy warn in the products, as they should
pytestmark = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")

#: numpy functions that wrap an array method or ``np.concatenate``
WRAPPERS = {
    "max", "min", "amax", "amin", "sum", "any", "all", "argmax", "argmin",
    "diagonal", "vstack", "hstack", "row_stack", "diag_indices_from",
}


def _wrapper_calls(package=PACKAGE):
    """(module, line, name) of every call of a ``WRAPPERS`` function in the
    modules of ``package``, through any alias of numpy or a name imported
    from it."""
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases, imported = set(), {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases |= {a.asname or a.name for a in node.names if a.name == "numpy"}
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                imported |= {a.asname or a.name: a.name for a in node.names}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in aliases
            ):
                name = func.attr
            elif isinstance(func, ast.Name) and func.id in imported:
                name = imported[func.id]
            else:
                continue
            if name in WRAPPERS:
                yield path.stem, node.lineno, name


def test_the_package_calls_no_numpy_wrapper_of_an_array_method():
    assert list(_wrapper_calls()) == []


def test_the_guard_sees_a_wrapper_call(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "import numpy as xp\nfrom numpy import hstack as h\n"
        "def f(a):\n    return xp.max(a), h([a, a]), a.max()\n"
    )
    calls = [("probe", 4, "max"), ("probe", 4, "hstack")]
    assert list(_wrapper_calls(tmp_path)) == calls


def _bits(x) -> bytes:
    return struct.pack("<d", float(x))


SHAPES = {"square": (4, 4), "wide": (3, 7), "tall": (7, 3), "row": (1, 5)}


def _inputs():
    """(id, matrix): real and complex matrices of each of ``SHAPES``, dense
    Gaussian and near a co-isometry (rows of a unitary, scaled by 1 + 1e-12),
    and each with one NaN and with one inf entry."""
    rng = np.random.default_rng(30)
    for shape_name, (rows, cols) in SHAPES.items():
        k = max(rows, cols)
        u = random_unitary(k, rng)[:rows, :cols] * (1 + 1e-12)
        o = np.linalg.qr(rng.standard_normal((k, k)))[0][:rows, :cols]
        g = complex_gaussian(rows, cols, rng)
        bases = {
            "complex": g,
            "real": g.real.copy(),
            "near_coisometry": u,
            "near_coisometry_real": o,
        }
        for kind, m in bases.items():
            yield f"{shape_name}-{kind}", m
            for special in (np.nan, np.inf):
                bad = m.copy()
                bad[rows // 2, cols // 2] = special
                yield f"{shape_name}-{kind}-{special}", bad


INPUTS = dict(_inputs())


@pytest.mark.parametrize("name", INPUTS)
def test_coisometry_defect_is_its_first_form_bit_for_bit(name):
    m = INPUTS[name]
    expected = ref.coisometry_defect_by_diag_indices(m)
    assert _bits(coisometry_defect(m)) == _bits(expected)


@pytest.mark.parametrize("name", INPUTS)
def test_identity_deviation_is_its_first_form_bit_for_bit(name):
    # the Gram matrix of the columns, as the constructor forms it (complex),
    # and the same product in the input's own dtype
    m = INPUTS[name]
    b = np.array(m, dtype=complex)
    for gram in (b.conj().T @ b, m.conj().T @ m):
        expected = ref.identity_deviation_by_eye(gram)
        assert _bits(sub._identity_deviation(gram.copy())) == _bits(expected)


@pytest.mark.parametrize("name", INPUTS)
def test_the_orthonormality_check_keeps_its_verdict(name):
    # unit columns, so that the verdict is not decided by the column norms
    m = INPUTS[name].T
    m = m / np.linalg.norm(np.nan_to_num(m, posinf=1.0), axis=0)
    b = np.array(m, dtype=complex)
    gram = b.conj().T @ b
    rejects = not ref.identity_deviation_by_eye(gram) <= ORTH_TOL
    held = gram.copy()
    for given in (None, held):
        if rejects:
            with pytest.raises(NotOrthonormal):
                Subspace(b.shape[0], b, _gram=given)
        else:
            assert Subspace(b.shape[0], b, _gram=given).dim == b.shape[1]
    # a Gram matrix given to the constructor is left as it was
    np.testing.assert_array_equal(held, gram)


def test_orthonormal_bases_pass_and_a_nan_basis_fails():
    rng = np.random.default_rng(31)
    q = random_unitary(5, rng)
    for basis in (q, q[:, :2], np.eye(5)[:, :3]):
        assert Subspace(5, basis).dim == basis.shape[1]
    for bad in (np.nan, np.inf):
        basis = q[:, :2].copy()
        basis[1, 1] = bad
        with pytest.raises(NotOrthonormal):
            Subspace(5, basis)
    with pytest.raises(NotOrthonormal):
        Subspace(2, np.full((2, 2), np.nan))


def test_subtract_identity_lowers_only_the_diagonal_in_place():
    for gram in (np.arange(9.0).reshape(3, 3), np.ones((2, 2), dtype=complex)):
        expected = gram - np.eye(gram.shape[0])
        assert subtract_identity(gram) is gram
        np.testing.assert_array_equal(gram, expected)
    empty = np.zeros((0, 0))
    assert subtract_identity(empty).shape == (0, 0)
