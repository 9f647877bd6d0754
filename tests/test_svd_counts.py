"""LAPACK call budget of the CLI pipelines and of the relation-level spaces.

Every orthogonal complement is one complete QR (``subspace.complement``),
of a matrix of full column rank, with no rank decision: the adjoint graph,
the deficiency spaces, which share one batched QR, and every extension
graph.  An SVD is taken only where a rank is part of the answer and no
bound decides it, and no orthonormal product is re-spanned.  Every
threshold check is first put to its bound in ``linalg``, which takes no
factorization: a spectral norm within a tolerance by its Frobenius norm,
unitarity and the full row rank of near co-isometric boundary maps by the
defect of M M^H from the identity, and the largest eigenvalue of Omega by
its Gershgorin row bound.  Only an undecided check factorizes: a relation
takes at most one Hermitian eigensolve of Omega, read by dissipativity, by
the range condition of maximality and by the inertia of the existence
report, and a spectral norm one eigensolve of the smaller Gram matrix
(``linalg.matrix_2norm``).  So ``canonical`` takes the SVD of the span of
its input and the QR of the deficiency spaces, and no eigensolve.  These
bounds, the counts of this code, catch a reintroduced span-then-complement
or re-span step, an SVD where a QR, an eigensolve or a bound suffices, and
a second eigensolve of one relation; the sums catch a factorization moved
from one kind to another that adds a call.  Calls are counted on
``numpy.linalg.svd``, ``qr`` and ``eigvalsh``, the names every module calls
through, and on the same names in numpy's implementation module, so the
SVD inside ``numpy.linalg.norm(m, 2)`` is counted too; the seeded unitaries
of ``sweep`` take one QR each.
"""

import numpy as np
import pytest

from skewext import relation as rel
from skewext.cli import main

try:
    from numpy.linalg import _linalg as linalg_impl
except ImportError:  # numpy < 2
    from numpy.linalg import linalg as linalg_impl

NAMES = ("svd", "qr", "eigvalsh")


@pytest.fixture
def linalg_calls(monkeypatch):
    calls = dict.fromkeys(NAMES, 0)

    def counting(name):
        original = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in NAMES:
        counted = counting(name)
        monkeypatch.setattr(np.linalg, name, counted)
        monkeypatch.setattr(linalg_impl, name, counted)
    return calls


@pytest.fixture
def relation_file(tmp_path, capsys):
    path = tmp_path / "rel.json"
    argv = ["generate", "--n", "8", "--k", "3", "--seed", "1"]
    assert main(argv + ["--out-relation", str(path)]) == 0
    capsys.readouterr()
    return str(path)


def test_the_counter_sees_the_svd_of_a_spectral_norm(linalg_calls):
    np.linalg.norm(np.eye(3), 2)
    assert linalg_calls == {"svd": 1, "qr": 0, "eigvalsh": 0}


#: the most Hermitian eigensolves per pipeline
EIGVALSH = {"canonical": 0, "analyze": 1, "sweep": 20}
#: the most SVDs, QRs and eigensolves together per pipeline
CALLS_SUM = {"canonical": 2, "analyze": 5, "sweep": 182}


@pytest.mark.parametrize("command, svds, qrs", [("canonical", 1, 1), ("analyze", 1, 3)])
def test_relation_commands_svd_and_qr_budget(
    command, svds, qrs, relation_file, linalg_calls, capsys
):
    linalg_calls.update(dict.fromkeys(NAMES, 0))
    assert main([command, "--input", relation_file]) == 0
    capsys.readouterr()
    assert linalg_calls["svd"] <= svds
    assert linalg_calls["qr"] <= qrs
    assert linalg_calls["eigvalsh"] <= EIGVALSH[command]
    assert sum(linalg_calls.values()) <= CALLS_SUM[command]


def test_sweep_svd_budget(linalg_calls, capsys):
    assert main(["sweep", "--count", "20", "--seed", "0"]) == 0
    capsys.readouterr()
    assert linalg_calls["svd"] <= 20
    assert linalg_calls["qr"] <= 142
    assert linalg_calls["eigvalsh"] <= EIGVALSH["sweep"]
    assert sum(linalg_calls.values()) <= CALLS_SUM["sweep"]


@pytest.mark.parametrize(
    "space, dim", [(rel.kernel, 1), (rel.mul_part, 1), (rel.domain, 2)]
)
def test_relation_spaces_take_one_svd_of_a_graph_block(space, dim, linalg_calls):
    # graph spanned by (e1, 0), (0, e2) and (e3, i e3)
    t = rel.from_graph(3, [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1j)])
    linalg_calls.update(dict.fromkeys(NAMES, 0))
    assert space(t).dim == dim
    assert linalg_calls == {"svd": 1, "qr": 0, "eigvalsh": 0}
