"""SVD and QR budget of the CLI pipelines and of the relation-level spaces.

Every orthogonal complement is one complete QR (``subspace.complement``),
of a matrix of full column rank, with no rank decision: the adjoint graph,
the deficiency spaces, which share one batched QR, and every extension
graph.  An SVD is taken only where a rank is part of the answer, and no
orthonormal product is re-spanned.  These bounds, the counts of this code,
catch a reintroduced span-then-complement or re-span step and an SVD where
a QR suffices; the sums catch a complement moved between the two that
adds a call.  Calls are counted on ``numpy.linalg.svd`` and
``numpy.linalg.qr``, the names every module calls through; the seeded
unitaries of ``sweep`` take one QR each.
"""

import numpy as np
import pytest

from skewext import relation as rel
from skewext.cli import main


@pytest.fixture
def linalg_calls(monkeypatch):
    calls = {"svd": 0, "qr": 0}

    def counting(name):
        original = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    return calls


@pytest.fixture
def relation_file(tmp_path, capsys):
    path = tmp_path / "rel.json"
    argv = ["generate", "--n", "8", "--k", "3", "--seed", "1"]
    assert main(argv + ["--out-relation", str(path)]) == 0
    capsys.readouterr()
    return str(path)


#: the most SVDs and QRs together per pipeline
CALLS_SUM = {"canonical": 4, "analyze": 6, "sweep": 266}


@pytest.mark.parametrize("command, svds, qrs", [("canonical", 3, 1), ("analyze", 3, 3)])
def test_relation_commands_svd_and_qr_budget(
    command, svds, qrs, relation_file, linalg_calls, capsys
):
    linalg_calls.update(svd=0, qr=0)
    assert main([command, "--input", relation_file]) == 0
    capsys.readouterr()
    assert linalg_calls["svd"] <= svds
    assert linalg_calls["qr"] <= qrs
    assert linalg_calls["svd"] + linalg_calls["qr"] <= CALLS_SUM[command]


def test_sweep_svd_budget(linalg_calls, capsys):
    assert main(["sweep", "--count", "20", "--seed", "0"]) == 0
    capsys.readouterr()
    assert linalg_calls["svd"] <= 124
    assert linalg_calls["qr"] <= 142
    assert linalg_calls["svd"] + linalg_calls["qr"] <= CALLS_SUM["sweep"]


@pytest.mark.parametrize(
    "space, dim", [(rel.kernel, 1), (rel.mul_part, 1), (rel.domain, 2)]
)
def test_relation_spaces_take_one_svd_of_a_graph_block(space, dim, linalg_calls):
    # graph spanned by (e1, 0), (0, e2) and (e3, i e3)
    t = rel.from_graph(3, [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1j)])
    linalg_calls.update(svd=0, qr=0)
    assert space(t).dim == dim
    assert linalg_calls == {"svd": 1, "qr": 0}
