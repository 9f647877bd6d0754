"""SVD budget of the CLI pipelines and of the relation-level spaces.

Every complement is one SVD and no orthonormal product is re-spanned; these
bounds catch a reintroduced span-then-complement or re-span step.  Calls are
counted on ``numpy.linalg.svd``, the name every module calls through.
"""

import numpy as np
import pytest

from skewext import relation as rel
from skewext.cli import main


@pytest.fixture
def svd_calls(monkeypatch):
    calls = [0]
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls[0] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


@pytest.fixture
def relation_file(tmp_path, capsys):
    path = tmp_path / "rel.json"
    argv = ["generate", "--n", "8", "--k", "3", "--seed", "1"]
    assert main(argv + ["--out-relation", str(path)]) == 0
    capsys.readouterr()
    return str(path)


@pytest.mark.parametrize("command, bound", [("canonical", 7), ("analyze", 8)])
def test_relation_commands_svd_budget(command, bound, relation_file, svd_calls, capsys):
    svd_calls[0] = 0
    assert main([command, "--input", relation_file]) == 0
    capsys.readouterr()
    assert svd_calls[0] <= bound


def test_sweep_svd_budget(svd_calls, capsys):
    assert main(["sweep", "--count", "20", "--seed", "0"]) == 0
    capsys.readouterr()
    assert svd_calls[0] <= 300


@pytest.mark.parametrize(
    "space, dim", [(rel.kernel, 1), (rel.mul_part, 1), (rel.domain, 2)]
)
def test_relation_spaces_take_one_svd_of_a_graph_block(space, dim, svd_calls):
    # graph spanned by (e1, 0), (0, e2) and (e3, i e3)
    t = rel.from_graph(3, [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1j)])
    svd_calls[0] = 0
    assert space(t).dim == dim
    assert svd_calls[0] == 1
