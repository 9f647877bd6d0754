"""Verification budget of the CLI pipelines.

Each boundary system and triplet is verified exactly once, when it is
built; these counts catch a consumer that verifies an object again.  Calls
are counted on ``skewext.boundary.verify_system`` and ``verify_triplet``,
the module globals the constructors call through.  Likewise the pieces of
the canonical decomposition are built once per system, counted on
``skewext.boundary._hat_basis``, and the contraction of an ``extend
--mode phi`` extension is read off once, counted on
``skewext.extensions.boundary_contraction_of``.
"""

import json

import pytest

from skewext import boundary as bd
from skewext import extensions as ext
from skewext.cli import main


@pytest.fixture
def verify_calls(monkeypatch):
    calls = {"system": 0, "triplet": 0}
    for kind in calls:
        original = getattr(bd, f"verify_{kind}")

        def counting(*args, _kind=kind, _original=original, **kwargs):
            calls[_kind] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(bd, f"verify_{kind}", counting)
    return calls


@pytest.fixture
def relation_file(tmp_path, capsys):
    path = tmp_path / "rel.json"
    argv = ["generate", "--n", "8", "--k", "3", "--seed", "1"]
    assert main(argv + ["--out-relation", str(path)]) == 0
    capsys.readouterr()
    return str(path)


def test_sweep_verifies_each_system_once(verify_calls, capsys):
    assert main(["sweep", "--count", "20", "--seed", "0"]) == 0
    capsys.readouterr()
    # one canonical system per instance; one triplet in the existence
    # report and one in the bridge check
    assert verify_calls == {"system": 20, "triplet": 40}


@pytest.mark.parametrize(
    "argv, systems, triplets",
    [
        (["canonical"], 1, 0),
        (["analyze"], 1, 1),
        (["convert", "--direction", "s2t"], 1, 1),
        (["convert", "--direction", "t2s"], 2, 2),
    ],
)
def test_relation_commands_verify_each_object_once(
    argv, systems, triplets, relation_file, verify_calls, capsys
):
    assert main(argv + ["--input", relation_file]) == 0
    capsys.readouterr()
    assert verify_calls == {"system": systems, "triplet": triplets}


@pytest.fixture
def hat_basis_calls(monkeypatch):
    calls = []
    original = bd._hat_basis

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(bd, "_hat_basis", counting)
    return calls


def test_sweep_builds_canonical_pieces_once_per_system(hat_basis_calls, capsys):
    assert main(["sweep", "--count", "20", "--seed", "0"]) == 0
    capsys.readouterr()
    # two hat spaces (Ghat1, Ghat2) per canonical system, one system per instance
    assert len(hat_basis_calls) == 40


def test_canonical_builds_canonical_pieces_once(hat_basis_calls, relation_file, capsys):
    assert main(["canonical", "--input", relation_file]) == 0
    capsys.readouterr()
    assert len(hat_basis_calls) == 2


def test_extend_phi_reads_the_contraction_off_once(
    relation_file, tmp_path, monkeypatch, capsys
):
    calls = []
    original = ext.boundary_contraction_of

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ext, "boundary_contraction_of", counting)
    # the generated relation (n = 8, graph dimension 3) has G of dimension 5;
    # K = I/2 on it
    matrix = [[[0.5 if i == j else 0.0, 0.0] for j in range(5)] for i in range(5)]
    param = tmp_path / "k.json"
    param.write_text(json.dumps({"kind": "contraction", "matrix": matrix}))
    argv = ["extend", "--input", relation_file, "--param", str(param), "--mode", "phi"]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1
