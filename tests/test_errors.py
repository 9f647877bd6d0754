"""Library failures are ``SkewextError``s.

Each leaf class also derives from the builtin error it replaced, so callers
catching ``ValueError``/``TypeError`` keep working and the CLI still maps
the failure to the invalid-input exit code 2.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from skewext import formats as fmt
from skewext import halfline as hl
from skewext import relation as rel
from skewext import subspace as sub
from skewext.cli import main
from skewext.errors import (
    InvalidTerm,
    InvalidTolerance,
    NotExact,
    NotOrthonormal,
    SkewextError,
)


one = hl.QC(1)


def _relation_at(rank_tol):
    """The relation file of ``generate --n 3 --k 1 --seed 1``, read back at
    ``rank_tol``."""
    obj = json.loads(fmt.dumps(fmt.relation_to_json(rel.random_skew_symmetric(3, 1, 1))))
    return fmt.relation_from_json(obj, rank_tol=rank_tol)


@pytest.mark.parametrize(
    "build, leaf, builtin",
    [
        (lambda: sub.Subspace(2, np.ones((2, 1))), NotOrthonormal, ValueError),
        pytest.param(
            lambda: sub.Subspace(2, [[np.nan], [0]]), NotOrthonormal, ValueError,
            id="nan-basis",
        ),
        (lambda: hl.RationalComplex(0.5), NotExact, TypeError),
        (lambda: one + 0.5, NotExact, TypeError),
        (lambda: hl.ExpPoly({(0, 1.5): one}), NotExact, TypeError),
        (lambda: hl.ExpPoly({(-1, 1): one}), InvalidTerm, ValueError),
        (lambda: hl.ExpPoly({(0, -1): one}), InvalidTerm, ValueError),
        (lambda: hl.ExpPoly({(0, Fraction(1, 10**7)): one}), InvalidTerm, ValueError),
        (lambda: hl.ExpPoly({(0, 1): one, (0, "1"): one}), InvalidTerm, ValueError),
        *(
            pytest.param(
                lambda t=t: _relation_at(t), InvalidTolerance, ValueError,
                id=f"rank-tol-{t}",
            )
            for t in (np.nan, 2.0, -1.0, 0)
        ),
    ],
)
def test_library_errors_are_skewext_errors(build, leaf, builtin):
    with pytest.raises(leaf) as exc:
        build()
    assert isinstance(exc.value, SkewextError)
    assert isinstance(exc.value, builtin)


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_cli_exit_code_is_unchanged(tmp_path, capsys):
    relation = _write(tmp_path, "rel.json", {"n": 1, "graph_generators": []})
    param = _write(tmp_path, "param.json", {"kind": "bogus", "matrix": [[[1.0, 0.0]]]})
    fn = _write(tmp_path, "fn.json", [{"k": 0, "lambda": "-1", "re": "1", "im": "0"}])
    for argv in (
        ["extend", "--input", relation, "--param", param, "--mode", "A"],
        ["halfline", "--subcheck", "green", "--input", fn],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid input:")
