"""The library objects that hold arrays compare and hash by identity.

Field-wise equality would compare arrays, whose truth value numpy refuses,
and hashing them would raise; two subspaces are compared by
``subspace.distance_at_most`` instead.  The reports, which hold plain
values, keep their field-wise equality.
"""

import numpy as np
import pytest

from skewext import boundary as bd
from skewext import relation as rel

KINDS = ["Subspace", "Relation", "DeficiencyData", "BoundarySystem", "BoundaryTriplet"]


def _objects(seed):
    t = rel.random_skew_symmetric(4, 2, seed)
    s = bd.canonical_system(t)
    return {
        "Subspace": t.graph,
        "Relation": t,
        "DeficiencyData": rel.deficiency(t),
        "BoundarySystem": s,
        "BoundaryTriplet": bd.system_to_triplet(s, np.eye(s.g1.dim)),
    }


@pytest.mark.parametrize("kind", KINDS)
def test_equality_is_identity_and_never_raises(kind):
    a, b = _objects(7)[kind], _objects(7)[kind]
    assert type(a).__name__ == kind
    assert a == a and not (a == b) and a != b
    assert len({a, b}) == 2
    assert hash(a) == hash(a)


def test_reports_keep_their_field_wise_equality():
    first, second = _objects(7), _objects(7)
    for kind in ("BoundarySystem", "BoundaryTriplet"):
        assert first[kind].report == second[kind].report
