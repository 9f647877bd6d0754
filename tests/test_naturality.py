"""Naturality of the canonical construction.

The boundary system of Schubert et al. (2015) and its canonical maximal
dissipative extension are defined without coordinates, so they transform
with the relation.  On random skew-symmetric relations H with n <= 6 (a
second summand with n <= 4), and compared as subspaces by
``distance_at_most``, since orthonormal bases may rotate within them:

* for a unitary V the relation with graph (V + V) Graph(H) has
  g1 = V g1(H), g2 = V g2(H), and its canonical extension is (V + V)
  times that of H;
* g1(-H) = g2(H) and g2(-H) = g1(H);
* the deficiency indices of H + H' add, its g1 and g2 are the direct sums
  of theirs, and so is its canonical extension.

Every verdict the CLI writes for ``analyze`` and ``canonical`` (the four
existence booleans and every check, and the indices but for a direct sum)
is the same on the transformed relation as on H.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from skewext import boundary as bd
from skewext import extensions as ext
from skewext import formats as fmt
from skewext import relation as rel
from skewext import subspace as sub
from skewext.cli import main
from skewext.sampling import random_unitary

#: the largest gap allowed between subspaces that agree up to round-off;
#: 200 random instances measured at most 1.3e-15
GAP = 1e-12


@st.composite
def relations(draw, max_n: int = 6):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(0, n))
    return rel.random_skew_symmetric(n, k, draw(st.integers(0, 2**32 - 1)))


def _graph(n: int, top: np.ndarray, bottom: np.ndarray) -> rel.Relation:
    """The relation on C^n with graph spanned by the columns (top; bottom)."""
    return rel.from_graph(n, np.concatenate([top, bottom]).T)


def _image(v: np.ndarray, s: sub.Subspace) -> sub.Subspace:
    return sub.span_matrix(v @ s.basis)


def _direct_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix of ``a`` and ``b``."""
    (p, q), (r, s) = a.shape, b.shape
    out = np.zeros((p + r, q + s), dtype=complex)
    out[:p, :q] = a
    out[p:, q:] = b
    return out


def _sum_relation(h: rel.Relation, g: rel.Relation) -> rel.Relation:
    """H + H' on C^(n + n'): the graph of pairs ((x, y), (x', y'))."""
    (x, xp), (y, yp) = h.blocks(), g.blocks()
    n = h.space_dim + g.space_dim
    return _graph(n, _direct_sum(x, y), _direct_sum(xp, yp))


def _same(s: sub.Subspace, t: sub.Subspace) -> bool:
    return s.dim == t.dim and sub.distance_at_most(s, t, GAP)


def _verdicts(h: rel.Relation) -> tuple:
    """What the CLI's ``analyze`` and ``canonical`` reports say of ``h``,
    without its bases: the deficiency indices both write, and each one's
    exit code, status and verdicts (the existence booleans, the checks)."""
    indices, verdicts = [], {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "relation.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(fmt.dumps(fmt.relation_to_json(h)))
        for command in ("analyze", "canonical"):
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                code = main([command, "--input", path])
            report = json.loads(text.getvalue())
            payload = report["payload"]
            indices.append(payload.pop("indices"))
            kept = payload if command == "analyze" else payload["checks"]
            verdicts[command] = (code, report["status"], kept)
    assert indices[0] == indices[1]
    return indices[0], verdicts


@settings(deadline=None, max_examples=40)
@given(h=relations(), seed=st.integers(0, 2**32 - 1))
def test_a_unitary_change_of_coordinates_carries_the_construction(h, seed):
    n = h.space_dim
    v = random_unitary(n, np.random.default_rng(seed))
    x, xp = h.blocks()
    hv = _graph(n, v @ x, v @ xp)
    system, moved = bd.canonical_system(h), bd.canonical_system(hv)
    assert _same(moved.g1, _image(v, system.g1))
    assert _same(moved.g2, _image(v, system.g2))
    vv = _direct_sum(v, v)
    extension = ext.canonical_max_dissipative(system).graph
    assert _same(ext.canonical_max_dissipative(moved).graph, _image(vv, extension))
    assert _verdicts(hv) == _verdicts(h)


@settings(deadline=None, max_examples=40)
@given(h=relations())
def test_negation_swaps_the_deficiency_spaces(h):
    system, negated = bd.canonical_system(h), bd.canonical_system(rel.negate(h))
    assert _same(negated.g1, system.g2)
    assert _same(negated.g2, system.g1)
    # in finite dimension the indices are equal, so every verdict holds
    assert _verdicts(rel.negate(h)) == _verdicts(h)


@settings(deadline=None, max_examples=40)
@given(h=relations(), g=relations(max_n=4))
def test_a_direct_sum_has_the_sum_of_the_constructions(h, g):
    total = _sum_relation(h, g)
    system = bd.canonical_system(total)
    parts = bd.canonical_system(h), bd.canonical_system(g)
    for space in ("g1", "g2"):
        first, second = (getattr(p, space) for p in parts)
        assert getattr(system, space).dim == first.dim + second.dim
        summed = sub.span_matrix(_direct_sum(first.basis, second.basis))
        assert _same(getattr(system, space), summed)
    extensions = [ext.canonical_max_dissipative(p) for p in parts]
    assert _same(
        ext.canonical_max_dissipative(system).graph,
        _sum_relation(*extensions).graph,
    )
    indices, verdicts = _verdicts(total)
    assert indices == [system.g1.dim, system.g2.dim]
    assert verdicts == _verdicts(h)[1]
