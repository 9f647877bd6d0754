"""The child runner of ``tools/layer_timings.py``.

Every in-process figure of the timing file is taken in a child interpreter
that imports ``skewext`` from the tree it times (``tree_layers``).  On this
tree the layers at n = 4 and the half-line section come back with the
figure names the file holds, every time positive; a failing child raises
with the child's error; and several rounds of a nested section reduce to
the least of each time figure.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
from layer_timings import _best_of_rounds, tree_layers  # noqa: E402

SRC = str(ROOT / "src")

LAYER_FIGURES = {
    "indices",
    *(
        f"{layer}.{name}_s"
        for layer, names in {
            "subspace": "span_matrix complement distance_at_most contains_subspace",
            "relation": "adjoint kernel mul_part domain deficiency adjoint_gap "
            "is_dissipative",
            "boundary": "canonical_system verify_system verify_triplet "
            "system_to_triplet triplet_to_system",
            "linalg": "matrix_2norm is_unitary",
            "extensions": "system_unitary_extension system_unitary_readoff "
            "triplet_unitary_extension extension_from_contraction "
            "boundary_contraction_of canonical_max_dissipative "
            "adjoint_formula_check extension_checks is_maximal_dissipative",
            "formats": "report_encode_dumps report_parts relation_load "
            "decode_matrix_from_json relation_from_json",
            "cli": "emit_file",
        }.items()
        for name in names.split()
    ),
    "formats.report_bytes",
    "formats.relation_file_bytes",
    "formats.relation_pairs",
}

HALFLINE_OPS = {
    f"halfline.{name}_s"
    for name in "inner derivative green_identity dissipative resolvent_solve "
    "resolvent_check parse report".split()
}


def _times(record: dict) -> list:
    """Every time figure (a name ending in ``_s``) of ``record``, at any
    depth."""
    out = []
    for name, value in record.items():
        if isinstance(value, dict):
            out += _times(value)
        elif name.endswith("_s"):
            out.append(value)
    return out


def test_a_child_returns_the_layers_and_the_halfline_section():
    layers = tree_layers(SRC, "layer_timings", 4)
    assert set(layers) == LAYER_FIGURES and layers["indices"] == [2, 2]
    halfline = tree_layers(SRC, "halfline_figures")
    assert set(halfline) == {"terms=10", "terms=30", "terms=60", "coprime"}
    for terms in (10, 30, 60):
        assert set(halfline[f"terms={terms}"]) == HALFLINE_OPS
    assert set(halfline["coprime"]) == {
        "halfline.green_coprime_s",
        "halfline.dissipative_coprime_s",
    }
    assert all(t > 0 for t in _times(layers) + _times(halfline))


def test_a_failing_child_raises_with_its_error():
    with pytest.raises(RuntimeError, match="BadDimension"):
        tree_layers(SRC, "layer_timings", 0)


def test_rounds_keep_the_least_of_each_time_at_any_depth():
    runs = [
        {
            "indices": [1, 0],
            "terms=10": {"halfline.inner_s": 2.0, "halfline.parse_s": 1.0},
            "coprime": {"halfline.green_coprime_s": 5.0},
        },
        {
            "indices": [1, 0],
            "terms=10": {"halfline.inner_s": 1.5, "halfline.parse_s": 3.0},
            "coprime": {"halfline.green_coprime_s": 7.0},
        },
    ]
    assert _best_of_rounds(runs) == {
        "indices": [1, 0],
        "terms=10": {"halfline.inner_s": 1.5, "halfline.parse_s": 1.0},
        "coprime": {"halfline.green_coprime_s": 5.0},
    }
