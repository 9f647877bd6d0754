"""Rebuild the schema-1 form of a skewext report from its schema-2 form.

Run from the root of a checkout (the package need not be installed):

    python3 tools/expand_report.py REPORT.json [--out FILE]

A schema-2 report carries ``"schema": 2`` in its envelope, and its
``canonical`` payload writes only what cannot be derived from the rest:

* ``system.graph_basis`` becomes ``graph_neg_base``, the rows of its
  Graph(-H0) block, and ``block_widths`` = [dim Graph(H0), dim g1, dim g2];
  the Ghat1 and Ghat2 blocks are (G; +-G)/sqrt(2) of the ``g1_basis`` and
  ``g2_basis`` rows;
* ``system.F`` becomes ``F_shape`` = [k, d], since F is ``np.eye(k, d, d - k)``;
* ``max_dissipative_extension.graph_generators`` becomes ``graph_columns``,
  the half-open column ranges [[0, d0], [d0 + d1, d]] of the Graph(H0*)
  basis that span its graph.

``expand_report`` rebuilds those keys with the floating-point operations
the library performs (``boundary._hat_basis`` on the rows read back, then
``formats.matrix_to_json``) and drops the ``schema`` key, so that
``formats.dumps`` of its result is, byte for byte, the schema-1 report of
the same run.  The payloads of the other commands are the same in both
schemas.  The expanded report is written to stdout, or to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from skewext import boundary as bd  # noqa: E402
from skewext import formats as fmt  # noqa: E402


def _columns(rows: list, length: int) -> np.ndarray:
    """The matrix whose columns are the report's complex vectors ``rows``,
    each of ``length`` entries (none when ``rows`` is empty)."""
    return fmt.matrix_from_json(rows).reshape(-1, length).T


def expand_canonical(payload: dict) -> dict:
    """The schema-1 ``canonical`` payload of a schema-2 one."""
    system, extension = payload["system"], payload["max_dissipative_extension"]
    n = system["n"]
    g_neg = _columns(system["graph_neg_base"], 2 * n)
    g1, g2 = _columns(system["g1_basis"], n), _columns(system["g2_basis"], n)
    widths = [g_neg.shape[1], g1.shape[1], g2.shape[1]]
    if widths != system["block_widths"]:
        raise ValueError(f"block widths {system['block_widths']}, rows give {widths}")
    basis = np.hstack([g_neg, bd._hat_basis(g1, 1.0), bd._hat_basis(g2, -1.0)])
    rows = fmt.matrix_to_json(basis.T)
    k, d = system["F_shape"]
    return {
        **payload,
        "system": {
            "n": n,
            "graph_basis": rows,
            "g1_basis": fmt.matrix_to_json(g1.T),
            "g2_basis": fmt.matrix_to_json(g2.T),
            "F": fmt.matrix_to_json(np.eye(k, d, d - k)),
        },
        "max_dissipative_extension": {
            "n": extension["n"],
            "graph_generators": np.concatenate(
                [rows[start:stop] for start, stop in extension["graph_columns"]]
            ),
        },
    }


def expand_report(report: dict) -> dict:
    """The schema-1 form of a report: a schema-2 report without its
    ``schema`` key, its ``canonical`` payload expanded.  A report without
    the key is schema 1 already and comes back as it is."""
    schema = report.get("schema", 1)
    if schema == 1:
        return report
    if schema != 2:
        raise ValueError(f"unknown report schema {schema!r}")
    report = {key: value for key, value in report.items() if key != "schema"}
    if report["command"] == "canonical":
        report["payload"] = expand_canonical(report["payload"])
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("report", help="path of a skewext report")
    parser.add_argument("--out", help="path of the expanded report (stdout if omitted)")
    args = parser.parse_args(argv)
    with open(args.report, encoding="utf-8") as fh:
        text = fmt.dumps(expand_report(json.load(fh)))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
