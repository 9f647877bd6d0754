"""Schema-2 ``canonical`` reports against their schema-1 expansion.

On every relation shape of ``tools/compare_reports.py``, the report that
``tools/expand_report.py`` rebuilds holds, byte for byte, the full objects
the schema-1 writers give for the same system and extension, and the rest
of the report unchanged.
"""

import json
import sys
from pathlib import Path

import pytest

from skewext import boundary as bd
from skewext import extensions as ext
from skewext import formats as fmt
from skewext.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from compare_reports import SIZES  # noqa: E402
from expand_report import expand_report  # noqa: E402
from expand_report import main as expand_main  # noqa: E402


@pytest.fixture
def canonical_report(tmp_path, capsys):
    """The relation file of ``generate`` for (n, k) with seed n + k, as
    ``compare_reports`` writes it, and the text of its ``canonical``
    report."""

    def run(n: int, k: int):
        path = tmp_path / f"rel_{n}_{k}.json"
        argv = ["generate", "--n", str(n), "--k", str(k), "--seed", str(n + k)]
        assert main([*argv, "--out-relation", str(path)]) == 0
        capsys.readouterr()
        assert main(["canonical", "--input", str(path)]) == 0
        return path, capsys.readouterr().out

    return run


@pytest.mark.parametrize("n, k", SIZES)
def test_expanded_canonical_report_holds_the_full_objects(n, k, canonical_report):
    path, text = canonical_report(n, k)
    report = json.loads(text)
    expanded = expand_report(report)
    system = bd.canonical_system(fmt.relation_from_json(json.loads(path.read_text())))
    extension = ext.canonical_max_dissipative(system)
    payload = expanded["payload"]
    assert fmt.dumps(payload["system"]) == fmt.dumps(fmt.system_to_json(system))
    written = fmt.dumps(fmt.relation_to_json(extension))
    assert fmt.dumps(payload["max_dissipative_extension"]) == written
    # every other key is the report's own
    assert report.pop("schema") == 2
    objects = ("system", "max_dissipative_extension")
    for key in objects:
        report["payload"].pop(key)
        payload.pop(key)
    assert expanded == report
    if n == 64:
        # with no deficiency (k = n) both objects are the Graph(-H0) block,
        # which schema 2 writes once for the two copies of schema 1
        share = 0.51 if k == n else 0.30
        assert len(text) <= share * len(fmt.dumps(expand_report(json.loads(text))))


def test_expand_script_writes_the_expanded_report(canonical_report, tmp_path):
    _, text = canonical_report(5, 2)
    report_path, out = tmp_path / "report.json", tmp_path / "expanded.json"
    report_path.write_text(text)
    assert expand_main([str(report_path), "--out", str(out)]) == 0
    assert out.read_text() == fmt.dumps(expand_report(json.loads(text)))


def test_other_reports_lose_only_the_schema_key(capsys):
    assert main(["sweep", "--count", "3", "--seed", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    expanded = expand_report(report)
    assert "schema" not in expanded
    assert {**expanded, "schema": 2} == report
    # a report without the key is schema 1 already
    assert expand_report(expanded) is expanded


def test_expand_refuses_unknown_schemas_and_inconsistent_widths(canonical_report):
    _, text = canonical_report(3, 1)
    report = json.loads(text)
    with pytest.raises(ValueError, match="schema 3"):
        expand_report({**report, "schema": 3})
    report["payload"]["system"]["block_widths"] = [1, 1, 2]
    with pytest.raises(ValueError, match="block widths"):
        expand_report(report)
