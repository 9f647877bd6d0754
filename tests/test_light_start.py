"""Start-up guard: the CLI and the half-line model run without the numeric
substrate.

Each case runs in a fresh interpreter.  ``import skewext.cli`` and every
``halfline`` subcheck load only the standard library and ``skewext.cli``,
``errors``, ``halfline``, ``formats`` and ``tolerances``: no numpy, no
orjson and none of the numeric modules.  Those load when ``main``
dispatches a relation command, and ``skewext.<module>`` still resolves
after a bare ``import skewext``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from skewext import formats as fmt
from skewext import relation as rel

SRC = Path(__file__).resolve().parent.parent / "src"

NUMERIC = {
    "numpy",
    "orjson",
    "skewext.subspace",
    "skewext.linalg",
    "skewext.sampling",
    "skewext.relation",
    "skewext.boundary",
    "skewext.extensions",
    "skewext.relation_commands",
}
LIGHT = {
    "skewext",
    "skewext.cli",
    "skewext.errors",
    "skewext.halfline",
    "skewext.formats",
    "skewext.tolerances",
}

# prints the modules the interpreter held before and after the statements
PROBE = """
import json, sys
before = sorted(sys.modules)
{body}
print(json.dumps({{"before": before, "after": sorted(sys.modules), "code": code}}))
"""

CLI_RUN = "import skewext.cli\ncode = skewext.cli.main({argv!r})"


def _probe(body: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def _loaded(result: dict) -> set:
    return set(result["after"]) - set(result["before"])


def _term(k, lam, re):
    return {"k": k, "lambda": lam, "re": re, "im": "0"}


@pytest.fixture
def halfline_files(tmp_path):
    f = [_term(0, "1", "2"), _term(1, "1/2", "-3"), _term(2, "3", "1/5")]
    g = [_term(0, "2", "1"), _term(3, "1", "7/2")]
    # trace zero: the degree-0 coefficients sum to 0
    f0 = [_term(0, "1", "1"), _term(0, "2", "-1"), _term(1, "1", "4")]
    files = {"green": {"f": f, "g": g}, "resolvent": f, "dissipative": f0}
    paths = {}
    for subcheck, obj in files.items():
        paths[subcheck] = tmp_path / f"{subcheck}.json"
        paths[subcheck].write_text(json.dumps(obj))
    return paths


def _light_only(loaded: set):
    assert loaded & NUMERIC == set()
    ours = {m for m in loaded if m.split(".")[0] == "skewext"}
    assert ours <= LIGHT
    others = {m.split(".")[0] for m in loaded} - {"skewext"}
    assert others <= set(sys.stdlib_module_names)


def test_import_of_the_cli_loads_no_numeric_module():
    result = _probe("import skewext.cli\ncode = None")
    assert {"skewext.cli", "skewext.formats", "skewext.halfline"} <= _loaded(result)
    _light_only(_loaded(result))


@pytest.mark.parametrize(
    "subcheck", ["green", "resolvent", "dissipative", "deficiency", "triplet"]
)
def test_halfline_subchecks_load_no_numeric_module(subcheck, halfline_files, tmp_path):
    argv = ["halfline", "--subcheck", subcheck, "--out", str(tmp_path / "report.json")]
    if subcheck in halfline_files:
        argv += ["--input", str(halfline_files[subcheck])]
    result = _probe(CLI_RUN.format(argv=argv))
    assert result["code"] == 0
    assert json.loads((tmp_path / "report.json").read_text())["status"] == "pass"
    _light_only(_loaded(result))


def test_submodules_resolve_on_first_use():
    result = _probe(
        "import skewext\n"
        "light = 'skewext.boundary' not in sys.modules\n"
        "code = [light, callable(skewext.boundary.canonical_system)]"
    )
    assert result["code"] == [True, True]
    assert "numpy" in _loaded(result)


def test_a_relation_command_loads_the_numeric_substrate(tmp_path):
    path = tmp_path / "rel.json"
    path.write_text(fmt.dumps(fmt.relation_to_json(rel.random_skew_symmetric(3, 1, 1))))
    argv = ["canonical", "--input", str(path), "--out", str(tmp_path / "report.json")]
    result = _probe(CLI_RUN.format(argv=argv))
    assert result["code"] == 0
    assert {"numpy", "skewext.boundary", "skewext.relation_commands"} <= _loaded(result)
