"""Start-up guard: each command loads only the substrate it uses.

Each case runs in a fresh interpreter.  ``import skewext.cli`` loads only
the standard library and ``skewext.cli``, ``errors``, ``formats`` and
``tolerances``: neither substrate, so no numpy, no orjson, none of the
numeric modules, no ``skewext.halfline`` and none of ``fractions``,
``decimal`` and ``numbers``, which of the light modules only the
half-line model imports.  A
``halfline`` subcheck adds ``halfline`` and those three, and still no
numeric module; the numeric modules load when ``main`` dispatches a
relation command, which loads no ``halfline``, ``fractions`` or
``decimal``, run through ``main`` or as ``python -m skewext.cli``;
``canonical`` writes its report arrays without loading ``base64``.
``skewext.<module>`` still resolves after a bare ``import skewext``.  The
import loads no ``dataclasses`` either.  Under ``python -m skewext.cli`` no
command imports ``skewext.cli`` a second time beside ``__main__``.
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
# the half-line model and the standard modules only it imports
HALF_LINE = {"skewext.halfline", "fractions", "decimal"}

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


def _relation_argv(command: str, tmp_path) -> list:
    """The arguments of a small ``canonical`` or ``sweep`` run writing its
    report to ``report.json`` in ``tmp_path``."""
    if command == "canonical":
        path = tmp_path / "rel.json"
        relation = rel.random_skew_symmetric(3, 1, 1)
        path.write_text(fmt.dumps(fmt.relation_to_json(relation)))
        argv = ["canonical", "--input", str(path)]
    else:
        argv = ["sweep", "--count", "2"]
    return argv + ["--out", str(tmp_path / "report.json")]


def test_import_of_the_cli_loads_no_numeric_module():
    result = _probe("import skewext.cli\ncode = None")
    assert {"skewext.cli", "skewext.formats"} <= _loaded(result)
    _light_only(_loaded(result))
    # nor the half-line model, which only cmd_halfline and the half-line
    # codecs load, nor the ``numbers`` that ``fractions`` imports (numpy
    # imports it too, so a relation command is not held to it)
    assert (HALF_LINE | {"numbers"}).isdisjoint(result["after"])
    # nor dataclasses and the inspect it imports, a third of the start-up
    assert {"dataclasses", "inspect"}.isdisjoint(_loaded(result))


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


@pytest.mark.parametrize("command", ["canonical", "sweep"])
def test_a_relation_command_loads_the_numeric_substrate(command, tmp_path):
    result = _probe(CLI_RUN.format(argv=_relation_argv(command, tmp_path)))
    assert result["code"] == 0
    assert json.loads((tmp_path / "report.json").read_text())["status"] == "pass"
    assert {"numpy", "skewext.boundary", "skewext.relation_commands"} <= _loaded(result)
    assert HALF_LINE.isdisjoint(result["after"])
    # report arrays are written by ``binascii``, which numpy has loaded,
    # and not by ``base64``, which only ``sweep`` loads, by numpy.random
    # (through ``secrets``)
    assert "binascii" in result["after"]
    assert ("base64" in result["after"]) == (command == "sweep")


# runs the CLI as ``python -m skewext.cli`` does, then reports whether the
# module was also imported under its own name
MODULE_RUN = """import runpy
sys.argv = ["skewext", *{argv!r}]
try:
    runpy.run_module("skewext.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = [exc.code, "skewext.cli" in sys.modules]"""


@pytest.mark.parametrize("command", ["canonical", "sweep", "halfline"])
def test_run_as_a_module_imports_the_cli_once(command, halfline_files, tmp_path):
    if command == "halfline":
        argv = ["halfline", "--subcheck", "resolvent"]
        argv += ["--input", str(halfline_files["resolvent"])]
        argv += ["--out", str(tmp_path / "report.json")]
    else:
        argv = _relation_argv(command, tmp_path)
    result = _probe(MODULE_RUN.format(argv=argv))
    assert result["code"] == [0, False]
    assert json.loads((tmp_path / "report.json").read_text())["status"] == "pass"
    if command != "halfline":
        assert HALF_LINE.isdisjoint(result["after"])
