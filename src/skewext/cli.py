"""Command-line front end.

Subcommands load relations or half-line functions from JSON files, run the
requested construction and emit a machine-readable report.  Each boundary
system and triplet is verified once, when it is built, at the run's
``--tol``, and every check on it runs at that tolerance; reports read the
verification off the object, and every consumer refuses an object that
failed it.  Exit codes: 0 when every asserted property holds (status
"pass"), 1 when an asserted property fails ("fail"), 2 on invalid input, a
path that cannot be read or written, or a violated precondition ("error").
Reports are deterministic: identical inputs, including seeds, produce
byte-identical output.  ``input_digest`` covers every input file the
command read.

Each ``cmd_*`` returns ``(echo, digest, status, payload)``; ``main`` hands
that to ``_emit``, the one place where reports are assembled and written.
Payload matrices stay float64 arrays, and half-line functions ``ExpPoly``
values, until ``_emit`` writes the report with ``formats.dumps``, whose
bytes are those of ``json.dumps(report, sort_keys=True, indent=2)`` plus a
newline; ``generate`` writes its relation file the same way.

This module holds the parser, ``_emit``, ``main`` and the half-line
command, and imports only the standard library, ``errors``, ``halfline``,
``formats`` and ``tolerances``.  The relation commands live in
``relation_commands``, which ``main`` imports when it dispatches one, so
numpy and the numeric substrate load on first use, as ``orjson`` does in
``formats``: a ``halfline`` run loads neither.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import formats as fmt
from . import halfline as hl
from .errors import DimensionMismatch, SkewextError
from .tolerances import ORTH_TOL, RANK_TOL

_STATUS_EXIT = {"pass": 0, "fail": 1, "error": 2}


def _emit(args, echo: dict, digest, status: str, payload: dict) -> int:
    """Build the report envelope, write it to stdout or ``--out`` and map
    its status to the exit code.  Commands without an input file are
    identified by the digest of their echoed arguments."""
    if digest is None:
        digest = fmt._digest_bytes(json.dumps(echo, sort_keys=True).encode("utf-8"))
    report = {
        "command": args.command,
        "args": echo,
        "input_digest": digest,
        "tol": args.tol,
        "status": status,
        "payload": payload,
    }
    text = fmt.dumps(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return _STATUS_EXIT[status]


def _load_halfline_pair(path):
    if path is None:
        raise ValueError("this subcheck needs --input with a function file")
    obj, digest = fmt._load_json(path)
    if isinstance(obj, list):
        return fmt.exppoly_from_json(obj), None, digest
    if isinstance(obj, dict) and "f" in obj:
        f = fmt.exppoly_from_json(obj["f"])
        g = fmt.exppoly_from_json(obj["g"]) if "g" in obj else None
        return f, g, digest
    raise ValueError('function file must be a term list or {"f": ..., "g": ...}')


def cmd_halfline(args):
    echo = {"subcheck": args.subcheck, "input": args.input}
    digest = None
    if args.subcheck == "green":
        f, g, digest = _load_halfline_pair(args.input)
        g = f if g is None else g
        lhs, rhs = hl.green_identity(f, g)
        payload = {
            "lhs": fmt.rational_complex_to_json(lhs),
            "rhs": fmt.rational_complex_to_json(rhs),
            "exactly_equal": lhs == rhs,
        }
        status = "pass" if lhs == rhs else "fail"
    elif args.subcheck == "deficiency":
        g1_basis, g2_basis = hl.deficiency_exact()
        excluded = hl.solve_adjoint_eigen(-1)
        payload = {
            "indices": [len(g1_basis), len(g2_basis)],
            "g1_basis": g1_basis,
            "g2_basis": g2_basis,
            "g2_exclusion": excluded.message(),
        }
        status = "pass" if payload["indices"] == [1, 0] else "fail"
    elif args.subcheck == "triplet":
        try:
            hl.triplet_attempt()
        except DimensionMismatch as exc:
            payload = {
                "raised": "DimensionMismatch",
                "indices": [exc.g1_dim, exc.g2_dim],
                "message": str(exc),
            }
            status = "pass"  # the negative result is the pass condition
        else:
            payload = {"raised": None}
            status = "fail"
    elif args.subcheck == "dissipative":
        f, _, digest = _load_halfline_pair(args.input)
        image = hl.canonical_extension_apply(f)
        value = hl.inner(image, f).re
        payload = {
            "applied": image,
            "re_inner": fmt.fraction_to_str(value),
            "nonpositive": value <= 0,
        }
        status = "pass" if value <= 0 else "fail"
    else:  # resolvent
        f, _, digest = _load_halfline_pair(args.input)
        u = hl.resolvent_solve(f)
        identity = u.plus_derivative() == f
        trace = u.eval0().is_zero()
        payload = {
            "solution": u,
            "resolvent_identity_exact": identity,
            "trace_zero": trace,
        }
        status = "pass" if identity and trace else "fail"
    return echo, digest, status, payload


def _in_range(convert, low, high):
    """An argparse ``type``: ``convert`` the text and accept only values with
    low < value < high (NaN fails both comparisons), else a usage error."""

    def parse(text):
        if not low < (value := convert(text)) < high:
            raise argparse.ArgumentTypeError(f"{text} is not in ({low}, {high})")
        return value

    parse.__name__ = convert.__name__  # argparse names it in conversion errors
    return parse


def _add_common(parser):
    parser.add_argument("--tol", type=_in_range(float, 0, math.inf), default=ORTH_TOL)
    parser.add_argument("--out", help="report path (stdout when omitted)")


def _add_relation_input(parser):
    parser.add_argument("--input", required=True)
    parser.add_argument(
        "--rank-tol",
        type=_in_range(float, 0, 1),
        default=RANK_TOL,
        help="relative rank threshold for input relations (default %(default)s)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every
    later ``main`` call in the process."""
    parser = argparse.ArgumentParser(
        prog="skewext",
        description=(
            "Analyze skew-symmetric relations, build boundary systems/triplets "
            "and extensions, and verify the half-line model exactly."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="skew-symmetry, indices, existence report")
    _add_relation_input(p)
    _add_common(p)

    p = subs.add_parser(
        "canonical", help="canonical boundary system and dissipative extension"
    )
    _add_relation_input(p)
    _add_common(p)

    p = subs.add_parser("extend", help="build an extension from a parameter file")
    _add_relation_input(p)
    p.add_argument("--param", required=True)
    p.add_argument("--mode", choices=["A", "B", "phi"], required=True)
    p.add_argument("--l0", help="reference unitary file (identity when omitted)")
    _add_common(p)

    p = subs.add_parser("convert", help="system/triplet conversions and round trip")
    _add_relation_input(p)
    p.add_argument("--direction", choices=["t2s", "s2t"], required=True)
    p.add_argument("--l0", help="reference unitary file (identity when omitted)")
    _add_common(p)

    p = subs.add_parser("generate", help="write a random skew-symmetric relation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--out-relation", required=True, help="path for the generated relation file"
    )
    _add_common(p)

    p = subs.add_parser("halfline", help="exact checks on the half-line model")
    p.add_argument(
        "--subcheck",
        choices=["green", "deficiency", "triplet", "dissipative", "resolvent"],
        required=True,
    )
    p.add_argument("--input", help="function file (needed by some subchecks)")
    _add_common(p)

    p = subs.add_parser("sweep", help="random-instance verification battery")
    p.add_argument("--count", type=_in_range(int, -1, math.inf), default=20)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "halfline":
            command = cmd_halfline
        else:
            # numpy and the numeric substrate load here, on the first
            # relation command of the process
            from .relation_commands import COMMANDS

            command = COMMANDS[args.command]
        return _emit(args, *command(args))
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        sys.stderr.write(f"error: invalid input: {exc}\n")
        return 2
    except SkewextError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
