"""Command-line front end.

Subcommands load relations or half-line functions from JSON files, run the
requested construction and emit a machine-readable report.  Each boundary
system and triplet is verified once, when it is built, at the run's
``--tol``, and every check on it runs at that tolerance; reports read the
verification off the object, and every consumer refuses an object that
failed it.  Exit codes: 0 when every asserted property holds (status
"pass"), 1 when an asserted property fails ("fail"), 2 on invalid input or
a violated precondition ("error").  Reports are deterministic: identical
inputs, including seeds, produce byte-identical output.  ``input_digest`` covers every input file the command read.

Each ``cmd_*`` returns ``(echo, digest, status, payload)``; ``main`` hands
that to ``_emit``, the one place where reports are assembled and written.
Payload matrices stay float64 arrays until ``_emit`` writes the report with
``formats.dumps``, whose bytes are those of ``json.dumps(report,
sort_keys=True, indent=2)`` plus a newline; ``generate`` writes its relation
file the same way.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

import numpy as np

from . import boundary as bd
from . import extensions as ext
from . import formats as fmt
from . import halfline as hl
from . import relation as rel
from .errors import DimensionMismatch, SkewextError
from .linalg import ROUNDTRIP_TOL
from .sampling import random_unitary
from .subspace import ORTH_TOL, RANK_TOL

_STATUS_EXIT = {"pass": 0, "fail": 1, "error": 2}


def _digest_bytes(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _load_json(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    return json.loads(raw.decode("utf-8")), _digest_bytes(raw)


def _input_digest(*digests) -> str:
    """The digest of the files a command read: a lone file's own digest, or
    else the sha256 of the per-file digests joined by newlines, in argument
    order.  ``None`` entries stand for files not given and are skipped."""
    digests = [d for d in digests if d is not None]
    if len(digests) == 1:
        return digests[0]
    return _digest_bytes("\n".join(digests).encode("utf-8"))


def _status(checks: dict) -> str:
    return "pass" if all(checks.values()) else "fail"


def _emit(args, echo: dict, digest, status: str, payload: dict) -> int:
    """Build the report envelope, write it to stdout or ``--out`` and map
    its status to the exit code.  Commands without an input file are
    identified by the digest of their echoed arguments."""
    if digest is None:
        digest = _digest_bytes(json.dumps(echo, sort_keys=True).encode("utf-8"))
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


def _load_relation(args):
    obj, digest = _load_json(args.input)
    return fmt.relation_from_json(obj, rank_tol=args.rank_tol), digest


def _load_l0(path, dim: int):
    """The reference unitary for triplet constructions and the digest of its
    file; the identity and ``None`` when no file is given."""
    if path is None:
        return np.eye(dim, dtype=complex), None
    obj, digest = _load_json(path)
    return fmt.unitary_matrix_from_json(obj), digest


def cmd_analyze(args):
    relation, digest = _load_relation(args)
    payload = {"skew_symmetric": rel.is_skew_symmetric(relation, args.tol)}
    if not payload["skew_symmetric"]:
        payload["reason"] = "input relation is not skew-symmetric"
        status = "error"
    else:
        system = bd.canonical_system(relation, args.tol)
        report = ext.existence_report(system)
        payload.update(
            {
                "indices": list(report.indices),
                "equal_indices": report.equal_indices,
                "has_sksa_extension": report.has_sksa_extension,
                "triplet_constructible": report.triplet_constructible,
                "system_equal_dims": report.system_equal_dims,
                "all_agree": report.agree,
            }
        )
        status = "pass" if report.agree else "fail"
    return {"input": args.input}, digest, status, payload


def cmd_canonical(args):
    relation, digest = _load_relation(args)
    system = bd.canonical_system(relation, args.tol)
    report = system.report
    dissip = ext.canonical_max_dissipative(system)
    checks = {
        "system_surjective": report.surjective,
        "system_identity_holds": report.identity_holds,
        "extension_dissipative": rel.is_dissipative(dissip, args.tol),
        "extension_maximal": ext.is_maximal_dissipative(dissip, args.tol),
        "adjoint_formula_holds": ext.adjoint_formula_check(system),
    }
    payload = {
        "system": fmt.system_to_json(system),
        "system_residual": report.residual,
        "indices": [system.g1.dim, system.g2.dim],
        "max_dissipative_extension": fmt.relation_to_json(dissip),
        "checks": checks,
    }
    return {"input": args.input}, digest, _status(checks), payload


def _extend_payload_A(system, param) -> dict:
    tol = system.report.tol
    extension = ext.system_unitary_extension(system, param.matrix)
    readoff = ext.system_unitary_readoff(system, extension)
    err = float(np.max(np.abs(readoff - param.matrix), initial=0.0))
    return {
        "extension": fmt.relation_to_json(extension),
        "readoff_error": err,
        "checks": {
            "skew_self_adjoint": rel.is_skew_self_adjoint(extension, tol),
            "extends_negated_base": rel.extends(
                extension, rel.negate(system.base), tol
            ),
            "readoff_roundtrip_ok": err <= ROUNDTRIP_TOL,
        },
    }


def _extend_payload_B(triplet, param) -> dict:
    tol = triplet.report.tol
    extension = ext.triplet_unitary_extension(triplet, param.matrix)
    return {
        "extension": fmt.relation_to_json(extension),
        "checks": {
            "skew_self_adjoint": rel.is_skew_self_adjoint(extension, tol),
            "extends_base": rel.extends(extension, triplet.base, tol),
        },
    }


def _extend_payload_phi(triplet, param) -> dict:
    tol = triplet.report.tol
    extension = ext.extension_from_contraction(triplet, param.matrix)
    kmat = ext.boundary_contraction_of(triplet, extension)
    err = float(np.max(np.abs(kmat - param.matrix), initial=0.0))
    return {
        "extension": fmt.relation_to_json(extension),
        "contraction_roundtrip_error": err,
        "checks": {
            "dissipative": rel.is_dissipative(extension, tol),
            "maximal": ext.is_maximal_dissipative(extension, tol),
            "extends_base": rel.extends(extension, triplet.base, tol),
            "contraction_roundtrip_ok": err <= ROUNDTRIP_TOL,
            "unitarity_equivalence": ext.unitarity_equivalence_check(
                triplet, extension
            ),
        },
    }


def cmd_extend(args):
    relation, digest = _load_relation(args)
    param_obj, param_digest = _load_json(args.param)
    param = fmt.extension_param_from_json(param_obj)
    expected_kind = {"A": "unitary_A", "B": "unitary_B", "phi": "contraction"}[
        args.mode
    ]
    if param.kind != expected_kind:
        raise ValueError(
            f"mode {args.mode} needs a {expected_kind!r} parameter, "
            f"got {param.kind!r}"
        )
    system = bd.canonical_system(relation, args.tol)
    l0_digest = None
    if args.mode == "A":
        payload = _extend_payload_A(system, param)
    else:
        l0, l0_digest = _load_l0(args.l0, system.g1.dim)
        triplet = bd.system_to_triplet(system, l0)
        if args.mode == "B":
            payload = _extend_payload_B(triplet, param)
        else:
            payload = _extend_payload_phi(triplet, param)
    echo = {"input": args.input, "param": args.param, "mode": args.mode, "l0": args.l0}
    digest = _input_digest(digest, param_digest, l0_digest)
    return echo, digest, _status(payload["checks"]), payload


def cmd_convert(args):
    relation, digest = _load_relation(args)
    system = bd.canonical_system(relation, args.tol)
    l0, l0_digest = _load_l0(args.l0, system.g1.dim)
    triplet = bd.system_to_triplet(system, l0)
    treport = triplet.report
    if args.direction == "s2t":
        payload = {
            "triplet": fmt.triplet_to_json(triplet),
            "triplet_residual": treport.residual,
            "checks": {
                "triplet_surjective": treport.surjective,
                "triplet_identity_holds": treport.identity_holds,
            },
        }
    else:
        rebuilt = bd.triplet_to_system(triplet)
        sreport = rebuilt.report
        back = bd.system_to_triplet(rebuilt, np.eye(triplet.g.dim))
        diff = np.hstack([back.gamma1 - triplet.gamma1, back.gamma2 - triplet.gamma2])
        roundtrip_err = float(np.max(np.abs(diff), initial=0.0))
        payload = {
            "system": fmt.system_to_json(rebuilt),
            "system_residual": sreport.residual,
            "roundtrip_error": roundtrip_err,
            "checks": {
                "system_surjective": sreport.surjective,
                "system_identity_holds": sreport.identity_holds,
                "roundtrip_reproduces_triplet": roundtrip_err <= args.tol,
            },
        }
    echo = {"input": args.input, "direction": args.direction, "l0": args.l0}
    return echo, _input_digest(digest, l0_digest), _status(payload["checks"]), payload


def cmd_generate(args):
    relation = rel.random_skew_symmetric(args.n, args.k, args.seed)
    text = fmt.dumps(fmt.relation_to_json(relation))
    with open(args.out_relation, "w", encoding="utf-8") as fh:
        fh.write(text)
    echo = {
        "n": args.n,
        "k": args.k,
        "seed": args.seed,
        "out_relation": args.out_relation,
    }
    payload = {
        "relation_file": args.out_relation,
        "file_digest": _digest_bytes(text.encode("utf-8")),
        "graph_dim": relation.graph_dim,
    }
    return echo, None, "pass", payload


def _load_halfline_pair(path):
    if path is None:
        raise ValueError("this subcheck needs --input with a function file")
    obj, digest = _load_json(path)
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
            "g1_basis": [fmt.exppoly_to_json(f) for f in g1_basis],
            "g2_basis": [fmt.exppoly_to_json(f) for f in g2_basis],
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
            "applied": fmt.exppoly_to_json(image),
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
            "solution": fmt.exppoly_to_json(u),
            "resolvent_identity_exact": identity,
            "trace_zero": trace,
        }
        status = "pass" if identity and trace else "fail"
    return echo, digest, status, payload


def _sweep_instance(seed: int, tol: float) -> dict:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    k = int(rng.integers(0, n + 1))
    relation = rel.random_skew_symmetric(n, k, seed)
    system = bd.canonical_system(relation, tol)
    report = ext.existence_report(system)
    dissip = ext.canonical_max_dissipative(system)

    g_dim = system.g1.dim
    l0 = random_unitary(g_dim, rng)
    l = random_unitary(g_dim, rng)
    extension = ext.system_unitary_extension(system, l)
    readback = ext.system_unitary_readoff(system, extension)
    readoff_err = float(np.max(np.abs(readback - l), initial=0.0))

    return {
        "seed": seed,
        "n": n,
        "k": k,
        "checks": {
            "canonical_system_ok": system.report.ok,
            "existence_agree": report.agree,
            "system_extension_sksa": rel.is_skew_self_adjoint(extension, tol),
            "system_unitary_readoff_ok": readoff_err <= ROUNDTRIP_TOL,
            "bridge_holds": ext.bridge_check(system, l0, l),
            "extension_dissipative": rel.is_dissipative(dissip, tol),
            "extension_maximal": ext.is_maximal_dissipative(dissip, tol),
            "adjoint_formula_holds": ext.adjoint_formula_check(system),
        },
    }


def cmd_sweep(args):
    results = [_sweep_instance(args.seed + i, args.tol) for i in range(args.count)]
    failures = [
        {"seed": r["seed"], "failed": [k for k, v in r["checks"].items() if not v]}
        for r in results
        if not all(r["checks"].values())
    ]
    echo = {"count": args.count, "seed": args.seed}
    payload = {"instances": args.count, "failures": failures}
    return echo, None, "pass" if not failures else "fail", payload


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
    parser.add_argument("--tol", type=_in_range(float, 0, np.inf), default=ORTH_TOL)
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
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser(
        "canonical", help="canonical boundary system and dissipative extension"
    )
    _add_relation_input(p)
    _add_common(p)
    p.set_defaults(func=cmd_canonical)

    p = subs.add_parser("extend", help="build an extension from a parameter file")
    _add_relation_input(p)
    p.add_argument("--param", required=True)
    p.add_argument("--mode", choices=["A", "B", "phi"], required=True)
    p.add_argument("--l0", help="reference unitary file (identity when omitted)")
    _add_common(p)
    p.set_defaults(func=cmd_extend)

    p = subs.add_parser("convert", help="system/triplet conversions and round trip")
    _add_relation_input(p)
    p.add_argument("--direction", choices=["t2s", "s2t"], required=True)
    p.add_argument("--l0", help="reference unitary file (identity when omitted)")
    _add_common(p)
    p.set_defaults(func=cmd_convert)

    p = subs.add_parser("generate", help="write a random skew-symmetric relation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--out-relation", required=True, help="path for the generated relation file"
    )
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = subs.add_parser("halfline", help="exact checks on the half-line model")
    p.add_argument(
        "--subcheck",
        choices=["green", "deficiency", "triplet", "dissipative", "resolvent"],
        required=True,
    )
    p.add_argument("--input", help="function file (needed by some subchecks)")
    _add_common(p)
    p.set_defaults(func=cmd_halfline)

    p = subs.add_parser("sweep", help="random-instance verification battery")
    p.add_argument("--count", type=_in_range(int, -1, np.inf), default=20)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _emit(args, *args.func(args))
    except FileNotFoundError as exc:
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
