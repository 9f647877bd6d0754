"""The relation commands of the CLI: ``analyze``, ``canonical``, ``extend``,
``convert``, ``generate`` and ``sweep``.

``cli.main`` imports this module when it dispatches one of these commands,
so numpy and the numeric substrate load on the first relation command and
the half-line checks never load them.  Each ``cmd_*`` returns ``(echo,
digest, status, payload)`` for ``cli._emit``; ``COMMANDS`` maps each
command name to its function.
"""

from __future__ import annotations

import numpy as np

from . import boundary as bd
from . import extensions as ext
from . import formats as fmt
from . import relation as rel
from .formats import _digest_bytes, _load_numeric_json
from .sampling import random_unitary
from .tolerances import ROUNDTRIP_TOL


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


def _load_relation(args):
    obj, digest = _load_numeric_json(args.input)
    return fmt.relation_from_json(obj, rank_tol=args.rank_tol), digest


def _load_l0(path, dim: int):
    """The reference unitary for triplet constructions and the digest of its
    file; the identity and ``None`` when no file is given."""
    if path is None:
        return np.eye(dim, dtype=complex), None
    obj, digest = _load_numeric_json(path)
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


def _extend_payload_A(system, l) -> dict:
    tol = system.report.tol
    extension = ext.system_unitary_extension(system, l)
    readoff = ext.system_unitary_readoff(system, extension)
    err = float(np.max(np.abs(readoff - l), initial=0.0))
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


def _extend_payload_B(triplet, l) -> dict:
    tol = triplet.report.tol
    extension = ext.triplet_unitary_extension(triplet, l)
    return {
        "extension": fmt.relation_to_json(extension),
        "checks": {
            "skew_self_adjoint": rel.is_skew_self_adjoint(extension, tol),
            "extends_base": rel.extends(extension, triplet.base, tol),
        },
    }


def _extend_payload_phi(triplet, k) -> dict:
    tol = triplet.report.tol
    extension = ext.extension_from_contraction(triplet, k)
    kmat = ext.boundary_contraction_of(triplet, extension)
    err = float(np.max(np.abs(kmat - k), initial=0.0))
    return {
        "extension": fmt.relation_to_json(extension),
        "contraction_roundtrip_error": err,
        "checks": {
            "dissipative": rel.is_dissipative(extension, tol),
            "maximal": ext.is_maximal_dissipative(extension, tol),
            "extends_base": rel.extends(extension, triplet.base, tol),
            "contraction_roundtrip_ok": err <= ROUNDTRIP_TOL,
            "unitarity_equivalence": ext.unitarity_equivalence_check(
                triplet, extension, kmat
            ),
        },
    }


def cmd_extend(args):
    relation, digest = _load_relation(args)
    param_obj, param_digest = _load_numeric_json(args.param)
    kind, matrix = fmt.extension_param_from_json(param_obj)
    expected_kind = {"A": "unitary_A", "B": "unitary_B", "phi": "contraction"}[
        args.mode
    ]
    if kind != expected_kind:
        raise ValueError(
            f"mode {args.mode} needs a {expected_kind!r} parameter, got {kind!r}"
        )
    system = bd.canonical_system(relation, args.tol)
    l0_digest = None
    if args.mode == "A":
        payload = _extend_payload_A(system, matrix)
    else:
        l0, l0_digest = _load_l0(args.l0, system.g1.dim)
        triplet = bd.system_to_triplet(system, l0)
        if args.mode == "B":
            payload = _extend_payload_B(triplet, matrix)
        else:
            payload = _extend_payload_phi(triplet, matrix)
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


COMMANDS = {
    "analyze": cmd_analyze,
    "canonical": cmd_canonical,
    "extend": cmd_extend,
    "convert": cmd_convert,
    "generate": cmd_generate,
    "sweep": cmd_sweep,
}
