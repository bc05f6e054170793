"""Command-line front end.

Every subcommand prints a short human-readable report by default and a
deterministic JSON document with --json.  Exit codes: 0 success, 1 internal
check failure or any other internal error, 2 invalid input.  Failures print
one line to stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from .acceptance import budget_for, run_all
from .classifier import (
    EndNode,
    classify_global,
    endnode_witness,
    trace_citations,
    trace_json,
    verify_witness,
)
from .qarith import (
    InternalCheckError,
    SpecOrder,
    qbinom,
    qbinom_vanishes_fast,
    vanishes_at,
)
from .rootsystem import build, format_weight, parse_type, parse_weight
from .weylmods import (
    adjoint_short_reducible_at,
    det_short_matrix,
    e8_certificate,
    sl2_irreducible,
)

# largest n for which the symbolic Gaussian binomial is expanded on demand
_QBINOM_SYMBOLIC_LIMIT = 2000


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylirr",
        description="Global irreducibility of quantum Weyl modules, "
                    "with machine-checkable reduction witnesses.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_system(p, weight=False):
        p.add_argument("--type", required=True,
                       help="root-system type, e.g. E8 or a bare letter")
        p.add_argument("--rank", type=int, default=None)
        if weight:
            p.add_argument("--weight", required=True,
                           help="'0,0,1', 'w3' or 'w1+2w3'")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("classify",
                       help="decide global irreducibility of a weight")
    add_system(p, weight=True)

    p = sub.add_parser("witness",
                       help="print the reduction witness trace for a weight")
    add_system(p, weight=True)

    p = sub.add_parser("det-short",
                       help="short-root determinant, optionally tested at "
                            "an order")
    add_system(p)
    p.add_argument("--ell", type=int, default=None)

    p = sub.add_parser("sl2", help="rank-one irreducibility at a given order")
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--d", type=int, default=1,
                   help="node symmetrizer twist (1, 2 or 3)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("qbinom", help="Gaussian binomial, optionally tested "
                                      "for vanishing at an order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("table-theorem5-1",
                       help="determinants and vanishing orders per type")
    p.add_argument("--max-rank", dest="max_rank", type=int, default=12)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("endnodes",
                       help="the end-node reduction case for a type")
    add_system(p)

    p = sub.add_parser("e8-certificate",
                       help="irreducibility certificate for the rank-8 "
                            "exceptional adjoint weight")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify-paper",
                       help="run the full acceptance suite")
    p.add_argument("--only", default=None,
                   help="comma-separated check ids")
    p.add_argument("--json", action="store_true")
    return parser


def _emit(args, doc, lines) -> None:
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(lines))


def _render_trace(nodes, pad="  "):
    lines = []
    for node in nodes:
        lines.append(f"{pad}- step: {node['step']}")
        for key, value in node["params"].items():
            lines.append(f"{pad}    {key}: {value}")
        lines.append(f"{pad}    citation: {node['citation']}")
        lines.append(f"{pad}    verified: {str(node['verified']).lower()}")
        if "inner" in node:
            lines.append(f"{pad}    inner:")
            lines.extend(_render_trace(node["inner"], pad + "      "))
    return lines


def _decision_doc(command: str, rs, lam):
    decision = classify_global(rs, lam)
    nodes = trace_json(rs, lam, decision.trace)
    return decision, {
        "input": {
            "command": command,
            "type": rs.name,
            "weight": format_weight(lam),
        },
        "decision": {
            "verdict": decision.verdict,
            "reason": decision.reason,
        },
        "trace": nodes,
        "witness_ell": decision.witness_ell,
        "citations": trace_citations(decision.trace),
    }


def _require_dominant(rs, args):
    lam = parse_weight(args.weight, rs.rank)
    if not rs.is_dominant(lam):
        raise ValueError("weight: must be dominant")
    return lam


def _cmd_classify(args) -> int:
    rs = parse_type(args.type, args.rank)
    lam = _require_dominant(rs, args)
    decision, doc = _decision_doc("classify", rs, lam)
    lines = [f"type: {rs.name}",
             f"weight: {format_weight(lam)}",
             f"decision: {decision.verdict}"]
    if decision.reason is not None:
        lines.append(f"reason: {decision.reason}")
    if decision.witness_ell is not None:
        lines.append(f"witness ell: {decision.witness_ell}")
        lines.append("trace:")
        lines.extend(_render_trace(doc["trace"]))
    _emit(args, doc, lines)
    return 0


def _cmd_witness(args) -> int:
    rs = parse_type(args.type, args.rank)
    lam = _require_dominant(rs, args)
    decision, doc = _decision_doc("witness", rs, lam)
    lines = [f"type: {rs.name}", f"weight: {format_weight(lam)}"]
    if decision.verdict == "globally_irreducible":
        lines.append(f"no reduction witness: globally irreducible "
                     f"({decision.reason})")
    else:
        lines.append(f"witness ell: {decision.witness_ell}")
        lines.append("trace:")
        lines.extend(_render_trace(doc["trace"]))
        lines.append("citations:")
        lines.extend(f"  - {c}" for c in doc["citations"])
    _emit(args, doc, lines)
    return 0


def _cmd_det_short(args) -> int:
    rs = parse_type(args.type, args.rank)
    det = det_short_matrix(rs)
    doc = {
        "input": {"command": "det-short", "type": rs.name, "ell": args.ell},
        "det": repr(det),
    }
    lines = [f"type: {rs.name}", f"det: {det!r}"]
    if args.ell is not None:
        vanishes = adjoint_short_reducible_at(rs, args.ell)
        doc["vanishes"] = vanishes
        lines.append(f"ell: {args.ell}")
        lines.append(f"vanishes: {str(vanishes).lower()}")
    _emit(args, doc, lines)
    return 0


def _cmd_sl2(args) -> int:
    irreducible = sl2_irreducible(args.lam, args.ell, args.d)
    doc = {
        "input": {"command": "sl2", "lambda": args.lam, "ell": args.ell,
                  "d": args.d},
        "irreducible": irreducible,
    }
    lines = [f"lambda: {args.lam}", f"ell: {args.ell}", f"d: {args.d}",
             f"irreducible: {str(irreducible).lower()}"]
    _emit(args, doc, lines)
    return 0


def _cmd_qbinom(args) -> int:
    if args.m < 0:
        raise ValueError("m: must be a nonnegative integer")
    doc = {"input": {"command": "qbinom", "n": args.n, "m": args.m,
                     "ell": args.ell, "d": args.d}}
    lines = [f"n: {args.n}", f"m: {args.m}"]
    small = abs(args.n) <= _QBINOM_SYMBOLIC_LIMIT
    if small:
        value = qbinom(args.n, args.m)
        doc["value"] = repr(value)
        lines.append(f"value: {value!r}")
    elif args.ell is None:
        raise ValueError(
            f"n: symbolic expansion limited to |n| <= "
            f"{_QBINOM_SYMBOLIC_LIMIT}; pass --ell for the vanishing test")
    if args.ell is not None:
        spec = SpecOrder(args.ell, args.d)
        vanishes = qbinom_vanishes_fast(args.n, args.m, spec)
        if small and vanishes != vanishes_at(value, spec):
            raise InternalCheckError(
                "fast vanishing rule disagrees with the symbolic value")
        doc["vanishes"] = vanishes
        lines.append(f"ell: {args.ell}")
        lines.append(f"vanishes: {str(vanishes).lower()}")
    _emit(args, doc, lines)
    return 0


def _table_systems(max_rank: int):
    systems = [build("A", n) for n in range(1, max_rank + 1)]
    systems += [build("B", n) for n in range(2, max_rank + 1)]
    systems += [build("C", n) for n in range(3, max_rank + 1)]
    systems += [build("D", n) for n in range(4, max_rank + 1)]
    if max_rank >= 4:
        systems.append(build("F", 4))
    if max_rank >= 2:
        systems.append(build("G", 2))
    systems += [build("E", n) for n in (6, 7, 8) if n <= max_rank]
    return systems


def _cmd_table(args) -> int:
    if args.max_rank < 1:
        raise ValueError("max-rank: must be a positive integer")
    rows = []
    for rs in _table_systems(args.max_rank):
        orders = [l for l in range(1, 61)
                  if adjoint_short_reducible_at(rs, l)]
        rows.append({"type": rs.name, "det": repr(det_short_matrix(rs)),
                     "vanishing_orders": orders})
    doc = {"input": {"command": "table-theorem5-1",
                     "max_rank": args.max_rank},
           "rows": rows}
    lines = []
    for row in rows:
        orders = ", ".join(str(l) for l in row["vanishing_orders"]) or "none"
        lines.append(f"{row['type']}")
        lines.append(f"  det: {row['det']}")
        lines.append(f"  vanishing orders <= 60: {orders}")
    _emit(args, doc, lines)
    return 0


def _cmd_endnodes(args) -> int:
    rs = parse_type(args.type, args.rank)
    lam, ell, case = endnode_witness(rs)
    trace = (EndNode(case, ell),)
    verified = verify_witness(rs, lam, trace)
    nodes = trace_json(rs, lam, trace)
    doc = {
        "input": {"command": "endnodes", "type": rs.name},
        "case": case,
        "weight": format_weight(lam),
        "ell": ell,
        "verified": verified,
        "trace": nodes,
        "citations": trace_citations(trace),
    }
    lines = [f"type: {rs.name}", f"case: {case}",
             f"weight: {format_weight(lam)}", f"ell: {ell}",
             f"verified: {str(verified).lower()}"]
    _emit(args, doc, lines)
    return 0


def _cmd_e8_certificate(args) -> int:
    cert = e8_certificate()
    doc = {
        "input": {"command": "e8-certificate"},
        "det": repr(cert.detD),
        "f": repr(cert.f),
        "f16": repr(cert.detD.shift(8)),
        "factors": [repr(p) for p in cert.factors],
        "orders_checked": len(cert.checked_orders),
        "failing_orders": list(cert.failing_orders),
        "value_at_one": cert.value_at_one,
        "value_at_minus_one": cert.value_at_minus_one,
        "certified": cert.certified,
    }
    failing = ", ".join(str(l) for l in cert.failing_orders) or "none"
    lines = [
        f"det: {cert.detD!r}",
        f"f: {cert.f!r}",
        f"f16: {cert.detD.shift(8)!r}",
        "factors:",
        *(f"  - {p!r}" for p in cert.factors),
        f"orders checked: {len(cert.checked_orders)} "
        f"(3 <= ell <= 1000 with totient <= 20)",
        f"orders where a cyclotomic factor divides f16: {failing}",
        f"det value at 1: {cert.value_at_one}",
        f"det value at -1: {cert.value_at_minus_one}",
        f"certified: {str(cert.certified).lower()}",
    ]
    _emit(args, doc, lines)
    return 0


def _cmd_verify_paper(args) -> int:
    only = None
    if args.only:
        only = [part.strip() for part in args.only.split(",") if part.strip()]
        if not only:
            raise ValueError("only: no check ids given")
    results = run_all(only)
    doc = {
        "input": {"command": "verify-paper", "only": only},
        "results": [
            {"id": r.id, "passed": r.passed, "detail": r.detail,
             "budget_seconds": budget_for(r.id)}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    lines = []
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        lines.append(f"[{tag}] {r.id}  ({r.seconds:.2f}s, "
                     f"budget {budget_for(r.id):g}s)")
        lines.append(f"       {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    if failed:
        lines.append(f"{failed} of {len(results)} checks failed")
    else:
        lines.append(f"all {len(results)} checks passed")
    _emit(args, doc, lines)
    return 1 if failed else 0


_DISPATCH = {
    "classify": _cmd_classify,
    "witness": _cmd_witness,
    "det-short": _cmd_det_short,
    "sl2": _cmd_sl2,
    "qbinom": _cmd_qbinom,
    "table-theorem5-1": _cmd_table,
    "endnodes": _cmd_endnodes,
    "e8-certificate": _cmd_e8_certificate,
    "verify-paper": _cmd_verify_paper,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the message; normalize its exit code
        return 0 if exc.code in (0, None) else 2
    try:
        return _DISPATCH[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InternalCheckError, ArithmeticError) as exc:
        print(f"internal check failure: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # any other failure is a defect; report it in one line, never a
        # traceback, so every input ends with exit 0, 1 or 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
