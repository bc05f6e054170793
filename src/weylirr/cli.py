"""Command-line front end.

Every subcommand prints a short human-readable report by default and a
deterministic JSON document with --json.  Exit codes: 0 success, 1 internal
check failure or any other internal error, 2 invalid input.  Failures print
one line to stderr, never a traceback.

_build_parser is the one table of subcommands; each subparser carries its
handler as `run`, and a handler reads its own name from args.command.
Every integer option has the type _int, which takes ASCII digits with an
optional leading '-', as parse_type and parse_weight do.  A handler
returns the JSON document and the report lines, and main prints one of
them inside its error handling, exiting 1 only when the document says
all_passed is false (verify-paper).  Integer text has at most
_MAX_DIGITS digits, in options as in types and weights.

A request compiles and runs only the modules it executes.  This module
imports rootsystem, which every type, weight and integer option reads, and
registers acceptance, classifier, qarith and weylmods through the
package's _lazy helper: each is in sys.modules and on the package at once,
but compiled and run at its first attribute read, and the handlers call
them through those module objects.  So only verify-paper runs the
acceptance suite, only it, classify, witness and endnodes run the
classifier, and a classify or witness request compiles qarith and
weylmods only when its trace reaches a rank-one or fundamental-weight
leaf.  They are registered here, not imported inside the handlers,
because bench/tracer.py looks up every module it wraps in sys.modules
right after `import weylirr.cli`; qbinom's handler also imports
_gauss_indices from the registered qarith.  json is imported only when
--json asks for it.
"""

from __future__ import annotations

import argparse
import sys

from . import _lazy
from ._record import InternalCheckError
from .rootsystem import (
    _check_digits,
    _is_int_text,
    format_weight,
    parse_type,
    parse_weight,
    systems,
)

acceptance = _lazy("acceptance")
classifier = _lazy("classifier")
qarith = _lazy("qarith")
weylmods = _lazy("weylmods")

# the symbolic Gaussian binomial is expanded on demand only for degree
# m(n - m) up to this limit; the expansion's work grows like min(m, n - m)
# times its degree
_QBINOM_DEGREE_LIMIT = 100_000

# table-theorem5-1 builds and expands the determinant of every system up to
# --max-rank, so the work grows faster than the square of the bound
_TABLE_MAX_RANK = 100


def _int(text: str) -> int:
    """The type of every integer option: ASCII digits with an optional
    leading '-', refused in int()'s own words otherwise, and at most
    _MAX_DIGITS of them."""
    if not _is_int_text(text, signed=True):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    try:
        _check_digits(text, "invalid int value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylirr",
        description="Global irreducibility of quantum Weyl modules, "
                    "with machine-checkable reduction witnesses.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, system=False, weight=False):
        # --json follows a system command's --type, --rank (and --weight);
        # every other command adds it last, as each --help has listed it
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if system:
            p.add_argument("--type", required=True,
                           help="root-system type, e.g. E8 or a bare letter")
            p.add_argument("--rank", type=_int, default=None)
            if weight:
                p.add_argument("--weight", required=True,
                               help="'0,0,1', 'w3' or 'w1+2w3'")
            p.add_argument("--json", action="store_true")
        return p

    command("classify", _cmd_classify,
            "decide global irreducibility of a weight",
            system=True, weight=True)

    command("witness", _cmd_witness,
            "print the reduction witness trace for a weight",
            system=True, weight=True)

    p = command("det-short", _cmd_det_short,
                "short-root determinant, optionally tested at an order",
                system=True)
    p.add_argument("--ell", type=_int, default=None)

    p = command("sl2", _cmd_sl2, "rank-one irreducibility at a given order")
    p.add_argument("--lambda", dest="lam", type=_int, required=True)
    p.add_argument("--ell", type=_int, required=True)
    p.add_argument("--d", type=_int, default=1,
                   help="node symmetrizer twist (1, 2 or 3)")
    p.add_argument("--json", action="store_true")

    p = command("qbinom", _cmd_qbinom,
                "Gaussian binomial, optionally tested for vanishing at an "
                "order")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--m", type=_int, required=True)
    p.add_argument("--ell", type=_int, default=None)
    p.add_argument("--d", type=_int, default=1)
    p.add_argument("--json", action="store_true")

    p = command("table-theorem5-1", _cmd_table,
                "determinants and vanishing orders per type")
    p.add_argument("--max-rank", dest="max_rank", type=_int, default=12)
    p.add_argument("--json", action="store_true")

    command("endnodes", _cmd_endnodes,
            "the end-node reduction case for a type", system=True)

    p = command("e8-certificate", _cmd_e8_certificate,
                "irreducibility certificate for the rank-8 exceptional "
                "adjoint weight")
    p.add_argument("--json", action="store_true")

    p = command("verify-paper", _cmd_verify_paper,
                "run the full acceptance suite")
    p.add_argument("--only", default=None,
                   help="comma-separated check ids")
    p.add_argument("--json", action="store_true")
    return parser


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


def _decision_doc(args):
    """classify's and witness's decision on --type and --weight: the
    decision, its JSON document and the report's type and weight lines."""
    rs = parse_type(args.type, args.rank)
    lam = parse_weight(args.weight, rs.rank)
    weight = format_weight(lam)
    decision = classifier.classify_global(rs, lam)
    doc = {
        "input": {
            "command": args.command,
            "type": rs.name,
            "weight": weight,
        },
        "decision": {
            "verdict": decision.verdict,
            "reason": decision.reason,
        },
        "trace": classifier.trace_json(rs, lam, decision.trace),
        "witness_ell": decision.witness_ell,
        "citations": classifier.trace_citations(decision.trace),
    }
    return decision, doc, [f"type: {rs.name}", f"weight: {weight}"]


def _cmd_classify(args):
    decision, doc, lines = _decision_doc(args)
    lines.append(f"decision: {decision.verdict}")
    if decision.reason is not None:
        lines.append(f"reason: {decision.reason}")
    if decision.witness_ell is not None:
        lines.append(f"witness ell: {decision.witness_ell}")
        lines.append("trace:")
        lines.extend(_render_trace(doc["trace"]))
    return doc, lines


def _cmd_witness(args):
    decision, doc, lines = _decision_doc(args)
    if decision.verdict == "globally_irreducible":
        lines.append(f"no reduction witness: globally irreducible "
                     f"({decision.reason})")
    else:
        lines.append(f"witness ell: {decision.witness_ell}")
        lines.append("trace:")
        lines.extend(_render_trace(doc["trace"]))
        lines.append("citations:")
        lines.extend(f"  - {c}" for c in doc["citations"])
    return doc, lines


def _cmd_det_short(args):
    rs = parse_type(args.type, args.rank)
    det = weylmods.det_short_matrix(rs)
    doc = {
        "input": {"command": args.command, "type": rs.name, "ell": args.ell},
        "det": repr(det),
    }
    lines = [f"type: {rs.name}", f"det: {det!r}"]
    if args.ell is not None:
        vanishes = weylmods.adjoint_short_reducible_at(rs, args.ell)
        doc["vanishes"] = vanishes
        lines.append(f"ell: {args.ell}")
        lines.append(f"vanishes: {str(vanishes).lower()}")
    return doc, lines


def _cmd_sl2(args):
    irreducible = weylmods.sl2_irreducible(args.lam, args.ell, args.d)
    doc = {
        "input": {"command": args.command, "lambda": args.lam, "ell": args.ell,
                  "d": args.d},
        "irreducible": irreducible,
    }
    lines = [f"lambda: {args.lam}", f"ell: {args.ell}", f"d: {args.d}",
             f"irreducible: {str(irreducible).lower()}"]
    return doc, lines


def _cmd_qbinom(args):
    from .qarith import _gauss_indices  # the one statement of the indices
    top, _ = _gauss_indices(args.n, args.m)
    doc = {"input": {"command": args.command, "n": args.n, "m": args.m,
                     "ell": args.ell, "d": args.d}}
    lines = [f"n: {args.n}", f"m: {args.m}"]
    degree = args.m * (top - args.m)
    small = degree <= _QBINOM_DEGREE_LIMIT
    if small:
        value = qarith.qbinom(args.n, args.m)
        doc["value"] = repr(value)
        lines.append(f"value: {value!r}")
    elif args.ell is None:
        raise ValueError(
            f"n: symbolic expansion of degree {degree} exceeds the limit "
            f"{_QBINOM_DEGREE_LIMIT}; pass --ell for the vanishing test")
    if args.ell is not None:
        spec = qarith.SpecOrder(args.ell, args.d)
        vanishes = qarith.qbinom_vanishes_fast(args.n, args.m, spec)
        if small and vanishes != qarith.vanishes_at(value, spec):
            raise InternalCheckError(
                "fast vanishing rule disagrees with the symbolic value")
        doc["vanishes"] = vanishes
        lines.append(f"ell: {args.ell}")
        lines.append(f"vanishes: {str(vanishes).lower()}")
    return doc, lines


def _cmd_table(args):
    if not 1 <= args.max_rank <= _TABLE_MAX_RANK:
        raise ValueError(
            f"max-rank: must be an integer from 1 to {_TABLE_MAX_RANK}")
    rows = []
    for rs in systems(args.max_rank):
        orders = [l for l in range(1, 61)
                  if weylmods.adjoint_short_reducible_at(rs, l)]
        rows.append({"type": rs.name,
                     "det": repr(weylmods.det_short_matrix(rs)),
                     "vanishing_orders": orders})
    doc = {"input": {"command": args.command, "max_rank": args.max_rank},
           "rows": rows}
    lines = []
    for row in rows:
        orders = ", ".join(str(l) for l in row["vanishing_orders"]) or "none"
        lines.append(f"{row['type']}")
        lines.append(f"  det: {row['det']}")
        lines.append(f"  vanishing orders <= 60: {orders}")
    return doc, lines


def _cmd_endnodes(args):
    rs = parse_type(args.type, args.rank)
    lam, ell, case = classifier.endnode_witness(rs)
    trace = (classifier.EndNode(case, ell),)
    nodes = classifier.trace_json(rs, lam, trace)
    verified = nodes[0]["verified"]
    weight = format_weight(lam)
    doc = {
        "input": {"command": args.command, "type": rs.name},
        "case": case,
        "weight": weight,
        "ell": ell,
        "verified": verified,
        "trace": nodes,
        "citations": classifier.trace_citations(trace),
    }
    lines = [f"type: {rs.name}", f"case: {case}",
             f"weight: {weight}", f"ell: {ell}",
             f"verified: {str(verified).lower()}"]
    return doc, lines


def _cmd_e8_certificate(args):
    cert = weylmods.e8_certificate()
    f16 = cert.factors[2]  # e8_certificate checks it is detD.shift(8)
    doc = {
        "input": {"command": args.command},
        "det": repr(cert.detD),
        "f": repr(cert.f),
        "f16": repr(f16),
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
        f"f16: {f16!r}",
        "factors:",
        *(f"  - {p!r}" for p in cert.factors),
        f"orders checked: {len(cert.checked_orders)} "
        f"(3 <= ell <= 1000 with totient <= 20)",
        f"orders where a cyclotomic factor divides f16: {failing}",
        f"det value at 1: {cert.value_at_one}",
        f"det value at -1: {cert.value_at_minus_one}",
        f"certified: {str(cert.certified).lower()}",
    ]
    return doc, lines


def _cmd_verify_paper(args):
    only = None
    if args.only is not None:
        only = [part.strip() for part in args.only.split(",") if part.strip()]
        if not only:
            raise ValueError("only: no check ids given")
    results = acceptance.run_all(only)
    rows, lines = [], []
    for r in results:
        budget = acceptance.budget_for(r.id)
        rows.append({"id": r.id, "passed": r.passed, "detail": r.detail,
                     "budget_seconds": budget})
        tag = "PASS" if r.passed else "FAIL"
        lines.append(f"[{tag}] {r.id}  ({r.seconds:.2f}s, "
                     f"budget {budget:g}s)")
        lines.append(f"       {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    if failed:
        lines.append(f"{failed} of {len(results)} checks failed")
    else:
        lines.append(f"all {len(results)} checks passed")
    doc = {"input": {"command": args.command, "only": only},
           "results": rows, "all_passed": not failed}
    return doc, lines


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the message; normalize its exit code
        return 0 if exc.code in (0, None) else 2
    try:
        for dest, value in vars(args).items():
            if isinstance(value, list):  # argparse reads "--opt=--" as []
                option = "lambda" if dest == "lam" else dest.replace("_", "-")
                raise ValueError(f"{option}: expected one value")
        doc, lines = args.run(args)
        if args.json:
            import json
            print(json.dumps(doc, indent=2))
        else:
            print("\n".join(lines))
        # only verify-paper's document carries all_passed
        return 1 if doc.get("all_passed") is False else 0
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
