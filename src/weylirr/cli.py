"""Command-line front end.

Every subcommand prints a short human-readable report by default and a
deterministic JSON document with --json.  Exit codes: 0 success, 1 internal
check failure or any other internal error, 2 invalid input.  Failures print
one line to stderr, never a traceback.

_build_parser is the one table of subcommands; each subparser carries its
handler as `run`, and a handler reads its own name from args.command.
classify's and witness's handlers live here; the seven report handlers
(det-short, sl2, qbinom, table-theorem5-1, endnodes, e8-certificate and
verify-paper) live in reports, and the table names each of them by its
name there, so neither importing this module nor building the parser
runs reports: main reads the handler from it at dispatch.  Every integer
option has the type _int, which takes ASCII digits with an optional
leading '-', as parse_type and parse_weight do.  A handler returns the
JSON document and the report lines, and main prints one of them inside
its error handling, exiting 1 only when the document says all_passed is
false (verify-paper).  Integer text has at most _MAX_DIGITS digits, in
options as in types and weights.

A request compiles and runs only the modules it executes, under the
package's lazy-import rule (see weylirr's docstring); json is imported
only when --json asks for it.
"""

from __future__ import annotations

import argparse
import sys

from . import classifier, reports
from ._record import InternalCheckError
from .rootsystem import (
    _check_digits,
    _is_int_text,
    format_weight,
    parse_type,
    parse_weight,
)


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
        # run is a handler of this module or the name of one in reports;
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

    p = command("det-short", "_cmd_det_short",
                "short-root determinant, optionally tested at an order",
                system=True)
    p.add_argument("--ell", type=_int, default=None)

    p = command("sl2", "_cmd_sl2", "rank-one irreducibility at a given order")
    p.add_argument("--lambda", dest="lam", type=_int, required=True)
    p.add_argument("--ell", type=_int, required=True)
    p.add_argument("--d", type=_int, default=1,
                   help="node symmetrizer twist (1, 2 or 3)")
    p.add_argument("--json", action="store_true")

    p = command("qbinom", "_cmd_qbinom",
                "Gaussian binomial, optionally tested for vanishing at an "
                "order")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--m", type=_int, required=True)
    p.add_argument("--ell", type=_int, default=None)
    p.add_argument("--d", type=_int, default=1)
    p.add_argument("--json", action="store_true")

    p = command("table-theorem5-1", "_cmd_table",
                "determinants and vanishing orders per type")
    p.add_argument("--max-rank", dest="max_rank", type=_int, default=12)
    p.add_argument("--json", action="store_true")

    command("endnodes", "_cmd_endnodes",
            "the end-node reduction case for a type", system=True)

    p = command("e8-certificate", "_cmd_e8_certificate",
                "irreducibility certificate for the rank-8 exceptional "
                "adjoint weight")
    p.add_argument("--json", action="store_true")

    p = command("verify-paper", "_cmd_verify_paper",
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
        run = args.run
        if isinstance(run, str):  # a report's handler, run from here
            run = getattr(reports, run)
        doc, lines = run(args)
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
