"""The report subcommands: det-short, sl2, qbinom, table-theorem5-1,
endnodes, e8-certificate and verify-paper.

cli's parser names each of these handlers by its name here, and cli's main
reads it from this module at dispatch, so a classify or witness request
never compiles this file.  Each handler returns the JSON document and the
report lines, as cli's own handlers do.  Its siblings are imported
plainly under the package's lazy-import rule (see weylirr's docstring),
so a report compiles only the modules its command runs.
"""

from __future__ import annotations

from . import acceptance, classifier, qarith, weylmods
from ._record import InternalCheckError
from .rootsystem import format_weight, parse_type, systems

# the symbolic Gaussian binomial is expanded on demand only for degree
# m(n - m) up to this limit; the expansion's work grows like min(m, n - m)
# times its degree
_QBINOM_DEGREE_LIMIT = 100_000

# table-theorem5-1 builds and expands the determinant of every system up to
# --max-rank, so the work grows faster than the square of the bound
_TABLE_MAX_RANK = 100


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
