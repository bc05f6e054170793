"""Exact global-irreducibility classification of quantum Weyl modules.

The package decides, for a dominant integral weight of a complex simple Lie
algebra, whether the corresponding quantum Weyl module stays irreducible at
every root of unity, and otherwise produces a concrete order together with a
machine-checkable reduction trace.  All arithmetic is exact: Laurent
polynomials over the integers, cyclotomic divisibility, and integer
products for dimension formulas.
"""

from .qarith import (
    ExactDivisionError,
    InternalCheckError,
    LaurentPoly,
    SpecOrder,
    cyclotomic,
    euler_phi,
    qbinom,
    qbinom_vanishes_fast,
    qfactorial,
    qint,
    qint_vanishes_fast,
    s_value,
    vanishes_at,
)
from .rootsystem import (
    LeviComponent,
    Root,
    RootSystem,
    build,
    format_weight,
    parse_type,
    parse_weight,
    systems,
)
from .weylmods import (
    E8Certificate,
    adjoint_short_reducible_at,
    closed_form_detD,
    det_short_matrix,
    e8_certificate,
    g2_omega2_reducible_at,
    sl2_irreducible,
    sl2_maximal_vector_oracle,
)
from .classifier import (
    Decision,
    EndNode,
    FundWeight,
    LeviDescent,
    Sl2Node,
    TraceError,
    classify_global,
    endnode_witness,
    find_witness,
    trace_citations,
    trace_json,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "Decision",
    "E8Certificate",
    "EndNode",
    "ExactDivisionError",
    "FundWeight",
    "InternalCheckError",
    "LaurentPoly",
    "LeviComponent",
    "LeviDescent",
    "Root",
    "RootSystem",
    "Sl2Node",
    "SpecOrder",
    "TraceError",
    "adjoint_short_reducible_at",
    "build",
    "classify_global",
    "closed_form_detD",
    "cyclotomic",
    "det_short_matrix",
    "e8_certificate",
    "endnode_witness",
    "euler_phi",
    "find_witness",
    "format_weight",
    "g2_omega2_reducible_at",
    "parse_type",
    "parse_weight",
    "qbinom",
    "qbinom_vanishes_fast",
    "qfactorial",
    "qint",
    "qint_vanishes_fast",
    "s_value",
    "sl2_irreducible",
    "sl2_maximal_vector_oracle",
    "systems",
    "trace_citations",
    "trace_json",
    "vanishes_at",
    "verify_witness",
]
