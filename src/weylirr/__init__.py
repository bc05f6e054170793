"""Exact global-irreducibility classification of quantum Weyl modules.

The package decides, for a dominant integral weight of a complex simple Lie
algebra, whether the corresponding quantum Weyl module stays irreducible at
every root of unity, and otherwise produces a concrete order together with a
machine-checkable reduction trace.  All arithmetic is exact: Laurent
polynomials over the integers, cyclotomic divisibility, and integer
products for dimension formulas.

The lazy-import rule, stated here once: `import weylirr` runs this file
alone, and it registers every library submodule (_SUBMODULES) in
sys.modules and as a package global through importlib's LazyLoader, so
each is compiled and run at its first attribute read.  A module imports
its siblings plainly (`from . import classifier`), which binds the
registered module without running it, so a request compiles only the
modules it executes; and every module the bench tracer wraps is in
sys.modules once the package is imported.  cli and __main__ are imported
the usual way, so `import weylirr.cli` compiles and runs cli.

Each name of __all__ is read from the submodule _EXPORTS files it under,
on every access (PEP 562), so a function rebound on its submodule is what
the package gives out, and restoring it leaves no copy here.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "_record": ("InternalCheckError",),
    "qarith": (
        "ExactDivisionError", "LaurentPoly", "SpecOrder", "cyclotomic",
        "euler_phi", "qbinom", "qbinom_vanishes_fast", "qfactorial", "qint",
        "qint_vanishes_fast", "s_value", "vanishes_at",
    ),
    "rootsystem": (
        "LeviComponent", "Root", "RootSystem", "build", "format_weight",
        "parse_type", "parse_weight", "systems",
    ),
    "weylmods": (
        "E8Certificate", "adjoint_short_reducible_at", "closed_form_detD",
        "det_short_matrix", "e8_certificate", "g2_omega2_reducible_at",
        "sl2_irreducible", "sl2_maximal_vector_oracle",
    ),
    "classifier": (
        "Decision", "EndNode", "FundWeight", "LeviDescent", "Sl2Node",
        "TraceError", "classify_global", "endnode_witness", "find_witness",
        "trace_citations", "trace_json", "verify_witness",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = sorted(_HOME)

# every module of the package but cli and __main__
_SUBMODULES = ("_record", "rootsystem", "qarith", "weylmods", "classifier",
               "acceptance", "reports")

for _child in _SUBMODULES:
    _name = f"{__name__}.{_child}"
    if _name not in sys.modules:  # one imported already is kept as it is
        _spec = importlib.util.find_spec(_name)
        _spec.loader = importlib.util.LazyLoader(_spec.loader)
        sys.modules[_name] = importlib.util.module_from_spec(_spec)
        _spec.loader.exec_module(sys.modules[_name])
    globals()[_child] = sys.modules[_name]


def __getattr__(name: str):
    # nothing is cached here: the submodule's binding is read every time
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
