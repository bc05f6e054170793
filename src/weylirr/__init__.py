"""Exact global-irreducibility classification of quantum Weyl modules.

The package decides, for a dominant integral weight of a complex simple Lie
algebra, whether the corresponding quantum Weyl module stays irreducible at
every root of unity, and otherwise produces a concrete order together with a
machine-checkable reduction trace.  All arithmetic is exact: Laurent
polynomials over the integers, cyclotomic divisibility, and integer
products for dimension formulas.

`import weylirr` runs this file alone.  Each name of __all__ is read from
the submodule _EXPORTS files it under, on every access (PEP 562), so a
function rebound on its submodule is what the package gives out, and
restoring it leaves no copy here.  _lazy registers a submodule that is
compiled and run at its first attribute read; cli registers the five
modules a request may not need through it (acceptance, classifier,
qarith, weylmods and reports, which holds the report subcommands), and
reports and classifier reach the modules they call through it.
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


def __getattr__(name: str):
    # nothing is cached here: the submodule's binding is read every time
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})


def _lazy(child: str):
    """The submodule `child`, registered in sys.modules and on this package
    but compiled and run only at its first attribute read; a submodule
    already imported, or already registered, is returned as it is."""
    name = f"{__name__}.{child}"
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        loader = importlib.util.LazyLoader(spec.loader)
        spec.loader = loader
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        globals()[child] = module
        loader.exec_module(module)
    return module
