"""The benchmark's span tracer still finds every function it wraps.

bench/tracer.py rebinds weylirr functions by name, so renaming or
inlining one of them would silently drop its span from `--trace 1` runs.
These tests run two CLI requests under the tracer and check the spans and
the restore.
"""

import importlib.util
import sys
from pathlib import Path

import weylirr.cli
from weylirr.rootsystem import RootSystem

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

EXPECTED_SPANS = (
    "classifier.classify_global",
    "classifier.find_witness",
    "classifier.verify_witness",
    "classifier.trace_json",
    "rootsystem.levi_subsystem",
    "weylmods.det_short_matrix",
    "qarith.vanishes_at",
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("weylirr_bench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every loaded weylirr module, plus the one method
    the tracer wraps on a class."""
    out = {(name, key): value
           for name, module in sys.modules.items()
           if name == "weylirr" or name.startswith("weylirr.")
           for key, value in vars(module).items()}
    out["RootSystem", "levi_subsystem"] = \
        RootSystem.__dict__["levi_subsystem"]
    return out


def test_spans_recorded_and_originals_restored(capsys):
    tracer_module = _load_tracer()
    before = _bindings()
    tracer = tracer_module.Tracer()
    restore = tracer.install()
    try:
        assert weylirr.cli.main(
            ["classify", "--type", "B5", "--weight", "w2", "--json"]) == 0
        assert weylirr.cli.main(["endnodes", "--type", "B4"]) == 0
    finally:
        restore()
    capsys.readouterr()
    spans = tracer_module.flatten(tracer.to_json()["phases"]["main"])
    for name in EXPECTED_SPANS:
        assert name in spans, name
        assert spans[name][0] >= 1, name
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items()
               if after[key] is not value]
    assert changed == []
