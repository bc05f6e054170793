"""The benchmark's span tracer still finds every function it wraps.

bench/tracer.py rebinds weylirr functions by name, so renaming or
inlining one of them would silently drop its span from `--trace 1` runs.
These tests run CLI requests under the tracer and check the spans and the
restore, and check in a fresh process that `import weylirr.cli` alone
loads everything the tracer wraps and that a traced verify-paper run
records its per-check spans.
"""

import ast
import importlib.util
import json
import os
import subprocess
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


def test_spans_recorded_per_acceptance_check(capsys):
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    restore = tracer.install()
    try:
        assert weylirr.cli.main(
            ["verify-paper", "--only",
             "det-closed-form-equality,end-node-reflection-arithmetic"]) == 0
    finally:
        restore()
    capsys.readouterr()
    spans = tracer_module.flatten(tracer.to_json()["phases"]["main"])
    for check_id in ("det-closed-form-equality",
                     "end-node-reflection-arithmetic"):
        assert spans[f"acceptance.{check_id}"][0] == 1, check_id


def test_spans_recorded_per_acceptance_check_in_a_fresh_process(tmp_path):
    # here the suite is loaded by other tests; a fresh traced run finds it
    # registered but not yet run by `import weylirr.cli`
    spans_path = tmp_path / "spans.json"
    src = str(Path(weylirr.cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, str(TRACER_PATH), str(spans_path), "--",
         "verify-paper", "--only", "dimension-cross-checks", "--json"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_passed"] is True
    spans = _load_tracer().flatten(
        json.loads(spans_path.read_text())["phases"]["main"])
    assert spans["acceptance.dimension-cross-checks"][0] == 1


def _traced_names():
    """The tracer's TRACED pairs, read from its source without running it."""
    tree = ast.parse(TRACER_PATH.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TRACED"]):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TRACED")


def test_cli_import_loads_every_traced_function():
    # the tracer looks each module up in sys.modules after importing
    # weylirr.cli, so a lazy import would drop its spans; in this process
    # the other test modules have already loaded everything
    traced = _traced_names()
    code = (
        "import functools, json, sys, weylirr.cli\n"
        "missing = []\n"
        "for mod, attr in json.loads(sys.argv[1]):\n"
        "    module = sys.modules.get('weylirr.' + mod)\n"
        "    try:\n"
        "        functools.reduce(getattr, attr.split('.'), module)\n"
        "    except AttributeError:\n"
        "        missing.append(mod + '.' + attr)\n"
        "print(json.dumps(missing))\n")
    src = str(Path(weylirr.cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(traced)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
