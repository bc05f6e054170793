"""Outside-in span tracing of weylirr's public functions.

The tracer rebinds module attributes (and one method) to wrappers that
record a span around each call.  Nothing inside src/ changes, and no wrapper
reads an attribute of an argument or a result, so values the program
computes lazily stay lazy.  Spans are aggregated in memory into a call tree
(one node per call path, with calls, total and self time) and written out
when the traced process ends.

Run as a script, it is a traced stand-in for ``python -m weylirr``:

    python bench/tracer.py SPANS.json -- classify --type B5 --weight w2
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute) pairs wrapped, one span name each: "<module>.<name>".
TRACED = (
    ("qarith", "vanishes_at"),
    ("qarith", "cyclotomic"),
    ("qarith", "qbinom"),
    ("qarith", "qbinom_vanishes_fast"),
    ("rootsystem", "build"),
    ("rootsystem", "RootSystem.levi_subsystem"),
    ("weylmods", "det_short_matrix"),
    ("weylmods", "sl2_maximal_vector_oracle"),
    ("weylmods", "e8_certificate"),
    ("classifier", "classify_global"),
    ("classifier", "find_witness"),
    ("classifier", "verify_witness"),
    ("classifier", "trace_json"),
    ("acceptance", "run_check"),
    ("cli", "main"),
)


class Node:
    """Aggregate of every span that shares one call path."""

    __slots__ = ("calls", "total", "self_time", "children")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.children = {}

    def to_json(self) -> dict:
        return {"calls": self.calls, "total_s": self.total,
                "self_s": self.self_time,
                "children": {k: v.to_json() for k, v in self.children.items()}}


class Tracer:
    """Span recorder; one call tree per phase (e.g. setup, timed)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.phases = {}
        self.counters = {}
        self._seen_systems = {}
        self.phase("main")

    def phase(self, name: str) -> None:
        """Record later spans under a separate tree and counter set."""
        self.root = self.phases.setdefault(name, Node())
        self.phase_counters = self.counters.setdefault(name, {})
        # each frame: [node, time covered by finished child spans]
        self._stack = [[self.root, 0.0]]

    def count(self, name: str, k: int = 1) -> None:
        self.phase_counters[name] = self.phase_counters.get(name, 0) + k

    def wrap(self, name, fn, name_of=None, on_result=None):
        """fn wrapped in a span; name_of(args) can name it per call."""
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0]
            key = name if name_of is None else name_of(args)
            node = parent.children.get(key)
            if node is None:
                node = parent.children[key] = Node()
            frame = [node, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                node.calls += 1
                node.total += duration
                node.self_time += duration - frame[1]
                stack[-1][1] += duration
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _build_result(self, system) -> None:
        # a build miss returns an object no earlier call returned; the
        # object is kept alive so its id cannot be reused
        if id(system) not in self._seen_systems:
            self._seen_systems[id(system)] = system
            self.count("rootsystem.build.misses")

    def install(self):
        """Wrap every TRACED function in all loaded weylirr modules.

        Returns a function that restores the originals.
        """
        import weylirr
        import weylirr.cli  # noqa: F401  (loads every submodule)

        modules = [m for name, m in sys.modules.items()
                   if name == "weylirr" or name.startswith("weylirr.")]
        undo = []
        for mod_name, attr in TRACED:
            module = sys.modules[f"weylirr.{mod_name}"]
            owner_name, _, fn_name = attr.rpartition(".")
            span = f"{mod_name}.{fn_name}"
            name_of = on_result = None
            if span == "acceptance.run_check":
                name_of = lambda args: f"acceptance.{args[0]}"  # noqa: E731
            elif span == "rootsystem.build":
                on_result = self._build_result
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[fn_name]
                setattr(owner, fn_name,
                        self.wrap(span, original, name_of, on_result))
                undo.append((owner, fn_name, original))
                continue
            original = getattr(module, fn_name)
            wrapped = self.wrap(span, original, name_of, on_result)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        undo.append((mod, key, original))

        def restore():
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

        return restore

    def to_json(self) -> dict:
        return {"phases": {k: v.to_json() for k, v in self.phases.items()},
                "counters": self.counters}


def flatten(tree: dict, out=None) -> dict:
    """name -> [calls, total_s, self_s], summed over all call paths."""
    out = {} if out is None else out
    for name, node in tree["children"].items():
        agg = out.setdefault(name, [0, 0.0, 0.0])
        agg[0] += node["calls"]
        agg[1] += node["total_s"]
        agg[2] += node["self_s"]
        flatten(node, out)
    return out


def merge_tree(into: dict, tree: dict) -> dict:
    """Add the spans of one call tree (as written out) into another."""
    for name, node in tree["children"].items():
        agg = into["children"].setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "children": {}})
        agg["calls"] += node["calls"]
        agg["total_s"] += node["total_s"]
        agg["self_s"] += node["self_s"]
        merge_tree(agg, node)
    return into


def _main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <weylirr arguments>",
              file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    import weylirr.cli
    try:
        code = weylirr.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
