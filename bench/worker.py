"""Fresh-process side of the benchmark: set-up probes and the sweep worker.

    python bench/worker.py setup none      time `import weylirr.cli`
    python bench/worker.py setup sweep     ... plus the sweep's warm-up
    python bench/worker.py sweep SEED SECONDS TRACE SPANS.json

Each prints JSON objects on stdout, one a line: the sweep its set-up time
as soon as it is set up, one per pass with the timings of its requests, then
a summary.  Only sys and time are
imported before the timed import, so it costs what it costs a fresh CLI
process.
"""

import sys
import time


def measure_setup(warm: str) -> float:
    """Seconds to import weylirr.cli, plus the sweep's warm-up if asked.

    The warm-up builds every system of the sweep, then classifies each
    pooled weight once, so the program's caches are full before timing and
    work that moves from building to first use still shows in set-up.
    """
    start = time.perf_counter()
    import weylirr.cli  # noqa: F401
    import_s = time.perf_counter() - start
    if warm == "none":
        return import_s
    import workloads
    from weylirr import rootsystem

    systems, pool = workloads.sweep_systems(), workloads.sweep_pool()
    start = time.perf_counter()
    for kind, n in systems:
        rootsystem.build(kind, n)
    classify_document = document_maker()
    for kind, n, lam in pool:
        classify_document(kind, n, lam)
    return import_s + time.perf_counter() - start


def document_maker():
    """A function (kind, rank, weight) -> the `classify --json` document.

    It goes through the public API (build, classify_global, trace_json,
    trace_citations, json.dumps) and looks each function up on its module
    at call time, so a traced run sees every call.
    """
    import json
    from weylirr import classifier, rootsystem

    def classify_document(kind, n, lam):
        rs = rootsystem.build(kind, n)
        decision = classifier.classify_global(rs, lam)
        doc = {
            "input": {"command": "classify", "type": rs.name,
                      "weight": rootsystem.format_weight(lam)},
            "decision": {"verdict": decision.verdict,
                         "reason": decision.reason},
            "trace": classifier.trace_json(rs, lam, decision.trace),
            "witness_ell": decision.witness_ell,
            "citations": classifier.trace_citations(decision.trace),
        }
        return doc, json.dumps(doc, indent=2)

    return classify_document


def _sweep_pass(stream, golden, gate):
    """Classify the stream once and check every document.

    Returns [wall seconds, CPU seconds] of each request.
    """
    import workloads

    classify_document = document_maker()
    clock, cpu_clock = time.perf_counter, time.process_time
    timings = []
    for kind, n, lam in stream:
        cpu = cpu_clock()
        start = clock()
        doc, text = classify_document(kind, n, lam)
        wall = clock() - start
        timings.append((wall, cpu_clock() - cpu))
        gate.record(workloads.golden_mismatch(
            golden, workloads.sweep_key(kind, n, lam), 0,
            (text + "\n").encode())
            or workloads.expectation_mismatch(kind, n, lam, doc))
    return timings


def sweep(seed: int, seconds: float, trace: bool, spans_path: str) -> None:
    """Set up, then classify the seeded stream in passes for `seconds`.

    With trace, one untraced pass is followed by one traced pass.
    """
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.phase("setup")
        restore = tracer.install()
        setup_s = measure_setup("sweep")
        restore()
    else:
        setup_s = measure_setup("sweep")
    import json
    import workloads

    print(json.dumps({"setup_s": setup_s}), flush=True)
    stream = workloads.sweep_stream(seed)
    golden = workloads.load_golden("classify-sweep")
    gate = workloads.Gate()
    # each pass is written out at once, so that the timings of earlier
    # passes do not add to this process's memory
    start = time.perf_counter()
    while True:
        print(json.dumps({"pass": _sweep_pass(stream, golden, gate)}),
              flush=True)
        if trace or time.perf_counter() - start >= seconds:
            break
    if trace:
        tracer.phase("timed")
        restore = tracer.install()
        print(json.dumps({"pass": _sweep_pass(stream, golden, gate)}),
              flush=True)
        restore()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
    print(json.dumps({"failed": gate.failed, "failures": gate.first}))


def main(argv) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        print(f'{{"setup_s": {measure_setup(argv[1])!r}}}')
        return 0
    if argv[:1] == ["sweep"] and len(argv) == 5:
        sweep(int(argv[1]), float(argv[2]), argv[3] == "1", argv[4])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
