"""Self-tests of the benchmark's own code.

    python3 -m pytest -q bench/test_bench.py

They need neither weylirr nor the golden outputs to be current, except
test_generated_requests_have_golden_outputs, which reads bench/golden/.
"""

import itertools

import pytest

import hostspeed
import run
import tracer
import workloads


def _fake_clock(*ticks):
    return iter(ticks).__next__


def test_self_time_of_synthetic_span_tree():
    # a [0, 10] calls b [1, 4] and c [5, 9]; c calls d [6, 7]
    t = tracer.Tracer(clock=_fake_clock(0, 1, 4, 5, 6, 7, 9, 10))
    d = t.wrap("d", lambda: None)
    c = t.wrap("c", lambda: d())
    b = t.wrap("b", lambda: None)
    a = t.wrap("a", lambda: (b(), c()))
    a()
    tree = t.to_json()["phases"]["main"]
    stats = tracer.flatten(tree)
    assert stats == {"a": [1, 10, 3], "b": [1, 3, 3], "c": [1, 4, 3],
                     "d": [1, 1, 1]}
    assert list(tree["children"]["a"]["children"]) == ["b", "c"]


def test_self_time_of_recursion_and_merge():
    # f [0, 6] calls f [1, 3]; the same tree merged twice doubles every sum
    t = tracer.Tracer(clock=_fake_clock(0, 1, 3, 6))
    calls = []

    def body():
        calls.append(1)
        if len(calls) == 1:
            f()

    f = t.wrap("f", body)
    f()
    tree = t.to_json()["phases"]["main"]
    assert tracer.flatten(tree) == {"f": [2, 8, 6]}
    merged = tracer.merge_tree(tracer.merge_tree({"children": {}}, tree),
                               tree)
    assert tracer.flatten(merged) == {"f": [4, 16, 12]}


def test_span_closes_when_the_call_raises():
    t = tracer.Tracer(clock=_fake_clock(0, 2))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.wrap("boom", boom)()
    assert tracer.flatten(t.to_json()["phases"]["main"]) == {
        "boom": [1, 2, 2]}
    assert len(t._stack) == 1


def test_golden_comparator_flags_one_byte_difference():
    out = b'{\n  "verdict": "reducible"\n}\n'
    golden = {"k": (0, workloads.digest(out))}
    assert workloads.golden_mismatch(golden, "k", 0, out) is None
    for i in range(len(out)):
        changed = out[:i] + bytes([out[i] ^ 1]) + out[i + 1:]
        assert workloads.golden_mismatch(golden, "k", 0, changed)
    assert workloads.golden_mismatch(golden, "k", 0, out + b" ")
    assert workloads.golden_mismatch(golden, "k", 1, out)
    assert workloads.golden_mismatch(golden, "other", 0, out)


def test_golden_files_round_trip(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "GOLDEN_DIR", tmp_path)
    workloads.write_golden("x", [("a b --json", 1, b"out\n")])
    assert workloads.load_golden("x") == {
        "a b --json": (1, workloads.digest(b"out\n"))}


def test_generators_are_deterministic_per_seed():
    assert workloads.cli_requests(7) == workloads.cli_requests(7)
    assert workloads.cli_requests(7) != workloads.cli_requests(8)
    assert workloads.sweep_stream(7) == workloads.sweep_stream(7)
    assert workloads.sweep_stream(7) != workloads.sweep_stream(8)


def test_cli_pass_shape():
    reqs = workloads.cli_requests(3)
    assert len(reqs) == 100
    classify = [r for r in reqs if r.argv[0] in ("classify", "witness")]
    assert len(classify) == 80
    assert {(r.kind, r.rank) for r in classify} == set(
        itertools.product(workloads.CLI_TYPES, workloads.CLI_RANKS))


@pytest.mark.parametrize("seed", [0, 1, 2, 12345])
def test_generated_requests_have_golden_outputs(seed):
    cli = workloads.load_golden("cli-cold")
    assert all(r.key in cli for r in workloads.cli_requests(seed))
    sweep = workloads.load_golden("classify-sweep")
    assert all(workloads.sweep_key(*w) in sweep
               for w in workloads.sweep_stream(seed))


def test_expectation_table():
    e = workloads.expectation
    assert e("A", 5, (1, 0, 0, 0, 1)) == ("witness_ell", 6)
    assert e("B", 4, (1, 0, 0, 1)) == ("witness_ell", 9)
    assert e("C", 3, (1, 0, 1)) == ("witness_ell", 4)
    assert e("G", 2, (1, 1)) == ("witness_ell", 4)
    assert e("D", 5, (0, 0, 0, 1, 0)) == ("verdict", "globally_irreducible")
    assert e("E", 8, (0,) * 7 + (1,)) == ("verdict", "globally_irreducible")
    assert e("B", 4, (0, 0, 0, 2)) is None
    doc = {"decision": {"verdict": "reducible"}, "witness_ell": 6}
    assert workloads.expectation_mismatch("A", 5, (1, 0, 0, 0, 1), doc) is None
    assert workloads.expectation_mismatch("A", 5, (0, 1, 0, 0, 0), doc)


def test_verify_paper_expectation():
    def doc(failing, detail="orders [60] divide"):
        return {"results": [{"id": i, "passed": i not in failing,
                             "detail": detail}
                            for i in ("thm-5-1-vanishing-table",
                                      "e8-certificate", "dimension")]}

    assert workloads.verify_paper_mismatch(doc(workloads.PINNED_RED)) is None
    assert workloads.verify_paper_mismatch(doc({"e8-certificate"}))
    assert workloads.verify_paper_mismatch(
        doc(workloads.PINNED_RED, "orders [12] divide"))


def test_tail_leaves_ten_samples_beyond():
    assert run.tail(list(range(1, 51))) == 40
    assert run.tail(list(range(20_000, 0, -1))) == 19_990
    assert run.tail([7.0]) == 7.0
    assert run.tail_label(50) == "p80"
    assert run.tail_label(20_000) == "p99.95"
    assert run.tail_label(1) == "max"


def test_end_to_end_scales_each_pass_by_its_host_speed():
    T = run.Timing
    slow = [T(2.0, 0.002, 0.5), T(4.0, 0.004, 0.5)]
    mixed = [T(1.0, 0.001, 1.0), T(8.0, 0.008, 0.25)]
    m = run.end_to_end([0.1], [slow, mixed])
    assert m["wall_s"] == pytest.approx(3.0)
    assert m["latency_p50_cpu_ms"] == pytest.approx(1.5)
    assert m["latency_tail_cpu_ms"] == pytest.approx(2.0)
    raw = run.end_to_end([0.1], [slow, mixed], scaled=False)
    assert raw["wall_s"] == pytest.approx(7.5)
    assert m["setup_s"] == raw["setup_s"] == 0.1


def test_speed_probe_reports_speed_and_ends():
    with hostspeed.SpeedProbe() as probe:
        for _ in range(2):
            probe.start()
            sum(range(200_000))
            assert probe.stop() > 0
    assert probe.proc.returncode == 0
