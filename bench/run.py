"""Benchmark of the weylirr CLI and library: three closed-loop workloads.

    python3 bench/run.py --workload cli-cold --seed 1 --seconds 16 --trace 0

Run from the repository root; the program is imported from ./src.  Each
workload is driven by one client that sends its next request only after the
previous one finished, and at most one worker process runs at a time.

  cli-cold        one-shot CLI requests, each in a fresh process
  classify-sweep  one long-lived process classifying a weight stream
  verify-paper    `verify-paper --json` in a fresh process

With --trace 0 the fixed request list of the workload is run in passes until
--seconds have passed, every output is checked against the golden recordings
and the hand-written expectation table, and the end-to-end metrics are
printed.  Every timing but the classify-sweep latencies is scaled to a
reference host speed, measured by a probe that shares the program's CPU (see
hostspeed.py), because the speed of a shared host's CPU changes from second
to second.  With --trace 1 the list is run once untraced and once with
spans around the public functions of every module, and the per-layer
metrics are printed.  The last line of stdout is one JSON object; details and span trees
go to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import hostspeed
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = BENCH / "out"

CLI_TIMEOUT = 60.0
VERIFY_TIMEOUT = 150.0
SWEEP_TIMEOUT = 170.0
SETUP_PROBES = 9            # fresh `import weylirr.cli` processes per run
SWEEP_EXTRA_SETUPS = 2      # plus the sweep worker's own set-up
TAIL_BEYOND = 10           # samples above the tail percentile of a pass


class Runner:
    """Starts the program's processes, one at a time, and times them.

    Each process runs on the CPU of the host-speed probe.
    """

    def __init__(self, probe: hostspeed.SpeedProbe):
        self.probe = probe
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(self, cmd, timeout, speed=False):
        """(exit code or None on timeout, stdout, stderr, Timing).

        With speed, the Timing holds the host speed while the process ran.
        """
        if speed:
            self.probe.start()
        cpu = children_cpu_s()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                preexec_fn=self.probe.pin)
        try:
            out, err = proc.communicate(timeout=timeout)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            code = None
        wall, cpu = time.perf_counter() - start, children_cpu_s() - cpu
        return code, out, err, Timing(wall, cpu,
                                      self.probe.stop() if speed else 1.0)

    def cli(self, argv, timeout=CLI_TIMEOUT, spans=None):
        if spans is None:
            cmd = [sys.executable, "-m", "weylirr", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans),
                   "--", *argv]
        return self.run(cmd, timeout, speed=True)

    def worker(self, *args, timeout=CLI_TIMEOUT):
        code, out, err, _ = self.run(
            [sys.executable, str(BENCH / "worker.py"), *map(str, args)],
            timeout)
        if code != 0:
            raise SystemExit(f"worker {args[0]} failed (exit {code}): "
                             f"{err.decode(errors='replace')[-2000:]}")
        return [json.loads(line) for line in out.splitlines()]

    def setup_samples(self, warm: str, count: int):
        """Set-up seconds of `count` fresh processes, one after another,
        scaled by the host speed over all of them."""
        self.probe.start()
        samples = [self.worker("setup", warm)[0]["setup_s"]
                   for _ in range(count)]
        speed = self.probe.stop()
        return [s * speed for s in samples]

    def stream_worker(self, *args, timeout):
        """Run a worker, reading its JSON lines as they come.

        Yields each line with the host speed over the interval that ended
        with it: the first from the start of the process.
        """
        err_path = OUT / "worker-stderr.txt"
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "worker.py"), *map(str, args)],
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=err,
                preexec_fn=self.probe.pin)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            self.probe.start()
            for line in proc.stdout:
                factor = self.probe.stop()
                self.probe.start()
                yield json.loads(line), factor
            self.probe.stop()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if proc.returncode != 0:
            raise SystemExit(f"worker {args[0]} failed (exit "
                             f"{proc.returncode}): "
                             f"{err_path.read_text(errors='replace')[-2000:]}")


def response_problem(key, code, out, err, golden):
    """Why one CLI response fails the gate, or None."""
    if code is None:
        return f"{key}: timed out"
    if b"Traceback" in err:
        return f"{key}: traceback on stderr"
    return workloads.golden_mismatch(golden, key, code, out)


def check_cli(req, code, out, err, golden):
    problem = response_problem(req.key, code, out, err, golden)
    if problem or not req.coords:
        return problem
    return workloads.expectation_mismatch(req.kind, req.rank, req.coords,
                                          json.loads(out))


def check_verify(code, out, err, golden):
    key = " ".join(workloads.VERIFY_ARGV)
    return (response_problem(key, code, out, err, golden)
            or workloads.verify_paper_mismatch(json.loads(out)))


def tail(values):
    """The highest percentile with TAIL_BEYOND values above it.

    That is the 100 * (1 - 10/n) percentile of n values, nearest rank; a
    list of at most ten values has none, and its maximum stands in.
    """
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1] if n > TAIL_BEYOND else ordered[-1]


def tail_label(n: int) -> str:
    if n <= TAIL_BEYOND:
        return "max"
    return f"p{100 * (1 - TAIL_BEYOND / n):g}"


class Timing(NamedTuple):
    """Wall and CPU seconds of one request, and the host speed while it ran
    as a share of the reference speed (see hostspeed.py)."""

    wall: float
    cpu: float
    speed: float = 1.0


def children_cpu_s() -> float:
    """User plus system CPU seconds of all waited-for child processes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Max RSS of the waited-for child processes (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def passes_until(one_pass, seconds):
    """Run passes until `seconds` have passed.

    Returns the Timing of every request, one list per pass.
    """
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass())
        if time.perf_counter() - start >= seconds:
            return passes


def end_to_end(setup, passes, scaled=True):
    """The end-to-end metrics from set-up samples and timed passes.

    Each timing is the median over the passes of the run.  A pass time is
    the sum of its requests' wall times, which leaves out the client's
    output checks between requests.  Latency percentiles are taken per pass
    over CPU time, which leaves out the time the host kept a request off
    the processor.  Each request's times are multiplied by its host speed,
    which gives the times at the reference speed; with scaled=False they
    are left as measured (setup is given already scaled).
    """
    def speed(t):
        return t.speed if scaled else 1.0

    cpu_ms = [[speed(t) * t.cpu * 1e3 for t in ts] for ts in passes]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(speed(t) * t.wall for t in ts)
                                    for ts in passes),
        "latency_p50_cpu_ms": statistics.median(map(statistics.median,
                                                    cpu_ms)),
        "latency_tail_cpu_ms": statistics.median(map(tail, cpu_ms)),
        "peak_rss_mb": peak_rss_mb(),
    }


def timed_detail(setup, passes):
    """The detail of a timed run: its metrics, and the same timings as
    measured, before scaling, with the median host speed of each pass."""
    raw = end_to_end(setup, passes, scaled=False)
    return {"metrics": end_to_end(setup, passes),
            "unscaled": {k: raw[k] for k in ("wall_s", "latency_p50_cpu_ms",
                                             "latency_tail_cpu_ms")},
            "host_speed": [statistics.median(t.speed for t in ts)
                           for ts in passes],
            "passes": len(passes), "pass_size": len(passes[0])}


# ------------------------------------------------------------- cli-cold


def cli_pass(runner, requests, gate, golden, spans=None):
    """One pass over the list; spans, if given, collects the traced run.

    Returns the Timing of each request.
    """
    latencies = []
    spans_file = OUT / "request-spans.json"
    for req in requests:
        code, out, err, timing = runner.cli(
            req.argv, spans=None if spans is None else spans_file)
        latencies.append(timing)
        gate.record(check_cli(req, code, out, err, golden))
        if spans is not None and spans_file.exists():
            add_spans(spans, json.loads(spans_file.read_text()))
            spans_file.unlink()
    return latencies


def add_spans(into, written):
    """Add one traced process's spans and counters (phase main) to into."""
    tracer.merge_tree(into["spans"]["timed"], written["phases"]["main"])
    counters = into["counters"].setdefault("timed", {})
    for name, k in written["counters"]["main"].items():
        counters[name] = counters.get(name, 0) + k


def run_probes(runner):
    results = []
    for probe in workloads.PROBES:
        code, out, err, timing = runner.cli(probe.argv, probe.timeout)
        ok = code is not None and probe.accept(code, out, err)
        last = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
        results.append({"name": probe.name, "argv": " ".join(probe.argv),
                        "expected": probe.expectation, "ok": ok,
                        "exit": code, "seconds": timing.wall,
                        "stderr_last_line": last[0]})
    return results


def cli_cold(runner, seed, seconds, trace):
    requests = workloads.cli_requests(seed)
    golden = workloads.load_golden("cli-cold")
    gate = workloads.Gate()
    runner.setup_samples("none", 1)  # compiles the bytecode caches
    if trace:
        spans = {"spans": {"timed": {"children": {}}}, "counters": {}}
        untraced = cli_pass(runner, requests, gate, golden)
        traced = cli_pass(runner, requests, gate, golden, spans)
        return gate, dict(spans, **overhead(untraced, traced))
    setup = runner.setup_samples("none", SETUP_PROBES)
    passes = passes_until(lambda: cli_pass(runner, requests, gate, golden),
                          seconds)
    return gate, dict(timed_detail(setup, passes),
                      probes=run_probes(runner))


def overhead(untraced, traced):
    """Wall times of the untraced and the traced pass as measured, and
    their ratio at the reference host speed."""
    def wall(ts, scaled=False):
        return sum(t.wall * (t.speed if scaled else 1.0) for t in ts)

    return {"untraced_s": wall(untraced), "traced_s": wall(traced),
            "overhead_ratio": wall(traced, True) / wall(untraced, True)}


# ------------------------------------------------------------ verify-paper


def verify_paper(runner, seed, seconds, trace):
    del seed  # the workload has a single fixed request
    golden = workloads.load_golden("verify-paper")
    gate = workloads.Gate()

    def one(spans=None):
        code, out, err, timing = runner.cli(workloads.VERIFY_ARGV,
                                            VERIFY_TIMEOUT, spans)
        gate.record(check_verify(code, out, err, golden))
        return [timing]

    runner.setup_samples("none", 1)
    if trace:
        spans_file = OUT / "request-spans.json"
        untraced = one()
        traced = one(spans_file)
        spans = {"spans": {"timed": {"children": {}}}, "counters": {}}
        add_spans(spans, json.loads(spans_file.read_text()))
        spans_file.unlink()
        return gate, dict(spans, **overhead(untraced, traced))
    setup = runner.setup_samples("none", SETUP_PROBES)
    return gate, timed_detail(setup, passes_until(one, seconds))


# ---------------------------------------------------------- classify-sweep


def classify_sweep(runner, seed, seconds, trace):
    gate = workloads.Gate()
    spans_file = OUT / "sweep-spans.json"
    runner.setup_samples("none", 1)
    setup = [] if trace else runner.setup_samples("sweep", SWEEP_EXTRA_SETUPS)
    (first, setup_speed), *lines, (result, _) = runner.stream_worker(
        "sweep", seed, seconds, int(trace), spans_file,
        timeout=SWEEP_TIMEOUT)
    passes = [[Timing(wall, cpu, speed) for wall, cpu in line["pass"]]
              for line, speed in lines]
    gate.attempted = sum(map(len, passes))
    gate.failed, gate.first = result["failed"], result["failures"]
    if trace:
        data = json.loads(spans_file.read_text())
        spans_file.unlink()
        return gate, dict(overhead(*passes), setup_traced_s=first["setup_s"],
                          spans=data["phases"], counters=data["counters"])
    setup.append(first["setup_s"] * setup_speed)
    detail = timed_detail(setup, passes)
    # These requests run in-process for 0.05-1 ms each.  From pass to pass
    # their CPU times did not follow the probe's speed, and scaling them
    # widened the spread (bench/README.md), so they are reported as measured.
    for name in ("latency_p50_cpu_ms", "latency_tail_cpu_ms"):
        detail["metrics"][name] = detail["unscaled"][name]
    return gate, detail


WORKLOADS = {"cli-cold": cli_cold, "classify-sweep": classify_sweep,
             "verify-paper": verify_paper}

# ------------------------------------------------------------- per layer


def per_layer(names, detail):
    """Per-layer metric values from the timed phase's spans."""
    stats = tracer.flatten(detail["spans"]["timed"])
    counters = detail["counters"].get("timed", {})
    values = {}
    for name in names:
        if name == "trace.overhead_ratio":
            values[name] = detail["overhead_ratio"]
        elif name == "rootsystem.build.misses":
            values[name] = counters.get(name, 0)
        else:
            base, _, field = name.rpartition(".")
            calls, total, self_s = stats.get(base, (0, 0.0, 0.0))
            values[name] = {"calls": calls, "s": total,
                            "self_s": self_s}[field]
    return values


def layer_table(stats, wall_s):
    """Spans by self time, with their share of the phase's wall time."""
    lines = [f"  {'span':46s} {'calls':>9s} {'self_s':>9s} {'share':>6s}"]
    for name, (calls, _, self_s) in sorted(stats.items(),
                                           key=lambda kv: -kv[1][2]):
        lines.append(f"  {name:46s} {calls:9d} {self_s:9.3f} "
                     f"{self_s / wall_s:6.1%}")
    return lines


def share_notes(workload, detail):
    """The share each prediction in bench/README.md is checked against."""
    timed = tracer.flatten(detail["spans"]["timed"])
    traced = detail["traced_s"]
    if workload == "cli-cold":
        build = timed.get("rootsystem.build", (0, 0.0, 0.0))[2]
        in_main = timed.get("cli.main", (0, 0.0, 0.0))[1]
        return [f"rootsystem.build self time is {build / traced:.1%} of "
                f"the traced request time ({traced:.2f} s, spawn to exit) "
                f"and {build / in_main:.1%} of the time inside cli.main "
                f"({in_main:.2f} s)"]
    if workload == "classify-sweep":
        misses = detail["counters"].get("timed", {}).get(
            "rootsystem.build.misses", 0)
        setup = tracer.flatten(detail["spans"]["setup"])
        build = setup.get("rootsystem.build", (0, 0.0, 0.0))
        return [f"rootsystem.build misses in the timed phase: {misses}",
                f"set-up phase: {build[0]} build calls, "
                f"{build[2]:.3f} s build self time"]
    arith = sum(v[2] for k, v in timed.items()
                if k.startswith(("qarith.", "weylmods.")))
    return [f"qarith + weylmods self time is {arith / traced:.1%} of the "
            f"traced verify-paper time ({traced:.2f} s)"]


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "weylirr" / "cli.py").is_file():
        print("error: run from the repository root; src/weylirr not found",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    OUT.mkdir(exist_ok=True)

    with hostspeed.SpeedProbe() as probe:
        gate, detail = WORKLOADS[args.workload](
            Runner(probe), args.seed, args.seconds, bool(args.trace))
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if args.trace:
        values = per_layer(units, detail)
    else:
        values = detail["metrics"]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in metrics.items():
        value = m["value"]
        text = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"  {name:46s} {text} {m['unit']}")
    if args.trace:
        print(f"per-layer self time, traced run ({detail['traced_s']:.2f} s; "
              f"untraced {detail['untraced_s']:.2f} s):")
        walls = {"timed": detail["traced_s"],
                 "setup": detail.get("setup_traced_s")}
        for phase, tree in detail["spans"].items():
            if tree["children"]:
                print(f" phase {phase} ({walls[phase]:.2f} s)")
                print("\n".join(layer_table(tracer.flatten(tree),
                                            walls[phase])))
        for note in share_notes(args.workload, detail):
            print(f"  note: {note}")
    else:
        size = detail["pass_size"]
        print(f"  {detail['passes']} passes of {size} requests; tail "
              f"percentile {tail_label(size)} per pass; median over passes")
        speeds = ", ".join(f"{f:.3f}" for f in detail["host_speed"])
        print(f"  times at reference host speed; host speed per pass: "
              f"{speeds}")
        for name, value in detail["unscaled"].items():
            print(f"  unscaled {name:37s} {value:14.6f}")
    print(f"  gate: {gate.failed} of {gate.attempted} timed requests failed")
    for problem in gate.first:
        print(f"    {problem}")
    probes = detail.get("probes", [])
    for pr in probes:
        print(f"  probe {pr['name']}: {'ok' if pr['ok'] else 'FAIL'} "
              f"(exit {pr['exit']}; expected {pr['expected']}; "
              f"{pr['stderr_last_line']})")
    if probes:
        bad = sum(not pr["ok"] for pr in probes)
        print(f"  fail_ratio with probes: {gate.failed + bad}/"
              f"{gate.attempted + len(probes)}")

    report = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed, "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(
        dict(report, detail=detail, failures=gate.first), indent=1))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
