"""Host-speed probe: how fast the processor ran while a request ran.

On a shared host the speed of one virtual CPU changes by up to 1.7x within
seconds, as other tenants load the physical core.  A request's time then
says as much about its neighbours as about the program.  The probe measures
that speed alongside the request and scales each measured time to a fixed
reference speed:

    scaled time = measured time * (probe speed / REFERENCE_SPEED)

The probe is a separate process, pinned to the same CPU as the program's
processes and run at the lowest priority (nice 19).  The scheduler gives it
about 1.5% of that CPU, in short slices spread over the whole request, so
it sees the same conditions as the program.  It runs a fixed pure-Python
loop (dict and list arithmetic, small objects and calls, like the program's
hot code) and reports loop rounds per second of its own CPU time.  It never
imports the program, so a change to the program cannot move it.

    probe = SpeedProbe(); probe.start(); ...; factor = probe.stop()
    python bench/hostspeed.py            the probe process (stdin protocol)

Protocol: each byte on stdin toggles the probe.  The first starts counting;
the second stops it and makes it print "<rounds> <cpu seconds>".  End of
input ends the process.  Bytes are read one at a time from the pipe itself,
not through a buffer, so that a stop sent right after a start is still seen
by select().
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time

# Rounds per CPU second that count as speed 1.0: about the fastest this loop
# ran on a 2-core Xeon VM at 2.1 GHz with Python 3.11.  Any fixed value
# would do, as long as it stays the same between the commits compared.
REFERENCE_SPEED = 16000.0


class _Term:
    __slots__ = ("exp", "coeff")

    def __init__(self, exp, coeff):
        self.exp = exp
        self.coeff = coeff


def _round(seed: int) -> int:
    """A fixed amount of interpreter work, about 60 microseconds."""
    a = {e: (e * 7 + seed) % 13 - 6 for e in range(12)}
    b = {e: (e * 5 + seed) % 11 - 5 for e in range(-3, 9)}
    prod: dict[int, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            c = prod.get(ea + eb, 0) + ca * cb
            if c:
                prod[ea + eb] = c
            else:
                prod.pop(ea + eb, None)
    terms = [_Term(e, c) for e, c in sorted(prod.items())]
    folded = [0] * 7
    for t in terms:
        folded[t.exp % 7] += t.coeff << 40
    seen = {tuple(sorted((i, j) for j in range(i))) for i in range(10)}
    return sum(folded) + len(seen)


def _serve() -> int:
    try:
        os.nice(19)
    except OSError:
        pass
    inp, out = sys.stdin.fileno(), sys.stdout
    while os.read(inp, 1):
        rounds, cpu = 0, time.thread_time()
        while not select.select([inp], [], [], 0)[0]:
            _round(rounds & 7)
            rounds += 1
        elapsed = time.thread_time() - cpu
        if not os.read(inp, 1):
            return 0
        out.write(f"{rounds} {elapsed!r}\n")
        out.flush()
    return 0


class SpeedProbe:
    """The probe process and the CPU it shares with the program.

    pin() is meant as a subprocess preexec_fn: it moves a starting program
    process onto the probe's CPU.  Where affinity cannot be set the probe
    still runs, but on whatever CPU the scheduler picks.
    """

    def __init__(self):
        allowed = sorted(os.sched_getaffinity(0))
        self.cpu = allowed[0]
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, preexec_fn=self.pin)

    def pin(self) -> None:
        try:
            os.sched_setaffinity(0, {self.cpu})
        except OSError:
            pass

    def start(self) -> None:
        self.proc.stdin.write(b"s")
        self.proc.stdin.flush()

    def stop(self) -> float:
        """Speed since start(), as a share of REFERENCE_SPEED."""
        self.proc.stdin.write(b"e")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("host-speed probe ended unexpectedly")
        rounds, cpu = line.split()
        # a stop right after start may find no finished round yet
        return max(int(rounds), 1) / max(float(cpu), 1e-6) / REFERENCE_SPEED

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    sys.exit(_serve())
