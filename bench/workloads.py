"""Seeded request generators, the pools they draw from, and expectations.

Every request a generator can emit comes from a fixed pool, so the golden
outputs recorded for the pools cover every seed.  This module never imports
weylirr: the program under test receives only the generated argv lists
(cli-cold) or weights (classify-sweep).

The hand-written expectation table at the end is independent of the code
under test; it restates facts from the paper and from Bourbaki's tables.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# ---------------------------------------------------------------- cli-cold

# Two classify/witness requests per (type, rank) slot and pass: 80 requests
# on 40 slots, with 20 further requests of the other subcommands, so 80% are
# classify/witness.  With 100 requests the tail percentile, the 11th largest,
# falls among the requests of the top ranks whatever the seed draws.
PER_SLOT = 2
CLI_TYPES = "ABCD"
CLI_RANKS = (12, 15, 18, 21, 24, 27, 30, 33, 36, 40)
# The weight family of a slot is fixed, and the seed picks within it: the
# cost of a request is set mostly by the systems it builds (the system and,
# for a Levi descent, the component), so fixing the family per slot keeps the
# cost of a pass nearly the same for every seed.
FAMILIES = ("fundamental", "two_node", "end_nodes", "alpha0", "minuscule")


@dataclass(frozen=True)
class Request:
    """One CLI request: its argv and, for classify/witness, its weight."""

    argv: tuple
    kind: str = ""
    rank: int = 0
    coords: tuple = ()

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def weight_text(coords) -> str:
    """'w3+2w5' for coordinates (0, 0, 1, 0, 2)."""
    terms = []
    for i, c in enumerate(coords, 1):
        if c:
            terms.append(f"w{i}" if c == 1 else f"{c}w{i}")
    return "+".join(terms) or "0"


def _coords(rank: int, *nodes) -> tuple:
    out = [0] * rank
    for i in nodes:
        out[i - 1] += 1
    return tuple(out)


def family_weights(family: str, kind: str, n: int):
    """The weights a slot of the given family may draw, as coordinates."""
    m = n // 2
    if family == "fundamental":
        return [_coords(n, i) for i in range(m - 2, m + 3)]
    if family == "two_node":
        return [_coords(n, i, i + k) for i in range(m - 3, m + 4)
                for k in (1, 2, 3)]
    if family == "end_nodes":
        return [_coords(n, 1, n)]
    if family == "alpha0":
        return [ALPHA0_WEIGHT[kind](n)]
    nodes = MINUSCULE_NODES[kind](n)
    if kind == "A":
        nodes = range(m - 2, m + 3)
    return [_coords(n, i) for i in nodes]


def _classify_request(command: str, kind: str, n: int, coords) -> Request:
    argv = (command, "--type", f"{kind}{n}", "--weight",
            weight_text(coords), "--json")
    return Request(argv, kind, n, tuple(coords))


def _cli_slots():
    for t, kind in enumerate(CLI_TYPES):
        for r, n in enumerate(CLI_RANKS):
            yield kind, n, FAMILIES[(t + r) % len(FAMILIES)]


def _other_pools():
    """Pools of the non-classify requests, one entry per slot in a pass."""
    det_short = [Request(("det-short", "--type", f"{k}{r}", "--ell", str(e)))
                 for k in CLI_TYPES for r in range(4, 13)
                 for e in range(2, 13)]
    endnodes = [Request(("endnodes", "--type", f"{k}{r}"))
                for k, lo in (("A", 2), ("B", 2), ("C", 3))
                for r in range(lo, 13)]
    endnodes += [Request(("endnodes", "--type", t)) for t in ("F4", "G2")]
    sl2 = [Request(("sl2", "--lambda", str(lam), "--ell", str(e),
                    "--d", str(d)))
           for lam in range(0, 21) for e in range(1, 11) for d in (1, 2, 3)]
    qbinom = [Request(("qbinom", "--n", str(n), "--m", str(m),
                       "--ell", str(e)))
              for n in range(10, 41, 5) for m in range(1, 10)
              for e in range(2, 10)]
    table = [Request(("table-theorem5-1", "--max-rank", "8"))]
    e8 = [Request(("e8-certificate",))]
    return [det_short, det_short, endnodes, endnodes, sl2, sl2,
            qbinom, qbinom, table, e8]


def cli_pool():
    """Every request cli_requests can emit, in a fixed order."""
    out = []
    for kind, n, family in _cli_slots():
        for coords in family_weights(family, kind, n):
            for command in ("classify", "witness"):
                out.append(_classify_request(command, kind, n, coords))
    seen = set()
    for pool in _other_pools():
        for req in pool:
            if req.key not in seen:
                seen.add(req.key)
                out.append(req)
    return out


def cli_requests(seed: int):
    """The fixed request list of one cli-cold pass for this seed."""
    rng = random.Random(seed)
    reqs = [_classify_request(rng.choice(("classify", "witness")), kind, n,
                              rng.choice(family_weights(family, kind, n)))
            for kind, n, family in _cli_slots() for _ in range(PER_SLOT)]
    reqs += [rng.choice(pool) for pool in _other_pools()
             for _ in range(PER_SLOT)]
    rng.shuffle(reqs)
    return reqs


def _symbolic_qbinom_ok(code, out, err) -> bool:
    return (code == 0 and out.startswith(b"n: 600\nm: 500\nvalue: ")
            and not err)


def _one_line_error_ok(code, out, err) -> bool:
    lines = err.decode(errors="replace").splitlines()
    return (code == 2 and not out and len(lines) == 1
            and lines[0].startswith("error: "))


@dataclass(frozen=True)
class Probe:
    """A robustness probe: run once per cli-cold run, outside the timings."""

    name: str
    argv: tuple
    timeout: float
    expectation: str
    accept: Callable[[int, bytes, bytes], bool]


PROBES = (
    # |n| <= 2000 is inside the documented symbolic limit
    Probe("qbinom-n600-m500", ("qbinom", "--n", "600", "--m", "500"), 60.0,
          "exit 0 with the symbolic value", _symbolic_qbinom_ok),
    Probe("sl2-ell0", ("sl2", "--lambda", "3", "--ell", "0"), 30.0,
          "exit 2 with a one-line 'error:' message", _one_line_error_ok),
)

# ----------------------------------------------------------- classify-sweep

SWEEP_MAX_RANK = 24
# Each pooled weight appears this many times in a pass (21,744 requests);
# the seed sets the order.  With the same multiset in every pass, the tail
# percentile does not depend on how often the seed happened to draw the few
# most expensive weights.
SWEEP_COPIES = 6
SWEEP_POOL_PER_SYSTEM = 40


def sweep_systems():
    """Every system of rank <= 24: the sweep's warm-up list."""
    out = []
    for kind, lo in (("A", 1), ("B", 2), ("C", 3), ("D", 4)):
        out += [(kind, n) for n in range(lo, SWEEP_MAX_RANK + 1)]
    return out + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


def sweep_pool():
    """(kind, rank, coords) weights the sweep draws from, in a fixed order.

    Per system: the cases of the expectation table (for type A only the
    minuscule weights w1, w_m and w_n), then random weights with 1-3 nonzero
    coordinates in {1, 2} from a fixed pool seed.
    """
    out = []
    for kind, n in sweep_systems():
        nodes = MINUSCULE_NODES[kind](n)
        if kind == "A":
            nodes = sorted({1, (n + 1) // 2, n})
        chosen = [_coords(n, i) for i in nodes]
        if kind in END_NODE_ELL and n >= 2:
            chosen.append(_coords(n, 1, n))
        if (kind, n) == ("E", 8):
            chosen.append(_coords(8, 8))
        rng = random.Random(f"sweep-pool/{kind}{n}")
        for _ in range(20 * SWEEP_POOL_PER_SYSTEM):
            if len(chosen) >= SWEEP_POOL_PER_SYSTEM:
                break
            nodes = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
            coords = [0] * n
            for i in nodes:
                coords[i - 1] = rng.choice((1, 2))
            if tuple(coords) not in chosen:
                chosen.append(tuple(coords))
        out += [(kind, n, c) for c in chosen]
    return out


def sweep_key(kind: str, n: int, coords) -> str:
    return f"{kind}{n} {weight_text(coords)}"


def sweep_stream(seed: int):
    """The fixed weight stream of one classify-sweep pass for this seed:
    every pooled weight SWEEP_COPIES times, in a seeded order."""
    stream = sweep_pool() * SWEEP_COPIES
    random.Random(seed).shuffle(stream)
    return stream


# ------------------------------------------------------------- verify-paper

VERIFY_ARGV = ("verify-paper", "--json")
PINNED_RED = {"thm-5-1-vanishing-table", "e8-certificate"}

# ------------------------------------------------------------ golden files


class Gate:
    """Counts requests and the ones that fail the correctness gate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first = []  # the first ten reasons

    def record(self, problem) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.first) < 10:
                self.first.append(problem)



def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()[:16]


def load_golden(name: str) -> dict:
    """key -> (exit code, digest) from golden/<name>.txt."""
    out = {}
    with open(GOLDEN_DIR / f"{name}.txt", encoding="utf-8") as fh:
        for line in fh:
            code, dig, key = line.rstrip("\n").split(" ", 2)
            out[key] = (int(code), dig)
    return out


def write_golden(name: str, entries) -> None:
    """entries: (key, exit code, stdout bytes), written in the given order."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    with open(GOLDEN_DIR / f"{name}.txt", "w", encoding="utf-8") as fh:
        for key, code, stdout in entries:
            fh.write(f"{code} {digest(stdout)} {key}\n")


def golden_mismatch(golden: dict, key: str, code: int, stdout: bytes):
    """None when exit code and stdout bytes match the recording."""
    if key not in golden:
        return f"{key}: no golden output recorded"
    want_code, want_digest = golden[key]
    if code != want_code:
        return f"{key}: exit {code}, golden {want_code}"
    if digest(stdout) != want_digest:
        return f"{key}: stdout differs from golden"
    return None


# ------------------------------------------------------ expectation table

# Bourbaki numbering.  Minuscule fundamental weights (Bourbaki, Plates I-IX).
MINUSCULE_NODES = {
    "A": lambda n: range(1, n + 1),
    "B": lambda n: (n,),
    "C": lambda n: (1,),
    "D": lambda n: (1, n - 1, n),
    "E": lambda n: {6: (1, 6), 7: (7,), 8: ()}[n],
    "F": lambda n: (),
    "G": lambda n: (),
}
# Highest short root in fundamental-weight coordinates, classical types.
ALPHA0_WEIGHT = {
    "A": lambda n: _coords(n, 1, n),
    "B": lambda n: _coords(n, 1),
    "C": lambda n: _coords(n, 2),
    "D": lambda n: _coords(n, 2),
}
# Witness order of the end-node weight w1 + w_n (the paper's five cases).
END_NODE_ELL = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n + 1,
    "C": lambda n: 4,
    "F": lambda n: 4,
    "G": lambda n: 4,
}


def expectation(kind: str, n: int, coords):
    """(field, value) the classify document must show, or None."""
    coords = tuple(coords)
    support = [i for i, c in enumerate(coords, 1) if c]
    if ((len(support) == 1 and coords[support[0] - 1] == 1
         and support[0] in MINUSCULE_NODES[kind](n))
            or (kind, n, coords) == ("E", 8, _coords(8, 8))):
        return "verdict", "globally_irreducible"
    if kind in END_NODE_ELL and n >= 2 and coords == _coords(n, 1, n):
        return "witness_ell", END_NODE_ELL[kind](n)
    return None


def expectation_mismatch(kind: str, n: int, coords, doc: dict):
    """None when a classify/witness document agrees with the table."""
    expected = expectation(kind, n, coords)
    if expected is None:
        return None
    field, value = expected
    got = (doc["decision"]["verdict"] if field == "verdict"
           else doc["witness_ell"])
    if got != value:
        return (f"{kind}{n} {weight_text(coords)}: {field} {got!r}, "
                f"expected {value!r}")
    return None


def verify_paper_mismatch(doc: dict):
    """None when exactly the pinned-red checks fail, naming order 60."""
    failed = {r["id"]: r["detail"] for r in doc["results"] if not r["passed"]}
    if set(failed) != PINNED_RED:
        return f"verify-paper: failing checks {sorted(failed)}"
    for cid, detail in failed.items():
        if "orders [60]" not in detail:
            return f"verify-paper: {cid} detail does not name order 60"
    return None
