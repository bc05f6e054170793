"""The benchmark's golden outputs, checked in process as part of the tests.

Every request of the cli-cold pool runs through cli.main, and every weight
of the classify-sweep pool is rendered as its `classify --json` document;
each exit code and stdout digest must match bench/golden/.  The benchmark
makes the same checks on fresh processes; here a byte drift fails the test
suite too.  Nothing under bench/ is written.
"""

import contextlib
import io
import sys
from pathlib import Path

from weylirr import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402
from worker import document_maker  # noqa: E402


def _mismatches(golden, entries):
    return [problem for key, code, out in entries
            if (problem := workloads.golden_mismatch(golden, key, code, out))]


def test_cli_cold_pool_matches_golden():
    def run(req):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(req.argv))
        return req.key, code, out.getvalue().encode()

    pool = workloads.cli_pool()
    golden = workloads.load_golden("cli-cold")
    assert len(pool) == len(golden)
    problems = _mismatches(golden, map(run, pool))
    assert not problems, f"{len(problems)} differ, first: {problems[:5]}"


def test_classify_sweep_pool_matches_golden():
    classify_document = document_maker()

    def render(kind, n, lam):
        _, text = classify_document(kind, n, lam)
        return workloads.sweep_key(kind, n, lam), 0, (text + "\n").encode()

    pool = workloads.sweep_pool()
    golden = workloads.load_golden("classify-sweep")
    assert len(pool) == len(golden)
    problems = _mismatches(golden, (render(*w) for w in pool))
    assert not problems, f"{len(problems)} differ, first: {problems[:5]}"
