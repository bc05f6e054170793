"""Acceptance gate: one result line per criterion.

Seven criteria hold outright.  Two contain a claim that is exactly false:
q^8 times the rank-8 short-root determinant equals the 60th cyclotomic
polynomial (totient 16), so the determinant vanishes at order 60.  Those two
are pinned red: the tests demand the failure occur for precisely that
reason, and the verify-paper command reports them as FAIL and exits nonzero.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from weylirr import acceptance, classifier
from weylirr.acceptance import CHECK_IDS, budget_for, run_check
from weylirr.qarith import InternalCheckError
from weylirr.rootsystem import build

# criterion id -> substring that must appear in the failure detail
EXPECTED_RED = {
    "thm-5-1-vanishing-table": "60",
    "e8-certificate": "60",
}

_results = {}


def result_for(check_id):
    if check_id not in _results:
        _results[check_id] = run_check(check_id)
    return _results[check_id]


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_criterion(check_id):
    result = result_for(check_id)
    line = (f"[{'PASS' if result.passed else 'FAIL'}] {check_id} "
            f"({result.seconds:.2f}s, budget {budget_for(check_id):g}s): "
            f"{result.detail}")
    print(line)
    if check_id in EXPECTED_RED:
        assert not result.passed, (
            f"{check_id} unexpectedly passed; the order-60 counterexample "
            f"should make it fail")
        assert EXPECTED_RED[check_id] in result.detail, line
    else:
        assert result.passed, line


def test_every_criterion_ran():
    assert set(CHECK_IDS) == set(_results)
    assert len(CHECK_IDS) == 9


def test_sweep_fails_when_a_witness_fails_replay(monkeypatch):
    # the sweep does not replay traces itself: it relies on classify_global
    # raising for any witness that fails replay, and on run_check
    # reporting that exception
    monkeypatch.setattr(classifier, "verify_witness", lambda *args: False)
    with pytest.raises(InternalCheckError, match="failed replay"):
        classifier.classify_global(build("A", 1), (2,))
    result = run_check("global-classification-sweep")
    assert not result.passed
    assert result.detail.startswith("InternalCheckError: "), result.detail


def test_identity_suite_compares_every_triple(monkeypatch):
    # 500 quantum integers at 100 orders and 3 twists: one fast-predicate
    # call each, and a wrong answer at any one triple fails the check
    fast = acceptance.qint_vanishes_fast
    calls = []

    def counting(i, spec):
        calls.append((i, spec.ell, spec.d))
        return fast(i, spec)

    monkeypatch.setattr(acceptance, "qint_vanishes_fast", counting)
    result = run_check("qarith-identity-suite")
    assert result.passed, result.detail
    assert len(calls) == 150_000
    assert len(set(calls)) == 150_000

    def lying(i, spec):
        return fast(i, spec) != ((i, spec.ell, spec.d) == (7, 14, 2))

    monkeypatch.setattr(acceptance, "qint_vanishes_fast", lying)
    result = run_check("qarith-identity-suite")
    assert not result.passed
    assert "i=7, ell=14, d=2" in result.detail, result.detail


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak RSS from /proc/self/status")
def test_identity_suite_runs_in_bounded_memory():
    # VmHWM, not ru_maxrss: a child's ru_maxrss starts at the peak of the
    # process that forked it, here the whole test run, so the growth it
    # shows would be zero; VmHWM starts afresh at exec
    code = textwrap.dedent("""
        import weylirr.cli
        from weylirr.acceptance import run_check

        def peak_kib():
            with open("/proc/self/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])

        before = peak_kib()
        result = run_check("qarith-identity-suite")
        print(result.passed, peak_kib() - before)
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
    passed, growth_kib = out.split()
    assert passed == "True"
    assert int(growth_kib) < 4 * 1024, f"peak RSS grew by {growth_kib} KiB"
