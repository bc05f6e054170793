"""Acceptance gate: one result line per criterion.

Seven criteria hold outright.  Two contain a claim that is exactly false:
q^8 times the rank-8 short-root determinant equals the 60th cyclotomic
polynomial (totient 16), so the determinant vanishes at order 60.  Those two
are pinned red: the tests demand the failure occur for precisely that
reason, and the verify-paper command reports them as FAIL and exits nonzero.
"""

import pytest

from weylirr import classifier
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
