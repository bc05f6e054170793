"""Command-line behavior: output shape, exit codes, JSON determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from weylirr import cli
from weylirr.cli import main

# classify output on large systems, recorded from the eager root-system
# construction that enumerated every positive root
GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "classify_cli.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_e8_adjoint_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--type", "E8",
                           "--weight", "w8", "--json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"input", "decision", "trace", "witness_ell",
                            "citations"}
        assert doc["decision"]["verdict"] == "globally_irreducible"
        assert doc["decision"]["reason"] == "E8_adjoint"
        assert doc["witness_ell"] is None
        assert doc["trace"] == []
        assert doc["citations"] == []

    def test_minuscule_human(self, capsys):
        code, out, _ = run(capsys, "classify", "--type", "A", "--rank", "4",
                           "--weight", "0,1,0,0")
        assert code == 0
        assert "decision: globally_irreducible" in out
        assert "reason: minuscule" in out

    def test_reducible_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--type", "B", "--rank", "5",
                           "--weight", "w1+w5", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["decision"]["verdict"] == "reducible"
        assert doc["witness_ell"] == 11
        node, = doc["trace"]
        assert node["step"] == "end_node"
        assert node["params"]["case"] == "b"
        assert node["verified"] is True
        assert len(doc["citations"]) == 1

    def test_nested_trace_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--type", "E6",
                           "--weight", "w3", "--json")
        doc = json.loads(out)
        node, = doc["trace"]
        assert node["step"] == "levi_descent"
        assert node["inner"][0]["step"] == "fundamental_weight"
        assert doc["witness_ell"] == 4

    def test_byte_identical_documents(self, capsys):
        _, first, _ = run(capsys, "classify", "--type", "E6",
                          "--weight", "w3", "--json")
        _, second, _ = run(capsys, "classify", "--type", "E6",
                           "--weight", "w3", "--json")
        assert first == second

    def test_witness_command(self, capsys):
        code, out, _ = run(capsys, "witness", "--type", "C3",
                           "--weight", "w2")
        assert code == 0
        assert "witness ell: 3" in out
        assert "step: fundamental_weight" in out
        code, out, _ = run(capsys, "witness", "--type", "A2",
                           "--weight", "w1")
        assert code == 0
        assert "no reduction witness" in out


class TestGolden:
    @pytest.mark.parametrize("case", GOLDEN,
                             ids=[" ".join(c["argv"][2:]) for c in GOLDEN])
    def test_large_systems_match_golden_output(self, capsys, case):
        code, out, _ = run(capsys, *case["argv"])
        assert code == case["exit"]
        assert out == case["stdout"]


class TestInputErrors:
    @pytest.mark.parametrize("argv,field", [
        (["classify", "--type", "H3", "--weight", "0"], "type"),
        (["classify", "--type", "A", "--weight", "0"], "type"),
        (["classify", "--type", "A", "--rank", "0", "--weight", "0"],
         "rank"),
        (["classify", "--type", "A2", "--weight", "1,2,3"], "weight"),
        (["classify", "--type", "A2", "--weight=-1,0"], "weight"),
        (["classify", "--type", "A2", "--weight", "w9"], "weight"),
        (["det-short", "--type", "A2", "--ell", "0"], "ell"),
        (["sl2", "--lambda", "-1", "--ell", "3"], "lambda"),
        (["sl2", "--lambda", "2", "--ell", "0"], "ell"),
        (["sl2", "--lambda", "2", "--ell", "3", "--d", "5"], "d"),
        (["qbinom", "--n", "4", "--m", "-1"], "m"),
        (["table-theorem5-1", "--max-rank", "0"], "max-rank"),
        (["endnodes", "--type", "E6"], "type"),
        (["verify-paper", "--only", "bogus-id"], "check"),
    ])
    def test_exit_two_names_the_field(self, capsys, argv, field):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")
        assert field in err.splitlines()[0]

    def test_unknown_command_exits_two(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2


class TestInternalErrors:
    @pytest.mark.parametrize("exc,line", [
        (KeyError("boom"), "internal error: KeyError: 'boom'"),
        (RecursionError("maximum recursion depth exceeded"),
         "internal error: RecursionError: maximum recursion depth exceeded"),
    ])
    def test_one_line_and_exit_one(self, capsys, monkeypatch, exc, line):
        def fail(args):
            raise exc

        monkeypatch.setitem(cli._DISPATCH, "classify", fail)
        code, out, err = run(capsys, "classify", "--type", "A2",
                             "--weight", "w1")
        assert code == 1
        assert out == ""
        assert err == line + "\n"


class TestDetShort:
    def test_spec_example(self, capsys):
        code, out, _ = run(capsys, "det-short", "--type", "A", "--rank", "4",
                           "--ell", "5")
        assert code == 0
        assert "vanishes: true" in out

    def test_symbolic_only(self, capsys):
        code, out, _ = run(capsys, "det-short", "--type", "G2")
        assert code == 0
        assert "det: q + q^-1" in out
        assert "vanishes" not in out

    def test_e8_vanishes_at_sixty(self, capsys):
        code, out, _ = run(capsys, "det-short", "--type", "E8",
                           "--ell", "60", "--json")
        assert code == 0
        assert json.loads(out)["vanishes"] is True


class TestSl2AndQbinom:
    def test_sl2_spec_example(self, capsys):
        code, out, _ = run(capsys, "sl2", "--lambda", "2", "--ell", "4")
        assert code == 0
        assert "irreducible: false" in out

    def test_sl2_json(self, capsys):
        _, out, _ = run(capsys, "sl2", "--lambda", "1", "--ell", "4",
                        "--json")
        assert json.loads(out)["irreducible"] is True

    def test_qbinom_value(self, capsys):
        code, out, _ = run(capsys, "qbinom", "--n", "4", "--m", "2")
        assert code == 0
        assert "value: q^4 + q^2 + 2 + q^-2 + q^-4" in out

    def test_qbinom_vanishing(self, capsys):
        _, out, _ = run(capsys, "qbinom", "--n", "2", "--m", "1",
                        "--ell", "4", "--json")
        doc = json.loads(out)
        assert doc["vanishes"] is True
        _, out, _ = run(capsys, "qbinom", "--n", "4", "--m", "2",
                        "--ell", "2", "--json")
        assert json.loads(out)["vanishes"] is False

    def test_qbinom_large_n_needs_ell(self, capsys):
        code, _, err = run(capsys, "qbinom", "--n", "100000", "--m", "2")
        assert code == 2 and "n:" in err
        code, out, _ = run(capsys, "qbinom", "--n", "100000", "--m", "2",
                           "--ell", "7", "--json")
        assert code == 0
        assert "vanishes" in json.loads(out)


class TestTables:
    def test_small_table(self, capsys):
        code, out, _ = run(capsys, "table-theorem5-1", "--max-rank", "3",
                           "--json")
        assert code == 0
        doc = json.loads(out)
        names = [row["type"] for row in doc["rows"]]
        assert names == ["A1", "A2", "A3", "B2", "B3", "C3", "G2"]
        by_name = {row["type"]: row for row in doc["rows"]}
        assert by_name["A2"]["vanishing_orders"] == [3, 6]
        assert by_name["G2"]["vanishing_orders"] == [4]
        assert by_name["C3"]["det"] == "q^2 + 1 + q^-2"

    def test_full_table_order(self, capsys):
        _, out, _ = run(capsys, "table-theorem5-1", "--json")
        names = [row["type"] for row in json.loads(out)["rows"]]
        assert names.index("F4") < names.index("G2") < names.index("E6")
        assert names[-1] == "E8"
        by_name = {row["type"]: row
                   for row in json.loads(out)["rows"]}
        assert by_name["E8"]["vanishing_orders"] == [60]

    def test_endnodes(self, capsys):
        code, out, _ = run(capsys, "endnodes", "--type", "B", "--rank", "5")
        assert code == 0
        assert "case: b" in out
        assert "ell: 11" in out
        assert "verified: true" in out


class TestCertificateAndVerify:
    def test_certificate_json(self, capsys):
        code, out, _ = run(capsys, "e8-certificate", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["certified"] is False
        assert doc["failing_orders"] == [60]
        assert doc["value_at_minus_one"] == 1
        assert doc["f"].startswith("q^20")

    def test_verify_single_green_check(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--only",
                           "det-closed-form-equality")
        assert code == 0
        assert "[PASS] det-closed-form-equality" in out

    def test_verify_single_red_check(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--only",
                           "e8-certificate")
        assert code == 1
        assert "[FAIL] e8-certificate" in out
        assert "60" in out

    def test_verify_json_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "verify-paper", "--only",
                          "dimension-cross-checks", "--json")
        _, second, _ = run(capsys, "verify-paper", "--only",
                           "dimension-cross-checks", "--json")
        assert first == second
        doc = json.loads(first)
        result, = doc["results"]
        assert result["passed"] is True
        assert "seconds" not in result


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "weylirr", "sl2", "--lambda", "2",
             "--ell", "4"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "irreducible: false" in proc.stdout
