"""Command-line behavior: output shape, exit codes, JSON determinism."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from weylirr import cli, reports
from weylirr.cli import main
from weylirr.rootsystem import _MAX_DIGITS

from package_ast import package_sources

# the largest number input text may hold
_TOP = 10 ** _MAX_DIGITS - 1

# classify output on large systems, recorded from the eager root-system
# construction that enumerated every positive root
GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "classify_cli.json").read_text())
# determinant tables, the E8 certificate and the two order-60 checks,
# recorded before the vanishing test shifted by the valuation
ARITH_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "arith_cli.json").read_text())
# classify and witness, text and --json, on traces with one to four Levi
# descents, recorded before levi_subsystem kept its answers per node set
DESCENT_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "descent_cli.json").read_text())
# the rank-one oracle check, the lambda=5 instance and the global sweep,
# recorded while the oracle still called qbinom_vanishes_fast per binomial
RANK_ONE_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "rank_one_cli.json").read_text())
# the full verify-paper --json document and its exit code, recorded
# before the oracle scanned only the top basis vectors and before
# vanishes_at kept its q^2 reduction in the polynomial
VERIFY_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "verify_paper.json").read_text())
# `weylirr --help` and each subcommand's --help at COLUMNS=80, recorded
# while every handler was still written in cli
HELP_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "help_cli.json").read_text())


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

    @pytest.mark.parametrize("case", ARITH_GOLDEN,
                             ids=[" ".join(c["argv"]) for c in ARITH_GOLDEN])
    def test_arithmetic_commands_match_golden_output(self, capsys, case):
        code, out, _ = run(capsys, *case["argv"])
        assert code == case["exit"]
        assert out == case["stdout"]

    @pytest.mark.parametrize("case", DESCENT_GOLDEN,
                             ids=[" ".join(c["argv"]) for c in DESCENT_GOLDEN])
    def test_descent_traces_match_golden_output(self, capsys, case):
        code, out, _ = run(capsys, *case["argv"])
        assert code == case["exit"]
        assert out == case["stdout"]

    @pytest.mark.parametrize("case", RANK_ONE_GOLDEN,
                             ids=[" ".join(c["argv"]) for c in RANK_ONE_GOLDEN])
    def test_rank_one_checks_match_golden_output(self, capsys, case):
        code, out, _ = run(capsys, *case["argv"])
        assert code == case["exit"]
        assert out == case["stdout"]

    def test_verify_paper_matches_golden_output(self, capsys):
        # every check's detail string, counts included; only the two
        # order-60 checks fail, so the exit code is 1
        code, out, _ = run(capsys, *VERIFY_GOLDEN["argv"])
        assert code == VERIFY_GOLDEN["exit"] == 1
        assert out == VERIFY_GOLDEN["stdout"]

    @pytest.mark.parametrize("case", HELP_GOLDEN,
                             ids=[" ".join(c["argv"]) for c in HELP_GOLDEN])
    def test_help_matches_golden_output(self, capsys, monkeypatch, case):
        # argparse wraps its help to the terminal width it reads from
        # COLUMNS, so the width is fixed
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, *case["argv"]) == (case["exit"], case["stdout"],
                                              "")

    def test_help_golden_covers_every_command(self):
        assert [c["argv"] for c in HELP_GOLDEN] == [
            ["--help"], *([command, "--help"] for command in _subcommands())]


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
        (["witness", "--type", "A2", "--weight=-1,0"], "weight"),
        (["classify", "--type", "A3001", "--weight", "w1"], "rank"),
        (["classify", "--type", "A", "--rank", "1000000000", "--weight",
          "w1"], "rank"),
        (["table-theorem5-1", "--max-rank", "101"], "max-rank"),
    ])
    def test_exit_two_names_the_field(self, capsys, argv, field):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")
        assert field in err.splitlines()[0]

    @pytest.mark.parametrize("command", ["classify", "witness"])
    def test_non_dominant_weight_is_one_line(self, capsys, command):
        # (-1, 2) sums to 1 with no coordinate 1; the "=" keeps argparse
        # from reading -1,2 as an option
        code, out, err = run(capsys, command, "--type", "A2",
                             "--weight=-1,2")
        assert (code, out, err) == (2, "", "error: weight: must be "
                                           "dominant\n")

    # int() would read these as A10, A3, A3, 10w1, 10w1, w3 and, for w²,
    # fail with a message that names no field
    @pytest.mark.parametrize("type_text, weight, message", [
        ("A1_0", "w1", "type: unknown root-system type 'A1_0'"),
        ("A\u0663", "w1", "type: unknown root-system type 'A\u0663'"),
        ("A+3", "w1", "type: unknown root-system type 'A+3'"),
        ("A3", "1_0,0,0", "weight: bad coordinate in '1_0,0,0'"),
        ("A3", "1_0w1", "weight: bad coefficient '1_0' in '1_0w1'"),
        ("A3", "w\u0663", "weight: bad term 'w\u0663' in 'w\u0663'"),
        ("A3", "w\u00b2", "weight: bad term 'w\u00b2' in 'w\u00b2'"),
    ])
    def test_numbers_are_ascii_digits(self, capsys, type_text, weight,
                                      message):
        code, out, err = run(capsys, "classify", "--type", type_text,
                             "--weight", weight)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    # type=int once read these as 10, 4 and 3 and exited 0
    @pytest.mark.parametrize("argv, option, value", [
        (["sl2", "--lambda", "1_0", "--ell", "3"], "lambda", "1_0"),
        (["det-short", "--type", "A2", "--ell", " +4"], "ell", " +4"),
        (["classify", "--type", "A", "--rank", "\u0663", "--weight", "w1"],
         "rank", "\u0663"),
    ])
    def test_integer_options_are_ascii_digits(self, capsys, argv, option,
                                              value):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"weylirr {argv[0]}: error: argument --{option}: "
            f"invalid int value: {value!r}")

    # int() and str() convert at most 4,300 digits: each of these once
    # exited 2 with Python's own message naming sys.set_int_max_str_digits,
    # and 4,300 nines times w1 parsed but its witness order did not print
    @pytest.mark.parametrize("type_text, weight, field", [
        ("A" + "9" * 5000, "0", "type"),
        ("A" + "0" * _MAX_DIGITS + "3", "w1", "type"),
        ("A3", "w" + "9" * 5000, "weight"),
        ("A3", "9" * 5000 + ",0,0", "weight"),
        ("A3", "9" * 4301 + "w1", "weight"),
        ("A3", "9" * 4300 + "w1", "weight"),
        ("A3", "9" * (_MAX_DIGITS + 1) + "w1", "weight"),
        ("A3", "w1+" + "0" * _MAX_DIGITS + "2w3", "weight"),
        ("A3", " ".join("9" * (_MAX_DIGITS + 1)) + "w1", "weight"),
    ], ids=["type-5000", "type-zeros", "weight-node-5000",
            "weight-vector-5000", "weight-coefficient-4301",
            "weight-coefficient-4300", "weight-coefficient-over-bound",
            "weight-zeros", "weight-spaced-digits"])
    def test_numbers_over_the_digit_bound_name_the_field(
            self, capsys, type_text, weight, field):
        code, out, err = run(capsys, "classify", "--type", type_text,
                             "--weight", weight)
        assert (code, out, err) == (
            2, "", f"error: {field}: more than {_MAX_DIGITS} digits in a "
                   f"number\n")

    @pytest.mark.parametrize("value", ["9" * 4301, "9" * (_MAX_DIGITS + 1),
                                       "-" + "9" * (_MAX_DIGITS + 1)],
                             ids=["4301", "over-bound", "negative-over-bound"])
    def test_integer_options_over_the_digit_bound(self, capsys, value):
        # the refusal once named the private type function, "_int"
        code, out, err = run(capsys, "sl2", f"--lambda={value}",
                             "--ell", "3")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"weylirr sl2: error: argument --lambda: invalid int value: "
            f"more than {_MAX_DIGITS} digits in a number")

    @pytest.mark.parametrize("type_text, weight, printed", [
        ("A" + "0" * (_MAX_DIGITS - 1) + "3", "9" * _MAX_DIGITS + "w1",
         f"{_TOP}w1"),
        ("G2", "0," + "9" * _MAX_DIGITS, f"{_TOP}w2"),
        ("A3", f"w1+{_TOP}w3+{_TOP}w3", f"w1+{2 * _TOP}w3"),
    ], ids=["rank-and-coefficient", "G2-long-node", "summed-terms"])
    def test_numbers_at_the_digit_bound_print(self, capsys, type_text,
                                              weight, printed):
        # a witness order is at most 6c; G2's second node comes near it
        code, out, err = run(capsys, "classify", "--type", type_text,
                             "--weight", weight, "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert (doc["input"]["type"], doc["input"]["weight"]) == (
            type_text[0] + str(int(type_text[1:])), printed)
        assert _TOP < doc["witness_ell"] <= 6 * 2 * _TOP

    def test_qbinom_degree_at_the_digit_bound_prints(self, capsys):
        n, m = _TOP, 5 * _TOP // 9
        code, out, err = run(capsys, "qbinom", "--n", str(n), "--m", str(m))
        assert (code, out) == (2, "")
        assert err == (f"error: n: symbolic expansion of degree "
                       f"{m * (n - m)} exceeds the limit 100000; pass --ell "
                       f"for the vanishing test\n")
        code, out, err = run(capsys, "sl2", "--lambda", str(n), "--ell", "3")
        assert (code, err) == (0, "")
        assert f"lambda: {n}" in out

    def test_unknown_command_exits_two(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    # every option that takes a value, with a valid argv for its command
    OPTION_CASES = [
        (command, option, base)
        for command, options, base in [
            ("classify", ["type", "rank", "weight"],
             ["--type", "B", "--rank", "8", "--weight", "w1"]),
            ("witness", ["type", "rank", "weight"],
             ["--type", "B", "--rank", "8", "--weight", "w1"]),
            ("det-short", ["type", "rank", "ell"],
             ["--type", "A", "--rank", "3", "--ell", "4"]),
            ("sl2", ["lambda", "ell", "d"],
             ["--lambda", "3", "--ell", "4", "--d", "1"]),
            ("qbinom", ["n", "m", "ell", "d"],
             ["--n", "5", "--m", "2", "--ell", "4", "--d", "1"]),
            ("table-theorem5-1", ["max-rank"], ["--max-rank", "1"]),
            ("endnodes", ["type", "rank"], ["--type", "A", "--rank", "3"]),
            ("verify-paper", ["only"], ["--only", "e8-certificate"]),
        ]
        for option in options
    ]

    @pytest.mark.parametrize("command,option,base", OPTION_CASES,
                             ids=[f"{c}-{o}" for c, o, _ in OPTION_CASES])
    def test_double_dash_value_exits_two(self, capsys, command, option,
                                         base):
        # argparse reads "--opt=--" as an empty list, not as one value
        argv = list(base)
        at = argv.index(f"--{option}")
        argv[at:at + 2] = [f"--{option}=--"]
        assert run(capsys, command, *argv) == (
            2, "", f"error: {option}: expected one value\n")


class TestInternalErrors:
    @pytest.mark.parametrize("exc,line", [
        (KeyError("boom"), "internal error: KeyError: 'boom'"),
        (RecursionError("maximum recursion depth exceeded"),
         "internal error: RecursionError: maximum recursion depth exceeded"),
    ])
    def test_one_line_and_exit_one(self, capsys, monkeypatch, exc, line):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_classify", fail)
        code, out, err = run(capsys, "classify", "--type", "A2",
                             "--weight", "w1")
        assert code == 1
        assert out == ""
        assert err == line + "\n"

    def test_failed_write_is_one_line_and_exit_one(self, capsys,
                                                   monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError("closed")

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["sl2", "--lambda", "2", "--ell", "4"])
        monkeypatch.undo()
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "internal error: BrokenPipeError: closed\n"


def _subcommands():
    """name -> subparser, read from the parser itself."""
    action, = (a for a in cli._build_parser()._actions
               if a.dest == "command")
    return action.choices


class TestSubcommands:
    # each subcommand's handler, as "module.function", and its smallest
    # quick request
    REQUESTS = {
        "classify": ("cli._cmd_classify", ["--type", "A2", "--weight", "w1"]),
        "witness": ("cli._cmd_witness", ["--type", "A2", "--weight", "w1"]),
        "det-short": ("reports._cmd_det_short", ["--type", "G2"]),
        "sl2": ("reports._cmd_sl2", ["--lambda", "2", "--ell", "4"]),
        "qbinom": ("reports._cmd_qbinom", ["--n", "5", "--m", "2"]),
        "table-theorem5-1": ("reports._cmd_table", ["--max-rank", "1"]),
        "endnodes": ("reports._cmd_endnodes", ["--type", "A2"]),
        "e8-certificate": ("reports._cmd_e8_certificate", []),
        "verify-paper": ("reports._cmd_verify_paper",
                         ["--only", "det-closed-form-equality"]),
    }

    def test_every_subcommand_names_its_own_handler(self):
        # cli's own handlers are carried as functions; a report handler
        # is carried as its name, read from reports at dispatch
        parsers = _subcommands()
        assert sorted(parsers) == sorted(self.REQUESTS)
        for command, parser in parsers.items():
            home, name = self.REQUESTS[command][0].split(".")
            handler = getattr({"cli": cli, "reports": reports}[home], name)
            run = parser.get_default("run")
            if home == "reports":
                assert run == name, command
                run = getattr(reports, run)
            assert run is handler, command

    @pytest.mark.parametrize("command", sorted(REQUESTS))
    def test_each_subcommand_runs_its_own_handler(self, capsys, command):
        code, out, err = run(capsys, command, *self.REQUESTS[command][1],
                             "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["input"]["command"] == command

    @pytest.mark.parametrize("command", sorted(REQUESTS))
    def test_help_exits_zero(self, capsys, command):
        code, out, err = run(capsys, command, "--help")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: weylirr {command} [-h]")


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


def child_env():
    """os.environ with this checkout's src first on PYTHONPATH, so a child
    process imports the code under test whether or not PYTHONPATH is set."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    return env


def run_bounded(seconds, *argv):
    """A fresh `python -m weylirr` process, killed after `seconds`."""
    return subprocess.run([sys.executable, "-m", "weylirr", *argv],
                          capture_output=True, text=True, timeout=seconds,
                          env=child_env())


class TestBoundedTime:
    # 10**18 + 3: the order must not be factored before the degree exit
    @pytest.mark.parametrize("argv", [
        ("det-short", "--type", "A2", "--ell", "1000000000000000003"),
        ("qbinom", "--n", "30", "--m", "3", "--ell", "1000000000000000003"),
    ])
    def test_huge_order_in_five_seconds(self, argv):
        proc = run_bounded(5, *argv)
        assert proc.returncode == 0 and proc.stderr == ""
        assert "vanishes: false" in proc.stdout

    # each once ended in RecursionError: the determinant recursed per row
    @pytest.mark.parametrize("argv", [
        ("det-short", "--type", "C1000"),
        ("classify", "--type", "C1000", "--weight", "w3"),
        ("classify", "--type", "D1000", "--weight", "w3"),
    ])
    def test_rank_1000_in_ten_seconds(self, argv):
        proc = run_bounded(10, *argv, "--json")
        assert proc.returncode == 0 and proc.stderr == ""
        doc = json.loads(proc.stdout)
        if argv[0] == "det-short":
            assert doc["det"].startswith("q^999 + q^997 + ")
        else:
            assert doc["decision"]["verdict"] == "reducible"

    # the degree limit alone bounds the symbolic expansion: with |n| above
    # 2000, degree m(n - m) <= 100000 leaves min(m, n - m) at most 51
    def test_large_n_small_degree_qbinom_in_ten_seconds(self):
        proc = run_bounded(10, "qbinom", "--n", "4000", "--m", "25")
        assert proc.returncode == 0 and proc.stderr == ""
        assert "\nvalue: q^99375 + " in proc.stdout

    # the largest rank the CLI accepts
    def test_rank_limit_in_ten_seconds(self):
        proc = run_bounded(10, "witness", "--type", "D3000", "--weight",
                           "w3", "--json")
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["decision"]["verdict"] == "reducible"


class TestSl2AndQbinom:
    def test_sl2_spec_example(self, capsys):
        code, out, _ = run(capsys, "sl2", "--lambda", "2", "--ell", "4")
        assert code == 0
        assert "irreducible: false" in out

    def test_sl2_json(self, capsys):
        _, out, _ = run(capsys, "sl2", "--lambda", "1", "--ell", "4",
                        "--json")
        assert json.loads(out)["irreducible"] is True

    def test_sl2_bad_order_after_a_warm_call(self, capsys):
        # the order s is cached by (ell, d); a cached key must not skip
        # the ell check
        for _ in range(2):
            assert run(capsys, "sl2", "--lambda", "3", "--ell", "1")[0] == 0
            code, out, err = run(capsys, "sl2", "--lambda", "3", "--ell", "0")
            assert code == 2 and out == ""
            assert err.startswith("error: ell:") and err.count("\n") == 1

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

    def test_qbinom_deep_lower_index(self, capsys):
        # m = 500 once overflowed the recursion limit
        code, out, err = run(capsys, "qbinom", "--n", "600", "--m", "500",
                             "--json")
        assert code == 0 and err == ""
        value = json.loads(out)["value"]
        assert value.startswith("q^50000 + q^49998 + ")
        assert value.endswith(" + q^-49998 + q^-50000")

    def test_qbinom_large_n_needs_ell(self, capsys):
        code, _, err = run(capsys, "qbinom", "--n", "100000", "--m", "2")
        assert code == 2 and "n:" in err
        code, out, _ = run(capsys, "qbinom", "--n", "100000", "--m", "2",
                           "--ell", "7", "--json")
        assert code == 0
        assert "vanishes" in json.loads(out)

    @pytest.mark.parametrize("n,m", [(2000, 1000), (633, 317), (-3, 10**6)])
    def test_qbinom_large_degree_needs_ell(self, capsys, n, m):
        # degree m(n - m) above the symbolic limit; for negative n the
        # degree is that of [-n+m-1 choose m]
        code, _, err = run(capsys, "qbinom", "--n", str(n), "--m", str(m))
        assert code == 2 and "n:" in err
        code, out, _ = run(capsys, "qbinom", "--n", str(n), "--m", str(m),
                           "--ell", "7", "--json")
        doc = json.loads(out)
        assert code == 0 and "value" not in doc and "vanishes" in doc


    # for n < 0 the degree tested is that of [-n+m-1 choose m], the same
    # 2 * 99999 as for n = 100001
    @pytest.mark.parametrize("n", [100001, -100000])
    def test_qbinom_limit_message_names_the_degree_tested(self, capsys, n):
        code, out, err = run(capsys, "qbinom", "--n", str(n), "--m", "2")
        assert code == 2 and out == ""
        assert err == ("error: n: symbolic expansion of degree 199998 "
                       "exceeds the limit 100000; pass --ell for the "
                       "vanishing test\n")


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

    @pytest.mark.parametrize("argv", [["--only="], ["--only", ""],
                                      ["--only", " , "], ["--only", ","]])
    def test_verify_empty_only_is_a_usage_error(self, capsys, argv):
        # an empty id list is refused before any check runs, whether the
        # value is empty or holds only commas and blanks
        code, out, err = run(capsys, "verify-paper", *argv)
        assert (code, out) == (2, "")
        assert err == "error: only: no check ids given\n"

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
    def test_import_loads_every_submodule_and_no_heavy_stdlib(self):
        # a fresh process, so modules loaded by the tests do not count;
        # the bench tracer wraps functions in all six submodules right
        # after `import weylirr.cli`, so that import must put them all in
        # sys.modules: cli and rootsystem run there, and the package
        # registers acceptance, classifier, qarith and weylmods, which run
        # on their first attribute access.  json is imported after the
        # list is taken, since only --json needs it
        code = ("import sys, weylirr.cli; loaded = sorted(sys.modules); "
                "import json; print(json.dumps(loaded))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout))
        assert not loaded & {"dataclasses", "inspect", "fractions", "json"}
        assert {f"weylirr.{name}" for name in (
            "qarith", "rootsystem", "weylmods", "classifier", "acceptance",
            "cli")} <= loaded

    def test_acceptance_suite_runs_on_first_use(self):
        # a fresh process: the suite is registered by the package but not
        # run, a classify request leaves it so, and the first attribute
        # read runs it in place, as the package's submodule
        code = textwrap.dedent("""
            import json, sys, types
            import weylirr.cli

            def ran():
                module = sys.modules["weylirr.acceptance"]
                return type(module) is types.ModuleType

            states = [ran()]
            weylirr.cli.main(["classify", "--type", "D24", "--weight",
                              "w12", "--json"])
            states.append(ran())
            lazy = weylirr.acceptance
            ids = lazy.CHECK_IDS
            import weylirr.acceptance
            states += [ran(), lazy is weylirr.acceptance
                       is sys.modules["weylirr.acceptance"], len(ids)]
            print(json.dumps(states), file=sys.stderr)
        """)
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["decision"]["verdict"] == "reducible"
        assert json.loads(proc.stderr) == [False, False, True, True, 9]

    # `python -m weylirr` with the given arguments; at exit it reports on
    # stderr the weylirr modules that have run (a module registered but
    # not run is a LazyLoader module, not a plain module) and whether json
    # was imported, in repr form, so the probe itself imports no json
    _RAN_PROBE = textwrap.dedent("""
        import atexit, runpy, sys, types

        def report():
            ran = sorted(name[len("weylirr."):]
                         for name, module in sys.modules.items()
                         if name.startswith("weylirr.")
                         and type(module) is types.ModuleType)
            print(repr([ran, "json" in sys.modules]), file=sys.stderr)

        atexit.register(report)
        runpy.run_module("weylirr", run_name="__main__", alter_sys=True)
    """)

    _NO_ARITHMETIC = ["_record", "classifier", "cli", "rootsystem"]
    _EVERY_BUT_SUITE = ["_record", "classifier", "cli", "qarith",
                        "rootsystem", "weylmods"]
    # a report runs reports and the arithmetic, but not the classifier
    _REPORT_ARITHMETIC = ["_record", "cli", "qarith", "reports",
                          "rootsystem", "weylmods"]

    @pytest.mark.parametrize("argv, ran, uses_json", [
        # a descent to an end-node leaf: no arithmetic module runs
        (["classify", "--type", "D24", "--weight", "w1+w24", "--json"],
         _NO_ARITHMETIC, True),
        (["witness", "--type", "A24", "--weight", "w3+w5"],
         _NO_ARITHMETIC, False),
        (["endnodes", "--type", "B4"],
         ["_record", "classifier", "cli", "reports", "rootsystem"], False),
        # the alpha0 leaf tests the short-root determinant, and a rank-one
        # leaf the rank-one criterion
        (["classify", "--type", "D24", "--weight", "w2"],
         _EVERY_BUT_SUITE, False),
        (["classify", "--type", "B4", "--weight", "2w1", "--json"],
         _EVERY_BUT_SUITE, True),
        # no arithmetic request runs the classifier
        (["sl2", "--lambda", "2", "--ell", "4"], _REPORT_ARITHMETIC, False),
        (["sl2", "--lambda", "3", "--ell", "0"], _REPORT_ARITHMETIC, False),
        (["qbinom", "--n", "10", "--m", "3", "--ell", "5", "--json"],
         ["_record", "cli", "qarith", "reports", "rootsystem"], True),
        (["det-short", "--type", "E8", "--ell", "60"],
         _REPORT_ARITHMETIC, False),
        (["table-theorem5-1", "--max-rank", "2"], _REPORT_ARITHMETIC, False),
        (["e8-certificate"], _REPORT_ARITHMETIC, False),
        # only verify-paper runs the acceptance suite, and with it every
        # module
        (["verify-paper", "--only", "end-node-reflection-arithmetic"],
         ["_record", "acceptance", "classifier", "cli", "qarith", "reports",
          "rootsystem", "weylmods"], False),
    ], ids=["descent-json", "witness-descent", "endnodes", "alpha0",
            "rank-one-json", "sl2", "sl2-refused", "qbinom-json",
            "det-short", "table", "e8-certificate", "verify-paper-one"])
    def test_a_request_runs_only_the_modules_it_needs(self, capsys, argv,
                                                       ran, uses_json):
        proc = subprocess.run(
            [sys.executable, "-c", self._RAN_PROBE, *argv],
            capture_output=True, text=True, env=child_env())
        *_, last = proc.stderr.splitlines()
        assert ast.literal_eval(last) == [ran, uses_json], proc.stderr
        # a classify or witness request never compiles the reports
        assert ("reports" in ran) is (argv[0] not in ("classify", "witness"))
        # and the process answers as main does in this one
        assert (proc.returncode, proc.stdout) == run(capsys, *argv)[:2]

    def test_building_the_parser_leaves_reports_unrun(self):
        # a fresh process: `import weylirr.cli` registers reports, and
        # building the parser names the report handlers without reading
        # them, so reports is still a LazyLoader module, not a plain one
        code = textwrap.dedent("""
            import sys, types, weylirr.cli
            weylirr.cli._build_parser()
            module = sys.modules["weylirr.reports"]
            print(module is weylirr.cli.reports,
                  type(module) is types.ModuleType)
        """)
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=child_env())
        assert (proc.returncode, proc.stdout) == (0, "True False\n"), \
            proc.stderr

    def test_importing_the_package_runs_no_submodule(self):
        # `import weylirr` registers every submodule but cli and __main__,
        # each in sys.modules and on the package, and runs none of them;
        # `import weylirr.cli` then runs cli, which runs the two modules it
        # imports names from, and leaves the rest registered
        code = textwrap.dedent("""
            import json, sys, types, weylirr

            def children():
                return {n[len("weylirr."):]: m for n, m in sys.modules.items()
                        if n.startswith("weylirr.")}

            def ran():
                return sorted(n for n, m in children().items()
                              if type(m) is types.ModuleType)

            states = [sorted(n for n in sys.modules if "weylirr" in n),
                      all(getattr(weylirr, n) is m
                          for n, m in children().items()),
                      ran()]
            import weylirr.cli
            states += [ran(), "main" in vars(weylirr.cli)]
            print(json.dumps(states))
        """)
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [
            ["weylirr", "weylirr._record", "weylirr.acceptance",
             "weylirr.classifier", "weylirr.qarith", "weylirr.reports",
             "weylirr.rootsystem", "weylirr.weylmods"],
            True, [], ["_record", "cli", "rootsystem"], True]

    def test_the_lazy_import_rule_is_written_once(self):
        # only the package's own file registers submodules lazily, and
        # its tuple names every module of the package but cli and __main__,
        # each once; every other module imports its siblings plainly
        sources = package_sources()

        def names(node):
            if isinstance(node, ast.Attribute):
                return [node.attr]
            if isinstance(node, ast.Name):
                return [node.id]
            if isinstance(node, ast.alias):
                return node.name.split(".")
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                return [node.value]
            return []

        naming = sorted({module for module, text in sources.items()
                         for node in ast.walk(ast.parse(text))
                         if {"LazyLoader", "find_spec", "importlib"}
                         & set(names(node))})
        assert naming == ["__init__"]
        registered, = [ast.literal_eval(node.value)
                       for node in ast.parse(sources["__init__"]).body
                       if isinstance(node, ast.Assign)
                       and [t.id for t in node.targets] == ["_SUBMODULES"]]
        assert len(registered) == len(set(registered))
        assert set(registered) == sources.keys() - {"__init__", "__main__",
                                                    "cli"}

    def test_every_export_is_the_object_on_its_submodule(self, monkeypatch):
        import weylirr
        from weylirr import _record, qarith, rootsystem

        names = weylirr.__all__
        assert names == sorted(set(names)) and len(names) == 41
        for name in names:
            value = getattr(weylirr, name)
            home = value.__module__
            assert home.startswith("weylirr."), name
            assert getattr(sys.modules[home], name) is value, name
        star = {}
        exec("from weylirr import *", star)
        assert sorted(star.keys() - {"__builtins__"}) == names
        assert set(names) | {"__version__"} <= set(dir(weylirr))
        # one class, at the bottom of the import graph, re-exported by qarith
        assert (weylirr.InternalCheckError is qarith.InternalCheckError
                is _record.InternalCheckError)
        assert weylirr.InternalCheckError.__module__ == "weylirr._record"
        # the package keeps no copy: a function rebound on its submodule,
        # as the bench tracer does, shows through it, and so does the undo
        original, sentinel = rootsystem.format_weight, object()
        monkeypatch.setattr(rootsystem, "format_weight", sentinel)
        assert weylirr.format_weight is sentinel
        monkeypatch.undo()
        assert weylirr.format_weight is original
        assert "format_weight" not in vars(weylirr)
        with pytest.raises(AttributeError, match="no attribute 'nothing'"):
            weylirr.nothing

    def test_acceptance_suite_imported_first_is_kept(self):
        # a suite imported and run before cli is the one every module
        # reads, and running the package's registration again makes no
        # second copy of it
        code = textwrap.dedent("""
            import importlib, sys, types
            import weylirr.acceptance as suite
            suite.CHECK_IDS
            import weylirr.cli
            importlib.reload(weylirr)
            print(weylirr.acceptance is suite
                  is sys.modules["weylirr.acceptance"]
                  is weylirr.reports.acceptance,
                  type(suite) is types.ModuleType)
        """)
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=child_env())
        assert (proc.returncode, proc.stdout) == (0, "True True\n"), \
            proc.stderr

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "weylirr", "sl2", "--lambda", "2",
             "--ell", "4"],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert "irreducible: false" in proc.stdout
