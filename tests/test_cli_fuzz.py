"""Fuzzed command lines: every argv ends with exit 0, 1 or 2, prints at most
one line of its own to stderr, and never reports an internal error.

The argv covers every subcommand except verify-paper and e8-certificate,
whose inputs are fixed, with valid and refused values, missing and stray
options, and the "--opt=--" form.  Inputs stay small enough that the whole
run takes a few seconds.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from weylirr.cli import main


def _ints(low, high):
    return st.integers(low, high).map(str)


# int() reads each of these; every integer option refuses them
NOT_ASCII_INTS = ["1_0", "+4", " 4", "\u0663"]


# option -> (accepted values, refused values); an accepted value may still
# be refused in combination, say a weight of the wrong length
TYPE = (st.sampled_from(["A1", "A3", "B3", "C4", "D4", "D12", "E6", "E7",
                         "E8", "F4", "G2", "A40", "B40", "C40", "D40"]),
        st.one_of(st.builds("{}{}".format, st.sampled_from("ABCDEFGH"),
                            st.integers(0, 40)),
                  st.sampled_from(["A", "e8", "", "A1000000000", "D-4",
                                   "B 3"])))
RANK = (_ints(1, 40), st.sampled_from(["0", "-2", "1000000000", "x", "3.5",
                                       *NOT_ASCII_INTS]))
WEIGHT = (st.one_of(st.builds("w{}".format, st.integers(1, 4)),
                    st.builds("{}w{}+w{}".format, st.sampled_from(["", "2"]),
                              st.integers(1, 40), st.integers(1, 3))),
          st.one_of(st.lists(st.integers(-1, 3), max_size=8).map(
                        lambda cs: ",".join(map(str, cs))),
                    st.sampled_from(["w0", "w41", "x", "ww1", "w1+", "-w1"])))
ELL = (st.one_of(_ints(1, 100), st.just("1000000000")),
       st.sampled_from(["0", "-2", "0x10", "six", *NOT_ASCII_INTS]))
D = (_ints(1, 3), st.sampled_from(["0", "4", "-1", "x", "",
                                   *NOT_ASCII_INTS]))

OPTIONS = {
    "classify": {"type": TYPE, "rank": RANK, "weight": WEIGHT},
    "witness": {"type": TYPE, "rank": RANK, "weight": WEIGHT},
    "det-short": {"type": TYPE, "rank": RANK, "ell": ELL},
    "sl2": {"lambda": (st.one_of(_ints(0, 200), st.just("1000000000")),
                       st.sampled_from(["-1", "x", *NOT_ASCII_INTS])),
            "ell": ELL, "d": D},
    "qbinom": {"n": (st.one_of(_ints(-60, 60), st.just("1000000000")),
                     st.sampled_from(["x", *NOT_ASCII_INTS])),
               "m": (_ints(0, 60), st.sampled_from(["-2", "x",
                                                    *NOT_ASCII_INTS])),
               "ell": ELL, "d": D},
    "table-theorem5-1": {"max-rank": (st.sampled_from(["1", "3", "8"]),
                                      st.sampled_from(["0", "101",
                                                       *NOT_ASCII_INTS]))},
    "endnodes": {"type": TYPE, "rank": RANK},
}
STRAY = st.sampled_from(["--bogus", "-x", "extra", "--"])


@st.composite
def argvs(draw):
    """A well-formed argv, or one with refused values, missing options,
    stray tokens and the "--opt=--" form."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    well_formed = draw(st.booleans())
    groups = []
    for option, (accepted, refused) in OPTIONS[command].items():
        if well_formed:
            # a type such as B8 already names its rank
            form = "omit" if option == "rank" else draw(
                st.sampled_from(["space", "equals"]))
            value = draw(accepted)
        else:
            form = draw(st.sampled_from(["space", "equals", "omit",
                                         "dashes"]))
            value = draw(st.one_of(accepted, refused))
        if form == "space":
            groups.append([f"--{option}", value])
        elif form == "equals":
            groups.append([f"--{option}={value}"])
        elif form == "dashes":
            groups.append([f"--{option}=--"])
    if draw(st.booleans()):
        groups.append(["--json"])
    if not well_formed:
        groups += [[token] for token in draw(st.lists(STRAY, max_size=2))]
    return [command] + [t for group in draw(st.permutations(groups))
                        for t in group]


def _own_lines(err: str) -> list:
    """stderr without argparse's usage text (a "usage:" line and the
    indented lines that continue it)."""
    lines, in_usage = [], False
    for line in err.splitlines():
        in_usage = line.startswith("usage:") or (in_usage
                                                 and line.startswith(" "))
        if not in_usage:
            lines.append(line)
    return lines


@settings(max_examples=400, derandomize=True, deadline=None)
@given(argvs())
def test_every_argv_exits_cleanly(argv):
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 1, 2), argv
    assert "internal error:" not in err, argv
    assert len(_own_lines(err)) <= 1, argv
