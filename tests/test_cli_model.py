"""The CLI against its spec model, `cli_model`, on valid inputs and on inputs one edit away."""

import contextlib
import io
import re

from hypothesis import HealthCheck, assume, given, seed, settings
from hypothesis import strategies as st

import cli_model
from cli_model import COUNT_MAX_S, DIHEDRAL, ENTRY_MAX, FAMILIES, NUMBER
from magic3 import cli, core
from test_core import ASCII_WHITESPACE, OTHER_WHITESPACE

ASCII_SEPARATORS = ",;" + "".join(ASCII_WHITESPACE)
# Arabic-Indic 0 and 3, extended Arabic-Indic 5, Devanagari 1, fullwidth 1, superscript 1 and
# mathematical bold 0: `str.isdigit` holds for each, and `int` reads all but the superscript.
NON_ASCII_DIGITS = ["\u0660", "\u0663", "\u06f5", "\u0967", "\uff11", "\u00b9", "\U0001d7ce"]
# 20- and 21-digit tokens on both sides of ENTRY_MAX, which has 20 digits.
LONG_TOKENS = [str(ENTRY_MAX), str(ENTRY_MAX + 1), "9" * 20, "0" * 20, "0" + str(ENTRY_MAX), "1" + "0" * 20]
# An edit's piece is drawn from one of these, each as likely as the others.
EDIT_PIECES = [[*ASCII_SEPARATORS], OTHER_WHITESPACE, ["+"], ["-"], ["_"], NON_ASCII_DIGITS, LONG_TOKENS]


def test_the_model_separates_as_magic3_does():
    assert cli_model.SEPARATORS == core._SEPARATORS.pattern


def number_text(value):
    """value in ASCII digits, maybe with leading zeros, after a "-" if negative."""
    return st.sampled_from(["", "0", "00"]).map(lambda zeros: "-" * (value < 0) + zeros + str(abs(value)))


@st.composite
def edits(draw):
    """A function that makes one edit to a text: a piece inserted or put in place of a
    character, or a character deleted; half of them at either end, where a sign or a
    leading separator goes, and none at all in a quarter of draws."""
    op = draw(st.sampled_from(["none", "insert", "replace", "delete"]))
    where = draw(st.one_of(st.sampled_from(["start", "end"]), st.floats(0, 1)))
    piece = draw(st.one_of(*map(st.sampled_from, EDIT_PIECES))) if op in ("insert", "replace") else ""

    def edit(text):
        if op == "none" or not text and op != "insert":
            return text
        last = len(text) - (op != "insert")
        at = 0 if where == "start" else last if where == "end" else int(where * last)
        return text[:at] + piece + text[at + (op != "insert"):]

    return edit


@st.composite
def square_argvs(draw):
    """Every image of a magic square near 0 or near ENTRY_MAX (a few past it too), as text
    with an edit of its own, read by each square verb.

    k = -1 gives the reduced shape's one excluded case, s' = 3r, a magic grid whose entries repeat.
    """
    image_edits, split = draw(st.lists(edits(), min_size=8, max_size=8)), draw(st.booleans())
    family = draw(st.sampled_from(sorted(FAMILIES)))
    j, k = draw(st.integers(0, 3)), draw(st.integers(-1, 3))
    shape = cli_model.construct(family, 0, j, k, "id")
    i = draw(st.one_of(st.integers(0, 3), st.integers(-2, 3).map(lambda d: ENTRY_MAX - max(shape) - d)))
    zeros = draw(st.lists(st.sampled_from(["", "0", "00"]), min_size=9, max_size=9))
    runs = draw(st.lists(st.text(ASCII_SEPARATORS, min_size=1, max_size=3), min_size=8, max_size=8))
    ends = draw(st.lists(st.text(ASCII_SEPARATORS, max_size=2), min_size=2, max_size=2))
    argvs = []
    for tag, edit in zip(DIHEDRAL, image_edits):
        tokens = [z + str(value) for z, value in zip(zeros, cli_model.construct(family, i, j, k, tag))]
        text = edit(ends[0] + "".join(token + run for token, run in zip(tokens, runs)) + tokens[-1] + ends[1])
        argvs += [[verb, *(text.split(" ") if split else [text])] for verb in ("verify", "reduce", "decompose")]
    return argvs


@st.composite
def construct_argvs(draw):
    """One (family, i, j, k) in each symmetry, with an edit to one of its numbers."""
    # Near ENTRY_MAX, i gives squares on both sides of it; j or k, squares past it.
    i = draw(st.one_of(st.integers(-1, 3), st.integers(ENTRY_MAX - 60, ENTRY_MAX + 1)))
    j, k = (draw(st.one_of(st.integers(-1, 3), st.integers(0, 3), st.integers(ENTRY_MAX - 3, ENTRY_MAX + 1)))
            for _ in "jk")
    texts = [draw(number_text(value)) for value in (i, j, k)]
    edited = draw(st.integers(0, 2))
    texts[edited] = draw(edits())(texts[edited])
    family = draw(st.sampled_from(sorted(FAMILIES)))
    numbers = [f"--{name}={text}" for name, text in zip("ijk", texts)]
    return [["construct", f"--family={family}", *numbers, f"--sym={tag}"] for tag in DIHEDRAL]


@st.composite
def count_argvs(draw):
    """s from -2 to 40 with and without --no-brute, each with an edit of its own."""
    s = draw(st.integers(-2, 40).flatmap(number_text))
    texts = [draw(edits())(s) for _ in range(2)]
    # A readable s from 41 to the cap would run the model's double loop up to 8191**2 times.
    assume(not any(re.fullmatch("-?" + NUMBER, text) and 40 < int(text) <= COUNT_MAX_S for text in texts))
    return [["count", *flags, "--", text] for flags, text in zip(([], ["--no-brute"]), texts)]


def outcome(argv):
    """(exit code, stdout, first stderr line past argparse's usage text) of cli.main in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as end:
            code = end.code
    lines = [line for line in err.getvalue().split("\n") if not line.startswith(("usage: ", " "))]
    return code, out.getvalue().encode(), lines[0]


@seed(2026)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(st.one_of(square_argvs(), construct_argvs(), count_argvs()))
def test_the_cli_matches_its_spec_model(argvs):
    for argv in argvs:
        code, out, err = cli_model.run(argv)
        assert outcome(argv) == (code, out.encode(), err), argv
