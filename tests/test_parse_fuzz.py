"""Hostile input to the library parsers: only ``TeamcheckError`` may escape.

Each parser gets texts drawn from its own keywords and punctuation, ASCII
digits, and digits that ``str.isdigit`` accepts but ``int`` may not.  The
draws are derandomised and short, so the suite stays deterministic.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamcheck.errors import ParseError, TeamcheckError
from teamcheck.formulas import parse
from teamcheck.model import Vocabulary, parse_structure, parse_team
from teamcheck.prop import parse_prop
from teamcheck.reductions import parse_graph

# Hostile numerals first: hypothesis draws early choices more often.
LONG = "1" * 5000  # more digits than ``int`` reads at its default limit
NUMERALS = ["²", "①", "٣", "--1", LONG, "-1", "0", "1", "10"]

VOCABULARY = Vocabulary(relations=(("E", 2), ("P", 1)), constants=("c",))

# Formulas and propositional formulas are token streams.
TOKENS = {
    "formula": ["exists", "forall", "dep", "inc", "indep", "x", "y", "E", "P", "c", "(", ")", "&", "|", "!",
                "=", "!=", ";", ",", " ", "\n", "#", "é"],
    "prop": ["(", ")", "&", "|", "!", "x", "x1", " ", "\n", "#"],
}
# The other formats are lines: a directive, then as many words as it takes
# (the empty word makes fewer); a word is a format word, a numeral, or the
# two glued together.
LINES = {
    "structure": ({"domain": 1, "rel": 2, "const": 3, "#": 1}, ["E/", "E", "c", "=", ":", "(0,", ")", ""]),
    "team": ({"vars": 2, "x=0": 1}, ["y=", "x"]),
    "graph": ({"p": 2, "e": 2, "#": 1}, [""]),
}


def texts(fmt):
    if fmt in TOKENS:
        return st.lists(st.sampled_from(TOKENS[fmt] + NUMERALS), max_size=24).map("".join)
    directives, words = LINES[fmt]
    numeral = st.sampled_from(NUMERALS)
    word = st.sampled_from(words) | numeral | st.tuples(st.sampled_from(words), numeral).map("".join)

    def line(directive, arity):
        return st.lists(word, min_size=arity, max_size=arity).map(lambda args: " ".join((directive, *args)))

    return st.lists(st.sampled_from(sorted(directives.items())).flatmap(lambda d: line(*d)), max_size=4).map("\n".join)


PARSERS = {
    "formula": lambda text: (parse(text), parse(text, VOCABULARY)),
    "structure": parse_structure,
    "team": parse_team,
    "graph": parse_graph,
    "prop": parse_prop,
}


@pytest.mark.parametrize("fmt", sorted(PARSERS))
def test_only_teamcheck_errors_escape(fmt):
    @given(texts(fmt))
    @settings(max_examples=80, derandomize=True, deadline=None, database=None)
    def run(text):
        try:
            PARSERS[fmt](text)
        except TeamcheckError:
            pass

    run()


# Every numeral position, with the line and column of the numeral.
LONG_NUMERALS = [
    ("structure", f"domain {LONG}\n", 1, 1),
    ("structure", f"domain 2\nrel E/{LONG} : (0,1)\n", 2, 1),
    ("structure", f"domain 2\nrel E/2 : (0,{LONG})\n", 2, 1),
    ("structure", f"domain 2\nconst c = {LONG}\n", 2, 1),
    ("team", f"x=0\nx={LONG}\n", 2, 1),
    ("graph", f"p {LONG} 0\n", 1, 1),
    ("graph", f"p 2 {LONG}\n", 1, 1),
    ("graph", f"p 2 1\ne 0 {LONG}\n", 2, 1),
    ("prop", f"x1 &\n x{LONG}", 2, 2),
]


@pytest.mark.parametrize("fmt, text, line, column", LONG_NUMERALS, ids=range(len(LONG_NUMERALS)))
def test_long_numerals_are_parse_errors(fmt, text, line, column):
    try:
        PARSERS[fmt](text)
    except TeamcheckError as exc:
        error = exc
    else:
        error = None
    if getattr(sys, "get_int_max_str_digits", lambda: 0)():  # Python before 3.10.7 has no limit
        assert isinstance(error, ParseError)
        assert (error.line, error.column) == (line, column)


# Deep nesting: the expression parsers keep open groups on a stack of their
# own, so depth is bounded by memory, not by the recursion limit.  Each text
# comes with whether it parses.
DEPTH = 5000
DEEP = [
    ("formula", "(" * DEPTH + "x=x" + ")" * DEPTH, True),
    ("formula", "exists x " * DEPTH + "x=x", True),
    ("formula", "forall x (" * DEPTH + "x=x" + ")" * DEPTH, True),
    ("formula", "(x=x & " * DEPTH + "x=x" + ")" * DEPTH, True),
    ("formula", "(" * DEPTH + "x=x", False),
    ("formula", "x=x" + ")" * DEPTH, False),
    ("formula", "exists x (" * DEPTH + "x=x" + ")" * (DEPTH - 1), False),
    ("prop", "(" * DEPTH + "x1" + ")" * DEPTH, True),
    ("prop", "(!x1 | " * DEPTH + "x1" + ")" * DEPTH, True),
    ("prop", "(" * DEPTH + "x1" + ")" * (DEPTH - 1), False),
    ("prop", "(" * (DEPTH - 1) + "x1" + ")" * DEPTH, False),
    ("prop", "!" * DEPTH + "x1", False),
]


@pytest.mark.parametrize("fmt, text, parses", DEEP, ids=range(len(DEEP)))
def test_deep_nesting_only_teamcheck_errors_escape(fmt, text, parses):
    if parses:
        PARSERS[fmt](text)
    else:
        with pytest.raises(TeamcheckError):
            PARSERS[fmt](text)
