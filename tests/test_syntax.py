"""Concrete term syntax: parse/render round trips and error reporting."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import AB, BASICS, CD, time_limit
from listfn.samples import SAMPLE_GROUPS
from listfn.stdlib import comma, filter_left, len_upto, list_to_pair
from listfn.syntax import parse_term, render_term
from listfn.terms import (
    Compose,
    Map,
    PrefixGroupMult,
    Reverse,
    TermTypeError,
    eval_term,
    infer_type,
)
from listfn.types import (
    MAX_NESTING,
    FinSet,
    NestingError,
    ParseError,
    Sym,
    TypeMismatch,
    enumerate_values,
)

ROUND_TRIP_TERMS = (
    [t for _, t, _ in BASICS]
    + [
        Map(Map(Reverse(AB))),
        Compose(filter_left(AB, CD), parse_term("block@{a,b},{c,d}")),
        len_upto(3, AB),
        comma(AB, FinSet(("#",))),
        list_to_pair(AB, Sym("a")),
        PrefixGroupMult(SAMPLE_GROUPS["z2"]),
        PrefixGroupMult(SAMPLE_GROUPS["z3"]),
    ]
)


@pytest.mark.parametrize("term", ROUND_TRIP_TERMS,
                         ids=[str(i) for i in range(len(ROUND_TRIP_TERMS))])
def test_term_text_round_trip(term):
    text = render_term(term)
    back = parse_term(text)
    assert back == term
    # rendered text is stable
    assert render_term(back) == text


def test_round_trip_preserves_semantics():
    term = comma(AB, FinSet(("#",)))
    back = parse_term(render_term(term))
    dom, _ = infer_type(term)
    for v in enumerate_values(dom, 6):
        assert eval_term(back, v) == eval_term(term, v)


def test_parse_accepts_multiline_text():
    text = """(compose
                 reverse@{a,b}
                 reverse@{a,b})"""
    assert parse_term(text) == Compose(Reverse(AB), Reverse(AB))


def test_parse_reports_errors():
    with pytest.raises(ParseError):
        parse_term("(compose reverse@{a,b}")  # unbalanced
    with pytest.raises(ParseError):
        parse_term("(frobnicate reverse@{a,b})")  # unknown head
    with pytest.raises(ParseError):
        parse_term("(gprefix z99)")  # unknown group name
    with pytest.raises(ParseError):
        parse_term("")
    with pytest.raises(ParseError):
        parse_term("std:len_upto@x,{a}")  # catalog number argument
    with pytest.raises(ParseError):
        parse_term("}")  # a bare atom cannot start at a closing brace
    with pytest.raises(ParseError):
        parse_term(":}<9")


def test_custom_group_table():
    groups = {"swap": SAMPLE_GROUPS["z2"]}
    term = parse_term("(gprefix swap)", groups=groups)
    assert term == PrefixGroupMult(SAMPLE_GROUPS["z2"])
    with pytest.raises(ParseError):
        parse_term("(gprefix z2)", groups=groups)


# Digit pieces reach std:len_upto@N and std:windows@N, whose terms grow with
# N; numbers above MAX_NESTING are refused before anything is built.
_TERM_PIECES = ["(", ")", "{", "}", "[", "]", ",", "@", '"', " ", "\n", "a",
                "b", "#", ":", "<", "^*", "+", "*", "reverse", "compose",
                "map", "union", "pair", "const", "gprefix", "z2", "std:",
                "comma", "len_upto", "windows", "0", "2", "9", "-"]


@settings(derandomize=True, max_examples=300, deadline=1000)
@given(st.one_of(
    st.text(max_size=400),
    st.lists(st.sampled_from(_TERM_PIECES), max_size=400).map("".join),
))
def test_parse_term_raises_only_parse_errors(text):
    """Malformed text is a ParseError; text whose parts do not fit together
    (an unknown std: entry, a constant outside its codomain) raises the
    typing errors that the CLI reports with exit 3."""
    with time_limit(2):
        try:
            term = parse_term(text)
        except (ParseError, TermTypeError, TypeMismatch):
            return
    assert parse_term(render_term(term)) == term


# Term text of each shape, n levels deep.
_NESTED_TERMS = {
    "map": lambda n: "(map " * n + "reverse@{a}" + ")" * n,
    "pair": lambda n: "(pair reverse@{a} " * n + "reverse@{a}" + ")" * n,
    "union": lambda n: "(union reverse@{a} " * n + "reverse@{a}" + ")" * n,
    "guard": lambda n: "(guard " * n + "reverse@{a}" + " reverse@{a} reverse@{a})" * n,
    # n + 1 parts fold into a chain of n compositions
    "compose-parts": lambda n: "(compose" + " reverse@{a}" * (n + 1) + ")",
    # the middle part of three sits two compositions down
    "compose-middle-part": lambda n: (
        "(compose reverse@{a} " + "(map " * (n - 2) + "reverse@{a}"
        + ")" * (n - 2) + " reverse@{a})"),
}


@pytest.mark.parametrize("name", sorted(_NESTED_TERMS))
def test_term_nesting_beyond_the_limit_is_a_parse_error(name):
    text = _NESTED_TERMS[name]
    with time_limit(5):
        assert parse_term(text(MAX_NESTING)) == parse_term(text(MAX_NESTING))
    for depth in (MAX_NESTING + 1, 300, 1000, 5000):
        with time_limit(5):
            with pytest.raises(NestingError, match="term nested too deeply"):
                parse_term(text(depth))


def test_annotation_parentheses_tokenize_in_linear_time():
    """Each top-level parenthesis of an annotation once re-counted the '@'s
    of the whole atom: 240 KB took seconds."""
    with time_limit(2):
        with pytest.raises(ParseError):
            parse_term("reverse@" + "(a)" * 80000)
