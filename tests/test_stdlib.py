"""Derived constructors: catalog entries against their reference semantics."""
import dataclasses
import random

import pytest

from helpers import AB, ABC, DE, HASH, mixed_list, sym_list, time_limit
from listfn.stdlib import (
    CATALOG,
    catalog_term,
    comma,
    concat,
    filter_left,
    finite_function,
    identity,
    if_then_else,
    len_upto,
    list_to_pair,
    pair_to_list,
    windows,
)
from listfn.cli import main
from listfn.syntax import parse_term, render_term
from listfn.terms import BOOL_T, Term, TermTypeError, eval_term, infer_type
from listfn.types import (
    ListV,
    MAX_NESTING,
    PairV,
    Sym,
    check_value,
    enumerate_values,
    random_value,
)

ENTRY_CASES = [(name, i) for name, e in CATALOG.items()
               for i in range(len(e.instances))]


@pytest.mark.parametrize("name,idx", ENTRY_CASES,
                         ids=[f"{n}-{i}" for n, i in ENTRY_CASES])
def test_catalog_entry_matches_oracle(name, idx):
    entry = CATALOG[name]
    args = entry.instances[idx]
    term = entry.build(*args)
    oracle = entry.oracle(*args)
    dom, cod = infer_type(term)
    for v in enumerate_values(dom, 6):
        got = eval_term(term, v)
        assert got == oracle(v), f"{name} on {v}"
        assert check_value(got, cod)
    rng = random.Random(idx + 1)
    for _ in range(200):
        v = random_value(dom, 25, rng)
        assert eval_term(term, v) == oracle(v)


def test_length_capped_at_bound():
    term = len_upto(2, AB)
    assert eval_term(term, sym_list("aba")) == Sym("2")
    assert eval_term(term, sym_list("ab")) == Sym("2")
    assert eval_term(term, sym_list("b")) == Sym("1")
    assert eval_term(term, sym_list("")) == Sym("0")


def test_filter_keeps_left_letters_in_order():
    term = filter_left(ABC, DE)
    v = mixed_list("acdebeda", "abc")
    assert eval_term(term, v) == sym_list("acba")


def test_comma_splits_on_right_letters():
    term = comma(ABC, HASH)
    v = mixed_list("ab#c##a###bc#", "abc")
    expected = ListV(tuple(
        sym_list(w) for w in ["ab", "c", "", "a", "", "", "bc", ""]))
    assert eval_term(term, v) == expected


def test_comma_without_separators_is_one_group():
    term = comma(ABC, HASH)
    assert eval_term(term, mixed_list("ba", "abc")) == ListV((sym_list("ba"),))
    assert eval_term(term, ListV(())) == ListV((sym_list(""),))


def test_list_to_pair_three_cases():
    term = list_to_pair(AB, Sym("a"))
    assert eval_term(term, sym_list("")) == PairV(Sym("a"), Sym("a"))
    assert eval_term(term, sym_list("b")) == PairV(Sym("b"), Sym("a"))
    assert eval_term(term, sym_list("bab")) == PairV(Sym("b"), Sym("a"))


def test_pair_to_list_and_concat():
    assert eval_term(pair_to_list(AB),
                     PairV(Sym("a"), Sym("b"))) == sym_list("ab")
    assert eval_term(concat(AB),
                     PairV(sym_list("ab"), sym_list("ba"))) == sym_list("abba")


def test_windows_slide_over_the_list():
    term = windows(2, AB)
    assert eval_term(term, sym_list("aba")) == ListV((
        PairV(Sym("a"), Sym("b")), PairV(Sym("b"), Sym("a"))))
    assert eval_term(term, sym_list("a")) == ListV(())
    assert eval_term(term, sym_list("")) == ListV(())


def test_catalog_term_builds_from_text():
    term = catalog_term("len_upto", ["2", "{a,b}"])
    assert eval_term(term, sym_list("aba")) == Sym("2")
    term = catalog_term("list_to_pair", ["{a,b}", "a"])
    assert eval_term(term, sym_list("")) == PairV(Sym("a"), Sym("a"))
    with pytest.raises(TermTypeError):
        catalog_term("no-such-entry", [])
    with pytest.raises(TermTypeError):
        catalog_term("len_upto", ["2"])
    with pytest.raises(TermTypeError):
        catalog_term("lift_plus", [])  # not text-constructible


@pytest.mark.parametrize("text", [
    "std:len_upto@-1,{a}", "std:windows@1,{a}",
    f"std:len_upto@{MAX_NESTING + 1},{{a}}",
    f"std:windows@{MAX_NESTING + 1},{{a}}",
    "std:len_upto@99999999,{a}",
], ids=["negative-cap", "narrow-window", "cap-above-limit",
        "window-above-limit", "huge-cap"])
def test_out_of_range_catalog_arguments_are_type_errors(text):
    """Refused before anything is built: a huge cap once ran out of memory."""
    with time_limit(5):
        with pytest.raises(TermTypeError):
            parse_term(text)
        assert main(["typecheck", text]) == 3


@pytest.mark.parametrize("name", ["len_upto", "windows"])
def test_catalog_numbers_at_the_nesting_limit_build(name):
    infer_type(parse_term(f"std:{name}@{MAX_NESTING},{{a}}"))


_NAT_ENTRIES = [name for name, e in CATALOG.items() if "nat" in (e.cli_args or ())]


@pytest.mark.parametrize("name", _NAT_ENTRIES)
def test_catalog_terms_at_the_largest_number_round_trip(name):
    """Refused before anything is built, or text that parses back equal."""
    texts = {"nat": str(MAX_NESTING), "type": "{a}"}
    text = f"std:{name}@" + ",".join(texts[kind] for kind in CATALOG[name].cli_args)
    with time_limit(30):
        try:
            term = parse_term(text)
        except TermTypeError:
            return
        assert parse_term(render_term(term)) == term


def _depth(t) -> int:
    kids = [getattr(t, f.name) for f in dataclasses.fields(t)]
    return 1 + max((_depth(k) for k in kids if isinstance(k, Term)), default=0)


def test_length_term_depth_grows_with_the_log_of_the_cap():
    assert _depth(len_upto(100, AB)) <= 2 * _depth(len_upto(10, AB))


def test_window_term_depth_grows_with_the_log_of_the_width():
    assert _depth(windows(100, AB)) <= 2 * _depth(windows(10, AB))


def test_every_catalog_term_is_well_typed():
    for entry in CATALOG.values():
        for args in entry.instances:
            infer_type(entry.build(*args))


_PICK = finite_function(AB, {"a": Sym("0"), "b": Sym("1")}, BOOL_T)  # AB -> {0,1}
_TO_DE = finite_function(AB, {"a": Sym("d"), "b": Sym("e")}, DE)


@pytest.mark.parametrize("call,message", [
    (lambda: finite_function(AB, {"a": Sym("a")}, AB), "table misses ['b'] from its domain"),
    (lambda: if_then_else(identity(AB), identity(AB), identity(AB)),
     "condition must land in {0,1}"),
    (lambda: if_then_else(_PICK, identity(AB), identity(DE)),
     "branches must consume the condition's domain"),
    (lambda: if_then_else(_PICK, identity(AB), _TO_DE), "branches must share a codomain"),
], ids=["finite-function-table", "condition", "branch-domains", "branch-codomains"])
def test_stdlib_builders_refuse_ill_typed_parts(call, message):
    with pytest.raises(TermTypeError) as err:
        call()
    assert str(err.value).startswith(message)
