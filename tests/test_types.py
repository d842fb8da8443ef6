"""Type and value layer: parsing, rendering, sizes, enumeration."""
import importlib
import os
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import listfn
from helpers import AB, CD, DEEP_MIX_TYPE, sym_list, time_limit
from listfn.logic import parse_formula
from listfn.types import (
    BOT,
    Bot,
    FinSet,
    InL,
    InR,
    List,
    ListV,
    ListfnError,
    MAX_NESTING,
    NestingError,
    PairV,
    ParseError,
    Prod,
    Sum,
    Sym,
    TypeMismatch,
    check_value,
    default_value,
    enumerate_values,
    min_size,
    parse_type,
    parse_value,
    random_value,
    render_type,
    render_value,
    require_value,
    value_size,
)

TYPE_TEXTS = [
    "{a}",
    "{a,b}",
    "bot",
    "{a,b}^*",
    "({a,b}^*)^*",
    "{a,b}×{c,d}",
    "{a,b}+{c,d}",
    "({a,b}^*+{c})^*×({a}×{b}^*)^*",
    "({a,b}+bot)^*",
    "{a,b}×({c}+{d}^*)",
]


@pytest.mark.parametrize("text", TYPE_TEXTS)
def test_type_text_round_trip(text):
    t = parse_type(text)
    assert parse_type(render_type(t)) == t
    # rendering is canonical: a second pass changes nothing
    assert render_type(parse_type(render_type(t))) == render_type(t)


def test_render_type_canonical_forms():
    assert render_type(List(AB)) == "{a,b}^*"
    assert render_type(List(List(AB))) == "{a,b}^*^*"
    assert render_type(Prod(AB, CD)) == "{a,b}×{c,d}"
    assert render_type(Sum(AB, Prod(CD, AB))) == "{a,b}+{c,d}×{a,b}"
    assert render_type(Prod(Sum(AB, CD), AB)) == "({a,b}+{c,d})×{a,b}"


def test_parse_type_whitespace_and_nesting():
    assert parse_type(" { a , b } ^* ") == List(AB)
    assert parse_type("(({a}))") == FinSet(("a",))
    # × binds tighter than +
    assert parse_type("{a}+{b}×{c}") == Sum(
        FinSet(("a",)), Prod(FinSet(("b",)), FinSet(("c",))))


@pytest.mark.parametrize(
    "text", ["", "{a", "{}", "{a,b}^", "{a}+", "{a}++{b}", "{a,}", "()*", "{a,a}"])
def test_parse_type_rejects(text):
    with pytest.raises(ParseError):
        parse_type(text)


def test_render_deeply_mixed_type():
    assert render_type(DEEP_MIX_TYPE) == "({a,b}^*+{c})^*×({a}×{b}^*)^*"


def test_value_text_round_trip_exhaustive():
    for text in TYPE_TEXTS:
        t = parse_type(text)
        for v in enumerate_values(t, 5):
            assert parse_value(render_value(v), t) == v


def test_render_value_spot_checks():
    assert render_value(sym_list("ab")) == "[a,b]"
    assert render_value(PairV(Sym("a"), sym_list("ba"))) == "(a,[b,a])"
    assert render_value(InL(PairV(Sym("a"), sym_list("ba")))) == "inl (a,[b,a])"
    assert render_value(BOT) == "bot"
    assert render_value(ListV(())) == "[]"


def test_parse_value_against_type():
    t = Sum(AB, CD)
    assert parse_value("inl a", t) == InL(Sym("a"))
    assert parse_value("inr d", t) == InR(Sym("d"))
    with pytest.raises(ParseError):
        parse_value("inl (a", t)
    with pytest.raises(TypeMismatch):
        parse_value("inl c", t)


def test_check_value_and_require():
    assert check_value(sym_list("ab"), List(AB))
    assert not check_value(sym_list("ac"), List(AB))
    assert not check_value(Sym("a"), List(AB))
    assert check_value(BOT, Bot())
    require_value(InL(Sym("a")), Sum(AB, CD))
    with pytest.raises(TypeMismatch):
        require_value(InR(Sym("a")), Sum(AB, CD))


def test_value_size_counts_structure():
    assert value_size(Sym("a")) == 1
    assert value_size(sym_list("ab")) == 3
    assert value_size(ListV(())) == 1
    assert value_size(PairV(Sym("a"), Sym("b"))) == 3
    # injections are transparent
    assert value_size(InL(InR(Sym("a")))) == 1


def test_default_value_is_minimal():
    for text in TYPE_TEXTS:
        t = parse_type(text)
        v = default_value(t)
        assert check_value(v, t)
        assert value_size(v) == min_size(t)


def test_enumerate_values_sound_and_complete():
    vals = list(enumerate_values(List(AB), 4))
    assert len(vals) == len(set(vals))
    assert all(check_value(v, List(AB)) for v in vals)
    assert all(value_size(v) <= 4 for v in vals)
    # lists of length <= 3 over two letters
    assert len(vals) == 1 + 2 + 4 + 8


def test_random_value_fits_and_is_seeded():
    for text in TYPE_TEXTS:
        t = parse_type(text)
        rng = random.Random(7)
        vals = [random_value(t, 25, rng) for _ in range(50)]
        assert all(check_value(v, t) for v in vals)
        assert all(value_size(v) <= 25 for v in vals)
        again = random.Random(7)
        assert vals == [random_value(t, 25, again) for _ in range(50)]


_NESTED = {
    "type-list": (parse_type, "[", "{a}", "]"),
    "type-parens": (parse_type, "(", "{a}", ")"),
    "type-postfix-list": (parse_type, "", "a", "^*"),
    "type-sum-chain": (parse_type, "a+", "a", ""),
    "type-product-chain": (parse_type, "a*", "a", ""),
    "value-list": (parse_value, "[", "a", "]"),
    "value-pair": (parse_value, "(a,", "a", ")"),
    "value-inl": (parse_value, "inl ", "a", ""),
    "value-inr": (parse_value, "inr ", "a", ""),
}


@pytest.mark.parametrize("name", sorted(_NESTED))
def test_nesting_beyond_the_limit_is_a_parse_error(name):
    parse, opener, leaf, closer = _NESTED[name]
    with time_limit(5):
        text = opener * MAX_NESTING + leaf + closer * MAX_NESTING
        assert parse(text) == parse(text)
        for depth in (MAX_NESTING + 1, 300, 400, 5000):
            with pytest.raises(NestingError, match="nested too deeply"):
                parse(opener * depth + leaf + closer * depth)


# Each bracket level nests a level, and the stars, links or `<->`s at a level
# count from there, not on top of the operand they wrap: each of these stays
# 100 levels deep by that count but builds a tree 2,500 levels high.
@pytest.mark.parametrize("parse,text", [
    (parse_type, "(" * 50 + "a" + ("^*" * 50 + ")") * 50),
    (parse_type, "(" * 50 + "a" + ("+a" * 50 + ")") * 50),
    (parse_formula, "(" * 50 + "true" + (" <-> true" * 50 + ")") * 50),
], ids=["type-postfix-list", "type-sum-chain", "formula-iff-chain"])
def test_chains_stacked_on_nested_operands_are_a_parse_error(parse, text):
    with time_limit(5):
        with pytest.raises(NestingError, match="nested too deeply"):
            parse(text)


# Bracket-heavy text, long enough to nest past MAX_NESTING.
_TEXT_PIECES = ["{", "}", "[", "]", "(", ")", ",", "+", "*", "×", "^*", "^",
                "a", "b", "#", "@", '"', " ", "inl", "inr", "bot", ":", "9"]
_FUZZ_TEXT = st.one_of(
    st.text(max_size=400),
    st.lists(st.sampled_from(_TEXT_PIECES), max_size=400).map("".join),
)


@settings(derandomize=True, max_examples=300, deadline=1000)
@given(_FUZZ_TEXT)
def test_parse_type_raises_only_parse_errors(text):
    with time_limit(2):
        try:
            t = parse_type(text)
        except ParseError:
            return
    assert parse_type(render_type(t)) == t


@settings(derandomize=True, max_examples=300, deadline=1000)
@given(_FUZZ_TEXT)
def test_parse_value_raises_only_parse_errors(text):
    with time_limit(2):
        try:
            v = parse_value(text)
        except ParseError:
            return
    assert parse_value(render_value(v)) == v


@pytest.mark.parametrize("call,message", [
    (lambda: FinSet(()), "finite set needs at least one name"),
    (lambda: parse_type("{inl}"), "reserved word 'inl' cannot name a symbol"),
    (lambda: parse_value("[a b]", List(AB)), "expected ',' or ']' at position 3"),
], ids=["empty-finite-set", "reserved-name", "list-without-comma"])
def test_type_and_value_errors_name_the_fault(call, message):
    with pytest.raises(ParseError) as err:
        call()
    assert str(err.value).startswith(message)


def test_every_error_class_in_the_package_is_a_listfn_error():
    """So the command line's one ``except ListfnError`` sees each of them."""
    errors = {cls for info in pkgutil.iter_modules(listfn.__path__)
              if info.name != "__main__"
              for cls in vars(importlib.import_module(f"listfn.{info.name}")).values()
              if isinstance(cls, type) and issubclass(cls, BaseException)
              and cls.__module__.startswith("listfn.")}
    assert len(errors) >= 13
    assert [e.__name__ for e in errors if not issubclass(e, ListfnError)] == []


_LOADED = "import sys, {0}; print(sorted(m for m in sys.modules if m.startswith('listfn')))"


@pytest.mark.parametrize("module, loaded", [
    ("listfn", ["listfn"]),
    ("listfn.types", ["listfn", "listfn.types"]),
], ids=["package", "types"])
def test_importing_a_module_loads_only_what_it_uses(module, loaded):
    """The package re-exports nothing, so importing it runs no submodule."""
    src = str(Path(listfn.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _LOADED.format(module)],
                          env=env, capture_output=True, text=True, timeout=60,
                          check=True)
    assert done.stdout.strip() == repr(loaded)
