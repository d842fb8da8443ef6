"""Term layer: typing, evaluation against definitional oracles, guards."""
import pickle
import random

import pytest

from helpers import (ABC, AB, BASICS, CD, HASH, LOOP_ROWS, _oracle_block,
                     mixed_list, sym_list)
from listfn.algebra import AlgebraError, FiniteMonoid
from listfn.stdlib import CATALOG, finite_function, is_nonempty
from listfn.syntax import parse_term, render_term
from listfn.terms import (
    BOOL_T,
    FALSE,
    Append,
    Block,
    CoAppend,
    Compose,
    Const,
    Distribute,
    EvalError,
    FinSplit,
    Flat,
    GuardViolation,
    Guarded,
    Map,
    Pair,
    PrefixGroupMult,
    Proj1,
    Proj2,
    Reverse,
    TermTypeError,
    Union,
    compile_term,
    eval_term,
    infer_type,
    is_first_order,
    subterms,
)
from listfn.samples import SAMPLE_GROUPS, U1
from listfn.types import (
    FinSet,
    InL,
    List,
    ListV,
    PairV,
    Prod,
    Sum,
    Sym,
    enumerate_values,
    random_value,
    render_type,
)


@pytest.mark.parametrize("label,term,oracle", BASICS,
                         ids=[b[0] for b in BASICS])
def test_basics_match_oracle(label, term, oracle):
    dom, cod = infer_type(term)
    from listfn.types import check_value
    count = 0
    for v in enumerate_values(dom, 6):
        got = eval_term(term, v)
        assert got == oracle(v), f"{label} on {v}"
        assert check_value(got, cod)
        count += 1
    assert count > 0
    rng = random.Random(11)
    for _ in range(300):
        v = random_value(dom, 30, rng)
        assert eval_term(term, v) == oracle(v)


def test_infer_type_spot_checks():
    assert infer_type(Reverse(AB)) == (List(AB), List(AB))
    assert infer_type(Flat(AB)) == (List(List(AB)), List(AB))
    from listfn.types import Bot
    assert infer_type(CoAppend(AB)) == (
        List(AB), Sum(Prod(AB, List(AB)), Bot()))
    dom, cod = infer_type(Block(AB, CD))
    assert render_type(dom) == "({a,b}+{c,d})^*"
    assert render_type(cod) == "({a,b}^*+{c,d}^*)^*"


def test_infer_type_rejects_bad_compose():
    with pytest.raises(TermTypeError):
        infer_type(Compose(Reverse(AB), Proj1(AB, CD)))
    # Union branches must share a codomain
    with pytest.raises(TermTypeError):
        infer_type(Union(Reverse(AB), Reverse(CD)))


def test_finsplit_requires_disjoint_names():
    with pytest.raises(TermTypeError):
        infer_type(FinSplit(("a",), ("a", "b")))


def test_eval_rejects_ill_shaped_values():
    with pytest.raises(EvalError):
        eval_term(Reverse(AB), Sym("a"))
    with pytest.raises(EvalError):
        eval_term(Proj1(AB, CD), sym_list("ab"))


def test_guarded_enforces_domain_predicate():
    g = Guarded(Reverse(AB), is_nonempty(AB), is_nonempty(AB))
    assert eval_term(g, sym_list("ab")) == sym_list("ba")
    with pytest.raises(GuardViolation):
        eval_term(g, ListV(()))


def _rows_monoid(els, rows, identity):
    """The monoid whose product table has row ``rows[i]`` for ``els[i]``."""
    return FiniteMonoid(els, {(a, b): x for a, row in zip(els, rows)
                              for b, x in zip(els, row)}, identity)


def test_gprefix_groups_validate_laws():
    with pytest.raises(ValueError, match="gprefix needs a group: no inverse for g"):
        PrefixGroupMult(_rows_monoid(("1", "g"), (("1", "g"), ("g", "g")), "1"))
    with pytest.raises(ValueError, match="missing from the table"):
        _rows_monoid(("1", "g"), (("1", "g"),), "1")  # not square
    with pytest.raises(ValueError, match="identity law fails"):
        _rows_monoid(("1", "g"), (("g", "1"), ("1", "g")), "1")
    with pytest.raises(ValueError, match="associativity fails"):
        _rows_monoid(LOOP_ROWS[0], LOOP_ROWS, "e")
    with pytest.raises(AlgebraError, match="^gprefix needs a group: no inverse for 0$"):
        PrefixGroupMult(U1)  # 0·x = 0 for every x


@pytest.mark.parametrize("name", ["z2", "z3"])
def test_group_prefix_matches_fold(name):
    g = SAMPLE_GROUPS[name]
    term = PrefixGroupMult(g)
    rng = random.Random(5)
    for _ in range(300):
        word = [rng.choice(g.elements) for _ in range(rng.randrange(0, 30))]
        acc, expected = g.identity, []
        for x in word:
            acc = g.mult(acc, x)
            expected.append(Sym(acc))
        got = eval_term(term, ListV(tuple(Sym(x) for x in word)))
        assert got == ListV(tuple(expected))


def test_is_first_order_flags_group_prefix():
    fo = Compose(Reverse(AB), Reverse(AB))
    assert is_first_order(fo)
    reg = Map(PrefixGroupMult(SAMPLE_GROUPS["z2"]))
    assert not is_first_order(reg)
    assert not is_first_order(Pair(fo, Compose(reg, Const(
        ListV(()), List(AB), List(FinSet(SAMPLE_GROUPS["z2"].elements))))))


def test_infer_type_of_guards_and_group_prefix():
    nonempty = "std:is_nonempty@{a,b}"
    guard = parse_term(f"(guard reverse@{{a,b}} {nonempty} {nonempty})")
    assert infer_type(guard) == (List(AB), List(AB))
    z3 = List(FinSet(SAMPLE_GROUPS["z3"].elements))
    assert infer_type(parse_term("(gprefix z3)")) == (z3, z3)
    with pytest.raises(TermTypeError, match="guard predicate domain "
                       r"\{a,b\}\^\* does not match \{c,d\}\^\*"):
        infer_type(parse_term(f"(guard reverse@{{c,d}} {nonempty} {nonempty})"))
    with pytest.raises(TermTypeError,
                       match=r"guard predicate must land in \{0,1\}"):
        infer_type(parse_term("(guard reverse@{a,b} reverse@{a,b} "
                              f"{nonempty})"))


def test_is_first_order_looks_inside_unions_and_guards():
    z2 = FinSet(SAMPLE_GROUPS["z2"].elements)
    reg = PrefixGroupMult(SAMPLE_GROUPS["z2"])
    fo_guard = Guarded(Reverse(AB), is_nonempty(AB), is_nonempty(AB))
    assert is_first_order(Union(Reverse(AB), fo_guard))
    assert not is_first_order(Union(Reverse(AB), reg))
    assert not is_first_order(Guarded(reg, is_nonempty(z2), is_nonempty(z2)))
    assert not is_first_order(
        Guarded(Reverse(z2), Compose(is_nonempty(z2), reg), is_nonempty(z2)))
    assert not is_first_order(
        Guarded(Reverse(z2), is_nonempty(z2), Compose(is_nonempty(z2), reg)))


def test_subterms_walks_the_tree():
    t = Compose(Map(Reverse(AB)), Flat(AB))
    names = [type(s).__name__ for s in subterms(t)]
    assert names.count("Reverse") == 1
    assert names.count("Map") == 1
    assert names.count("Flat") == 1
    assert names.count("Compose") == 1


Z2 = SAMPLE_GROUPS["z2"]
TABLE = finite_function(ABC, {"a": Sym("b"), "b": Sym("a"), "c": Sym("a")}, AB)
# Ill-typed on purpose: "a" is on both sides of the outer split, where the
# left side wins, and the inner split lacks "c"; the lookup must agree.
RAGGED = Compose(
    Union(Const(Sym("b"), FinSet(("a",)), AB),
          Compose(Union(Const(Sym("b"), FinSet(("b",)), AB),
                        Const(Sym("a"), FinSet(("a", "d")), AB)),
                  FinSplit(("b",), ("a", "d")))),
    FinSplit(("a",), ("a", "b", "c")))


@pytest.mark.parametrize("term,value,error,message", [
    (Proj1(AB, CD), sym_list("ab"), EvalError, "projection applied to [a,b]"),
    (Proj2(AB, CD), Sym("a"), EvalError, "projection applied to a"),
    (Distribute(AB, CD, AB), PairV(Sym("a"), Sym("b")), EvalError,
     "distribute applied to (a,b)"),
    (Reverse(AB), Sym("a"), EvalError, "reverse applied to a"),
    (Flat(AB), ListV((sym_list("ab"), Sym("a"))), EvalError,
     "flat applied to [[a,b],a]"),
    (Append(AB), PairV(Sym("a"), Sym("b")), EvalError, "append applied to (a,b)"),
    (CoAppend(AB), Sym("a"), EvalError, "co-append applied to a"),
    (Block(AB, CD), ListV((InL(Sym("a")), Sym("c"))), EvalError,
     "block applied to [inl a,c]"),
    (FinSplit(("a",), ("b",)), sym_list("a"), EvalError,
     "finite-set split applied to [a]"),
    (FinSplit(("a",), ("b",)), Sym("c"), EvalError, "symbol c outside split names"),
    (Map(Reverse(AB)), Sym("a"), EvalError, "map applied to a"),
    (Union(Reverse(AB), Reverse(AB)), sym_list("a"), EvalError,
     "union applied to [a]"),
    (PrefixGroupMult(Z2), Sym("a"), EvalError, "group prefix applied to a"),
    (PrefixGroupMult(Z2), ListV((sym_list("a"),)), EvalError,
     "group prefix applied to [[a]]"),
    (PrefixGroupMult(Z2), sym_list("z"), EvalError, "group prefix applied to [z]"),
    (TABLE, sym_list("a"), EvalError, "finite-set split applied to [a]"),
    (TABLE, Sym("d"), EvalError, "symbol d outside split names"),
    (RAGGED, Sym("c"), EvalError, "symbol c outside split names"),
    (RAGGED, Sym("d"), EvalError, "symbol d outside split names"),
    (Guarded(Reverse(AB), is_nonempty(AB), is_nonempty(AB)), ListV(()),
     GuardViolation, "argument [] outside the guarded domain"),
    (Guarded(Reverse(AB), is_nonempty(AB), Const(FALSE, List(AB), BOOL_T)),
     sym_list("ab"), GuardViolation, "result [b,a] outside the guarded codomain"),
], ids=["proj1", "proj2", "distribute", "reverse", "flat-row", "append",
        "coappend", "block", "finsplit-value", "finsplit-name", "map", "union",
        "gprefix-value", "gprefix-element", "gprefix-name", "table-value",
        "table-name", "table-inner-name", "table-outer-name",
        "guard-domain", "guard-codomain"])
def test_eval_errors_name_the_node(term, value, error, message):
    with pytest.raises(EvalError) as caught:
        eval_term(term, value)
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize("term,message", [
    (Const(Sym("c"), AB, AB), "const value c is not of type {a,b}"),
    (Pair(Reverse(AB), Reverse(CD)), "pairing mismatch: {a,b}^* vs {c,d}^*"),
], ids=["const-value", "pair-domains"])
def test_type_errors_name_the_node(term, message):
    with pytest.raises(TermTypeError) as caught:
        infer_type(term)
    assert str(caught.value).startswith(message)


def test_split_tables_agree_with_their_trees():
    assert [eval_term(TABLE, Sym(n)) for n in "abc"] == [Sym("b"), Sym("a"), Sym("a")]
    assert [eval_term(RAGGED, Sym(n)) for n in "ab"] == [Sym("b"), Sym("b")]


def _z2_fold(v):
    acc, out = Z2.identity, []
    for x in v.items:
        acc = Z2.mult(acc, x.name)
        out.append(Sym(acc))
    return ListV(tuple(out))


N = 100_000
COMMA = CATALOG["comma"]


@pytest.mark.parametrize("term,value,oracle", [
    (Reverse(AB), sym_list("ab" * (N // 2)), lambda v: ListV(v.items[::-1])),
    (Flat(AB), ListV((sym_list("a"),) * N), lambda v: sym_list("a" * N)),
    (Block(AB, CD), mixed_list("ac" * (N // 2), "a"), _oracle_block),
    (Map(Reverse(AB)), ListV((sym_list("ab"),) * N),
     lambda v: ListV((sym_list("ba"),) * N)),
    (COMMA.build(AB, HASH), mixed_list("ab#" * (N // 3), "ab"), COMMA.oracle(AB, HASH)),
    (PrefixGroupMult(Z2), ListV(tuple(Sym(Z2.elements[i % 2]) for i in range(N))),
     _z2_fold),
], ids=["reverse", "flat", "block", "map", "comma", "gprefix"])
def test_long_lists_do_not_deepen_recursion(term, value, oracle):
    assert eval_term(term, value) == oracle(value)


def test_compiling_leaves_the_term_unchanged():
    term, twin = CATALOG["windows"].build(4, AB), CATALOG["windows"].build(4, AB)
    assert term is not twin
    before = (repr(term), hash(term), render_term(term))
    values = list(enumerate_values(List(AB), 6))
    results = [eval_term(term, v) for v in values]
    assert compile_term(term) is compile_term(term)
    assert (repr(term), hash(term), render_term(term)) == before
    assert term == twin and hash(term) == hash(twin)
    assert [eval_term(twin, v) for v in values] == results
    thawed = pickle.loads(pickle.dumps(term))
    assert thawed == term and [eval_term(thawed, v) for v in values] == results
