"""Formulas, word and parse-tree structures, and transductions."""
import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    AB,
    DEEP_MIX_TYPE,
    FOT_CASES,
    WORD_VOCAB,
    apply_transduction_by_definition,
    inline_definitions,
    ordered_word_structure,
    sym_list,
    time_limit,
    with_definitions,
    word_sort_fot,
)
from listfn.logic import (
    _Atom,
    _Ctx,
    _relations,
    _solve,
    And,
    Eq,
    Exists,
    FalseF,
    Forall,
    Iff,
    Implies,
    LogicError,
    FOTransduction,
    Not,
    Or,
    Rel,
    Structure,
    TrueF,
    apply_transduction,
    builtin_fot,
    builtin_names,
    builtin_term,
    check_commutes,
    decode_structure,
    decode_word_structure,
    encode_value,
    encoding_vocabulary,
    eval_formula,
    free_vars,
    parse_formula,
    render_formula,
    sat_rows,
    word_structure,
)
from listfn.terms import eval_term, infer_type
from listfn.types import (
    EncodingError,
    FinSet,
    List,
    ParseError,
    Sym,
    TypeMismatch,
    enumerate_values,
    parse_type,
    parse_value,
    random_value,
    render_value,
)

FORMULAS = [
    "Q_a(x)",
    "E x. Q_a(x)",
    "A x. Q_a(x) | Q_b(x)",
    "E x. A y. (x = y | lt(x,y))",
    "E x. (Q_a(x) & !Q_b(x))",
    "A x. (Q_a(x) -> E y. (S(x,y) & Q_b(y)))",
    "(E x. Q_a(x)) <-> !(A x. Q_b(x))",
    "E x. E y. x != y",
    "lt(x,y) & !(E z. lt(x,z) & lt(z,y))",
    "x = y & E x. Q_a(x)",
    "lt(x,y) & (Q_a(x) | E x. S(y,x) & !Q_a(x))",
    "!!Q_a(x)",
    "!Q_a(x) <-> !S(x,y)",
    "lt(x,x) | S(x,x) | Q_b(x)",
    "A x. false",
]


@pytest.mark.parametrize("text", FORMULAS)
def test_formula_text_round_trip(text):
    f = parse_formula(text)
    assert parse_formula(render_formula(f)) == f


@pytest.mark.parametrize("text", [
    "!E x. " * 40 + "Q_a(x)",
    "!A x. " * 49 + "Q_a(x)",
    "Q_b(y) & " + "!E x. " * 40 + "Q_a(x)",
    "(!E x. Q_a(x)) & Q_b(y)",
    "Q_b(y) -> !A x. Q_a(x) | S(x,y)",
    "!E x. Q_a(x) <-> !E y. Q_b(y)",
], ids=["negated-exists", "negated-forall-99", "after-and", "before-and",
        "after-implies", "scope-to-end"])
def test_negated_quantifiers_render_to_text_that_parses(text):
    f = parse_formula(text)
    assert parse_formula(render_formula(f)) == f


@pytest.mark.parametrize("text", [
    "(" * 2000 + "true" + ")" * 2000,
    "!" * 5000 + "true",
    "E x. " * 3000 + "true",
    "true -> " * 3000 + "true",
    "true <-> " * 3000 + "true",
], ids=["parens", "negations", "quantifiers", "implies", "iff"])
def test_parse_formula_rejects_deep_nesting(text):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_formula(text)


_FORMULA_PIECES = ["(", ")", "!", "E", "A", "x", "y", ".", ",", "&", "|", "->",
                   "<->", "=", "!=", "Q_a", "true", " "]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(
    st.text(),
    st.lists(st.sampled_from(_FORMULA_PIECES), max_size=600).map("".join),
    st.builds(lambda prefix, n, rest: prefix * n + rest,
              st.sampled_from(["(", "!", "E x. ", "true -> ", "true <-> "]),
              st.integers(0, 3000), st.text(max_size=30)),
))
def test_parse_formula_raises_only_parse_errors(text):
    try:
        phi = parse_formula(text)
    except ParseError:
        return
    assert parse_formula(render_formula(phi)) == phi


def test_derived_relation_names_mean_plain_relations_in_parsed_text():
    # root(x), nsib(x,y), ... read the structure's relations; only a transduction's
    # definitions give those names a formula
    phi = parse_formula("root(x) & nsib(x,y)")
    assert free_vars(phi) == {"x", "y"}
    s = Structure((0, 1), {"root": 1, "nsib": 2},
                  {"root": frozenset({(0,)}), "nsib": frozenset({(0, 1)})})
    assert eval_formula(s, phi, {"x": 0, "y": 1})
    assert not eval_formula(s, phi, {"x": 1, "y": 0})


def test_free_vars():
    assert free_vars(parse_formula("Q_a(x)")) == {"x"}
    assert free_vars(parse_formula("E x. lt(x,y)")) == {"y"}
    assert free_vars(parse_formula("E x. Q_a(x)")) == set()
    # a quantifier binds only inside its own body
    assert free_vars(parse_formula("Q_a(x) & E x. Q_b(x)")) == {"x"}
    assert free_vars(parse_formula("A y. (lt(x,y) -> E x. lt(x,y))")) == {"x"}


def test_word_structures_decode_back():
    for n in range(0, 6):
        for tup in itertools.product("ab", repeat=n):
            w = "".join(tup)
            assert decode_word_structure(word_structure(w)) == w


def test_eval_formula_on_word_structures():
    s = ordered_word_structure("ab")
    assert eval_formula(s, parse_formula("E x. Q_a(x)"), {})
    assert not eval_formula(s, parse_formula("A x. Q_a(x)"), {})
    assert eval_formula(s, parse_formula(
        "E x. E y. (S(x,y) & Q_a(x) & Q_b(y))"), {})
    assert eval_formula(s, parse_formula("lt(x,y)"), {"x": 0, "y": 1})
    assert not eval_formula(s, parse_formula("lt(x,y)"), {"x": 1, "y": 0})


@pytest.mark.parametrize("text", FORMULAS)
def test_sat_rows_agrees_with_pointwise_evaluation(text):
    f = parse_formula(text)
    wanted = tuple(sorted(free_vars(f)))
    for w in ["", "a", "ab", "bba", "abab"]:
        s = ordered_word_structure(w)
        rows = sat_rows(s, f, wanted)
        brute = {
            tup for tup in itertools.product(s.universe, repeat=len(wanted))
            if eval_formula(s, f, dict(zip(wanted, tup)))}
        assert rows == brute, (text, w)


@pytest.mark.parametrize("links", [
    ["Q_a(x)"],
    ["Q_a(x)", "!Q_b(x)", "(E y. S(x,y))", "lt(x,y)", "!(x = y)"],
], ids=["same-atom", "mixed"])
def test_iff_chains_solve_each_side_once(links):
    """Each side of an Iff is solved once, so 40 links stay fast."""
    f = parse_formula(" <-> ".join(links[i % len(links)] for i in range(41)))
    wanted = tuple(sorted(free_vars(f)))
    with time_limit(5):
        for w in ["", "a", "abab", "bbaab"]:
            s = ordered_word_structure(w)
            brute = {
                tup for tup in itertools.product(s.universe, repeat=len(wanted))
                if eval_formula(s, f, dict(zip(wanted, tup)))}
            assert sat_rows(s, f, wanted) == brute, w
            assert sat_rows(s, Not(f), wanted) == set(
                itertools.product(s.universe, repeat=len(wanted))) - brute, w


def _random_formula(rng, depth, names="xyz"):
    """A formula at most ``depth`` deep over P/1, R/2, T/3 and =, with every
    connective; its variables, ``names``, are quantified again inside their scope."""
    var = lambda: rng.choice(names)
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([
            lambda: Rel("P", (var(),)), lambda: Rel("R", (var(), var())),
            lambda: Rel("T", (var(), var(), var())), lambda: Eq(var(), var()),
            TrueF, FalseF])()
    sub = lambda: _random_formula(rng, depth - 1, names)
    return rng.choice([
        lambda: Not(sub()), lambda: And(tuple(sub() for _ in range(rng.randint(2, 3)))),
        lambda: Or(tuple(sub() for _ in range(rng.randint(2, 3)))),
        lambda: Implies(sub(), sub()), lambda: Iff(sub(), sub()),
        lambda: Exists(var(), sub()), lambda: Forall(var(), sub())])()


def _fuzz_structures(rng):
    """Structures of 0-4 elements over P/1, R/2, T/3: from word structures,
    where R is the linear order lt, and random ones on scattered ids."""
    out = []
    for word in ["", "a", "ab", "bba", "abab", "bbab"]:
        s = ordered_word_structure(word)
        steps = s.relations["S"]
        out.append(Structure(s.universe, {"P": 1, "R": 2, "T": 3}, {
            "P": s.relations["Q_a"], "R": s.relations["lt"],
            "T": frozenset((x, y, z) for x, y in steps for y2, z in steps if y == y2)}))
    for n in [0, 1, 2, 3, 3, 4, 4, 4]:
        univ = tuple(rng.sample(range(10), n))
        out.append(Structure(univ, {"P": 1, "R": 2, "T": 3}, {
            "P": frozenset((u,) for u in univ if rng.random() < 0.5),
            "R": frozenset(t for t in itertools.product(univ, repeat=2) if rng.random() < 0.3),
            "T": frozenset(t for t in itertools.product(univ, repeat=3) if rng.random() < 0.15)}))
    return out


WIDE = 3000


def wide_structure():
    """Unary ``t`` on all of 0..3, and ``t_0``..``t_2999`` on 0 and 1 only."""
    names = ["t"] + [f"t_{i}" for i in range(WIDE)]
    rel = {name: frozenset({(0,), (1,)}) for name in names}
    rel["t"] = frozenset({(0,), (1,), (2,), (3,)})
    return Structure((0, 1, 2, 3), dict.fromkeys(names, 1), rel)


@pytest.mark.parametrize("text,rows", [
    ("t(x) & !(%s)" % " & ".join(f"t_{i}(x)" for i in range(WIDE)), {(2,), (3,)}),
    ("t(x) & (%s)" % " | ".join(f"t_{i}(x)" for i in range(WIDE)), {(0,), (1,)}),
], ids=["and", "or"])
def test_a_wide_connective_is_tested_without_deep_recursion(text, rows):
    """Each row test runs all 3000 parts on two of the elements; the
    tests are joined balanced, not nested as deep as the formula is wide."""
    s, phi = wide_structure(), parse_formula(text)
    assert sat_rows(s, phi, ("x",)) == rows == {
        (u,) for u in s.universe if eval_formula(s, phi, {"x": u})}


def test_sat_rows_agrees_with_eval_formula_on_random_formulas():
    rng = random.Random(2024)
    structures = _fuzz_structures(rng)
    with time_limit(10):
        for _ in range(200):
            phi = _random_formula(rng, 6)
            assert parse_formula(render_formula(phi)) == phi, render_formula(phi)
            want = tuple(sorted(free_vars(phi)))
            for s in structures:
                brute = {tup for tup in itertools.product(s.universe, repeat=len(want))
                         if eval_formula(s, phi, dict(zip(want, tup)))}
                assert sat_rows(s, phi, want) == brute, (render_formula(phi), s)


def _chain_structure(rng, lengths, change=None):
    """Chains of ``lengths`` elements on shuffled ids, R their strict orders
    (transitively closed), then ``change`` (chains, R) -> R; P and T random,
    and G every pair, so that ``G(x,y)`` binds both ends of a formula."""
    n = sum(lengths)
    ids = iter(rng.sample(range(3 * n + 1), n))
    chains = [[next(ids) for _ in range(k)] for k in lengths]
    rel = {(c[i], c[j]) for c in chains for i in range(len(c)) for j in range(i + 1, len(c))}
    univ = tuple(rng.sample([u for c in chains for u in c], n))
    return Structure(univ, {"P": 1, "R": 2, "T": 3, "G": 2}, {
        "P": frozenset((u,) for u in univ if rng.random() < 0.5),
        "R": frozenset(change(chains, rel) if change else rel),
        "T": frozenset(t for t in itertools.product(univ, repeat=3) if rng.random() < 0.1),
        "G": frozenset(itertools.product(univ, repeat=2))})


# R near a union of chains, one fault each, on chains of 4 and 2 (or 1) elements
NEAR_CHAINS = {
    "transitive-pair-dropped": ([4, 2], lambda c, r: r - {(c[0][0], c[0][2])}),
    "reflexive-pair": ([4, 2], lambda c, r: r | {(c[0][1], c[0][1])}),
    "shared-successor": ([4, 1], lambda c, r: r | {(c[1][0], v) for v in c[0][1:]}),
    "two-cycle": ([4, 2], lambda c, r: r | {(c[1][1], c[1][0])}),
}


def test_sat_rows_agrees_with_eval_formula_between_chain_elements():
    """``[!]E z. R(a,z) & R(z,b) & phi``, phi random over z and none, one or
    both of the ends a, b, on structures where R is a union of chains (empty,
    singletons, several, shuffled ids) and on one near miss per fault."""
    rng = random.Random(25)
    structures = [_chain_structure(rng, lengths) for lengths in
                  [[], [1], [1, 1, 1], [6], [3, 2, 1], [2, 2, 2], [4, 1, 1]]]
    structures += [_chain_structure(rng, *case) for case in NEAR_CHAINS.values()]
    with time_limit(10):
        for _ in range(90):
            a, b = rng.sample("xy", 2)
            names = "z" + rng.choice(["", a, b, "xy"])
            phi = _random_formula(rng, 2, names) if rng.random() < 0.8 else TrueF()
            body = [Rel("R", (a, "z")), Rel("R", ("z", b)), phi]
            rng.shuffle(body)
            between = Exists("z", And(tuple(body)))
            parts = [Rel("G", ("x", "y")), Not(between) if rng.random() < 0.5 else between]
            if rng.random() < 0.2:  # z is also a column, which the witness shadows
                parts.append(Rel("P", ("z",)))
            f = And(tuple(parts))
            want = tuple(sorted(free_vars(f)))
            for s in structures:
                brute = {tup for tup in itertools.product(s.universe, repeat=len(want))
                         if eval_formula(s, f, dict(zip(want, tup)))}
                assert sat_rows(s, f, want) == brute, (render_formula(f), s)


@pytest.mark.parametrize("text", ["{a,b}^*", "({a}^*)^*", "({a}+{b,c})^*"])
def test_chain_check_accepts_sib_of_every_encoding(text):
    """Each node's children, in list order, are one chain of ``sib``; the
    chains' pairs make up ``sib`` and each element sits at its rank."""
    t = parse_type(text)
    for v in enumerate_values(t, 5):
        s = encode_value(v, t)
        order = _Ctx(s).chains("sib")
        assert order is not None, v
        rank, line = order
        chains = {id(c): c for c in line.values()}.values()
        assert {(c[i], c[j]) for c in chains for i in range(len(c))
                for j in range(i + 1, len(c))} == s.relations["sib"]
        assert all(line[u][rank[u]] == u for u in line)


@pytest.mark.parametrize("case", NEAR_CHAINS.values(), ids=list(NEAR_CHAINS))
def test_chain_check_refuses_near_misses(case):
    rng = random.Random(7)
    assert _Ctx(_chain_structure(rng, case[0])).chains("R") is not None
    assert _Ctx(_chain_structure(rng, *case)).chains("R") is None


def _is_union_of_chains(rel):
    """The definition: a strict order in which no element has two incomparable
    successors, or two incomparable predecessors."""
    near = lambda x, y: x == y or (x, y) in rel or (y, x) in rel
    return (all(u != v for u, v in rel)
            and all((u, w) in rel for u, v in rel for v2, w in rel if v == v2)
            and all(near(v, w) for u, v in rel for u2, w in rel if u == u2)
            and all(near(u, u2) for u, v in rel for u2, w in rel if v == w))


def test_chain_check_agrees_with_its_definition_on_small_relations():
    """Every relation on 3 elements, and every union of chains on 4 elements
    with one pair added or dropped."""
    def verdict(rel):
        s = Structure((0, 1, 2, 3), {"R": 2}, {"R": frozenset(rel)})
        return _Ctx(s).chains("R") is not None

    pairs3 = list(itertools.product(range(3), repeat=2))
    for bits in itertools.product((0, 1), repeat=len(pairs3)):
        rel = {p for p, b in zip(pairs3, bits) if b}
        assert verdict(rel) == _is_union_of_chains(rel), sorted(rel)
    unions = set()
    for perm in itertools.permutations(range(4)):
        for cuts in itertools.product((0, 1), repeat=3):
            ends = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [4]
            chains = [perm[a:b] for a, b in zip(ends, ends[1:])]
            unions.add(frozenset((c[i], c[j]) for c in chains for i in range(len(c))
                                 for j in range(i + 1, len(c))))
    for rel in unions:
        assert verdict(rel)
        for p in itertools.product(range(4), repeat=2):
            assert verdict(rel ^ {p}) == _is_union_of_chains(rel ^ {p}), sorted(rel ^ {p})


@pytest.mark.parametrize("text", [
    "R(x,x)", "T(x,y,x)", "T(x,x,x)", "P(y) & T(x,y,x)", "R(x,y) & T(y,x,y)",
    "E y. T(x,y,x) & R(y,y)", "A x. T(x,x,x) -> R(x,x)",
])
def test_atoms_with_repeated_variables_agree_with_eval_formula(text):
    """Only atoms that repeat a variable filter the rows of their index."""
    f = parse_formula(text)
    want = tuple(sorted(free_vars(f)))
    for s in _fuzz_structures(random.Random(11)):
        s = dataclasses.replace(s, relations={  # rows that the filter keeps
            **s.relations, "T": s.relations["T"] | {(u, u, u) for u in s.universe[:2]},
            "R": s.relations["R"] | {(u, u) for u in s.universe[:1]}})
        brute = {tup for tup in itertools.product(s.universe, repeat=len(want))
                 if eval_formula(s, f, dict(zip(want, tup)))}
        assert sat_rows(s, f, want) == brute, (text, s)


@pytest.mark.parametrize("text,indexed", [
    ("R(x,y)", False), ("R(y,x)", False), ("R(x,x)", True), ("P(x) & R(y,z)", False),
    ("R(x)", False), ("T(x,y)", False),
])
def test_unbound_atoms_are_answered_from_the_relation_rows(text, indexed):
    """An atom with no bound variable and distinct arguments is the relation's
    rows, named in argument order (``R(y,x)`` reads a row (u, v) as y=u, x=v);
    only a repeated variable builds an index.  The last two atoms' arity
    differs from the vocabulary's, so they hold nowhere."""
    f = parse_formula(text)
    for s in _fuzz_structures(random.Random(12)):
        for want in itertools.permutations(sorted(free_vars(f))):
            brute = {tup for tup in itertools.product(s.universe, repeat=len(want))
                     if eval_formula(s, f, dict(zip(want, tup)))}
            ctx = _Ctx(s)
            assert _solve(ctx, f, want) == sat_rows(s, f, want) == brute, (text, want, s)
            assert bool(ctx.indexes) == indexed, text
        for atom in f.parts if isinstance(f, And) else (f,):
            node = _Atom(atom.name, atom.args)
            index = _Ctx(s).index(atom.name, atom.args, ())  # what fanout read before
            assert node.fanout(_Ctx(s), set()) == sum(map(len, index.values())) / max(1, len(index))


def _words(up_to):
    return [ordered_word_structure("".join(w))
            for n in range(up_to + 1) for w in itertools.product("ab", repeat=n)]


@pytest.mark.parametrize("name,types", FOT_CASES, ids=[c[0] for c in FOT_CASES])
def test_transduction_formulas_agree_with_pointwise_evaluation(name, types):
    fot = builtin_fot(name, *types)
    dom = infer_type(builtin_term(name, *types))[0]
    size = 6 if name == "ab_example" else 5  # every word to length 5
    inputs = [encode_value(v, dom) for v in enumerate_values(dom, size)]
    formulas = [(phi, args) for _, args, phi in fot.definitions]
    formulas += [(phi, ("x",)) for phi in fot.universe.values()]
    formulas += [(phi, order) for order, table in fot.relations.values()
                 for phi in table.values()]
    for s in inputs:
        extended = with_definitions(fot, s)  # the formulas read the definitions
        for phi, order in formulas:
            brute = {
                tup for tup in itertools.product(s.universe, repeat=len(order))
                if eval_formula(extended, phi, dict(zip(order, tup)))}
            assert sat_rows(extended, phi, order) == brute, (name, render_formula(phi))
        assert apply_transduction(fot, s) == apply_transduction_by_definition(fot, s)


# three copies: copy 1 keeps the a positions, copy 2 has no universe formula,
# copy 3 keeps every position; many entries reach dropped elements
THREE_COPIES = FOTransduction(
    3, dict(WORD_VOCAB), {"m": 1, "p": 2, "r": 3},
    {1: parse_formula("Q_a(x)"), 3: TrueF()},
    {"m": (("x",), {(1,): parse_formula("Q_b(x) | lt(x,x)"),
                    (2,): TrueF(),
                    (3,): parse_formula("E y. S(x,y) & Q_a(y)")}),
     "p": (("x", "y"), {(1, 3): parse_formula("lt(x,y)"),
                        (3, 1): parse_formula("S(x,y)"),
                        (2, 3): TrueF()}),
     "r": (("x", "y", "z"), {(1, 3, 1): parse_formula("lt(x,y) & lt(y,z)"),
                             (3, 3, 3): parse_formula("S(x,y) & S(y,z)"),
                             (3, 2, 1): TrueF(),
                             (1, 1, 3): parse_formula("x = y & !(y = z)")})})


def test_apply_transduction_agrees_with_its_definition_on_three_copies():
    rows = {name: 0 for name in THREE_COPIES.output_vocab}
    for s in _words(5):
        out = apply_transduction(THREE_COPIES, s)
        assert out == apply_transduction_by_definition(THREE_COPIES, s)
        for name, got in out.relations.items():
            rows[name] += len(got)
    assert all(rows.values()), rows  # no relation is checked only on empty rows


@pytest.mark.parametrize("change", [
    dict(universe={3: TrueF()}),
    dict(relations={"Q_a": (("x",), {(0,): TrueF()})}),
    dict(relations={"lt": (("x",), {(1, 1): TrueF()})}),
    dict(relations={"lt": (("x", "y"), {(1,): TrueF()})}),
    dict(relations={"lt": (("x", "x"), {})}),
    dict(relations={"lt": (("x", "y"), {(1, 2): parse_formula("lt(x,z)")})}),
    dict(universe={1: parse_formula("Q_a(y)")}),
    dict(k=0, universe={}),
    dict(universe={1: parse_formula("Q_a(x,x)")}),
    dict(relations={"lt": (("x", "y"), {(1, 2): parse_formula("lt(x)")})}),
], ids=["universe-copy", "copy-zero", "order-arity", "key-arity",
        "repeated-var", "undeclared-var", "universe-var", "no-copies",
        "universe-reads-at-another-arity", "case-reads-at-another-arity"])
def test_malformed_transductions_raise_logic_errors(change):
    t = word_sort_fot()
    if "relations" in change:
        change = {"relations": {**t.relations, **change["relations"]}}
    with pytest.raises(LogicError):
        dataclasses.replace(t, **change)


# each a definition list that FOTransduction refuses, and its message
_BAD_DEFINITIONS = {
    "input-name": ([("lt", ("x", "y"), parse_formula("S(x,y)"))],
                   "definition lt repeats an input relation"),
    "repeated-name": ([("q", ("x",), parse_formula("Q_a(x)")),
                       ("q", ("x",), parse_formula("Q_b(x)"))],
                      "definition q repeats an input relation or definition"),
    "repeated-var": ([("q", ("x", "x"), parse_formula("S(x,x)"))],
                     "definition q needs distinct variables"),
    "no-var": ([("q", (), parse_formula("true"))], "definition q needs distinct variables"),
    "undeclared-var": ([("q", ("x",), parse_formula("S(x,y)"))],
                       "definition q needs distinct variables, its free ones"),
    "reads-itself": ([("q", ("x",), parse_formula("Q_a(x) | E y. S(y,x) & q(y)"))],
                     "definition q reads q, not an earlier one"),
    "reads-later": ([("q", ("x",), parse_formula("r(x)")),
                     ("r", ("x",), parse_formula("Q_a(x)"))],
                    "definition q reads r, not an earlier one"),
    "reads-at-another-arity": ([("q", ("x",), parse_formula("Q_a(x)")),
                                ("r", ("x",), parse_formula("S(x,x) & !q(x,x)"))],
                               "q has arity 1, read as q"),
}


@pytest.mark.parametrize("case", _BAD_DEFINITIONS)
def test_malformed_definitions_raise_logic_errors(case):
    definitions, message = _BAD_DEFINITIONS[case]
    with pytest.raises(LogicError, match=f"^{message}"):
        dataclasses.replace(word_sort_fot(), definitions=tuple(definitions))


def test_definitions_are_read_as_relations_and_only_when_read():
    # q: the a positions with an a after them; "unknown" would raise if solved
    t = dataclasses.replace(THREE_COPIES, definitions=(
        ("unread", ("x",), parse_formula("unknown(x)")),
        ("q", ("x",), parse_formula("Q_a(x) & E y. lt(x,y) & Q_a(y)")),
        ("qq", ("x", "y"), parse_formula("q(x) & q(y) & lt(x,y)"))),
        universe={1: parse_formula("q(x)"), 3: parse_formula("E y. qq(x,y)")})
    for s in _words(5):
        assert apply_transduction(t, s) == apply_transduction_by_definition(
            dataclasses.replace(t, definitions=t.definitions[1:]), s)
    # a definition stands for its formula, not for a relation of the structure's
    s = ordered_word_structure("aab")
    extra = Structure(s.universe, {**s.vocabulary, "q": 1},
                      {**s.relations, "q": frozenset({(2,)})})
    assert apply_transduction(t, extra) == apply_transduction(t, s)
    assert apply_transduction(t, s).universe == (0,)  # copy 1 keeps position 0 only


# the nested element types that CI runs check fot-commute at
CI_NESTED_TYPES = [("coappend", ("{a}^*",)), ("flat", ("{a}*{b}",)),
                   ("block", ("{a}^*", "{b}")), ("reverse", ("({a}+{b})^*",)),
                   ("append", ("{a}^*",)), ("coappend", ("{a}*{b}",)),
                   ("coappend", ("{a}+{b}^*",))]


@pytest.mark.parametrize("name,types", [
    *FOT_CASES, *((n, tuple(map(parse_type, ts))) for n, ts in CI_NESTED_TYPES)],
    ids=[*(c[0] for c in FOT_CASES), *(f"{n}@{','.join(ts)}" for n, ts in CI_NESTED_TYPES)])
def test_definitions_give_what_their_formulas_inlined_give(name, types):
    fot = builtin_fot(name, *types)
    inlined = inline_definitions(fot)
    assert fot.definitions and not inlined.definitions or name == "ab_example"
    assert _relations(*inlined.universe.values(), *(
        phi for _, table in inlined.relations.values() for phi in table.values())
    ) <= set(fot.input_vocab)
    dom = infer_type(builtin_term(name, *types))[0]
    rng = random.Random(f"inlined-{name}")
    values = [*enumerate_values(dom, 4), *(random_value(dom, 24, rng) for _ in range(20))]
    for v in values:
        s = encode_value(v, dom)
        assert apply_transduction(fot, s) == apply_transduction(inlined, s), render_value(v)


def test_transduction_numbers_copy_i_of_u_after_i_minus_1_copies():
    # ids follow the input's universe order, whatever its element names
    t = word_sort_fot()
    s = ordered_word_structure("ba")
    s = Structure((7, 3), s.vocabulary, {
        name: frozenset(tuple({0: 7, 1: 3}[u] for u in row) for row in rows)
        for name, rows in s.relations.items()})
    out = apply_transduction(t, s)
    assert out.universe == (1, 2)
    assert out.relations["lt"] == {(1, 2)}
    assert (out.relations["Q_a"], out.relations["Q_b"]) == ({(1,)}, {(2,)})  # "ab"


def _sorted_ab(word):
    return "a" * word.count("a") + "b" * word.count("b")


def test_ab_example_sorts_the_letters():
    t = builtin_fot("ab_example")
    out = apply_transduction(t, word_structure("ababa"))
    assert decode_word_structure(out) == "aaabb"
    for n in range(0, 6):
        for tup in itertools.product("ab", repeat=n):
            w = "".join(tup)
            got = decode_word_structure(apply_transduction(t, word_structure(w)))
            assert got == _sorted_ab(w), w


def test_structure_round_trip_on_panel():
    for t in [List(AB), DEEP_MIX_TYPE, List(List(AB))]:
        for v in enumerate_values(t, 6):
            s = encode_value(v, t)
            assert set(s.vocabulary) == set(encoding_vocabulary(t))
            assert decode_structure(s, t) == v


def test_decode_rejects_corrupt_structures():
    t = List(AB)
    s = encode_value(sym_list("ab"), t)
    # drop the letter tag from one leaf
    broken = Structure(
        s.universe, s.vocabulary,
        {**s.relations,
         "t_0__a": frozenset(), "t_0__b": frozenset({(2,)})})
    with pytest.raises(EncodingError):
        decode_structure(broken, t)


# an atom, a finite set, a sum with bot, a product and nested lists
_DECODE_PANEL = ["a", "{a,b,c}", "{a,b}+bot", "{a}*{b,c}", "({a,b}^*)^*", "(a*({a}+bot))^*"]


@pytest.mark.parametrize("text", _DECODE_PANEL)
def test_decode_rejects_every_one_tuple_toggle(text):
    """Adding or dropping any one tuple of any relation breaks an encoding,
    and the error says so in one short line."""
    t = parse_type(text)
    for v in enumerate_values(t, 5):
        s = encode_value(v, t)
        for name, arity in s.vocabulary.items():
            for row in itertools.product(s.universe, repeat=arity):
                rels = {**s.relations, name: s.relations[name] ^ {row}}
                with pytest.raises(EncodingError) as err:
                    decode_structure(Structure(s.universe, s.vocabulary, rels), t)
                assert "\n" not in str(err.value) and len(str(err.value)) < 120


@pytest.mark.parametrize("text", _DECODE_PANEL)
def test_decode_reads_an_encoding_under_any_ids(text):
    t = parse_type(text)
    rng = random.Random(23)
    for v in enumerate_values(t, 5):
        s = encode_value(v, t)
        ids = rng.sample(range(100), len(s.universe))
        rename = dict(zip(s.universe, ids))
        rels = {name: frozenset(tuple(map(rename.get, row)) for row in rows)
                for name, rows in s.relations.items()}
        assert decode_structure(Structure(tuple(ids), s.vocabulary, rels), t) == v


@pytest.mark.parametrize("v", [Sym("z"), sym_list("ab")], ids=["symbol", "list"])
def test_encode_value_rejects_ill_typed_values(v):
    with pytest.raises(TypeMismatch):
        encode_value(v, AB)


def test_builtin_catalog_is_complete():
    names = builtin_names()
    assert set(names) == {
        "reverse", "append", "coappend", "flat", "block", "ab_example"}
    assert names["block"] == 2
    assert names["ab_example"] == 0


@pytest.mark.parametrize("name,types", [
    ("reverse", (AB,)),
    ("append", (AB,)),
    ("coappend", (AB,)),
    ("flat", (AB,)),
    ("block", (AB, FinSet(("c", "d")))),
    ("ab_example", ()),
])
def test_builtins_commute_with_their_terms(name, types):
    term = builtin_term(name, *types)
    fot = builtin_fot(name, *types)
    dom, cod = infer_type(term)
    samples = list(enumerate_values(dom, 4))
    rng = random.Random(13)
    samples += [random_value(dom, 14, rng) for _ in range(60)]
    report = check_commutes(term, fot, samples)
    assert report.ok, report.summary()
    assert report.total == len(samples)


def test_coappend_transduction_point_value():
    S5 = FinSet(("a", "b", "c", "d", "e"))
    t_in = List(List(S5))
    term = builtin_term("coappend", List(S5))
    fot = builtin_fot("coappend", List(S5))
    v = parse_value("[[a,b],[c,d],[e]]", t_in)
    cod = infer_type(term)[1]
    got = decode_structure(apply_transduction(fot, encode_value(v, t_in)), cod)
    assert got == eval_term(term, v)
    assert got == parse_value("inl ([a,b],[[c,d],[e]])", cod)


def test_block_transduction_point_value():
    S, G = AB, FinSet(("c", "d"))
    term = builtin_term("block", S, G)
    fot = builtin_fot("block", S, G)
    dom, cod = infer_type(term)
    v = parse_value("[inl a,inl b,inr c,inr d,inl b,inr c]", dom)
    got = decode_structure(apply_transduction(fot, encode_value(v, dom)), cod)
    assert got == eval_term(term, v)
    assert got == parse_value("[inl [a,b],inr [c,d],inl [b],inr [c]]", cod)


def test_check_commutes_reports_failures():
    from listfn.terms import Compose, Reverse
    term = Compose(Reverse(AB), Reverse(AB))  # identity, not reverse
    fot = builtin_fot("reverse", AB)
    samples = list(enumerate_values(List(AB), 4))
    report = check_commutes(term, fot, samples)
    assert not report.ok
    assert report.failures
    assert report.total == len(samples)


def _pair_with_one_child() -> Structure:
    vocab = encoding_vocabulary(parse_type("{a}*{b}"))
    rels = {name: frozenset() for name in vocab}
    return Structure((0, 1), vocab, {**rels, "pare": frozenset({(0, 1)})})


@pytest.mark.parametrize("call,error,message", [
    (lambda: sat_rows(ordered_word_structure("ab"), parse_formula("Q_a(x)"), ()),
     LogicError, "free variables ['x'] not among ()"),
    (lambda: decode_structure(_pair_with_one_child(), parse_type("{a}*{b}")),
     EncodingError, "pair node 0 has 1 children in pare, not 2"),
    (lambda: builtin_term("nope"), LogicError, "unknown builtin transduction nope"),
], ids=["sat-rows-free-variable", "decode-pair-arity", "builtin-term-name"])
def test_logic_errors_name_the_fault(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value).startswith(message)
