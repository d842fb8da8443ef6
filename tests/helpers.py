"""Shared builders and definitional oracles used across the test modules.

The oracles here restate the intended meaning of each primitive in plain
Python, independently of the evaluator, so agreement checks are two-sided.
"""
from __future__ import annotations

import itertools
import signal
from contextlib import contextmanager

from listfn.logic import (
    And,
    Eq,
    Exists,
    FOTransduction,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    Rel,
    Structure,
    eval_formula,
    parse_formula,
)
from listfn.registers import Reg
from listfn.terms import (
    Append,
    Block,
    CoAppend,
    CoProjL,
    CoProjR,
    Compose,
    Const,
    Distribute,
    FinSplit,
    Flat,
    Map,
    Pair,
    Proj1,
    Proj2,
    Reverse,
    Union,
)
from listfn.types import (
    BOT,
    FinSet,
    InL,
    InR,
    List,
    ListV,
    PairV,
    Prod,
    Sum,
    Sym,
)


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the body once ``seconds`` of wall time pass.

    Hypothesis' ``deadline`` only judges an example after it returns, so a
    parser that loops forever would stall the suite without this.
    """
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def cubic_associativity_failure(table: list[list[int]]):
    """First triple (i, j, k), in order, with (ij)k != i(jk), or None.

    The full check at every middle j, kept as the oracle for the library's
    check at the middles of a generating set only.
    """
    for i, ti in enumerate(table):
        for j, tj in enumerate(table):
            left, right = table[ti[j]], [ti[c] for c in tj]
            if left != right:
                return i, j, next(k for k, c in enumerate(left) if c != right[k])
    return None


def generated(table: list[list[int]], gens) -> set[int]:
    """Every product of one or more of ``gens``, found breadth first."""
    found = set(gens)
    layer = set(gens)
    while layer:
        layer = {table[x][g] for x in layer for g in gens} - found
        found |= layer
    return found


# a loop: a Latin square with identity "e" and inverses, where (a·a)·b = b
# but a·(a·b) = d
LOOP_ROWS = (("e", "a", "b", "c", "d"), ("a", "e", "c", "d", "b"),
             ("b", "d", "e", "a", "c"), ("c", "b", "d", "e", "a"),
             ("d", "c", "a", "b", "e"))

AB = FinSet(("a", "b"))
CD = FinSet(("c", "d"))
ABC = FinSet(("a", "b", "c"))
DE = FinSet(("d", "e"))
HASH = FinSet(("#",))

# each built-in transduction with the element types it is tested at
FOT_CASES = [("reverse", (AB,)), ("append", (AB,)), ("coappend", (AB,)),
             ("flat", (AB,)), ("block", (AB, CD)), ("ab_example", ())]

DEEP_MIX_TYPE = Prod(
    List(Sum(List(AB), FinSet(("c",)))),
    List(Prod(FinSet(("a",)), List(FinSet(("b",))))),
)


def sym_list(text: str) -> ListV:
    return ListV(tuple(Sym(c) for c in text))


def word_of(v: ListV) -> str:
    return "".join(x.name for x in v.items)


def mixed_list(text: str, left: str) -> ListV:
    """Letters in ``left`` become inl, the rest inr."""
    return ListV(tuple(
        InL(Sym(c)) if c in left else InR(Sym(c)) for c in text))


def _oracle_block(v):
    runs = []
    for x in v.items:
        side = InL if isinstance(x, InL) else InR
        if runs and runs[-1][0] is side:
            runs[-1][1].append(x.value)
        else:
            runs.append([side, [x.value]])
    return ListV(tuple(side(ListV(tuple(items))) for side, items in runs))


def _oracle_coappend(v):
    if not v.items:
        return InR(BOT)
    return InL(PairV(v.items[0], ListV(v.items[1:])))


def _oracle_distribute(v):
    side = InL if isinstance(v.fst, InL) else InR
    return side(PairV(v.fst.value, v.snd))


# label, term, independent semantics. Domains come from infer_type.
BASICS = [
    ("const", Const(Sym("c"), List(AB), CD), lambda v: Sym("c")),
    ("proj1", Proj1(AB, CD), lambda v: v.fst),
    ("proj2", Proj2(AB, CD), lambda v: v.snd),
    ("coprojl", CoProjL(AB, CD), InL),
    ("coprojr", CoProjR(AB, CD), InR),
    ("distribute", Distribute(AB, CD, List(AB)), _oracle_distribute),
    ("reverse", Reverse(AB), lambda v: ListV(v.items[::-1])),
    ("flat", Flat(AB),
     lambda v: ListV(tuple(x for row in v.items for x in row.items))),
    ("append", Append(AB), lambda v: ListV((v.fst,) + v.snd.items)),
    ("coappend", CoAppend(AB), _oracle_coappend),
    ("block", Block(AB, CD), _oracle_block),
    ("finsplit", FinSplit(("a",), ("b",)),
     lambda v: InL(v) if v.name == "a" else InR(v)),
    ("map-reverse", Map(Reverse(AB)),
     lambda v: ListV(tuple(ListV(x.items[::-1]) for x in v.items))),
    ("pair-swap", Pair(Proj2(AB, CD), Proj1(AB, CD)),
     lambda v: PairV(v.snd, v.fst)),
    ("union-reverse-id", Union(Reverse(AB), Flat(AB)),
     lambda v: ListV(v.value.items[::-1]) if isinstance(v, InL)
     else ListV(tuple(x for row in v.value.items for x in row.items))),
    ("compose-rev-rev", Compose(Reverse(AB), Reverse(AB)), lambda v: v),
]


def is_nonduplicating(eta) -> bool:
    """No register is read twice across the update's right-hand sides."""
    seen = set()
    for rhs in eta:
        for item in rhs:
            if isinstance(item, Reg):
                if item.index in seen:
                    return False
                seen.add(item.index)
    return True


def is_monotone(eta) -> bool:
    """Register reads strictly increase across the concatenated sides."""
    last = 0
    for rhs in eta:
        for item in rhs:
            if isinstance(item, Reg):
                if item.index <= last:
                    return False
                last = item.index
    return True


def with_definitions(t, s):
    """``s`` extended by each of ``t``'s definitions, in order: the relation
    of the tuples where ``eval_formula`` finds its formula true."""
    for name, args, phi in t.definitions:
        rows = frozenset(us for us in itertools.product(s.universe, repeat=len(args))
                         if eval_formula(s, phi, dict(zip(args, us))))
        s = Structure(s.universe, {**s.vocabulary, name: len(args)},
                      {**s.relations, name: rows})
    return s


def apply_transduction_by_definition(t, s):
    """The output of the transduction ``t`` on ``s``, formula by formula.

    ``s`` is first extended by ``t``'s definitions (``with_definitions``).
    (i, u) is kept where copy i's universe formula holds at u, and gets id
    (i-1)*n + the position of u. A row of copies ``key`` is in a relation
    where its formula holds, among kept elements only. ``eval_formula``
    decides every formula at every tuple; no planner is involved.
    """
    s = with_definitions(t, s)
    n = len(s.universe)
    kept = {(i, u): (i - 1) * n + p
            for i, phi in t.universe.items()
            for p, u in enumerate(s.universe) if eval_formula(s, phi, {"x": u})}
    rels = {
        name: frozenset(
            tuple(kept[i, u] for i, u in zip(key, us))
            for key, phi in table.items()
            for us in itertools.product(s.universe, repeat=len(order))
            if all((i, u) in kept for i, u in zip(key, us))
            and eval_formula(s, phi, dict(zip(order, us))))
        for name, (order, table) in t.relations.items()}
    return Structure(tuple(sorted(kept.values())), dict(t.output_vocab), rels)


def inline_definitions(t):
    """``t`` without definitions: each relation a definition names is replaced
    by the definition's formula, on the relation's arguments, wherever it is
    read; every quantified variable is renamed fresh, so none is captured."""
    defs = {name: (args, phi) for name, args, phi in t.definitions}
    fresh = (f"v#{i}" for i in itertools.count())  # "#" is in no built-in's names

    def inline(phi, env):
        if isinstance(phi, Rel):
            args = tuple(env.get(v, v) for v in phi.args)
            if phi.name in defs:
                params, body = defs[phi.name]
                return inline(body, dict(zip(params, args)))
            return Rel(phi.name, args)
        if isinstance(phi, Eq):
            return Eq(env.get(phi.left, phi.left), env.get(phi.right, phi.right))
        if isinstance(phi, Not):
            return Not(inline(phi.body, env))
        if isinstance(phi, (And, Or)):
            return type(phi)(tuple(inline(p, env) for p in phi.parts))
        if isinstance(phi, (Implies, Iff)):
            return type(phi)(inline(phi.left, env), inline(phi.right, env))
        if isinstance(phi, (Exists, Forall)):
            var = next(fresh)
            return type(phi)(var, inline(phi.body, {**env, phi.var: var}))
        return phi  # true, false

    return FOTransduction(
        t.k, t.input_vocab, t.output_vocab,
        {i: inline(phi, {}) for i, phi in t.universe.items()},
        {name: (order, {key: inline(phi, {}) for key, phi in table.items()})
         for name, (order, table) in t.relations.items()})


# Word structures: positions with a successor S, a strict linear order lt and
# letter tests Q_a, Q_b.  The planner tests use them as formula fixtures whose
# lt is a linear order; no built-in transduction reads this vocabulary.
WORD_VOCAB = {"S": 2, "lt": 2, "Q_a": 1, "Q_b": 1}


def ordered_word_structure(word: str) -> Structure:
    """Positions 0..n-1 of a word over {a, b}, in the word vocabulary."""
    n = len(word)
    rels = {
        "S": frozenset((i, i + 1) for i in range(n - 1)),
        "lt": frozenset((i, j) for i in range(n) for j in range(i + 1, n)),
        **{f"Q_{c}": frozenset((i,) for i in range(n) if word[i] == c) for c in "ab"},
    }
    return Structure(tuple(range(n)), dict(WORD_VOCAB), rels)


def word_sort_fot() -> FOTransduction:
    """Two copies over word structures: copy 1 keeps the a positions, copy 2
    the b positions, and every a comes before every b."""
    next_same = "lt(x,y) & !E z. lt(x,z) & lt(z,y) & Q_{}(z)"
    last_a_first_b = ("(Q_a(x) & A z. lt(x,z) -> !Q_a(z))"
                      " & (Q_b(y) & A z. lt(z,y) -> !Q_b(z))")
    true, false, lt = parse_formula("true"), parse_formula("false"), parse_formula("lt(x,y)")
    relations = {
        "S": (("x", "y"), {(1, 1): parse_formula(next_same.format("a")),
                           (2, 2): parse_formula(next_same.format("b")),
                           (1, 2): parse_formula(last_a_first_b), (2, 1): false}),
        "lt": (("x", "y"), {(1, 1): lt, (2, 2): lt, (1, 2): true, (2, 1): false}),
        "Q_a": (("x",), {(1,): true}),
        "Q_b": (("x",), {(2,): true}),
    }
    universe = {1: parse_formula("Q_a(x)"), 2: parse_formula("Q_b(x)")}
    return FOTransduction(2, WORD_VOCAB, WORD_VOCAB, universe, relations)
