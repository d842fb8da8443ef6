"""Derived list functions assembled from the basic combinators.

Every constructor here returns a genuine term; the catalog at the bottom pairs
each constructor with an independent reference semantics used by the tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .terms import (
    BOOL_T, FALSE, TRUE, Append, Block, CoAppend, CoProjL, CoProjR, Compose,
    Const, Distribute, FinSplit, Flat, Map, Pair, Proj1, Proj2, Reverse, Term,
    TermTypeError, Union, eval_term, infer_type,
)
from .types import (
    BOT, BOT_T, MAX_NESTING, Atom, Bot, FinSet, InL, InR, List, ListV, PairV,
    ParseError, Prod, Sum, Sym, TypeExpr, Value, default_value, parse_type,
    parse_value,
)

MARK = Atom("mark")


def chain(*steps: Term) -> Term:
    """Compose left to right: chain(f, g) applies f first.  The compositions
    form a balanced tree, about log2(len(steps)) deep."""
    if len(steps) == 1:
        return steps[0]
    half = len(steps) // 2
    return Compose(chain(*steps[half:]), chain(*steps[:half]))


def identity(t: TypeExpr) -> Term:
    if isinstance(t, Atom):
        return Const(Sym(t.name), t, t)
    if isinstance(t, FinSet):
        return finite_function(t, {n: Sym(n) for n in t.names}, t)
    if isinstance(t, Bot):
        return Const(BOT, t, t)
    if isinstance(t, Sum):
        return Union(CoProjL(t.left, t.right), CoProjR(t.left, t.right))
    if isinstance(t, Prod):
        return Pair(Proj1(t.left, t.right), Proj2(t.left, t.right))
    if isinstance(t, List):
        return Map(identity(t.elem))
    raise TypeError(f"not a type expression: {t!r}")


def finite_function(dom: FinSet, table: Mapping[str, Value], cod: TypeExpr) -> Term:
    """Any function out of a finite set, as a split-and-constants term.

    Splits the domain in halves so lookup cost grows with log of its size.
    """
    missing = [n for n in dom.names if n not in table]
    if missing:
        raise TermTypeError(f"table misses {missing} from its domain")
    if len(dom.names) == 1:
        name = dom.names[0]
        return Const(table[name], dom, cod)
    half = len(dom.names) // 2
    left, right = dom.names[:half], dom.names[half:]
    branch = Union(finite_function(FinSet(left), table, cod),
                   finite_function(FinSet(right), table, cod))
    return Compose(branch, FinSplit(left, right))


def unit(t: TypeExpr) -> Term:
    """x → [x]."""
    return Compose(Append(t), Pair(identity(t), Const(ListV(()), t, List(t))))


def head(t: TypeExpr) -> Term:
    return Compose(
        Union(Compose(CoProjL(t, BOT_T), Proj1(t, List(t))), CoProjR(t, BOT_T)),
        CoAppend(t))


def tail(t: TypeExpr) -> Term:
    return Compose(
        Union(Compose(CoProjL(List(t), BOT_T), Proj2(t, List(t))),
              CoProjR(List(t), BOT_T)),
        CoAppend(t))


def last(t: TypeExpr) -> Term:
    return Compose(head(t), Reverse(t))


def tail_total(t: TypeExpr) -> Term:
    """Drop the first element; the empty list stays empty."""
    return Compose(
        Union(Proj2(t, List(t)), Const(ListV(()), BOT_T, List(t))),
        CoAppend(t))


def drop_last(t: TypeExpr) -> Term:
    return chain(Reverse(t), tail_total(t), Reverse(t))


def head_or(t: TypeExpr, c: Value) -> Term:
    """First element, or the constant ``c`` on the empty list."""
    return Compose(
        Union(Proj1(t, List(t)), Const(c, BOT_T, t)),
        CoAppend(t))


def len_upto(n: int, t: TypeExpr) -> Term:
    """Length of a list, capped at ``n``, as an element of {0..n}.

    The state is the rest of the list, split by coappend, or the length once
    known.  Step i (from 0) drops one element, or records length i when none
    is left; ``chain`` keeps the term about log n deep.
    """
    if n < 0:
        raise TermTypeError("cap must be at least 0")
    cod = FinSet(tuple(str(i) for i in range(n + 1)))
    rest = Sum(Prod(t, List(t)), BOT_T)
    drop = Compose(CoProjL(rest, cod), CoAppend(t))
    ends = [Const(InR(Sym(str(i))), BOT_T, Sum(rest, cod)) for i in range(n)]
    steps = [Union(Union(Compose(drop, Proj2(t, List(t))), end), CoProjR(rest, cod))
             for end in ends]
    return chain(drop, *steps, Union(Const(Sym(str(n)), rest, cod), identity(cod)))


def filter_left(sl: TypeExpr, sr: TypeExpr) -> Term:
    """Keep the left summands of a list of sum values."""
    return Compose(
        Flat(sl),
        Map(Union(unit(sl), Const(ListV(()), sr, List(sl)))))


def filter_right(sl: TypeExpr, sr: TypeExpr) -> Term:
    return Compose(
        Flat(sr),
        Map(Union(Const(ListV(()), sl, List(sr)), unit(sr))))


def _prepend(t: TypeExpr, c: Value) -> Term:
    return Compose(Append(t), Pair(Const(c, List(t), t), identity(List(t))))


def comma(sigma: TypeExpr, gamma: TypeExpr) -> Term:
    """Split a list at its gamma separators into n+1 sigma groups.

    The word is fenced with marker elements before the run decomposition, so
    separator-initial and separator-final inputs still produce their boundary
    groups; the markers are stripped from the first and last group at the end.
    """
    sm = Sum(MARK, sigma)
    e = Sum(sm, gamma)
    lsm, lg = List(sm), List(gamma)
    llsm = List(lsm)
    mark_e = InL(InL(Sym(MARK.name)))

    embed = Map(Union(Compose(CoProjL(sm, gamma), CoProjR(MARK, sigma)),
                      CoProjR(sm, gamma)))
    fence = chain(_prepend(e, mark_e),
                  Reverse(e), _prepend(e, mark_e), Reverse(e))
    drop_sep = Map(Union(CoProjL(lsm, lg),
                         Compose(CoProjR(lsm, lg), tail_total(gamma))))
    group_runs = Map(Union(Compose(CoProjL(llsm, lg), unit(lsm)),
                           CoProjR(llsm, lg)))
    explode_seps = Map(Union(CoProjL(llsm, List(lg)),
                             Compose(CoProjR(llsm, List(lg)), Map(unit(gamma)))))
    seps_to_empties = Map(Union(identity(llsm),
                                Map(Const(ListV(()), lg, lsm))))

    def fix_first(inner: Term) -> Term:
        on_pair = Compose(
            Append(lsm),
            Pair(Compose(inner, Proj1(lsm, llsm)), Proj2(lsm, llsm)))
        return Compose(
            Union(on_pair, Const(ListV(()), BOT_T, llsm)), CoAppend(lsm))

    strip_front = fix_first(tail_total(sm))
    strip_back = chain(Reverse(lsm),
                       fix_first(chain(Reverse(sm), tail_total(sm), Reverse(sm))),
                       Reverse(lsm))
    unmark = Map(filter_right(MARK, sigma))

    return chain(embed, fence, Block(sm, gamma), drop_sep, group_runs,
                 explode_seps, seps_to_empties, Flat(lsm),
                 strip_front, strip_back, unmark)


def pair_to_list(t: TypeExpr) -> Term:
    """(x, y) → [x, y]."""
    return Compose(Append(t), Pair(Proj1(t, t), Compose(unit(t), Proj2(t, t))))


def list_to_pair(t: TypeExpr, c: Value) -> Term:
    """First two elements as a pair, padded with ``c`` on short lists."""
    on_pair = Pair(Proj1(t, List(t)),
                   Compose(head_or(t, c), Proj2(t, List(t))))
    return Compose(
        Union(on_pair, Const(PairV(c, c), BOT_T, Prod(t, t))),
        CoAppend(t))


def concat(t: TypeExpr) -> Term:
    """Concatenate a pair of lists."""
    return Compose(Flat(t), pair_to_list(List(t)))


def tuple_type(k: int, t: TypeExpr) -> TypeExpr:
    """k-tuples as right-nested pairs; a 1-tuple is the type itself."""
    return t if k == 1 else Prod(t, tuple_type(k - 1, t))


def _windows2(t: TypeExpr) -> Term:
    sh = Sum(t, MARK)
    inj = CoProjL(t, MARK)
    sep = Const(InR(Sym(MARK.name)), t, sh)
    triple = Compose(
        Append(sh),
        Pair(inj, Compose(Append(sh), Pair(sep, Compose(unit(sh), inj)))))
    return chain(Map(triple), Flat(sh), comma(t, MARK),
                 tail_total(List(t)), drop_last(List(t)),
                 Map(list_to_pair(t, default_value(t))))


def windows(k: int, t: TypeExpr) -> Term:
    """Sliding windows of width k, each window a right-nested k-tuple.  Step j
    glues pairs of (j-1)-windows into j-windows; ``chain`` keeps the term
    about log k deep."""
    if k < 2:
        raise TermTypeError("window width must be at least 2")
    steps = [_windows2(t)]
    for j in range(3, k + 1):
        prev_t = tuple_type(j - 1, t)
        first = Compose(Proj1(t, tuple_type(j - 2, t)), Proj1(prev_t, prev_t))
        steps += [_windows2(prev_t), Map(Pair(first, Proj2(prev_t, prev_t)))]
    return chain(*steps)


def if_then_else(f: Term, g0: Term, g1: Term) -> Term:
    """x → g0(x) when f(x)=0, g1(x) when f(x)=1."""
    dom, fcod = infer_type(f)
    if fcod != BOOL_T:
        raise TermTypeError("condition must land in {0,1}")
    dom0, cod0 = infer_type(g0)
    dom1, cod1 = infer_type(g1)
    if dom0 != dom or dom1 != dom:
        raise TermTypeError("branches must consume the condition's domain")
    if cod0 != cod1:
        raise TermTypeError("branches must share a codomain")
    zero, one = FinSet(("0",)), FinSet(("1",))
    split = FinSplit(("0",), ("1",))
    return chain(
        Pair(Compose(split, f), identity(dom)),
        Distribute(zero, one, dom),
        Union(Compose(g0, Proj2(zero, dom)), Compose(g1, Proj2(one, dom))))


def lift_plus(f: Term) -> Term:
    """Lift f elementwise over nonempty lists presented as head × tail."""
    dom, _ = infer_type(f)
    return Pair(Compose(f, Proj1(dom, List(dom))),
                Compose(Map(f), Proj2(dom, List(dom))))


def is_nonempty(t: TypeExpr) -> Term:
    """{0,1}-valued emptiness test for lists."""
    return Compose(
        Union(Const(TRUE, Prod(t, List(t)), BOOL_T), Const(FALSE, BOT_T, BOOL_T)),
        CoAppend(t))


# ------------------------------------------------------------------ oracles

def _oracle_identity(t):
    return lambda v: v


def _oracle_unit(t):
    return lambda v: ListV((v,))


def _oracle_finite_function(dom, table, cod):
    return lambda v: table[v.name]


def _oracle_head(t):
    return lambda v: InL(v.items[0]) if v.items else InR(BOT)


def _oracle_tail(t):
    return lambda v: InL(ListV(v.items[1:])) if v.items else InR(BOT)


def _oracle_last(t):
    return lambda v: InL(v.items[-1]) if v.items else InR(BOT)


def _oracle_len_upto(n, t):
    return lambda v: Sym(str(min(len(v.items), n)))


def _oracle_filter_left(sl, sr):
    return lambda v: ListV(tuple(x.value for x in v.items if isinstance(x, InL)))


def _oracle_filter_right(sl, sr):
    return lambda v: ListV(tuple(x.value for x in v.items if isinstance(x, InR)))


def comma_groups(v: ListV) -> ListV:
    """Reference splitting: n separators give n+1 groups."""
    groups: list[list[Value]] = [[]]
    for x in v.items:
        if isinstance(x, InR):
            groups.append([])
        else:
            groups[-1].append(x.value)
    return ListV(tuple(ListV(tuple(g)) for g in groups))


def _oracle_comma(sigma, gamma):
    return comma_groups


def _oracle_pair_to_list(t):
    return lambda v: ListV((v.fst, v.snd))


def _oracle_list_to_pair(t, c):
    def run(v: Value) -> Value:
        xs = v.items
        if not xs:
            return PairV(c, c)
        if len(xs) == 1:
            return PairV(xs[0], c)
        return PairV(xs[0], xs[1])
    return run


def _oracle_concat(t):
    return lambda v: ListV(v.fst.items + v.snd.items)


def _nest(xs: tuple[Value, ...]) -> Value:
    return xs[0] if len(xs) == 1 else PairV(xs[0], _nest(xs[1:]))


def _oracle_windows(k, t):
    def run(v: Value) -> Value:
        xs = v.items
        return ListV(tuple(_nest(xs[i:i + k]) for i in range(len(xs) - k + 1)))
    return run


def _oracle_if_then_else(f, g0, g1):
    def run(v: Value) -> Value:
        return eval_term(g1 if eval_term(f, v) == TRUE else g0, v)
    return run


def _oracle_lift_plus(f):
    def run(v: Value) -> Value:
        return PairV(eval_term(f, v.fst),
                     ListV(tuple(eval_term(f, x) for x in v.snd.items)))
    return run


def _oracle_is_nonempty(t):
    return lambda v: TRUE if v.items else FALSE


# ------------------------------------------------------------------ catalog

@dataclass(frozen=True)
class CatalogEntry:
    """A derived constructor, its reference semantics and test instantiations."""
    name: str
    build: Callable[..., Term]
    oracle: Callable[..., Callable[[Value], Value]]
    instances: tuple[tuple, ...]
    cli_args: tuple[str, ...] | None = None


_AB = FinSet(("a", "b"))
_CD = FinSet(("c", "d"))
_HASH = FinSet(("#",))

CATALOG: dict[str, CatalogEntry] = {}


def _register(entry: CatalogEntry) -> None:
    CATALOG[entry.name] = entry


_register(CatalogEntry("identity", identity, _oracle_identity,
                       ((_AB,), (List(_AB),), (Prod(_AB, _CD),)), ("type",)))
_register(CatalogEntry("unit", unit, _oracle_unit, ((_AB,), (List(_AB),)),
                       ("type",)))
_register(CatalogEntry(
    "finite_function", finite_function, _oracle_finite_function,
    ((_AB, {"a": Sym("c"), "b": Sym("d")}, _CD),
     (_AB, {"a": InR(Sym("d")), "b": InL(Sym("a"))}, Sum(_AB, _CD)))))
_register(CatalogEntry("head", head, _oracle_head, ((_AB,), (List(_AB),)),
                       ("type",)))
_register(CatalogEntry("tail", tail, _oracle_tail, ((_AB,),), ("type",)))
_register(CatalogEntry("last", last, _oracle_last, ((_AB,), (List(_AB),)),
                       ("type",)))
_register(CatalogEntry("len_upto", len_upto, _oracle_len_upto,
                       ((0, _AB), (2, _AB), (3, _AB)), ("nat", "type")))
_register(CatalogEntry("filter_left", filter_left, _oracle_filter_left,
                       ((_AB, _CD),), ("type", "type")))
_register(CatalogEntry("filter_right", filter_right, _oracle_filter_right,
                       ((_AB, _CD),), ("type", "type")))
_register(CatalogEntry("comma", comma, _oracle_comma,
                       ((_AB, _HASH), (_AB, _CD)), ("type", "type")))
_register(CatalogEntry("pair_to_list", pair_to_list, _oracle_pair_to_list,
                       ((_AB,),), ("type",)))
_register(CatalogEntry("list_to_pair", list_to_pair, _oracle_list_to_pair,
                       ((_AB, Sym("a")),), ("type", "value")))
_register(CatalogEntry("concat", concat, _oracle_concat, ((_AB,),), ("type",)))
_register(CatalogEntry("windows", windows, _oracle_windows,
                       ((2, _AB), (3, _AB), (4, _AB)), ("nat", "type")))
_register(CatalogEntry(
    "if_then_else", if_then_else, _oracle_if_then_else,
    ((is_nonempty(_AB), Const(Sym("e"), List(_AB), FinSet(("e", "n"))),
      Const(Sym("n"), List(_AB), FinSet(("e", "n")))),
     (is_nonempty(_AB), Const(ListV(()), List(_AB), List(_AB)), Reverse(_AB)))))
_register(CatalogEntry(
    "lift_plus", lift_plus, _oracle_lift_plus,
    ((finite_function(_AB, {"a": Sym("c"), "b": Sym("d")}, _CD),),)))
_register(CatalogEntry("is_nonempty", is_nonempty, _oracle_is_nonempty,
                       ((_AB,),), ("type",)))


def catalog_term(name: str, arg_texts: list[str]) -> Term:
    """Instantiate a catalog entry from textual arguments (CLI use)."""
    if name not in CATALOG:
        raise TermTypeError(f"unknown catalog entry {name!r}")
    entry = CATALOG[name]
    if entry.cli_args is None:
        raise TermTypeError(f"catalog entry {name!r} is not text-constructible")
    if len(arg_texts) != len(entry.cli_args):
        raise TermTypeError(
            f"{name} expects {len(entry.cli_args)} argument(s), got {len(arg_texts)}")
    args: list = []
    for kind, text in zip(entry.cli_args, arg_texts):
        if kind == "nat":
            try:
                n = int(text)
            except ValueError:
                raise ParseError(f"{name} expects a number, got {text!r}") from None
            if n > MAX_NESTING:
                raise TermTypeError(f"{name} takes numbers up to {MAX_NESTING}, got {n}")
            args.append(n)
        elif kind == "type":
            args.append(parse_type(text))
        elif kind == "value":
            prev = args[-1]
            args.append(parse_value(text, prev if isinstance(prev, TypeExpr) else None))
        else:  # pragma: no cover
            raise AssertionError(kind)
    return entry.build(*args)
