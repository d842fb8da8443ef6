"""Combinator terms denoting functions between nested-list types.

A term is a tree of basic functions and combinators.  ``infer_type`` gives its
unique (domain, codomain); ``eval_term`` applies it to a value by the closure
``compile_term`` builds once per term object and caches on it.  Terms without
group-prefix nodes denote first-order list functions; with them, regular ones.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby
from typing import Callable

from .algebra import AlgebraError, FiniteMonoid
from .types import (
    BOT, BOT_T, FinSet, InL, InR, List, ListV, ListfnError, PairV, Prod, Sum,
    Sym, TypeExpr, Value, check_value, render_type, render_value,
)


class TermTypeError(ListfnError, TypeError):
    """Raised when a term's parts do not compose."""


class EvalError(ListfnError, RuntimeError):
    """Raised when evaluation meets a value outside the expected domain."""


class GuardViolation(EvalError):
    """Raised when an argument falls outside a guarded term's domain."""


# -------------------------------------------------------------------- terms

def _term(cls: type) -> type:
    """A frozen dataclass whose pickled state leaves out the cached closure."""
    cls.__getstate__ = lambda t: {k: v for k, v in vars(t).items() if k != "_fn"}
    return dataclass(frozen=True)(cls)


@_term
class Const:
    value: Value
    dom: TypeExpr
    cod: TypeExpr


@_term
class Proj1:
    left: TypeExpr
    right: TypeExpr


@_term
class Proj2:
    left: TypeExpr
    right: TypeExpr


@_term
class CoProjL:
    left: TypeExpr
    right: TypeExpr


@_term
class CoProjR:
    left: TypeExpr
    right: TypeExpr


@_term
class Distribute:
    """(left + right) × factor  →  (left × factor) + (right × factor)."""
    left: TypeExpr
    right: TypeExpr
    factor: TypeExpr


@_term
class Reverse:
    elem: TypeExpr


@_term
class Flat:
    """Concatenate one level of list nesting."""
    elem: TypeExpr


@_term
class Append:
    """(x0, [x1..xn]) → [x0, x1, .., xn]."""
    elem: TypeExpr


@_term
class CoAppend:
    """[x0, x1..] → inl (x0, [x1..]);  [] → inr bot."""
    elem: TypeExpr


@_term
class Block:
    """Split a list of sum values into maximal same-side runs."""
    left: TypeExpr
    right: TypeExpr


@_term
class FinSplit:
    """Retype a flat finite set as the sum of two finite sets.

    This is the bridge that lets terms case-split on finite sets, which are
    stored flat but read as iterated sums of one-element sets.
    """
    left_names: tuple[str, ...]
    right_names: tuple[str, ...]


@_term
class Compose:
    after: "Term"
    before: "Term"


@_term
class Map:
    fn: "Term"


@_term
class Pair:
    fst: "Term"
    snd: "Term"


@_term
class Union:
    """Case analysis on a sum: apply ``left`` to inl values, ``right`` to inr."""
    left: "Term"
    right: "Term"


@_term
class PrefixGroupMult:
    """[g1..gn] → [h1..hn] with hi the product of the first i elements."""
    group: FiniteMonoid

    def __post_init__(self) -> None:
        g = self.group
        e = g.index[g.identity]
        for a, row in zip(g.elements, g.table):
            if e not in row:
                raise AlgebraError(f"gprefix needs a group: no inverse for {a}")


@_term
class Guarded:
    """A term restricted to the subsets carved out by two 0/1 predicates."""
    inner: "Term"
    dom_pred: "Term"
    cod_pred: "Term"


Term = (Const | Proj1 | Proj2 | CoProjL | CoProjR | Distribute | Reverse | Flat
        | Append | CoAppend | Block | FinSplit | Compose | Map | Pair | Union
        | PrefixGroupMult | Guarded)

# Surface name of each basic whose fields are all element types.
BASICS: dict[str, type] = {
    "reverse": Reverse, "flat": Flat, "append": Append, "coappend": CoAppend,
    "block": Block, "proj1": Proj1, "proj2": Proj2, "coprojl": CoProjL,
    "coprojr": CoProjR, "dist": Distribute,
}

# Surface name of each combinator whose fields are all terms.
COMBINATORS: dict[str, type] = {
    "compose": Compose, "map": Map, "pair": Pair, "union": Union, "guard": Guarded,
}
_COMBINATOR_TYPES = frozenset(COMBINATORS.values())

BOOL_T = FinSet(("0", "1"))
TRUE = Sym("1")
FALSE = Sym("0")


def _is_bool(t: TypeExpr) -> bool:
    return isinstance(t, FinSet) and set(t.names) == {"0", "1"}


def infer_type(t: Term) -> tuple[TypeExpr, TypeExpr]:
    """Domain and codomain of ``t``; raises on the first ill-composed node."""
    if isinstance(t, Const):
        if not check_value(t.value, t.cod):
            raise TermTypeError(
                f"const value {render_value(t.value)} is not of type {render_type(t.cod)}")
        return (t.dom, t.cod)
    if isinstance(t, Proj1):
        return (Prod(t.left, t.right), t.left)
    if isinstance(t, Proj2):
        return (Prod(t.left, t.right), t.right)
    if isinstance(t, CoProjL):
        return (t.left, Sum(t.left, t.right))
    if isinstance(t, CoProjR):
        return (t.right, Sum(t.left, t.right))
    if isinstance(t, Distribute):
        return (Prod(Sum(t.left, t.right), t.factor),
                Sum(Prod(t.left, t.factor), Prod(t.right, t.factor)))
    if isinstance(t, Reverse):
        return (List(t.elem), List(t.elem))
    if isinstance(t, Flat):
        return (List(List(t.elem)), List(t.elem))
    if isinstance(t, Append):
        return (Prod(t.elem, List(t.elem)), List(t.elem))
    if isinstance(t, CoAppend):
        return (List(t.elem), Sum(Prod(t.elem, List(t.elem)), BOT_T))
    if isinstance(t, Block):
        return (List(Sum(t.left, t.right)),
                List(Sum(List(t.left), List(t.right))))
    if isinstance(t, FinSplit):
        if set(t.left_names) & set(t.right_names):
            raise TermTypeError("finite-set split with overlapping names")
        return (FinSet(t.left_names + t.right_names),
                Sum(FinSet(t.left_names), FinSet(t.right_names)))
    if isinstance(t, Compose):
        dom_b, cod_b = infer_type(t.before)
        dom_a, cod_a = infer_type(t.after)
        if cod_b != dom_a:
            raise TermTypeError(
                "composition mismatch: inner yields "
                f"{render_type(cod_b)} but outer expects {render_type(dom_a)}")
        return (dom_b, cod_a)
    if isinstance(t, Map):
        dom, cod = infer_type(t.fn)
        return (List(dom), List(cod))
    if isinstance(t, Pair):
        dom_f, cod_f = infer_type(t.fst)
        dom_g, cod_g = infer_type(t.snd)
        if dom_f != dom_g:
            raise TermTypeError(
                f"pairing mismatch: {render_type(dom_f)} vs {render_type(dom_g)}")
        return (dom_f, Prod(cod_f, cod_g))
    if isinstance(t, Union):
        dom_f, cod_f = infer_type(t.left)
        dom_g, cod_g = infer_type(t.right)
        if cod_f != cod_g:
            raise TermTypeError(
                f"union mismatch: {render_type(cod_f)} vs {render_type(cod_g)}")
        return (Sum(dom_f, dom_g), cod_f)
    if isinstance(t, PrefixGroupMult):
        carrier = List(FinSet(t.group.elements))
        return (carrier, carrier)
    if isinstance(t, Guarded):
        dom, cod = infer_type(t.inner)
        for pred, against in ((t.dom_pred, dom), (t.cod_pred, cod)):
            pdom, pcod = infer_type(pred)
            if pdom != against:
                raise TermTypeError(
                    f"guard predicate domain {render_type(pdom)} does not match "
                    f"{render_type(against)}")
            if not _is_bool(pcod):
                raise TermTypeError("guard predicate must land in {0,1}")
        return (dom, cod)
    raise TypeError(f"not a term: {t!r}")


def eval_term(t: Term, v: Value) -> Value:
    """Apply the function denoted by ``t`` to ``v``.  Recursion depth follows
    the term tree and the type nesting, never the length of any input list."""
    return compile_term(t)(v)


def compile_term(t: Term) -> Callable[[Value], Value]:
    """The function denoted by ``t`` as a closure, built once per term object
    and kept in its ``__dict__``: ``==``, ``hash`` and ``repr`` ignore it."""
    cache = getattr(t, "__dict__", {})
    if "_fn" not in cache:
        cache["_fn"] = _compile(t)
    return cache["_fn"]


def _compile(t: Term) -> Callable[[Value], Value]:
    if type(t) in _BASIC_FNS:
        return _BASIC_FNS[type(t)]
    if isinstance(t, Const):
        value = t.value
        return lambda v: value
    if isinstance(t, (FinSplit, Compose)):
        table = _split_table(t)
        if table is not None:
            def lookup(v: Value) -> Value:
                if not isinstance(v, Sym):
                    raise EvalError(f"finite-set split applied to {render_value(v)}")
                out = table.get(v.name)
                if out is None:
                    raise EvalError(f"symbol {v.name} outside split names")
                return out
            return lookup
        after, before = compile_term(t.after), compile_term(t.before)
        return lambda v: after(before(v))
    if isinstance(t, Map):
        fn = compile_term(t.fn)

        def map_fn(v: Value) -> Value:
            if not isinstance(v, ListV):
                raise EvalError(f"map applied to {render_value(v)}")
            return ListV(tuple(map(fn, v.items)))
        return map_fn
    if isinstance(t, Pair):
        fst, snd = compile_term(t.fst), compile_term(t.snd)
        return lambda v: PairV(fst(v), snd(v))
    if isinstance(t, Union):
        left, right = compile_term(t.left), compile_term(t.right)

        def union(v: Value) -> Value:
            if isinstance(v, InL):
                return left(v.value)
            if isinstance(v, InR):
                return right(v.value)
            raise EvalError(f"union applied to {render_value(v)}")
        return union
    if isinstance(t, PrefixGroupMult):
        g = t.group
        times = {(a, b): Sym(g.mult(a, b)) for a in g.elements for b in g.elements}

        def prefix(v: Value) -> Value:
            if not isinstance(v, ListV):
                raise EvalError(f"group prefix applied to {render_value(v)}")
            acc, out = Sym(g.identity), []
            for x in v.items:
                acc = times.get((acc.name, x.name)) if isinstance(x, Sym) else None
                if acc is None:
                    raise EvalError(f"group prefix applied to {render_value(v)}")
                out.append(acc)
            return ListV(tuple(out))
        return prefix
    if isinstance(t, Guarded):
        inner, dom_ok, cod_ok = map(compile_term, (t.inner, t.dom_pred, t.cod_pred))

        def guarded(v: Value) -> Value:
            if dom_ok(v) != TRUE:
                raise GuardViolation(
                    f"argument {render_value(v)} outside the guarded domain")
            result = inner(v)
            if __debug__ and cod_ok(result) != TRUE:
                raise GuardViolation(
                    f"result {render_value(result)} outside the guarded codomain")
            return result
        return guarded
    raise TypeError(f"not a term: {t!r}")


def _split_table(t: Term) -> dict[str, Value] | None:
    """Name → result of a split, or of a split tree with constant leaves as
    ``stdlib.finite_function`` builds (left names win, as in the tree)."""
    if isinstance(t, FinSplit):
        return {**{n: InR(Sym(n)) for n in t.right_names},
                **{n: InL(Sym(n)) for n in t.left_names}}
    if not (isinstance(t, Compose) and isinstance(t.after, Union)
            and isinstance(t.before, FinSplit)):
        return None
    table: dict[str, Value] = {}
    for names, branch in ((t.before.right_names, t.after.right),
                          (t.before.left_names, t.after.left)):
        sub = (dict.fromkeys(names, branch.value) if isinstance(branch, Const)
               else _split_table(branch))
        if sub is None:
            return None
        table.update((n, sub[n]) for n in names if n in sub)
    return table


def _pair(v: Value) -> PairV:
    if not isinstance(v, PairV):
        raise EvalError(f"projection applied to {render_value(v)}")
    return v


def _distribute(v: Value) -> Value:
    if not (isinstance(v, PairV) and isinstance(v.fst, (InL, InR))):
        raise EvalError(f"distribute applied to {render_value(v)}")
    return type(v.fst)(PairV(v.fst.value, v.snd))


def _reverse(v: Value) -> Value:
    if not isinstance(v, ListV):
        raise EvalError(f"reverse applied to {render_value(v)}")
    return ListV(v.items[::-1])


def _flat(v: Value) -> Value:
    if not (isinstance(v, ListV) and all(isinstance(r, ListV) for r in v.items)):
        raise EvalError(f"flat applied to {render_value(v)}")
    return ListV(tuple(chain.from_iterable([row.items for row in v.items])))


def _append(v: Value) -> Value:
    if not (isinstance(v, PairV) and isinstance(v.snd, ListV)):
        raise EvalError(f"append applied to {render_value(v)}")
    return ListV((v.fst,) + v.snd.items)


def _coappend(v: Value) -> Value:
    if not isinstance(v, ListV):
        raise EvalError(f"co-append applied to {render_value(v)}")
    return InL(PairV(v.items[0], ListV(v.items[1:]))) if v.items else InR(BOT)


def _block(v: Value) -> Value:
    if not (isinstance(v, ListV) and all(isinstance(x, (InL, InR)) for x in v.items)):
        raise EvalError(f"block applied to {render_value(v)}")
    return ListV(tuple(side(ListV(tuple(x.value for x in run)))
                       for side, run in groupby(v.items, type)))


_BASIC_FNS: dict[type, Callable[[Value], Value]] = {
    Proj1: lambda v: _pair(v).fst, Proj2: lambda v: _pair(v).snd,
    CoProjL: InL, CoProjR: InR,
    Distribute: _distribute, Reverse: _reverse, Flat: _flat, Append: _append,
    CoAppend: _coappend, Block: _block,
}


def term_children(t: Term) -> tuple[Term, ...]:
    """The terms right below ``t``: a combinator's fields; none for a basic."""
    cls = type(t)  # a dataclass's __match_args__ names its fields
    return tuple(getattr(t, n) for n in cls.__match_args__) if cls in _COMBINATOR_TYPES else ()


def subterms(t: Term):
    """Yield ``t`` and every node below it."""
    yield t
    for c in term_children(t):
        yield from subterms(c)


def is_first_order(t: Term) -> bool:
    """True unless some node is a group-prefix multiplication."""
    return not any(isinstance(s, PrefixGroupMult) for s in subterms(t))
