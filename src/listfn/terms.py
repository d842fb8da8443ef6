"""Combinator terms denoting functions between nested-list types.

A term is a tree of basic functions and combinators.  ``infer_type`` gives its
unique (domain, codomain); ``eval_term`` applies it to a value.  Terms without
group-prefix nodes denote first-order list functions; with them, regular ones.
"""
from __future__ import annotations

from dataclasses import dataclass

from .types import (
    BOT, BOT_T, FinSet, InL, InR, List, ListV, PairV, Prod, Sum, Sym,
    TypeExpr, Value, check_value, render_type, render_value,
)


class TermTypeError(TypeError):
    """Raised when a term's parts do not compose."""


class EvalError(RuntimeError):
    """Raised when evaluation meets a value outside the expected domain."""


class GuardViolation(EvalError):
    """Raised when an argument falls outside a guarded term's domain."""


# ------------------------------------------------------------------- groups

@dataclass(frozen=True)
class GroupSpec:
    """Finite group given by name list and row-major multiplication table."""
    elements: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    identity: str

    def __post_init__(self) -> None:
        els = self.elements
        if len(set(els)) != len(els) or not els:
            raise ValueError("group elements must be distinct and nonempty")
        if len(self.rows) != len(els) or any(len(r) != len(els) for r in self.rows):
            raise ValueError("multiplication table must be square")
        if any(x not in els for r in self.rows for x in r):
            raise ValueError("table entry outside the element list")
        if self.identity not in els:
            raise ValueError("identity not among the elements")
        for a in els:
            if self.mult(self.identity, a) != a or self.mult(a, self.identity) != a:
                raise ValueError(f"identity law fails at {a}")
            if all(self.mult(a, b) != self.identity for b in els):
                raise ValueError(f"no inverse for {a}")
        for a in els:
            for b in els:
                for c in els:
                    if self.mult(self.mult(a, b), c) != self.mult(a, self.mult(b, c)):
                        raise ValueError(f"associativity fails at ({a},{b},{c})")

    def mult(self, a: str, b: str) -> str:
        return self.rows[self.elements.index(a)][self.elements.index(b)]

    @property
    def carrier(self) -> FinSet:
        return FinSet(self.elements)


# -------------------------------------------------------------------- terms

@dataclass(frozen=True)
class Const:
    value: Value
    dom: TypeExpr
    cod: TypeExpr


@dataclass(frozen=True)
class Proj1:
    left: TypeExpr
    right: TypeExpr


@dataclass(frozen=True)
class Proj2:
    left: TypeExpr
    right: TypeExpr


@dataclass(frozen=True)
class CoProjL:
    left: TypeExpr
    right: TypeExpr


@dataclass(frozen=True)
class CoProjR:
    left: TypeExpr
    right: TypeExpr


@dataclass(frozen=True)
class Distribute:
    """(left + right) × factor  →  (left × factor) + (right × factor)."""
    left: TypeExpr
    right: TypeExpr
    factor: TypeExpr


@dataclass(frozen=True)
class Reverse:
    elem: TypeExpr


@dataclass(frozen=True)
class Flat:
    """Concatenate one level of list nesting."""
    elem: TypeExpr


@dataclass(frozen=True)
class Append:
    """(x0, [x1..xn]) → [x0, x1, .., xn]."""
    elem: TypeExpr


@dataclass(frozen=True)
class CoAppend:
    """[x0, x1..] → inl (x0, [x1..]);  [] → inr bot."""
    elem: TypeExpr


@dataclass(frozen=True)
class Block:
    """Split a list of sum values into maximal same-side runs."""
    left: TypeExpr
    right: TypeExpr


@dataclass(frozen=True)
class FinSplit:
    """Retype a flat finite set as the sum of two finite sets.

    This is the bridge that lets terms case-split on finite sets, which are
    stored flat but read as iterated sums of one-element sets.
    """
    left_names: tuple[str, ...]
    right_names: tuple[str, ...]


@dataclass(frozen=True)
class Compose:
    after: "Term"
    before: "Term"


@dataclass(frozen=True)
class Map:
    fn: "Term"


@dataclass(frozen=True)
class Pair:
    fst: "Term"
    snd: "Term"


@dataclass(frozen=True)
class Union:
    """Case analysis on a sum: apply ``left`` to inl values, ``right`` to inr."""
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class PrefixGroupMult:
    """[g1..gn] → [h1..hn] with hi the product of the first i elements."""
    group: GroupSpec


@dataclass(frozen=True)
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
        carrier = List(t.group.carrier)
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
    """Apply the function denoted by ``t`` to ``v``.

    Recursion depth follows the term tree and the type nesting, never the
    length of any list in the input.
    """
    if isinstance(t, Const):
        return t.value
    if isinstance(t, Proj1):
        if not isinstance(v, PairV):
            raise EvalError(f"projection applied to {render_value(v)}")
        return v.fst
    if isinstance(t, Proj2):
        if not isinstance(v, PairV):
            raise EvalError(f"projection applied to {render_value(v)}")
        return v.snd
    if isinstance(t, CoProjL):
        return InL(v)
    if isinstance(t, CoProjR):
        return InR(v)
    if isinstance(t, Distribute):
        if isinstance(v, PairV) and isinstance(v.fst, InL):
            return InL(PairV(v.fst.value, v.snd))
        if isinstance(v, PairV) and isinstance(v.fst, InR):
            return InR(PairV(v.fst.value, v.snd))
        raise EvalError(f"distribute applied to {render_value(v)}")
    if isinstance(t, Reverse):
        if not isinstance(v, ListV):
            raise EvalError(f"reverse applied to {render_value(v)}")
        return ListV(v.items[::-1])
    if isinstance(t, Flat):
        if not isinstance(v, ListV):
            raise EvalError(f"flat applied to {render_value(v)}")
        out: list[Value] = []
        for row in v.items:
            if not isinstance(row, ListV):
                raise EvalError(f"flat applied to {render_value(v)}")
            out.extend(row.items)
        return ListV(tuple(out))
    if isinstance(t, Append):
        if not (isinstance(v, PairV) and isinstance(v.snd, ListV)):
            raise EvalError(f"append applied to {render_value(v)}")
        return ListV((v.fst,) + v.snd.items)
    if isinstance(t, CoAppend):
        if not isinstance(v, ListV):
            raise EvalError(f"co-append applied to {render_value(v)}")
        if not v.items:
            return InR(BOT)
        return InL(PairV(v.items[0], ListV(v.items[1:])))
    if isinstance(t, Block):
        return _eval_block(v)
    if isinstance(t, FinSplit):
        if not isinstance(v, Sym):
            raise EvalError(f"finite-set split applied to {render_value(v)}")
        if v.name in t.left_names:
            return InL(v)
        if v.name in t.right_names:
            return InR(v)
        raise EvalError(f"symbol {v.name} outside split names")
    if isinstance(t, Compose):
        return eval_term(t.after, eval_term(t.before, v))
    if isinstance(t, Map):
        if not isinstance(v, ListV):
            raise EvalError(f"map applied to {render_value(v)}")
        return ListV(tuple(eval_term(t.fn, x) for x in v.items))
    if isinstance(t, Pair):
        return PairV(eval_term(t.fst, v), eval_term(t.snd, v))
    if isinstance(t, Union):
        if isinstance(v, InL):
            return eval_term(t.left, v.value)
        if isinstance(v, InR):
            return eval_term(t.right, v.value)
        raise EvalError(f"union applied to {render_value(v)}")
    if isinstance(t, PrefixGroupMult):
        if not isinstance(v, ListV):
            raise EvalError(f"group prefix applied to {render_value(v)}")
        acc = t.group.identity
        out = []
        for x in v.items:
            if not isinstance(x, Sym):
                raise EvalError(f"group prefix applied to {render_value(v)}")
            acc = t.group.mult(acc, x.name)
            out.append(Sym(acc))
        return ListV(tuple(out))
    if isinstance(t, Guarded):
        if eval_term(t.dom_pred, v) != TRUE:
            raise GuardViolation(
                f"argument {render_value(v)} outside the guarded domain")
        result = eval_term(t.inner, v)
        if __debug__ and eval_term(t.cod_pred, result) != TRUE:
            raise GuardViolation(
                f"result {render_value(result)} outside the guarded codomain")
        return result
    raise TypeError(f"not a term: {t!r}")


def _eval_block(v: Value) -> Value:
    if not isinstance(v, ListV):
        raise EvalError(f"block applied to {render_value(v)}")
    runs: list[Value] = []
    side: type | None = None
    current: list[Value] = []

    def close() -> None:
        if side is InL:
            runs.append(InL(ListV(tuple(current))))
        elif side is InR:
            runs.append(InR(ListV(tuple(current))))

    for x in v.items:
        if not isinstance(x, (InL, InR)):
            raise EvalError(f"block applied to {render_value(v)}")
        if type(x) is not side:
            close()
            side = type(x)
            current = []
        current.append(x.value)
    close()
    return ListV(tuple(runs))


def subterms(t: Term):
    """Yield ``t`` and every node below it."""
    yield t
    if isinstance(t, Compose):
        yield from subterms(t.after)
        yield from subterms(t.before)
    elif isinstance(t, Map):
        yield from subterms(t.fn)
    elif isinstance(t, Pair):
        yield from subterms(t.fst)
        yield from subterms(t.snd)
    elif isinstance(t, Union):
        yield from subterms(t.left)
        yield from subterms(t.right)
    elif isinstance(t, Guarded):
        yield from subterms(t.inner)
        yield from subterms(t.dom_pred)
        yield from subterms(t.cod_pred)


def is_first_order(t: Term) -> bool:
    """True unless some node is a group-prefix multiplication."""
    return not any(isinstance(s, PrefixGroupMult) for s in subterms(t))
