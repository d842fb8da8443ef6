"""Nested-list types and their values.

Types are built from one-element sets (atoms), finite sets, sums, products,
lists and an empty type.  Values are checked against types structurally, and
both have a text syntax.
One token cursor, ``_Cursor``, serves four recursive-descent parsers: the
type and value parsers here, the term parser in ``syntax`` and the formula
parser in ``logic``.  It also keeps their one nesting limit, ``MAX_NESTING``.
``ListfnError``, defined here, is the root of every error class in the package.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, is_dataclass
from functools import lru_cache
from typing import Iterator


class ListfnError(Exception):
    """Root of the library's errors; each also keeps a builtin base."""


class ParseError(ListfnError, ValueError):
    """Raised on malformed type, value, term or formula text."""


class NestingError(ParseError):
    """Raised on text nested more than ``MAX_NESTING`` levels deep."""


# Type and value brackets, inl/inr tags, a type's `^*`, `+` and `×`, a
# formula's parentheses, negations, quantifiers, `->` and `<->`, and a term's
# combinator forms each nest a level.  The cap bounds the parsers' recursion,
# the height of what they build (``_Cursor.max_height``) and the size of
# catalog terms built from a number.
MAX_NESTING = 100


class TypeMismatch(ListfnError, TypeError):
    """Raised when a value does not inhabit the expected type."""


class EncodingError(ListfnError, ValueError):
    """Raised when a structure is not a valid encoding at the given type."""


# ---------------------------------------------------------------- type exprs

@dataclass(frozen=True)
class Atom:
    """One-element set; its single value is the symbol of the same name."""
    name: str


@dataclass(frozen=True)
class FinSet:
    """Finite set of named symbols, kept flat rather than as nested sums."""
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise ParseError("finite set needs at least one name")
        if len(set(self.names)) != len(self.names):
            raise ParseError("finite set names must be distinct")


@dataclass(frozen=True)
class Sum:
    left: "TypeExpr"
    right: "TypeExpr"


@dataclass(frozen=True)
class Prod:
    left: "TypeExpr"
    right: "TypeExpr"


@dataclass(frozen=True)
class List:
    elem: "TypeExpr"


@dataclass(frozen=True)
class Bot:
    """Empty type; inhabited only by the error value."""


TypeExpr = Atom | FinSet | Sum | Prod | List | Bot

BOT_T = Bot()


# ------------------------------------------------------------------- values

@dataclass(frozen=True, slots=True)
class Sym:
    name: str


@dataclass(frozen=True, slots=True)
class PairV:
    fst: "Value"
    snd: "Value"


@dataclass(frozen=True, slots=True)
class InL:
    value: "Value"


@dataclass(frozen=True, slots=True)
class InR:
    value: "Value"


@dataclass(frozen=True, slots=True)
class ListV:
    items: tuple["Value", ...]


@dataclass(frozen=True, slots=True)
class BotV:
    pass


Value = Sym | PairV | InL | InR | ListV | BotV

BOT = BotV()


def check_value(v: Value, t: TypeExpr) -> bool:
    """Does ``v`` inhabit ``t``?"""
    return first_mismatch(v, t) is None


def first_mismatch(v: Value, t: TypeExpr) -> tuple[Value, TypeExpr] | None:
    """Leftmost innermost subvalue that fails its expected type, or None."""
    if isinstance(t, Sum) and isinstance(v, (InL, InR)):
        return first_mismatch(v.value, t.left if isinstance(v, InL) else t.right)
    if isinstance(t, Prod) and isinstance(v, PairV):
        return first_mismatch(v.fst, t.left) or first_mismatch(v.snd, t.right)
    if isinstance(t, List) and isinstance(v, ListV):
        for x in v.items:
            bad = first_mismatch(x, t.elem)
            if bad is not None:
                return bad
        return None
    if isinstance(t, Atom):
        ok = isinstance(v, Sym) and v.name == t.name
    elif isinstance(t, FinSet):
        ok = isinstance(v, Sym) and v.name in t.names
    elif isinstance(t, Bot):
        ok = isinstance(v, BotV)
    elif isinstance(t, (Sum, Prod, List)):
        ok = False
    else:
        raise TypeError(f"not a type expression: {t!r}")
    return None if ok else (v, t)


def require_value(v: Value, t: TypeExpr) -> Value:
    bad = first_mismatch(v, t)
    if bad is not None:
        raise TypeMismatch(
            f"value {render_value(bad[0])} does not fit type {render_type(bad[1])}")
    return v


# ------------------------------------------------------------------- parsing

_RESERVED_VALUE = {"bot", "inl", "inr"}


def _lexer(ident: str, symbols: tuple[str, ...]) -> re.Pattern:
    """One alternation: whitespace, an identifier, a symbol (tried in the
    order given, so a longer symbol goes before its prefixes) or a stray
    character."""
    return re.compile(rf"\s+|({ident})|({'|'.join(map(re.escape, symbols))})|(.)", re.S)


def _tokenize(text: str, lexer: re.Pattern) -> list[tuple[str, str, int]]:
    """Split into (kind, text, pos) tokens; kind is 'id' or the symbol itself."""
    toks = []
    for m in lexer.finditer(text):
        group = m.lastindex  # None for whitespace
        if group == 3:
            raise ParseError(f"unexpected character {m.group()!r} at position {m.start()}")
        if group:
            toks.append(("id" if group == 1 else m.group(), m.group(), m.start()))
    return toks


class _Cursor:
    """Token cursor and nesting count shared by the type, value, term and
    formula parsers; ``what`` names the text in messages."""

    # A chain link or a postfix star nests a level above its brackets, not
    # above the operand it wraps, so a tree can be higher than its text
    # nests; twice the limit still admits the types in ``std:windows@100``,
    # 101 levels high, and keeps ``==`` and rendering within the stack.
    max_height = 2 * MAX_NESTING

    def __init__(self, toks: list[tuple[str, str, int]], what: str) -> None:
        self.toks = toks
        self.i = 0
        self.depth = 0
        self.what = what

    def deeper(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise NestingError(f"{self.what} nested too deeply")

    def nested(self, parse):
        """``parse()`` one level deeper."""
        self.deeper()
        result = parse()
        self.depth -= 1
        return result

    def chain(self, operand, ops: tuple[str, ...], build):
        """``operand()``s separated by ``ops``, folded to the left by ``build``;
        each link nests a level once its right operand is parsed."""
        t = operand()
        outer = self.depth
        while self.peek() in ops:
            self.next()
            t = build(t, operand())
            self.deeper()
        self.depth = outer
        return t

    def peek(self, ahead: int = 0) -> str | None:
        j = self.i + ahead
        return self.toks[j][0] if j < len(self.toks) else None

    def next(self) -> tuple[str, str, int]:
        if self.i >= len(self.toks):
            raise ParseError(f"unexpected end of {self.what}")
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> None:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r} at position {tok[2]}, got {tok[1]!r}")

    @staticmethod
    def children(node) -> list:
        """The dataclasses among ``node``'s fields and their tuples' items."""
        values = [getattr(node, name) for name in type(node).__match_args__]
        return [x for v in values for x in (v if isinstance(v, tuple) else (v,))
                if is_dataclass(x)]

    def finish(self, result):
        """``result``, once every token has been consumed and it is at most
        ``max_height`` levels high."""
        if self.i != len(self.toks):
            tok = self.toks[self.i]
            raise ParseError(f"trailing {tok[1]!r} at position {tok[2]}")
        level = [result]
        for _ in range(self.max_height + 1):  # shared nodes are walked once a level
            level = list({id(c): c for node in level for c in self.children(node)}.values())
            if not level:
                return result
        raise NestingError(f"{self.what} nested too deeply")


_IDENT = r"[A-Za-z0-9_#'.]+"
_TYPE_LEXER = _lexer(_IDENT, ("^*", "{", "}", ",", "+", "*", "×", "[", "]", "(", ")"))
_TYPE_STARTERS = {"{", "(", "[", "id"}


class _TypeParser(_Cursor):
    def sum(self) -> TypeExpr:
        return self.chain(self.prod, ("+",), Sum)

    def prod(self) -> TypeExpr:
        return self.chain(self.post, ("*", "×"), Prod)

    def post(self) -> TypeExpr:
        t = self.atom()
        outer = self.depth
        # a star with no operand after it closes a list type
        while self.peek() == "^*" or (self.peek() == "*" and self.peek(1) not in _TYPE_STARTERS):
            self.next()
            self.deeper()
            t = List(t)
        self.depth = outer
        return t

    def atom(self) -> TypeExpr:
        kind, text, pos = self.next()
        if kind == "{":
            names = []
            while True:
                tok = self.next()
                if tok[0] != "id":
                    raise ParseError(f"expected name at position {tok[2]}")
                if tok[1] in _RESERVED_VALUE:
                    raise ParseError(f"reserved word {tok[1]!r} cannot name a symbol")
                names.append(tok[1])
                tok = self.next()
                if tok[0] == "}":
                    return FinSet(tuple(names))
                if tok[0] != ",":
                    raise ParseError(f"expected ',' or '}}' at position {tok[2]}")
        if kind == "(":
            t = self.nested(self.sum)
            self.expect(")")
            return t
        if kind == "[":
            t = self.nested(self.sum)
            self.expect("]")
            return List(t)
        if kind == "id":
            if text == "bot":
                return BOT_T
            if text in _RESERVED_VALUE:
                raise ParseError(f"reserved word {text!r} cannot name a type")
            return Atom(text)
        raise ParseError(f"unexpected {text!r} at position {pos}")


@lru_cache(maxsize=1024)  # terms repeat their type annotations
def parse_type(text: str) -> TypeExpr:
    p = _TypeParser(_tokenize(text, _TYPE_LEXER), "type")
    return p.finish(p.sum())


def render_type(t: TypeExpr, prec: int = 0) -> str:
    """Text for ``t``; ``prec`` is the binding strength of the context."""
    if isinstance(t, Atom):
        return t.name
    if isinstance(t, FinSet):
        return "{" + ",".join(t.names) + "}"
    if isinstance(t, Bot):
        return "bot"
    if isinstance(t, List):
        return render_type(t.elem, 2) + "^*"
    if isinstance(t, Prod):
        s = render_type(t.left, 1) + "×" + render_type(t.right, 2)
        return "(" + s + ")" if prec > 1 else s
    if isinstance(t, Sum):
        s = render_type(t.left, 0) + "+" + render_type(t.right, 1)
        return "(" + s + ")" if prec > 0 else s
    raise TypeError(f"not a type expression: {t!r}")


_VALUE_LEXER = _lexer(_IDENT, ("(", ")", "[", "]", ","))


class _ValueParser(_Cursor):
    def value(self) -> Value:
        kind, text, pos = self.next()
        if kind == "id":
            if text == "bot":
                return BOT
            if text == "inl":
                return InL(self.nested(self.value))
            if text == "inr":
                return InR(self.nested(self.value))
            return Sym(text)
        if kind == "(":
            fst = self.nested(self.value)
            self.expect(",")
            snd = self.nested(self.value)
            self.expect(")")
            return PairV(fst, snd)
        if kind == "[":
            if self.peek() == "]":
                self.next()
                return ListV(())
            items = [self.nested(self.value)]
            while True:
                tok = self.next()
                if tok[0] == "]":
                    return ListV(tuple(items))
                if tok[0] != ",":
                    raise ParseError(f"expected ',' or ']' at position {tok[2]}")
                items.append(self.nested(self.value))
        raise ParseError(f"unexpected {text!r} at position {pos}")


def parse_value(text: str, t: TypeExpr | None = None) -> Value:
    """Parse a value; when a type is given, check the value against it."""
    p = _ValueParser(_tokenize(text, _VALUE_LEXER), "value")
    v = p.finish(p.value())
    if t is not None:
        require_value(v, t)
    return v


def render_value(v: Value) -> str:
    if isinstance(v, Sym):
        return v.name
    if isinstance(v, PairV):
        return f"({render_value(v.fst)},{render_value(v.snd)})"
    if isinstance(v, InL):
        return "inl " + render_value(v.value)
    if isinstance(v, InR):
        return "inr " + render_value(v.value)
    if isinstance(v, ListV):
        return "[" + ",".join(render_value(x) for x in v.items) + "]"
    if isinstance(v, BotV):
        return "bot"
    raise TypeError(f"not a value: {v!r}")


# ----------------------------------------------------- enumeration & random

def value_size(v: Value) -> int:
    """Number of structural nodes; sum injections are transparent."""
    if isinstance(v, (Sym, BotV)):
        return 1
    if isinstance(v, (InL, InR)):
        return value_size(v.value)
    if isinstance(v, PairV):
        return 1 + value_size(v.fst) + value_size(v.snd)
    if isinstance(v, ListV):
        return 1 + sum(value_size(x) for x in v.items)
    raise TypeError(f"not a value: {v!r}")


@lru_cache(maxsize=None)
def min_size(t: TypeExpr) -> int:
    if isinstance(t, (Atom, FinSet, Bot)):
        return 1
    if isinstance(t, Sum):
        return min(min_size(t.left), min_size(t.right))
    if isinstance(t, Prod):
        return 1 + min_size(t.left) + min_size(t.right)
    if isinstance(t, List):
        return 1
    raise TypeError(f"not a type expression: {t!r}")


@lru_cache(maxsize=None)
def _symbols(t: Atom | FinSet) -> tuple[Sym, ...]:
    """One shared symbol per name, so generated values share their leaves."""
    return tuple(map(Sym, t.names if isinstance(t, FinSet) else (t.name,)))


def enumerate_values(t: TypeExpr, max_size: int) -> Iterator[Value]:
    """All values of ``t`` up to the given size, in a fixed order."""
    if max_size < 1:
        return
    if isinstance(t, (Atom, FinSet)):
        yield from _symbols(t)
    elif isinstance(t, Bot):
        yield BOT
    elif isinstance(t, Sum):
        for v in enumerate_values(t.left, max_size):
            yield InL(v)
        for v in enumerate_values(t.right, max_size):
            yield InR(v)
    elif isinstance(t, Prod):
        for fst in enumerate_values(t.left, max_size - 1 - min_size(t.right)):
            rest = max_size - 1 - value_size(fst)
            for snd in enumerate_values(t.right, rest):
                yield PairV(fst, snd)
    elif isinstance(t, List):
        for items in _enumerate_seqs(t.elem, max_size - 1):
            yield ListV(items)
    else:
        raise TypeError(f"not a type expression: {t!r}")


def _enumerate_seqs(elem: TypeExpr, budget: int) -> Iterator[tuple[Value, ...]]:
    yield ()
    if budget < min_size(elem):
        return
    for first in enumerate_values(elem, budget):
        for tail in _enumerate_seqs(elem, budget - value_size(first)):
            yield (first,) + tail


def default_value(t: TypeExpr) -> Value:
    """Some inhabitant of ``t``; every type expression has one."""
    if isinstance(t, (Atom, FinSet)):
        return _symbols(t)[0]
    if isinstance(t, Bot):
        return BOT
    if isinstance(t, Sum):
        return InL(default_value(t.left))
    if isinstance(t, Prod):
        return PairV(default_value(t.left), default_value(t.right))
    if isinstance(t, List):
        return ListV(())
    raise TypeError(f"not a type expression: {t!r}")


def random_value(t: TypeExpr, budget: int, rng) -> Value:
    """Random inhabitant of ``t`` with size roughly bounded by ``budget``."""
    if isinstance(t, Atom):
        return _symbols(t)[0]
    if isinstance(t, FinSet):
        return rng.choice(_symbols(t))
    if isinstance(t, Bot):
        return BOT
    if isinstance(t, Sum):
        left_ok = min_size(t.left) <= budget
        right_ok = min_size(t.right) <= budget
        if left_ok and (not right_ok or rng.random() < 0.5):
            return InL(random_value(t.left, budget, rng))
        return InR(random_value(t.right, budget, rng))
    if isinstance(t, Prod):
        share = max(min_size(t.left), (budget - 1) // 2)
        fst = random_value(t.left, share, rng)
        return PairV(fst, random_value(t.right, budget - 1 - value_size(fst), rng))
    if isinstance(t, List):
        room = budget - 1
        per = min_size(t.elem)
        max_len = max(0, room // max(per, 1))
        n = rng.randint(0, max_len)
        items = []
        for _ in range(n):
            if room < per:
                break
            v = random_value(t.elem, max(per, room // max(n, 1)), rng)
            room -= value_size(v)
            items.append(v)
        return ListV(tuple(items))
    raise TypeError(f"not a type expression: {t!r}")
