"""S-expression surface syntax for terms.

Combinators are parenthesised forms, basics are atoms carrying their type
arguments after ``@``::

    (compose (map reverse@{a,b}) std:comma@{a,b},{#})
    (union proj1@{a},{b} (const "c" "{b}" "{c}"))

Type annotations are written without spaces; ``"``-quoted atoms allow spaces
where a value or type must be embedded.  ``std:NAME@args`` pulls a derived
constructor from the catalog.  ``(gprefix NAME)`` looks the group, a
``FiniteMonoid``, up in the mapping passed to the parser, which defaults to the
built-in sample groups; ``render_term`` names a group by the first entry whose
table equals it.

Terms parse on ``types._Cursor``, the token cursor and nesting limit of the
type, value and formula parsers, from tokens of their own: an annotated atom
such as ``block@{a},{b}`` is one.  A parsed term is at most ``MAX_NESTING``
combinators high; ``(compose f g h)`` is two.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import reduce

from .algebra import FiniteMonoid
from .samples import SAMPLE_GROUPS
from .stdlib import catalog_term
from .terms import (
    BASICS,
    COMBINATORS,
    Compose,
    Const,
    FinSplit,
    PrefixGroupMult,
    Term,
    TermTypeError,
    term_children,
)
from .types import (
    MAX_NESTING, FinSet, ParseError, _Cursor, parse_type, parse_value, render_type, render_value,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Split into (kind, text, pos) tokens: kind is the parenthesis itself, or
    'id' for an atom, bare or quoted."""
    tokens: list[tuple[str, str, int]] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            tokens.append((c, c, i))
            i += 1
        elif c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise ParseError("unterminated quoted atom")
            tokens.append(("id", text[i : j + 1], i))
            i = j + 1
        else:
            # bare atom: brackets opened inside it must close before it ends,
            # and after its '@' a parenthesis or quote belongs to the annotation
            start, depth, annotated = i, 0, False
            while i < n:
                c = text[i]
                if c.isspace() or depth == 0 and (c in ")}" or c in '("' and not annotated):
                    break
                if c in "({" and i > start:
                    depth += 1
                elif c in ")}":
                    depth -= 1
                annotated = annotated or c == "@"
                i += 1
            if depth != 0:
                raise ParseError(f"unbalanced brackets in {text[start:i]!r}")
            if i == start:
                raise ParseError(f"unmatched {text[i]!r}")
            tokens.append(("id", text[start:i], start))
    return tokens


def _unquote(tok: str) -> str:
    return tok[1:-1] if tok.startswith('"') else tok


def _split_args(text: str) -> list[str]:
    """Split on top-level commas, keeping commas inside braces or parens."""
    parts: list[str] = []
    depth = start = 0
    for i, c in enumerate(text):
        depth += (c in "({") - (c in ")}")
        if c == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    return parts + [text[start:]]


def _annotated(tok: str) -> tuple[str, list[str]]:
    name, sep, rest = tok.partition("@")
    return name, (_split_args(rest) if sep else [])


def _need(args: list[str], n: int, what: str) -> None:
    if len(args) != n:
        raise ParseError(f"{what} takes {n} type argument(s), got {len(args)}")


def _finset(text: str, what: str) -> FinSet:
    t = parse_type(text)
    if not isinstance(t, FinSet):
        raise ParseError(f"{what} needs a finite set, got {render_type(t)}")
    return t


def _leaf(tok: str) -> Term:
    if tok.startswith("std:"):
        name, args = _annotated(tok[4:])
        return catalog_term(name, args)
    name, args = _annotated(tok)
    if name == "finsplit":
        _need(args, 2, name)
        return FinSplit(_finset(args[0], name).names, _finset(args[1], name).names)
    if name not in BASICS:
        raise ParseError(f"unknown basic term {tok!r}")
    cls = BASICS[name]
    _need(args, len(cls.__match_args__), name)
    return cls(*(parse_type(a) for a in args))


class _TermParser(_Cursor):
    # render_term writes a form per combinator, so only a term at most the
    # limit high renders to text that parses back
    max_height = MAX_NESTING
    children = staticmethod(term_children)

    def __init__(self, text: str, groups: Mapping[str, FiniteMonoid]) -> None:
        super().__init__(_tokenize(text), "term")
        self.groups = groups

    def term(self) -> Term:
        kind, tok, pos = self.next()
        if kind == "(":
            return self.nested(self.form)
        if kind == ")":
            raise ParseError(f"unexpected ')' at position {pos}")
        return _leaf(tok)

    def form(self) -> Term:
        """A parenthesised form, after its '('."""
        head = self.next()[1]
        if head in COMBINATORS:
            cls = COMBINATORS[head]
            parts = [self.term() for _ in cls.__match_args__]
            while cls is Compose and self.peek() != ")":
                parts.append(self.term())
            self.expect(")")
            if cls is Compose:  # (compose f g h) is (compose f (compose g h))
                return reduce(lambda out, part: Compose(part, out), reversed(parts))
            return cls(*parts)
        if head == "const":
            val_tok = _unquote(self.next()[1])
            dom = parse_type(_unquote(self.next()[1]))
            cod = parse_type(_unquote(self.next()[1]))
            self.expect(")")
            return Const(parse_value(val_tok, cod), dom, cod)
        if head == "gprefix":
            name = self.next()[1]
            self.expect(")")
            if name not in self.groups:
                raise ParseError(f"unknown group {name!r}")
            return PrefixGroupMult(self.groups[name])
        raise ParseError(f"unknown combinator {head!r}")


def parse_term(text: str, groups: Mapping[str, FiniteMonoid] | None = None) -> Term:
    p = _TermParser(text, SAMPLE_GROUPS if groups is None else groups)
    return p.finish(p.term())


_NAMES = {cls: name for name, cls in (BASICS | COMBINATORS).items()}


def render_term(t: Term, groups: Mapping[str, FiniteMonoid] | None = None) -> str:
    """Surface syntax for a term; round trips through parse_term.

    Derived terms render as their expansion into basics, not as std: calls.
    """
    named_groups = SAMPLE_GROUPS if groups is None else groups
    ty = render_type
    name = _NAMES.get(type(t))
    if name in COMBINATORS:
        return f"({name} {' '.join(render_term(c, named_groups) for c in term_children(t))})"
    if name is not None:
        return f"{name}@{','.join(ty(getattr(t, n)) for n in type(t).__match_args__)}"
    if isinstance(t, FinSplit):
        return f"finsplit@{ty(FinSet(t.left_names))},{ty(FinSet(t.right_names))}"
    if isinstance(t, Const):
        return f'(const "{render_value(t.value)}" "{ty(t.dom)}" "{ty(t.cod)}")'
    if isinstance(t, PrefixGroupMult):
        for name, spec in named_groups.items():
            if spec == t.group:
                return f"(gprefix {name})"
        raise TermTypeError("group has no name in the given registry")
    raise TypeError(f"not a term: {t!r}")
