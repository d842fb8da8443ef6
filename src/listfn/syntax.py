"""S-expression surface syntax for terms.

Combinators are parenthesised forms, basics are atoms carrying their type
arguments after ``@``::

    (compose (map reverse@{a,b}) std:comma@{a,b},{#})
    (union proj1@{a},{b} (const "c" "{b}" "{c}"))

Type annotations are written without spaces; ``"``-quoted atoms allow spaces
where a value or type must be embedded.  ``std:NAME@args`` pulls a derived
constructor from the catalog.  ``(gprefix NAME)`` looks the group up in the
mapping passed to the parser, which defaults to the built-in sample groups.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import fields

from .samples import SAMPLE_GROUPS
from .stdlib import catalog_term
from .terms import (
    BASICS,
    Compose,
    Const,
    FinSplit,
    GroupSpec,
    Guarded,
    Map,
    Pair,
    PrefixGroupMult,
    Term,
    TermTypeError,
    Union,
)
from .types import FinSet, ParseError, parse_type, parse_value, render_type, render_value


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()":
            tokens.append(c)
            i += 1
            continue
        if c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise ParseError("unterminated quoted atom")
            tokens.append(text[i : j + 1])
            i = j + 1
            continue
        # bare atom: brackets opened inside it must close before it ends
        start = i
        depth = 0
        while i < n:
            c = text[i]
            if depth == 0 and (c.isspace() or c in '()"' and text[start:i].count("@") == 0):
                break
            if c in "({" and i > start:
                depth += 1
            elif c in ")}":
                if depth == 0:
                    break
                depth -= 1
            elif c.isspace():
                break
            i += 1
        if depth != 0:
            raise ParseError(f"unbalanced brackets in {text[start:i]!r}")
        if i == start:
            raise ParseError(f"unmatched {text[i]!r}")
        tokens.append(text[start:i])
    return tokens


def _unquote(tok: str) -> str:
    return tok[1:-1] if tok.startswith('"') else tok


def _split_args(text: str) -> list[str]:
    """Split on top-level commas, keeping commas inside braces or parens."""
    parts: list[str] = []
    depth = 0
    cur = []
    for c in text:
        if c in "({":
            depth += 1
        elif c in ")}":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return parts


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
    _need(args, len(fields(cls)), name)
    return cls(*(parse_type(a) for a in args))


class _TermParser:
    def __init__(self, tokens: list[str], groups: Mapping[str, GroupSpec]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.groups = groups

    def take(self) -> str:
        if self.pos >= len(self.tokens):
            raise ParseError("term ends unexpectedly")
        self.pos += 1
        return self.tokens[self.pos - 1]

    def term(self) -> Term:
        tok = self.take()
        if tok == ")":
            raise ParseError("unexpected ')'")
        if tok != "(":
            return _leaf(tok)
        head = self.take()
        if head == "compose":
            parts = self.terms_until_close()
            if len(parts) < 2:
                raise ParseError("compose takes at least two terms")
            out = parts[-1]
            for part in reversed(parts[:-1]):
                out = Compose(part, out)
            return out
        if head == "map":
            out = Map(self.term())
            self.close()
            return out
        if head in ("pair", "union"):
            cls = Pair if head == "pair" else Union
            out = cls(self.term(), self.term())
            self.close()
            return out
        if head == "guard":
            out = Guarded(self.term(), self.term(), self.term())
            self.close()
            return out
        if head == "const":
            val_tok = _unquote(self.take())
            dom = parse_type(_unquote(self.take()))
            cod = parse_type(_unquote(self.take()))
            self.close()
            return Const(parse_value(val_tok, cod), dom, cod)
        if head == "gprefix":
            name = self.take()
            self.close()
            if name not in self.groups:
                raise ParseError(f"unknown group {name!r}")
            return PrefixGroupMult(self.groups[name])
        raise ParseError(f"unknown combinator {head!r}")

    def terms_until_close(self) -> list[Term]:
        parts = []
        while self.pos < len(self.tokens) and self.tokens[self.pos] != ")":
            parts.append(self.term())
        self.close()
        return parts

    def close(self) -> None:
        if self.pos >= len(self.tokens) or self.tokens[self.pos] != ")":
            raise ParseError("expected ')'")
        self.pos += 1


def parse_term(text: str, groups: Mapping[str, GroupSpec] | None = None) -> Term:
    tokens = _tokenize(text)
    parser = _TermParser(tokens, SAMPLE_GROUPS if groups is None else groups)
    out = parser.term()
    if parser.pos != len(tokens):
        raise ParseError(f"unexpected {tokens[parser.pos]!r} after term")
    return out


_BASIC_NAMES = {cls: name for name, cls in BASICS.items()}


def render_term(t: Term, groups: Mapping[str, GroupSpec] | None = None) -> str:
    """Surface syntax for a term; round trips through parse_term.

    Derived terms render as their expansion into basics, not as std: calls.
    """
    named_groups = SAMPLE_GROUPS if groups is None else groups
    ty = render_type
    if type(t) in _BASIC_NAMES:
        args = ",".join(ty(getattr(t, f.name)) for f in fields(t))
        return f"{_BASIC_NAMES[type(t)]}@{args}"
    if isinstance(t, FinSplit):
        return f"finsplit@{ty(FinSet(t.left_names))},{ty(FinSet(t.right_names))}"
    if isinstance(t, Compose):
        return f"(compose {render_term(t.after, named_groups)} {render_term(t.before, named_groups)})"
    if isinstance(t, Map):
        return f"(map {render_term(t.fn, named_groups)})"
    if isinstance(t, Pair):
        return f"(pair {render_term(t.fst, named_groups)} {render_term(t.snd, named_groups)})"
    if isinstance(t, Union):
        return f"(union {render_term(t.left, named_groups)} {render_term(t.right, named_groups)})"
    if isinstance(t, Guarded):
        inner = (render_term(x, named_groups) for x in (t.inner, t.dom_pred, t.cod_pred))
        return f"(guard {' '.join(inner)})"
    if isinstance(t, Const):
        return f'(const "{render_value(t.value)}" "{ty(t.dom)}" "{ty(t.cod)}")'
    if isinstance(t, PrefixGroupMult):
        for name, spec in named_groups.items():
            if spec == t.group:
                return f"(gprefix {name})"
        raise TermTypeError("group has no name in the given registry")
    raise TypeError(f"not a term: {t!r}")
