"""Aperiodic rational functions and their compilation to list terms.

A rational function reads a word and emits, at every position, an output block
that may depend on the whole input, but only through the images of the prefix
and suffix in a finite aperiodic monoid.  Direct evaluation uses prefix and
suffix product arrays.  The compiler reproduces the same function as a
pipeline of four stages, all on element numbers of the monoid's Cayley table:
``forest`` builds a factorisation tree; ``ancestors`` walks it once from the
root, handing each child its prefix (the fold from the left times its left
siblings' labels) and its suffix (its right siblings' labels times the fold
from the right), and gives each position (letter, ancestor count, prefix
image, suffix image); ``classify`` reads each position's (prefix image,
letter, suffix image) symbol from a table built at compile time, or DEAD when
its ancestor count exceeds the depth bound.  The last stage, ``table``, is an
ordinary term, a finite table followed by flattening; the tree stages stay
opaque because their intermediate shapes are unbounded.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .algebra import (AlgebraError, FiniteMonoid, Homomorphism, Leaf, FactTree,
                      NotAperiodicError, build_factorisation,
                      forest_depth_bound)
from .stdlib import chain, finite_function
from .terms import Flat, Map, Term, compile_term
from .types import FinSet, List, ListV, Sym, TypeMismatch, Value

DEAD = "dead"


@dataclass(frozen=True)
class RationalFn:
    """Finite description: monoid, letter images and a per-context table.

    ``out`` maps (prefix image, letter, suffix image) to the block emitted at
    such a position.  ``empty_output`` is the value on the empty word.
    """
    name: str
    input_letters: tuple[str, ...]
    output_letters: tuple[str, ...]
    monoid: FiniteMonoid
    h: dict[str, str]
    out: dict[tuple[str, str, str], tuple[str, ...]]
    empty_output: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.monoid.aperiodicity is None:
            raise NotAperiodicError(f"{self.name}: monoid is not aperiodic")
        for side, letters in (("input", self.input_letters), ("output", self.output_letters)):
            if len(set(letters)) != len(letters):
                raise AlgebraError(f"{self.name}: {side} letters must be distinct")
        for a in self.input_letters:
            if self.h.get(a) not in self.monoid.elements:
                raise AlgebraError(f"{self.name}: no image for letter {a}")
        if extra := [a for a in self.h if a not in self.input_letters]:
            raise AlgebraError(f"{self.name}: image for letter {extra[0]}, not in the input")
        for (m, a, mr), block in self.out.items():
            if m not in self.monoid.elements or mr not in self.monoid.elements:
                raise AlgebraError(f"{self.name}: context ({m},{mr}) unknown")
            if a not in self.input_letters:
                raise AlgebraError(f"{self.name}: letter {a} not in the input")
            for g in block + self.empty_output:
                if g not in self.output_letters:
                    raise AlgebraError(f"{self.name}: output letter {g} unknown")

    def block(self, m: str, a: str, mr: str) -> tuple[str, ...]:
        return self.out.get((m, a, mr), ())

    def hom(self) -> Homomorphism:
        return Homomorphism(self.monoid, dict(self.h))


def eval_rational_direct(r: RationalFn, word: Sequence[str]) -> tuple[str, ...]:
    """Reference evaluation with explicit prefix and suffix product arrays."""
    n = len(word)
    if n == 0:
        return r.empty_output
    m = r.monoid
    try:
        images = [r.h[a] for a in word]
    except KeyError as e:
        raise TypeMismatch(f"{r.name}: letter {e.args[0]!r} not in the input") from None
    prefix = [m.identity]
    for x in images:
        prefix.append(m.mult(prefix[-1], x))
    suffix = [m.identity] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = m.mult(images[i], suffix[i + 1])
    pieces: list[str] = []
    for i, a in enumerate(word):
        pieces.extend(r.block(prefix[i], a, suffix[i + 1]))
    return tuple(pieces)


# ------------------------------------------------------- compiled pipeline

def ancestor_lists(m: FiniteMonoid, t: FactTree) -> list[tuple[str, int, int, int]]:
    """Per position: its letter, its ancestor count, and its prefix and suffix
    images (element numbers), in one walk from the root that hands each child
    the fold of everything left and right of it and recurses as deep as the
    forest."""
    table, index, one = m.table, m.index, m.index[m.identity]
    out: list[tuple[str, int, int, int]] = []

    def walk(t: FactTree, count: int, left: int, right: int) -> None:
        kids = t.children
        count += 1
        if isinstance(kids[0], Leaf):
            out.append((kids[0].letter, count, left, right))
        elif len(kids) == 2:
            a, b = kids
            walk(a, count, left, table[index[b.label]][right])
            walk(b, count, table[left][index[a.label]], right)
        else:
            labels = [index[c.label] for c in kids]
            rights = [right]
            for x in reversed(labels[1:]):
                rights.append(table[x][rights[-1]])
            for c, x, s in zip(kids, labels, reversed(rights)):
                walk(c, count, left, s)
                left = table[left][x]

    walk(t, 0, one, one)
    del walk  # the walk's closure refers to it: clear it, or the list waits for the collector
    return out


def triple_name(m: str, a: str, mr: str) -> str:
    return f"{m}.{a}.{mr}"


def triple_symbols(r: RationalFn) -> list[dict[str, list[Sym]]]:
    """The symbol of every context triple, read ``[left][letter][right]``."""
    els = r.monoid.elements
    return [{a: [Sym(triple_name(m, a, mr)) for mr in els]
             for a in r.input_letters} for m in els]


def classify_positions(syms: list[dict[str, list[Sym]]], bound: int,
                       ann: list[tuple[str, int, int, int]]) -> Value:
    """Name each position's context triple; over ``bound`` ancestors is dead."""
    dead = Sym(DEAD)
    return ListV(tuple(dead if count > bound else syms[left][letter][right]
                       for letter, count, left, right in ann))


def triple_alphabet(r: RationalFn) -> FinSet:
    return FinSet(tuple(output_table(r)))


@dataclass(frozen=True)
class Stage:
    name: str
    kind: str                      # "opaque" or "term"
    run: Callable
    term: Term | None = None


@dataclass(frozen=True)
class Pipeline:
    rational: RationalFn
    stages: tuple[Stage, ...]
    bound: int

    def term_stages(self) -> list[Stage]:
        return [s for s in self.stages if s.kind == "term"]


def output_table(r: RationalFn) -> dict[str, tuple[str, ...]]:
    """Block of output letters for every context triple, then dead for none."""
    els = r.monoid.elements
    table = {triple_name(m, a, mr): r.block(m, a, mr)
             for m in els for a in r.input_letters for mr in els}
    table[DEAD] = ()
    return table


def output_table_term(r: RationalFn,
                      table: dict[str, tuple[str, ...]] | None = None) -> Term:
    """Finite table from context triples to blocks, then flatten."""
    gamma = FinSet(r.output_letters)
    alphabet = triple_alphabet(r)
    if table is None:
        table = output_table(r)
    values = {name: ListV(tuple(Sym(g) for g in block))
              for name, block in table.items()}
    lookup = Map(finite_function(alphabet, values, List(gamma)))
    return chain(lookup, Flat(gamma))


def compile_rational(r: RationalFn,
                     table: dict[str, tuple[str, ...]] | None = None
                     ) -> Pipeline:
    hom = r.hom()
    gens = len(set(r.h[a] for a in r.input_letters))
    bound = forest_depth_bound(r.monoid, gens)
    m, syms = r.monoid, triple_symbols(r)
    term = output_table_term(r, table)
    stages = (
        Stage("forest", "opaque", lambda word: build_factorisation(hom, list(word))),
        Stage("ancestors", "opaque", lambda t: ancestor_lists(m, t)),
        Stage("classify", "opaque", lambda ann: classify_positions(syms, bound, ann)),
        Stage("table", "term", compile_term(term), term),
    )
    return Pipeline(r, stages, bound)


def eval_pipeline(p: Pipeline, word: Sequence[str]) -> tuple[str, ...]:
    if not word:
        return p.rational.empty_output
    current: object = list(word)
    for stage in p.stages:
        current = stage.run(current)
    return tuple(v.name for v in current.items)  # type: ignore[attr-defined]
