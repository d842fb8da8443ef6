"""Aperiodic rational functions and their compilation to list terms.

A rational function reads a word and emits, at every position, an output block
that may depend on the whole input, but only through the images of the prefix
and suffix in a finite aperiodic monoid.  Direct evaluation uses prefix and
suffix product arrays.  The compiler reproduces the same function as a
pipeline: build a factorisation tree, give every node the products of its left
and right siblings' labels, fold each position's ancestors into a (prefix
image, letter, suffix image) triple, all on element numbers of the monoid's
Cayley table, then apply a finite table followed by flattening.  The final two
stages are ordinary terms; the tree stages stay opaque because their
intermediate shapes are unbounded.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

from .algebra import (FiniteMonoid, Homomorphism, Leaf, FactTree,
                      NotAperiodicError, aperiodicity_index,
                      build_factorisation, forest_depth_bound)
from .stdlib import chain, finite_function
from .terms import Flat, Map, Term, eval_term
from .types import FinSet, List, ListV, Sym, Value

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
        if aperiodicity_index(self.monoid) is None:
            raise NotAperiodicError(f"{self.name}: monoid is not aperiodic")
        for a in self.input_letters:
            if self.h.get(a) not in self.monoid.elements:
                raise ValueError(f"{self.name}: no image for letter {a}")
        for (m, a, mr), block in self.out.items():
            if m not in self.monoid.elements or mr not in self.monoid.elements:
                raise ValueError(f"{self.name}: context ({m},{mr}) unknown")
            if a not in self.input_letters:
                raise ValueError(f"{self.name}: letter {a} not in the input")
            for g in block + self.empty_output:
                if g not in self.output_letters:
                    raise ValueError(f"{self.name}: output letter {g} unknown")

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
    prefix = [m.identity]
    for a in word:
        prefix.append(m.mult(prefix[-1], r.h[a]))
    suffix = [m.identity] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = m.mult(r.h[word[i]], suffix[i + 1])
    pieces: list[str] = []
    for i, a in enumerate(word):
        pieces.extend(r.block(prefix[i], a, suffix[i + 1]))
    return tuple(pieces)


# ------------------------------------------------------- compiled pipeline

@dataclass(frozen=True)
class ProfTree:
    """Factorisation tree node carrying its profile among its siblings.

    The profile is the pair of element numbers (product of the labels of the
    siblings to the left, same to the right).
    """
    profile: tuple[int, int]
    children: tuple["ProfTree", ...]
    letter: str | None = None


def sibling_profiles(m: FiniteMonoid, t: FactTree) -> ProfTree:
    """Annotate every node with its left/right sibling context products."""
    table, index, one = m.table, m.index, m.index[m.identity]

    def walk(t: FactTree, profile: tuple[int, int]) -> ProfTree:
        kids = t.children
        if isinstance(kids[0], Leaf):
            return ProfTree(profile, (), kids[0].letter)
        labels = [index[c.label] for c in kids]
        lefts = accumulate(labels[:-1], lambda p, x: table[p][x], initial=one)
        rights = list(accumulate(reversed(labels[1:]),
                                 lambda s, x: table[x][s], initial=one))
        return ProfTree(profile, tuple(
            walk(c, p) for c, p in zip(kids, zip(lefts, reversed(rights)))))

    return walk(t, (one, one))


def ancestor_lists(t: ProfTree) -> list[tuple[str, list[tuple[int, int]]]]:
    """Per position: its letter and the profiles from the root down to it."""
    out: list[tuple[str, list[tuple[int, int]]]] = []

    def walk(t: ProfTree, acc: list[tuple[int, int]]) -> None:
        acc = acc + [t.profile]
        if t.letter is not None:
            out.append((t.letter, acc))
            return
        for c in t.children:
            walk(c, acc)

    walk(t, [])
    return out


def triple_name(m: str, a: str, mr: str) -> str:
    return f"{m}.{a}.{mr}"


def classify_positions(r: RationalFn, bound: int,
                       ann: list[tuple[str, list[tuple[int, int]]]]) -> Value:
    """Fold each ancestor list into a context triple; overlong lists go dead."""
    m = r.monoid
    table, els, one = m.table, m.elements, m.index[m.identity]
    names: list[str] = []
    for letter, profs in ann:
        if len(profs) > bound:
            names.append(DEAD)
            continue
        left = right = one
        for a, b in profs:
            left = table[left][a]
            right = table[b][right]  # nearer the root is further right
        names.append(triple_name(els[left], letter, els[right]))
    return ListV(tuple(Sym(n) for n in names))


def triple_alphabet(r: RationalFn) -> FinSet:
    return FinSet(tuple(output_table(r)))


@dataclass(frozen=True)
class Stage:
    name: str
    kind: str                      # "opaque" or "term"
    run: Callable | None = None
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
    m = r.monoid
    stages = (
        Stage("forest", "opaque",
              run=lambda word: build_factorisation(hom, list(word))),
        Stage("profiles", "opaque", run=lambda t: sibling_profiles(m, t)),
        Stage("ancestors", "opaque", run=ancestor_lists),
        Stage("classify", "opaque",
              run=lambda ann: classify_positions(r, bound, ann)),
        Stage("table", "term", term=output_table_term(r, table)),
    )
    return Pipeline(r, stages, bound)


def eval_pipeline(p: Pipeline, word: Sequence[str]) -> tuple[str, ...]:
    if not word:
        return p.rational.empty_output
    current: object = list(word)
    for stage in p.stages:
        if stage.kind == "opaque":
            assert stage.run is not None
            current = stage.run(current)
        else:
            assert stage.term is not None
            current = eval_term(stage.term, current)
    assert isinstance(current, ListV)
    return tuple(v.name for v in current.items)  # type: ignore[union-attr]
