"""Finite semigroups, homomorphisms and bounded-depth factorisation trees.

The tree builder follows the ideal-splitting induction for aperiodic
semigroups: a single generator gives one flat node, otherwise a strict
one-sided ideal is used to colour the word, pair adjacent runs and recurse in
a smaller semigroup.  The achieved depth depends on the semigroup only, never
on the length of the word.

Each semigroup numbers its elements once (``index``) and keeps its product
only as the integer Cayley table that its associativity check (Light's test,
on a greedy generating set) builds (``table``; ``mult`` on names reads it),
beside its aperiodicity index.  The builder holds a word as its trees and one
string of their labels, ``chr(element number)`` each, so ``set`` finds its
generator set and ``str.split`` its runs; names are made only for node labels.
Which one-sided ideal splits a word depends only on its generator set, so that
choice is memoised per set (its sorted characters) on the semigroup itself,
filled on first use: a long-lived semigroup such as the cached T_k computes
each closure once.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Hashable, Iterable, Sequence

from .types import ListfnError


class AlgebraError(ListfnError, ValueError):
    """Raised on a malformed semigroup, group, homomorphism or rational function."""


class NotAperiodicError(AlgebraError):
    """Raised when a construction needs an aperiodic semigroup but got none."""


class FiniteSemigroup:
    """Finite set of named elements with an associative product table.

    ``index`` numbers the elements, ``table[i][j]`` is the number of the
    product of elements i and j, and ``aperiodicity`` is the aperiodicity
    index: the least n with mⁿ = mⁿ⁺¹ for every m, or None when some powers
    cycle.

    The table is checked by Light's test (Clifford & Preston 1961, vol. 1,
    §1.2): (x·g)·y = x·(g·y) for all x, y and every g in a generating set
    (``_generators``), in |G|·n² steps, not n³.  Its verdict is the full
    check's on every table: if associativity holds at the middles a and b,
    it holds at ab, since for all x and y

        (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y),

    so it holds at everything the generators build, which is every element.
    """

    def __init__(self, elements: Sequence[str], mult: dict[tuple[str, str], str]):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements) or not self.elements:
            raise AlgebraError("elements must be distinct and nonempty")
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.table = self._check_table(mult)
        self.aperiodicity = _aperiodicity(self.table)
        # generator set (label characters, ascending) -> (g, right) split choice
        self._splits: dict[str, tuple[int, bool]] = {}

    def _check_table(self, mult: dict[tuple[str, str], str]) -> list[list[int]]:
        """Integer Cayley table: ``table[i][j]`` indexes element i·j."""
        els = self.elements
        index = self.index
        n = len(els)
        table = [[0] * n for _ in range(n)]
        for a in els:
            for b in els:
                c = mult.get((a, b))
                if c is None:
                    raise AlgebraError(f"product {a}·{b} missing from the table")
                if c not in index:
                    raise AlgebraError(f"product {a}·{b}={c} outside the elements")
                table[index[a]][index[b]] = index[c]
        if len(mult) != n * n:  # every pair has its entry, so the others name a non-element
            a, b = next(p for p in mult if p[0] not in index or p[1] not in index)
            raise AlgebraError(f"product {a}·{b} of a non-element in the table")
        for g in _generators(table):
            tg = table[g]
            for i, ti in enumerate(table):
                tig = table[ti[g]]
                for k in range(n):
                    if tig[k] != ti[tg[k]]:
                        raise AlgebraError(
                            "associativity fails at "
                            f"({els[i]},{els[g]},{els[k]})")
        return table

    def mult(self, a: str, b: str) -> str:
        return self.elements[self.table[self.index[a]][self.index[b]]]

    def product(self, items: Iterable[str]) -> str:
        """Variadic product; the empty product needs an identity."""
        acc: str | None = None
        for x in items:
            acc = x if acc is None else self.mult(acc, x)
        if acc is None:
            raise AlgebraError("empty product in a semigroup without identity")
        return acc

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other: object) -> bool:
        """Same type, elements and table; the split memo takes no part."""
        return self is other or (type(other) is type(self) and self.elements == other.elements
                                 and self.table == other.table)

    def __hash__(self) -> int:
        return hash(self.elements)


class FiniteMonoid(FiniteSemigroup):
    def __init__(self, elements: Sequence[str],
                 mult: dict[tuple[str, str], str], identity: str):
        super().__init__(elements, mult)
        self.identity = identity
        if identity not in self.elements:
            raise AlgebraError("identity not among the elements")
        for a in self.elements:
            if self.mult(identity, a) != a or self.mult(a, identity) != a:
                raise AlgebraError(f"identity law fails at {a}")

    def product(self, items: Iterable[str]) -> str:
        return reduce(self.mult, items, self.identity)


def _closure(table: list[list[int]], gens: Sequence[int]) -> set[int]:
    """The elements that products of ``gens`` reach."""
    reached = set(gens)
    work = list(gens)
    while work:
        row = table[work.pop()]
        for g in gens:
            c = row[g]
            if c not in reached:
                reached.add(c)
                work.append(c)
    return reached


def _generators(table: list[list[int]]) -> list[int]:
    """Greedy generating set: largest right ideal (``len(set(table[x]))``)
    first, each element kept when the products of those kept miss it."""
    gens: list[int] = []
    reached: set[int] = set()
    for x in sorted(range(len(table)), key=lambda x: -len(set(table[x]))):
        if x not in reached:
            gens.append(x)
            reached = _closure(table, gens)
    return gens


def _aperiodicity(table: list[list[int]]) -> int | None:
    worst = 1
    for m in range(len(table)):
        power = m
        n = 1
        while n <= len(table):
            nxt = table[power][m]
            if nxt == power:
                break
            power = nxt
            n += 1
        else:
            return None
        worst = max(worst, n)
    return worst


@dataclass(frozen=True)
class Homomorphism:
    """Letter-to-element map extended multiplicatively to words."""
    target: FiniteSemigroup
    letter_map: Callable[[Hashable], str] | dict

    def __call__(self, letter: Hashable) -> str:
        if callable(self.letter_map):
            return self.letter_map(letter)
        try:
            return self.letter_map[letter]
        except KeyError:
            raise AlgebraError(f"letter {letter!r} has no image") from None

    def image(self, word: Sequence[Hashable]) -> str:
        return self.target.product(self(a) for a in word)


# ---------------------------------------------------------------- fact trees

@dataclass(frozen=True)
class Leaf:
    letter: Hashable


@dataclass(frozen=True)
class Node:
    label: str
    children: tuple["FactTree", ...]


FactTree = Leaf | Node


def tree_yield(t: FactTree) -> list:
    collected: list = []
    work: list[FactTree] = [t]
    while work:
        cur = work.pop()
        if isinstance(cur, Leaf):
            collected.append(cur.letter)
        else:
            work.extend(reversed(cur.children))
    return collected


def tree_depth(t: FactTree) -> int:
    """Levels below the root, counted one level at a time, not by recursion."""
    depth, level = 0, [t]
    while level := [c for n in level if isinstance(n, Node) for c in n.children]:
        depth += 1
    return depth


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    message: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_factorisation(h: Homomorphism, t: FactTree) -> ValidationResult:
    """Check the shape rules; reports the first violation in preorder, on a stack."""
    s, work = h.target, [t]
    while work:
        t = work.pop()
        if isinstance(t, Leaf):
            msg = "a leaf appears without its unary parent"
        elif not t.children:
            msg = "node without children"
        elif any(isinstance(c, Leaf) for c in t.children):
            if len(t.children) != 1:
                msg = "a leaf has siblings"
            elif t.label != (image := h(t.children[0].letter)):
                msg = f"leaf parent labelled {t.label}, letter maps to {image}"
            else:
                continue
        elif len(t.children) < 2:
            msg = "unary node above non-leaves"
        elif t.label != s.product(labels := [c.label for c in t.children]):
            msg = f"label {t.label} differs from the product of child labels"
        elif len(labels) >= 3 and len(set(labels)) != 1:
            msg = "node of degree three or more with unequal child labels"
        else:
            work += reversed(t.children)
            continue
        return ValidationResult(False, msg)
    return ValidationResult(True)


# ------------------------------------------------------------------- builder

def build_factorisation(h: Homomorphism, word: Sequence[Hashable]) -> FactTree:
    """Bounded-depth factorisation tree of a nonempty word under ``h``.

    Each distinct letter is mapped, checked and given its leaf parent once;
    trees are immutable, so every position of that letter shares it."""
    s = h.target
    if s.aperiodicity is None:
        raise NotAperiodicError("factorisation trees need an aperiodic target")
    if not word:
        raise AlgebraError("cannot factorise the empty word")
    index = s.index
    leaves: dict[Hashable, FactTree] = {}
    chars: dict[Hashable, str] = {}
    for a in dict.fromkeys(word):
        name = h(a)
        if name not in index:
            raise AlgebraError(f"letter {a!r} maps to {name!r}, not an element")
        leaves[a] = Node(name, (Leaf(a),))
        chars[a] = chr(index[name])
    tree, _ = _combine(s, list(map(leaves.__getitem__, word)),
                       "".join(map(chars.__getitem__, word)))
    return tree


# A word below is its list of trees and one string of their labels,
# chr(element number) per tree; a built tree comes with its label's number.

def _combine(s: FiniteSemigroup, trees: Sequence[FactTree],
             labels: str) -> tuple[FactTree, int]:
    if len(labels) == 1:
        return trees[0], ord(labels)
    gens = set(labels)
    if len(gens) == 1:
        return _power(s, trees, ord(labels[0]))
    key = "".join(sorted(gens))
    choice = s._splits.get(key)
    if choice is None:
        choice = s._splits[key] = _split_choice(s.table, [ord(c) for c in key])
    return _split(s, trees, labels, *choice)


def _split_choice(table: list[list[int]], gens: list[int]) -> tuple[int, bool]:
    """First (g, right) whose ideal is strict in the closure C of ``gens``,
    two or more elements in element order: right ideals C·g first.

    If no C·g is strict, the left ideal of the first generator is: each
    right translation by a generator permutes C, so the one by any y in C
    does too, and y^n = y^(n+1) (aperiodicity) then makes it the identity.
    So x·y = x on C (a left-zero band), and g·C = {g} is smaller than C.
    """
    active = _closure(table, gens)
    return next(((g, True) for g in gens if len({table[t][g] for t in active}) < len(active)),
                (gens[0], False))


def _power(s: FiniteSemigroup, trees: Sequence[FactTree],
           g: int) -> tuple[FactTree, int]:
    """A run of trees labelled g: one stands for itself, more take one wide
    node labelled g to their number, the power capped at the aperiodicity."""
    if len(trees) == 1:
        return trees[0], g
    label, row = g, s.table[g]
    for _ in range(min(len(trees), s.aperiodicity) - 1):
        label = row[label]
    return Node(s.elements[label], tuple(trees)), label


def _binary(s: FiniteSemigroup, a: tuple[FactTree, int],
            b: tuple[FactTree, int]) -> tuple[FactTree, int]:
    label = s.table[a[1]][b[1]]
    return (Node(s.elements[label], (a[0], b[0])), label)


def _split(s: FiniteSemigroup, trees: Sequence[FactTree], labels: str,
           g: int, right: bool) -> tuple[FactTree, int]:
    # the maximal runs, alternately of g and of other labels: the pieces
    # between the g's are the others, and a run of g ends at each such piece
    c = chr(g)
    runs = []
    start = i = 0  # start: where the run of g that i is in began
    for piece in labels.split(c):
        if piece:
            if i > start:
                runs.append(_power(s, trees[start:i], g))
            start = i + len(piece)
            runs.append((trees[i], ord(piece)) if start - i == 1
                        else _combine(s, trees[i:start], piece))
            i = start
        i += 1
    if len(labels) > start:
        runs.append(_power(s, trees[start:], g))
    # a pair is blue·red for a right ideal, red·blue for a left one: a run of
    # its second colour first, or of its first colour last, is left over
    pre = runs.pop(0) if (labels[0] == c) == right else None
    post = runs.pop() if runs and (labels[-1] == c) != right else None
    assert len(runs) % 2 == 0
    mid = None
    if runs:
        table, els, firsts, seconds = s.table, s.elements, runs[::2], runs[1::2]
        nums = [table[a][b] for (_, a), (_, b) in zip(firsts, seconds)]
        tops = [Node(els[x], (a, b)) for x, (a, _), (b, _) in zip(nums, firsts, seconds)]
        mid = _combine(s, tops, "".join(map(chr, nums)))
    if pre is not None:
        mid = pre if mid is None else _binary(s, pre, mid)
    if post is not None:
        mid = post if mid is None else _binary(s, mid, post)
    assert mid is not None
    return mid


def forest_depth_bound(s: FiniteSemigroup, generators: int) -> int:
    """Depth bound for trees built over ``s``; independent of word length.

    With n = |s| and g the generator count clamped to 1..n, the bound is 2
    when g = 1 or n = 1, and otherwise 2 + (g-1)(C(n-1)+3), where C(1) = 1 and
    C(m) = 1 + (m-1)(C(m-1)+3).  This follows the builder's recursion level by
    level, so it is a loose upper bound: it grows factorially in n, far above
    the depths that built trees reach.
    """
    n = len(s)
    g = max(1, min(generators, n))
    if g == 1 or n == 1:
        return 2
    c = 1
    for m in range(2, n):
        c = 1 + (m - 1) * (c + 3)
    return 2 + (g - 1) * (c + 3)

