"""First-order logic over finite structures, and transductions between them.

Values of the nested-list types are encoded as relational structures: one
element per parse-tree node, a parent relation ``pare``, the strict sibling
order ``sib`` (stored transitively closed), and a unary predicate per node of
the type's own parse tree.  A transduction copies the input structure a fixed
number of times and then carves the output out of the copies, one formula per
output relation.  ``builtin_fot`` builds the transductions matching the basic
list combinators; ``check_commutes`` runs a combinator and its transduction
side by side through encode/decode.

Two formula evaluators coexist on purpose.  ``eval_formula`` is the plain
recursive definition of truth and is kept free of any cleverness so it can
serve as the reference.  ``apply_interpretation`` instead computes satisfying
assignments bottom-up as relations, which is what makes running whole
transductions affordable; the two are played against each other in tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct

from .terms import BASICS, Term, eval_term, infer_type
from .types import (
    Atom,
    Bot,
    BotV,
    EncodingError,
    FinSet,
    InL,
    InR,
    List,
    ListV,
    PairV,
    ParseError,
    Prod,
    Sum,
    Sym,
    TypeExpr,
    Value,
    render_value,
    require_value,
    type_nodes,
)


class LogicError(ValueError):
    """Semantic error: unknown relation, unbound variable, bad structure."""


# ------------------------------------------------------------------ formulas


class Formula:
    pass


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


@dataclass(frozen=True)
class Rel(Formula):
    name: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Eq(Formula):
    left: str
    right: str


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    parts: tuple[Formula, ...]


@dataclass(frozen=True)
class Or(Formula):
    parts: tuple[Formula, ...]


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


def _conj(*parts: Formula) -> Formula:
    if not parts:
        return TrueF()
    return parts[0] if len(parts) == 1 else And(parts)


def _disj(*parts: Formula) -> Formula:
    if not parts:
        return FalseF()
    return parts[0] if len(parts) == 1 else Or(parts)


def free_vars(phi: Formula) -> frozenset[str]:
    if isinstance(phi, (TrueF, FalseF)):
        return frozenset()
    if isinstance(phi, Rel):
        return frozenset(phi.args)
    if isinstance(phi, Eq):
        return frozenset((phi.left, phi.right))
    if isinstance(phi, Not):
        return free_vars(phi.body)
    if isinstance(phi, (And, Or)):
        return frozenset().union(*(free_vars(p) for p in phi.parts))
    if isinstance(phi, (Implies, Iff)):
        return free_vars(phi.left) | free_vars(phi.right)
    if isinstance(phi, (Exists, Forall)):
        return free_vars(phi.body) - {phi.var}
    raise TypeError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------- structures


@dataclass(frozen=True)
class Structure:
    """Finite relational structure; relations keyed by vocabulary name."""

    universe: tuple[int, ...]
    vocabulary: dict[str, int]
    relations: dict[str, frozenset[tuple[int, ...]]]

    def __post_init__(self) -> None:
        if len(set(self.universe)) != len(self.universe):
            raise LogicError("universe elements must be distinct")
        if set(self.relations) != set(self.vocabulary):
            raise LogicError("relations must match the vocabulary exactly")
        elems = set(self.universe)
        for name, arity in self.vocabulary.items():
            if arity < 1:
                raise LogicError(f"arity of {name} must be at least 1")
            for row in self.relations[name]:
                if len(row) != arity or any(e not in elems for e in row):
                    raise LogicError(f"bad tuple {row} in relation {name}")


def eval_formula(s: Structure, phi: Formula, asg: dict[str, int]) -> bool:
    """Truth of ``phi`` in ``s`` under ``asg``, by direct recursion.

    Deliberately the textbook definition; used as the reference evaluator.
    """
    if isinstance(phi, TrueF):
        return True
    if isinstance(phi, FalseF):
        return False
    if isinstance(phi, Rel):
        if phi.name not in s.relations:
            raise LogicError(f"unknown relation {phi.name}")
        return tuple(_lookup(asg, v) for v in phi.args) in s.relations[phi.name]
    if isinstance(phi, Eq):
        return _lookup(asg, phi.left) == _lookup(asg, phi.right)
    if isinstance(phi, Not):
        return not eval_formula(s, phi.body, asg)
    if isinstance(phi, And):
        return all(eval_formula(s, p, asg) for p in phi.parts)
    if isinstance(phi, Or):
        return any(eval_formula(s, p, asg) for p in phi.parts)
    if isinstance(phi, Implies):
        return (not eval_formula(s, phi.left, asg)) or eval_formula(s, phi.right, asg)
    if isinstance(phi, Iff):
        return eval_formula(s, phi.left, asg) == eval_formula(s, phi.right, asg)
    if isinstance(phi, (Exists, Forall)):
        saved = asg.get(phi.var, _MISSING)
        hits = 0
        for u in s.universe:
            asg[phi.var] = u
            if eval_formula(s, phi.body, asg):
                hits += 1
        if saved is _MISSING:
            asg.pop(phi.var, None)
        else:
            asg[phi.var] = saved
        return hits > 0 if isinstance(phi, Exists) else hits == len(s.universe)
    raise TypeError(f"not a formula: {phi!r}")


_MISSING = object()


def _lookup(asg: dict[str, int], var: str) -> int:
    try:
        return asg[var]
    except KeyError:
        raise LogicError(f"unbound variable {var}") from None


# ------------------------------------------------------------ formula syntax

_F_TOKEN = re.compile(r"<->|->|!=|[(),=.&|!]|[A-Za-z0-9_#']+")
_F_IDENT = re.compile(r"[A-Za-z0-9_#']+")
_F_RESERVED = {"E", "A", "true", "false"}


def parse_formula(text: str) -> Formula:
    """Parse `E x. A y. (pare(x,y) & !sib(y,x)) -> x=y` style syntax.

    Binding, loosest first: `<->`, `->` (right), `|`, `&`, `!`; a quantifier
    scopes to the end of its subformula.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _F_TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"bad character {text[pos]!r} in formula")
        tokens.append(m.group())
        pos = m.end()
    parser = _FormulaParser(tokens)
    phi = parser.iff()
    if parser.pos != len(tokens):
        raise ParseError(f"unexpected {tokens[parser.pos]!r} after formula")
    return phi


class _FormulaParser:
    def __init__(self, tokens: list[str]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        if self.pos >= len(self.tokens):
            raise ParseError("formula ends unexpectedly")
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise ParseError(f"expected {tok!r}, found {got!r}")

    def iff(self) -> Formula:
        phi = self.implies()
        while self.peek() == "<->":
            self.take()
            phi = Iff(phi, self.implies())
        return phi

    def implies(self) -> Formula:
        phi = self.disjunction()
        if self.peek() == "->":
            self.take()
            return Implies(phi, self.implies())
        return phi

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.peek() == "|":
            self.take()
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conjunction(self) -> Formula:
        parts = [self.unary()]
        while self.peek() == "&":
            self.take()
            parts.append(self.unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "!":
            self.take()
            return Not(self.unary())
        if tok in ("E", "A"):
            self.take()
            var = self.take()
            if not _F_IDENT.fullmatch(var) or var in _F_RESERVED:
                raise ParseError(f"bad variable {var!r}")
            self.expect(".")
            body = self.iff()
            return Exists(var, body) if tok == "E" else Forall(var, body)
        return self.atom()

    def atom(self) -> Formula:
        tok = self.take()
        if tok == "(":
            phi = self.iff()
            self.expect(")")
            return phi
        if tok == "true":
            return TrueF()
        if tok == "false":
            return FalseF()
        if not _F_IDENT.fullmatch(tok) or tok in _F_RESERVED:
            raise ParseError(f"expected an atom, found {tok!r}")
        if self.peek() == "(":
            self.take()
            args = [self.ident()]
            while self.peek() == ",":
                self.take()
                args.append(self.ident())
            self.expect(")")
            return Rel(tok, tuple(args))
        if self.peek() == "=":
            self.take()
            return Eq(tok, self.ident())
        if self.peek() == "!=":
            self.take()
            return Not(Eq(tok, self.ident()))
        raise ParseError(f"lone identifier {tok!r} is not a formula")

    def ident(self) -> str:
        tok = self.take()
        if not _F_IDENT.fullmatch(tok) or tok in _F_RESERVED:
            raise ParseError(f"expected a variable, found {tok!r}")
        return tok


def render_formula(phi: Formula) -> str:
    """Surface syntax for ``phi``; round trips through parse_formula."""
    return _render(phi, 0)


def _render(phi: Formula, ctx: int) -> str:
    # precedence levels: 0 quantifier body, 1 iff, 2 implies, 3 or, 4 and, 5 unary
    def wrap(text: str, level: int) -> str:
        return f"({text})" if level < ctx else text

    if isinstance(phi, TrueF):
        return "true"
    if isinstance(phi, FalseF):
        return "false"
    if isinstance(phi, Rel):
        return f"{phi.name}({','.join(phi.args)})"
    if isinstance(phi, Eq):
        return wrap(f"{phi.left} = {phi.right}", 5)
    if isinstance(phi, Not):
        if isinstance(phi.body, Eq):
            return wrap(f"{phi.body.left} != {phi.body.right}", 5)
        return wrap(f"!{_render(phi.body, 5)}", 5)
    if isinstance(phi, And):
        return wrap(" & ".join(_render(p, 5) for p in phi.parts), 4)
    if isinstance(phi, Or):
        return wrap(" | ".join(_render(p, 4) for p in phi.parts), 3)
    if isinstance(phi, Implies):
        return wrap(f"{_render(phi.left, 3)} -> {_render(phi.right, 2)}", 2)
    if isinstance(phi, Iff):
        return wrap(f"{_render(phi.left, 2)} <-> {_render(phi.right, 2)}", 1)
    if isinstance(phi, (Exists, Forall)):
        q = "E" if isinstance(phi, Exists) else "A"
        return wrap(f"{q} {phi.var}. {_render(phi.body, 0)}", 0)
    raise TypeError(f"not a formula: {phi!r}")


# -------------------------------------------------- satisfying-set evaluator


@lru_cache(maxsize=None)
def _desugar(phi: Formula) -> Formula:
    """Rewrite into true/false, Rel, Eq, Not, And, Or, Exists only."""
    if isinstance(phi, (TrueF, FalseF, Rel, Eq)):
        return phi
    if isinstance(phi, Not):
        return Not(_desugar(phi.body))
    if isinstance(phi, And):
        return And(tuple(_desugar(p) for p in phi.parts))
    if isinstance(phi, Or):
        return Or(tuple(_desugar(p) for p in phi.parts))
    if isinstance(phi, Implies):
        return Or((Not(_desugar(phi.left)), _desugar(phi.right)))
    if isinstance(phi, Iff):
        a, b = _desugar(phi.left), _desugar(phi.right)
        return Or((And((a, b)), And((Not(a), Not(b)))))
    if isinstance(phi, Exists):
        return Exists(phi.var, _desugar(phi.body))
    if isinstance(phi, Forall):
        return Not(Exists(phi.var, Not(_desugar(phi.body))))
    raise TypeError(f"not a formula: {phi!r}")


Rows = set  # of tuples, aligned with a variable order


def _sat(s: Structure, phi: Formula) -> tuple[tuple[str, ...], Rows]:
    """Variable order and the set of satisfying rows; order lists free(phi)."""
    univ = s.universe
    if isinstance(phi, TrueF):
        return (), {()}
    if isinstance(phi, FalseF):
        return (), set()
    if isinstance(phi, Rel):
        if phi.name not in s.relations:
            raise LogicError(f"unknown relation {phi.name}")
        rows = s.relations[phi.name]
        order = tuple(dict.fromkeys(phi.args))
        if order == phi.args:
            return order, set(rows)
        keep = [phi.args.index(v) for v in order]
        out = set()
        for row in rows:
            if all(row[i] == row[phi.args.index(v)] for i, v in enumerate(phi.args)):
                out.add(tuple(row[i] for i in keep))
        return order, out
    if isinstance(phi, Eq):
        if phi.left == phi.right:
            return (phi.left,), {(u,) for u in univ}
        return (phi.left, phi.right), {(u, u) for u in univ}
    if isinstance(phi, Not):
        order, rows = _sat(s, phi.body)
        return order, set(iproduct(univ, repeat=len(order))) - rows
    if isinstance(phi, And):
        order: tuple[str, ...] = ()
        rows = {()}
        for part in phi.parts:
            order, rows = _join(order, rows, *_sat(s, part))
            if not rows:
                break
        return order, rows
    if isinstance(phi, Or):
        parts = [_sat(s, p) for p in phi.parts]
        order = tuple(dict.fromkeys(v for o, _ in parts for v in o))
        out: Rows = set()
        for o, rows in parts:
            out |= _cylindrify(o, rows, order, univ)
        return order, out
    if isinstance(phi, Exists):
        order, rows = _sat(s, phi.body)
        if phi.var not in order:
            return order, (rows if univ else set())
        i = order.index(phi.var)
        keep = order[:i] + order[i + 1 :]
        return keep, {row[:i] + row[i + 1 :] for row in rows}
    raise TypeError(f"not desugared: {phi!r}")


def _join(
    avars: tuple[str, ...], arows: Rows, bvars: tuple[str, ...], brows: Rows
) -> tuple[tuple[str, ...], Rows]:
    shared = [v for v in bvars if v in avars]
    extra = [v for v in bvars if v not in avars]
    akey = [avars.index(v) for v in shared]
    bkey = [bvars.index(v) for v in shared]
    bext = [bvars.index(v) for v in extra]
    index: dict[tuple, list[tuple]] = {}
    for row in brows:
        index.setdefault(tuple(row[i] for i in bkey), []).append(tuple(row[i] for i in bext))
    out = set()
    for row in arows:
        for ext in index.get(tuple(row[i] for i in akey), ()):
            out.add(row + ext)
    return avars + tuple(extra), out


def _cylindrify(
    order: tuple[str, ...], rows: Rows, target: tuple[str, ...], univ: tuple[int, ...]
) -> Rows:
    if order == target:
        return set(rows)
    missing = [v for v in target if v not in order]
    slots = []
    for v in target:
        slots.append(("r", order.index(v)) if v in order else ("e", missing.index(v)))
    out = set()
    for row in rows:
        for ext in iproduct(univ, repeat=len(missing)):
            out.add(tuple(row[i] if kind == "r" else ext[i] for kind, i in slots))
    return out


def sat_rows(s: Structure, phi: Formula, want: tuple[str, ...]) -> Rows:
    """Satisfying assignments of ``phi``, as rows in the order ``want``."""
    frees = free_vars(phi)
    if not frees <= set(want):
        raise LogicError(f"free variables {sorted(frees - set(want))} not among {want}")
    order, rows = _sat(s, _desugar(phi))
    return _cylindrify(order, rows, want, s.universe)


# ----------------------------------------------------------- word structures


def word_structure(word: str, alphabet: tuple[str, ...] = ("a", "b")) -> Structure:
    """Positions 0..n-1 with successor ``S``, order ``lt`` and letter tests."""
    bad = [c for c in word if c not in alphabet]
    if bad:
        raise LogicError(f"letters {bad} not in alphabet {alphabet}")
    n = len(word)
    vocab = {"S": 2, "lt": 2, **{f"Q_{c}": 1 for c in alphabet}}
    rels: dict[str, frozenset] = {
        "S": frozenset((i, i + 1) for i in range(n - 1)),
        "lt": frozenset((i, j) for i in range(n) for j in range(i + 1, n)),
    }
    for c in alphabet:
        rels[f"Q_{c}"] = frozenset((i,) for i in range(n) if word[i] == c)
    return Structure(tuple(range(n)), vocab, rels)


def decode_word_structure(s: Structure) -> str:
    """Read a word back from letter predicates and the ``lt`` order."""
    if "lt" not in s.relations:
        raise LogicError("word structure needs an lt relation")
    lt = s.relations["lt"]
    before = {u: 0 for u in s.universe}
    for x, y in lt:
        if x == y:
            raise LogicError("lt is reflexive")
        before[y] += 1
    order = sorted(s.universe, key=lambda u: before[u])
    for i, x in enumerate(order):
        for y in order[i + 1 :]:
            if (x, y) not in lt or (y, x) in lt:
                raise LogicError("lt is not a strict total order")
    letters = []
    qnames = [n for n in s.vocabulary if n.startswith("Q_")]
    for u in order:
        hits = [n[2:] for n in qnames if (u,) in s.relations[n]]
        if len(hits) != 1:
            raise LogicError(f"position {u} carries {len(hits)} letters")
        letters.append(hits[0])
    return "".join(letters)


# ------------------------------------------------------------------- copying


def copy_k(s: Structure, k: int) -> Structure:
    """k disjoint copies plus a k-ary same-origin predicate in copy order."""
    if k < 1:
        raise LogicError("copy count must be at least 1")
    names = ["copy"] + [f"copy{i}" for i in range(1, k + 1)]
    clash = [n for n in names if n in s.vocabulary]
    if clash:
        raise LogicError(f"vocabulary already uses {clash}")
    n = len(s.universe)
    pos = {u: p for p, u in enumerate(s.universe)}

    def cid(u: int, i: int) -> int:
        return (i - 1) * n + pos[u]

    vocab = dict(s.vocabulary)
    vocab["copy"] = k
    rels: dict[str, frozenset] = {}
    for name, rows in s.relations.items():
        rels[name] = frozenset(
            tuple(cid(u, i) for u in row) for row in rows for i in range(1, k + 1)
        )
    rels["copy"] = frozenset(tuple(cid(u, i) for i in range(1, k + 1)) for u in s.universe)
    for i in range(1, k + 1):
        vocab[f"copy{i}"] = 1
        rels[f"copy{i}"] = frozenset((cid(u, i),) for u in s.universe)
    return Structure(tuple(range(k * n)), vocab, rels)


# ------------------------------------------------------------ interpretation


@dataclass(frozen=True)
class Interpretation1D:
    """One formula per output relation; elements come straight from the input.

    ``relation_formulas`` maps each output name to (formula, variable order);
    the order fixes which free variable is which argument position.
    """

    input_vocab: dict[str, int]
    output_vocab: dict[str, int]
    universe_var: str
    universe_formula: Formula
    relation_formulas: dict[str, tuple[Formula, tuple[str, ...]]]

    def __post_init__(self) -> None:
        if not free_vars(self.universe_formula) <= {self.universe_var}:
            raise LogicError("universe formula must have one designated free variable")
        if set(self.relation_formulas) != set(self.output_vocab):
            raise LogicError("relation formulas must cover the output vocabulary")
        for name, (phi, order) in self.relation_formulas.items():
            if len(order) != self.output_vocab[name] or len(set(order)) != len(order):
                raise LogicError(f"variable order for {name} must match its arity")
            if not free_vars(phi) <= set(order):
                raise LogicError(f"formula for {name} uses undeclared variables")


def apply_interpretation(interp: Interpretation1D, s: Structure) -> Structure:
    for name, arity in interp.input_vocab.items():
        if s.vocabulary.get(name) != arity:
            raise LogicError(f"vocabulary mismatch: input needs {name}/{arity}")
    var = interp.universe_var
    universe = sorted(u for (u,) in sat_rows(s, interp.universe_formula, (var,)))
    inside = set(universe)
    rels: dict[str, frozenset] = {}
    for name, (phi, order) in interp.relation_formulas.items():
        rows = sat_rows(s, phi, order)
        rels[name] = frozenset(r for r in rows if all(e in inside for e in r))
    return Structure(tuple(universe), dict(interp.output_vocab), rels)


@dataclass(frozen=True)
class FOTransduction:
    """Copy the input ``k`` times, then apply a one-dimensional interpretation."""

    k: int
    interp: Interpretation1D


def apply_transduction(t: FOTransduction, s: Structure) -> Structure:
    return apply_interpretation(t.interp, copy_k(s, t.k))


# -------------------------------------------------- lifting to copied vocabs
#
# The per-copy formula tables below are written over the *input* vocabulary,
# with role variables naming elements of particular copies.  Lifting replaces
# each role variable by its twin in copy 1, where every input relation lives
# unchanged, and bounds all quantifiers to copy 1.


def _on_copy1(phi: Formula, rename: dict[str, str]) -> Formula:
    """Rename free variables by ``rename`` and bound every quantifier to copy 1."""
    if isinstance(phi, (TrueF, FalseF)):
        return phi
    if isinstance(phi, Rel):
        return Rel(phi.name, tuple(rename.get(v, v) for v in phi.args))
    if isinstance(phi, Eq):
        return Eq(rename.get(phi.left, phi.left), rename.get(phi.right, phi.right))
    if isinstance(phi, Not):
        return Not(_on_copy1(phi.body, rename))
    if isinstance(phi, (And, Or)):
        return type(phi)(tuple(_on_copy1(p, rename) for p in phi.parts))
    if isinstance(phi, (Implies, Iff)):
        return type(phi)(_on_copy1(phi.left, rename), _on_copy1(phi.right, rename))
    if isinstance(phi, (Exists, Forall)):
        guard = Rel("copy1", (phi.var,))
        body = _on_copy1(phi.body, {a: b for a, b in rename.items() if a != phi.var})
        if isinstance(phi, Exists):
            return Exists(phi.var, And((guard, body)))
        return Forall(phi.var, Implies(guard, body))
    raise TypeError(f"not a formula: {phi!r}")


def _twin_first(v: str, w: str, k: int) -> Formula:
    """w is the copy-1 element with the same origin as v."""
    if k == 1:
        return Eq(v, w)
    parts: list[Formula] = [And((Rel("copy1", (v,)), Eq(v, w)))]
    for i in range(2, k + 1):
        args = [w] + [v if p == i else f"{w}_o{p}" for p in range(2, k + 1)]
        others = [a for a in args if a not in (v, w)]
        atom: Formula = Rel("copy", tuple(args))
        for o in reversed(others):
            atom = Exists(o, atom)
        parts.append(And((Rel(f"copy{i}", (v,)), atom)))
    return Or(tuple(parts))


def _lift(phi: Formula, roles: tuple[str, ...], k: int) -> Formula:
    avatars = {v: v + "__c" for v in roles}
    body = _on_copy1(phi, avatars)
    for v in reversed(roles):
        body = Exists(avatars[v], And((_twin_first(v, avatars[v], k), body)))
    return body


_ROLES = ("x", "y")


def _assemble(
    k: int,
    in_vocab: dict[str, int],
    out_vocab: dict[str, int],
    universe: dict[int, Formula],
    tables: dict[str, dict[tuple[int, ...], Formula]],
) -> FOTransduction:
    """Build a transduction from per-copy formula tables over ``in_vocab``."""
    copied = dict(in_vocab)
    copied["copy"] = k
    for i in range(1, k + 1):
        copied[f"copy{i}"] = 1
    uf = _disj(
        *(
            _conj(Rel(f"copy{i}", ("x",)), _lift(phi, ("x",), k))
            for i, phi in sorted(universe.items())
        )
    )
    rel_formulas: dict[str, tuple[Formula, tuple[str, ...]]] = {}
    for name, arity in out_vocab.items():
        if arity > len(_ROLES):
            raise LogicError(f"output relation {name} has unsupported arity {arity}")
        roles = _ROLES[:arity]
        parts = []
        for key in sorted(tables.get(name, {})):
            guards = [Rel(f"copy{key[j]}", (roles[j],)) for j in range(arity)]
            parts.append(_conj(*guards, _lift(tables[name][key], roles, k)))
        rel_formulas[name] = (_disj(*parts), roles)
    interp = Interpretation1D(copied, dict(out_vocab), "x", uf, rel_formulas)
    return FOTransduction(k, interp)


# ------------------------------------------------------- encoding of values


def _node_pred(path: tuple[int, ...]) -> str:
    return "t" if not path else "t_" + "_".join(str(i) for i in path)


def _letter_pred(path: tuple[int, ...], letter: str) -> str:
    return _node_pred(path) + "__" + letter


def _pred_entries(t: TypeExpr) -> list[tuple[tuple[int, ...], str | None]]:
    """Unary predicate entries of a type: one per node, plus letter variants."""
    out: list[tuple[tuple[int, ...], str | None]] = []
    for node in type_nodes(t):
        out.append((node.path, None))
        if isinstance(node.label, FinSet):
            out.extend((node.path, letter) for letter in node.label.names)
    return out


def _pred_name(path: tuple[int, ...], letter: str | None) -> str:
    return _node_pred(path) if letter is None else _letter_pred(path, letter)


def encoding_vocabulary(t: TypeExpr) -> dict[str, int]:
    vocab = {"pare": 2, "sib": 2}
    for path, letter in _pred_entries(t):
        vocab[_pred_name(path, letter)] = 1
    return vocab


def encode_value(v: Value, t: TypeExpr) -> Structure:
    """Parse tree of ``v`` as a structure; ids are preorder positions.

    Sum injections do not get nodes of their own: descending through them
    only accumulates extra type predicates on the node underneath.
    """
    require_value(v, t)
    vocab = encoding_vocabulary(t)
    pare: set[tuple[int, int]] = set()
    sib: set[tuple[int, int]] = set()
    preds: dict[str, set[tuple[int]]] = {name: set() for name, a in vocab.items() if a == 1}
    counter = [0]

    def walk(val: Value, ty: TypeExpr, path: tuple[int, ...], chain: list[str]) -> int:
        if isinstance(ty, Sum):
            chain = chain + [_node_pred(path)]
            if isinstance(val, InL):
                return walk(val.value, ty.left, path + (0,), chain)
            return walk(val.value, ty.right, path + (1,), chain)
        nid = counter[0]
        counter[0] += 1
        for name in chain + [_node_pred(path)]:
            preds[name].add((nid,))
        if isinstance(ty, FinSet):
            preds[_letter_pred(path, val.name)].add((nid,))
            return nid
        if isinstance(ty, (Atom, Bot)):
            return nid
        if isinstance(ty, Prod):
            kids = [walk(val.fst, ty.left, path + (0,), []), walk(val.snd, ty.right, path + (1,), [])]
        else:
            kids = [walk(item, ty.elem, path + (0,), []) for item in val.items]
        for c in kids:
            pare.add((nid, c))
        for i in range(len(kids)):
            for j in range(i + 1, len(kids)):
                sib.add((kids[i], kids[j]))
        return nid

    walk(v, t, (), [])
    rels: dict[str, frozenset] = {"pare": frozenset(pare), "sib": frozenset(sib)}
    for name, rows in preds.items():
        rels[name] = frozenset(rows)
    return Structure(tuple(range(counter[0])), vocab, rels)


def derived_next_sibling(s: Structure) -> frozenset[tuple[int, int]]:
    """Covering relation of ``sib``: pairs with nothing strictly between."""
    if "sib" not in s.relations:
        raise LogicError("structure has no sib relation")
    sib = s.relations["sib"]
    return frozenset(
        (x, y) for x, y in sib if not any((x, z) in sib and (z, y) in sib for z in s.universe)
    )


def decode_structure(s: Structure, t: TypeExpr) -> Value:
    """Inverse of encode_value, for any structure isomorphic to an encoding.

    Raises EncodingError naming the first property of the encoding that the
    structure violates.
    """
    if dict(s.vocabulary) != encoding_vocabulary(t):
        raise EncodingError("vocabulary does not match the encoding of the type")
    if not s.universe:
        raise EncodingError("empty universe: an encoding has at least a root node")
    parent: dict[int, int] = {}
    for p, c in s.relations["pare"]:
        if c in parent:
            raise EncodingError(f"node {c} has more than one parent")
        parent[c] = p
    roots = [u for u in s.universe if u not in parent]
    if len(roots) != 1:
        raise EncodingError(f"expected one root node, found {len(roots)}")
    children: dict[int, list[int]] = {u: [] for u in s.universe}
    for p, c in s.relations["pare"]:
        children[p].append(c)
    seen = {roots[0]}
    stack = [roots[0]]
    while stack:
        for c in children[stack.pop()]:
            seen.add(c)
            stack.append(c)
    if len(seen) != len(s.universe):
        raise EncodingError("parent relation does not reach every node from the root")
    sib = s.relations["sib"]
    for x, y in sib:
        if x == y:
            raise EncodingError(f"sib is reflexive at node {x}")
        if parent.get(x) is None or parent.get(x) != parent.get(y):
            raise EncodingError(f"sib relates non-siblings {x} and {y}")
    for p, kids in children.items():
        rank = {c: sum(1 for d in kids if (d, c) in sib) for c in kids}
        kids.sort(key=lambda c: rank[c])
        for i in range(len(kids)):
            for j in range(i + 1, len(kids)):
                if (kids[i], kids[j]) not in sib or (kids[j], kids[i]) in sib:
                    raise EncodingError(f"children of node {p} are not totally ordered by sib")
    node_preds: dict[int, set[str]] = {u: set() for u in s.universe}
    for name, arity in s.vocabulary.items():
        if arity == 1:
            for (u,) in s.relations[name]:
                node_preds[u].add(name)

    def build(node: int, ty: TypeExpr, path: tuple[int, ...], acc: list[str]) -> Value:
        if isinstance(ty, Sum):
            here = acc + [_node_pred(path)]
            has_left = _node_pred(path + (0,)) in node_preds[node]
            has_right = _node_pred(path + (1,)) in node_preds[node]
            if has_left == has_right:
                raise EncodingError(f"node {node} must select exactly one summand")
            if has_left:
                return InL(build(node, ty.left, path + (0,), here))
            return InR(build(node, ty.right, path + (1,), here))
        expected = set(acc) | {_node_pred(path)}
        kids = children[node]
        if isinstance(ty, FinSet):
            letters = [l for l in ty.names if _letter_pred(path, l) in node_preds[node]]
            if len(letters) != 1:
                raise EncodingError(f"node {node} must carry exactly one letter predicate")
            expected.add(_letter_pred(path, letters[0]))
            value: Value = Sym(letters[0])
        elif isinstance(ty, Atom):
            value = Sym(ty.name)
        elif isinstance(ty, Bot):
            value = BotV()
        elif isinstance(ty, Prod):
            if len(kids) != 2:
                raise EncodingError(f"pair node {node} must have exactly two children")
            value = PairV(
                build(kids[0], ty.left, path + (0,), []),
                build(kids[1], ty.right, path + (1,), []),
            )
        else:
            value = ListV(tuple(build(c, ty.elem, path + (0,), []) for c in kids))
        if isinstance(ty, (FinSet, Atom, Bot)) and kids:
            raise EncodingError(f"leaf node {node} must not have children")
        if node_preds[node] != expected:
            off = sorted(node_preds[node] ^ expected)
            raise EncodingError(f"node {node} carries the wrong type predicates: {off}")
        return value

    return build(roots[0], t, (), [])


# --------------------------------------------------- built-in transductions
#
# Formula shorthands.  Bound helper variables derive their names from the
# arguments, so distinct sites never collide with the role variables x, y.


def _pare(x: str, y: str) -> Formula:
    return Rel("pare", (x, y))


def _sib(x: str, y: str) -> Formula:
    return Rel("sib", (x, y))


def _root(z: str) -> Formula:
    return Not(Exists("r" + z, _pare("r" + z, z)))


def _nsib(x: str, y: str) -> Formula:
    v = f"m{x}_{y}"
    return And((_sib(x, y), Not(Exists(v, And((_sib(x, v), _sib(v, y)))))))


def _root_child(x: str) -> Formula:
    v = "p" + x
    return Exists(v, And((_pare(v, x), _root(v))))


def _first_root_child(x: str) -> Formula:
    return And((_root_child(x), Not(Exists("s" + x, _sib("s" + x, x)))))


def _later_root_child(x: str) -> Formula:
    return And((_root_child(x), Exists("s" + x, _sib("s" + x, x))))


def _enc_depth(t: TypeExpr) -> int:
    """Depth of an element's encoding: sums are flattened into their node."""
    if isinstance(t, (Atom, FinSet, Bot)):
        return 0
    if isinstance(t, Sum):
        return max(_enc_depth(t.left), _enc_depth(t.right))
    if isinstance(t, Prod):
        return 1 + max(_enc_depth(t.left), _enc_depth(t.right))
    return 1 + _enc_depth(t.elem)


def _under(anchor, depth: int) -> Formula:
    """x lies at most ``depth`` steps below (or at) a node satisfying anchor."""
    parts = [anchor("x")]
    for j in range(1, depth + 1):
        hops = [f"u{i}" for i in range(j)]
        body: Formula = _conj(
            anchor(hops[0]),
            *(_pare(hops[i], hops[i + 1]) for i in range(j - 1)),
            _pare(hops[-1], "x"),
        )
        for h in reversed(hops):
            body = Exists(h, body)
        parts.append(body)
    return _disj(*parts)


def _identity_preds(t: TypeExpr) -> dict[str, dict[tuple[int, ...], Formula]]:
    return {
        _pred_name(p, l): {(1,): Rel(_pred_name(p, l), ("x",))} for p, l in _pred_entries(t)
    }


def fot_reverse(elem: TypeExpr) -> FOTransduction:
    """Reverse a list: flip the sibling order among root children only."""
    vocab = encoding_vocabulary(List(elem))
    both = And((_root_child("x"), _root_child("y")))
    tables: dict[str, dict[tuple[int, ...], Formula]] = {
        "pare": {(1, 1): _pare("x", "y")},
        "sib": {(1, 1): Or((And((both, _sib("y", "x"))), And((Not(both), _sib("x", "y")))))},
        **_identity_preds(List(elem)),
    }
    return _assemble(1, vocab, vocab, {1: TrueF()}, tables)


def fot_append(elem: TypeExpr) -> FOTransduction:
    """(head, tail list) to the list with the head in front.

    The pair's list child is dropped; its children are re-parented by the
    root.  The dropped child is pinned down as the root child that has a
    left sibling.
    """
    t_in = Prod(elem, List(elem))
    t_out = List(elem)
    universe = {
        1: Not(
            Exists(
                "p",
                And((_pare("p", "x"), _root("p"), Not(Exists("z", _nsib("x", "z"))))),
            )
        )
    }
    pare = Or(
        (
            And((Not(_root("x")), _pare("x", "y"))),
            And((_root("x"), _pare("x", "y"), Not(Exists("z", _nsib("z", "y"))))),
            And(
                (
                    _root("x"),
                    Exists(
                        "c",
                        And((_pare("x", "c"), Exists("w", _nsib("w", "c")), _pare("c", "y"))),
                    ),
                )
            ),
        )
    )
    sib = Or(
        (
            _sib("x", "y"),
            And(
                (
                    _first_root_child("x"),
                    Exists(
                        "c",
                        And((_root_child("c"), Exists("w", _sib("w", "c")), _pare("c", "y"))),
                    ),
                )
            ),
        )
    )
    tables: dict[str, dict[tuple[int, ...], Formula]] = {
        "pare": {(1, 1): pare},
        "sib": {(1, 1): sib},
        "t": {(1,): Rel("t", ("x",))},
    }
    for p, l in _pred_entries(elem):
        tables[_pred_name((0,) + p, l)] = {
            (1,): Or(
                (Rel(_pred_name((0,) + p, l), ("x",)), Rel(_pred_name((1, 0) + p, l), ("x",)))
            )
        }
    return _assemble(1, encoding_vocabulary(t_in), encoding_vocabulary(t_out), universe, tables)


def fot_coappend(elem: TypeExpr) -> FOTransduction:
    """Split off the head of a list; empty lists land in the bottom summand.

    Copy 2 holds the node that becomes the tail list: the second root child
    when the list has two or more elements, or the root itself for singleton
    lists (it has no second child to reuse).  An empty list keeps only its
    childless root, which decodes into the bottom summand.
    """
    t_in = List(elem)
    t_out = Sum(Prod(elem, List(elem)), Bot())
    second = Exists(
        "p",
        And(
            (
                _root("p"),
                _pare("p", "x"),
                Exists(
                    "z",
                    And((_pare("p", "z"), _nsib("z", "x"), Not(Exists("w", _nsib("w", "z"))))),
                ),
            )
        ),
    )
    singleton = And(
        (
            _root("x"),
            Exists("c", _pare("x", "c")),
            Not(Exists("c", And((_pare("x", "c"), Exists("w", _sib("w", "c")))))),
        )
    )
    universe = {1: TrueF(), 2: Or((second, singleton))}
    keep_first = And(
        (_root("x"), _pare("x", "y"), Not(Exists("z", And((_nsib("z", "y"), _pare("x", "z"))))))
    )
    below = And((Not(_root("x")), _pare("x", "y")))
    tail_children = Exists(
        "z",
        And(
            (
                _root("z"),
                _pare("z", "y"),
                Exists("c", And((_pare("z", "c"), _nsib("c", "y")))),
            )
        ),
    )
    tables: dict[str, dict[tuple[int, ...], Formula]] = {
        "pare": {
            (1, 1): Or((keep_first, below)),
            (1, 2): _root("x"),
            (2, 1): tail_children,
            (2, 2): FalseF(),
        },
        "sib": {
            (1, 1): And((_sib("x", "y"), Not(_first_root_child("x")))),
            (1, 2): _first_root_child("x"),
            (2, 1): FalseF(),
            (2, 2): FalseF(),
        },
        "t": {(1,): _root("x")},
        "t_0": {(1,): And((_root("x"), Exists("c", _pare("x", "c"))))},
        "t_1": {(1,): And((_root("x"), Not(Exists("c", _pare("x", "c")))))},
        "t_0_1": {(2,): TrueF()},
    }
    d = _enc_depth(elem)
    for p, l in _pred_entries(elem):
        src = Rel(_pred_name((0,) + p, l), ("x",))
        tables[_pred_name((0, 0) + p, l)] = {(1,): And((src, _under(_first_root_child, d)))}
        tables[_pred_name((0, 1, 0) + p, l)] = {(1,): And((src, _under(_later_root_child, d)))}
    return _assemble(2, encoding_vocabulary(t_in), encoding_vocabulary(t_out), universe, tables)


def fot_flat(elem: TypeExpr) -> FOTransduction:
    """Concatenate a list of lists: grandchildren become the root's children."""
    t_in = List(List(elem))
    t_out = List(elem)
    universe = {
        1: Or((Exists("p", And((_pare("p", "x"), Not(_root("p"))))), _root("x")))
    }
    pare = Or(
        (
            And((Not(_root("x")), _pare("x", "y"))),
            And((_root("x"), Exists("c", And((_pare("x", "c"), _pare("c", "y")))))),
        )
    )
    sib = Or(
        (
            _sib("x", "y"),
            Exists(
                "p",
                And(
                    (
                        _pare("p", "x"),
                        _root_child("p"),
                        Exists("q", And((_pare("q", "y"), _root_child("q"), _sib("p", "q")))),
                    )
                ),
            ),
        )
    )
    tables: dict[str, dict[tuple[int, ...], Formula]] = {
        "pare": {(1, 1): pare},
        "sib": {(1, 1): sib},
        "t": {(1,): Rel("t", ("x",))},
    }
    for p, l in _pred_entries(elem):
        tables[_pred_name((0,) + p, l)] = {(1,): Rel(_pred_name((0, 0) + p, l), ("x",))}
    return _assemble(1, encoding_vocabulary(t_in), encoding_vocabulary(t_out), universe, tables)


def fot_block(left: TypeExpr, right: TypeExpr) -> FOTransduction:
    """Group a list of sums into maximal same-summand runs.

    Copy 2 holds one marker per run: the root children whose next sibling has
    the other summand's type, plus the last child.  Markers become the run
    lists; each adopts the contiguous stretch of same-summand siblings ending
    at its own position.
    """
    t_in = List(Sum(left, right))
    t_out = List(Sum(List(left), List(right)))
    sides = (_node_pred((0, 0)), _node_pred((0, 1)))

    def has(tp: str, v: str) -> Formula:
        return Rel(tp, (v,))

    run_end = _disj(
        *(
            And((has(tp, "x"), Forall("w", Implies(_nsib("x", "w"), Not(has(tp, "w"))))))
            for tp in sides
        )
    )
    universe = {
        1: TrueF(),
        2: And((Exists("z", And((_pare("z", "x"), _root("z")))), run_end)),
    }
    psi1 = And(
        (
            Or((_sib("y", "x"), Eq("x", "y"))),
            Implies(
                Not(Eq("x", "y")),
                _disj(*(Iff(has(tp, "y"), has(tp, "x")) for tp in sides)),
            ),
        )
    )
    psi2 = Not(
        Exists(
            "z",
            And(
                (
                    _sib("z", "x"),
                    _sib("y", "z"),
                    _disj(*(Iff(has(tp, "y"), Not(has(tp, "z"))) for tp in sides)),
                )
            ),
        )
    )
    same_run = And(
        (
            _disj(*(And((has(tp, "x"), has(tp, "y"))) for tp in sides)),
            Not(
                Exists(
                    "z",
                    And(
                        (
                            _sib("x", "z"),
                            _sib("z", "y"),
                            _disj(*(Iff(has(tp, "z"), Not(has(tp, "x"))) for tp in sides)),
                        )
                    ),
                )
            ),
        )
    )
    tables: dict[str, dict[tuple[int, ...], Formula]] = {
        "pare": {
            (1, 1): And((Not(_root("x")), _pare("x", "y"))),
            (1, 2): And((_root("x"), _pare("x", "y"))),
            (2, 1): And((psi1, psi2)),
            (2, 2): FalseF(),
        },
        "sib": {
            (1, 1): And((_sib("x", "y"), Or((Not(_root_child("x")), same_run)))),
            (1, 2): FalseF(),
            (2, 1): FalseF(),
            (2, 2): _sib("x", "y"),
        },
        "t": {(1,): _root("x")},
        "t_0": {(2,): TrueF()},
        "t_0_0": {(2,): has(sides[0], "x")},
        "t_0_1": {(2,): has(sides[1], "x")},
    }
    for side, sub in ((0, left), (1, right)):
        for p, l in _pred_entries(sub):
            tables[_pred_name((0, side, 0) + p, l)] = {
                (1,): Rel(_pred_name((0, side) + p, l), ("x",))
            }
    return _assemble(2, encoding_vocabulary(t_in), encoding_vocabulary(t_out), universe, tables)


def fot_ab_example() -> FOTransduction:
    """Over word structures on {a,b}: move all a's in front of all b's."""

    def lt(x: str, y: str) -> Formula:
        return Rel("lt", (x, y))

    def q(c: str, v: str) -> Formula:
        return Rel(f"Q_{c}", (v,))

    vocab = {"S": 2, "lt": 2, "Q_a": 1, "Q_b": 1}

    def next_same(c: str) -> Formula:
        return And(
            (lt("x", "y"), Not(Exists("z", And((lt("x", "z"), lt("z", "y"), q(c, "z"))))))
        )

    last_a_first_b = And(
        (
            And((q("a", "x"), Forall("z", Implies(lt("x", "z"), Not(q("a", "z")))))),
            And((q("b", "y"), Forall("z", Implies(lt("z", "y"), Not(q("b", "z")))))),
        )
    )
    tables: dict[str, dict[tuple[int, ...], Formula]] = {
        "S": {
            (1, 1): next_same("a"),
            (2, 2): next_same("b"),
            (1, 2): last_a_first_b,
            (2, 1): FalseF(),
        },
        "lt": {(1, 1): lt("x", "y"), (2, 2): lt("x", "y"), (1, 2): TrueF(), (2, 1): FalseF()},
        "Q_a": {(1,): TrueF()},
        "Q_b": {(2,): TrueF()},
    }
    return _assemble(2, vocab, vocab, {1: q("a", "x"), 2: q("b", "x")}, tables)


_BUILTINS = {
    "reverse": (1, fot_reverse),
    "append": (1, fot_append),
    "coappend": (1, fot_coappend),
    "flat": (1, fot_flat),
    "block": (2, fot_block),
    "ab_example": (0, fot_ab_example),
}


def builtin_names() -> dict[str, int]:
    """Built-in transduction names mapped to their type-argument counts."""
    return {name: arity for name, (arity, _) in _BUILTINS.items()}


def _check_arity(name: str, types: tuple[TypeExpr, ...]) -> None:
    arity = _BUILTINS[name][0]
    if len(types) != arity:
        raise LogicError(f"{name} takes {arity} type argument(s)")


def builtin_fot(name: str, *types: TypeExpr) -> FOTransduction:
    """A named built-in transduction; type arguments are the element types."""
    if name not in _BUILTINS:
        raise LogicError(f"unknown builtin transduction {name}")
    _check_arity(name, types)
    return _BUILTINS[name][1](*types)


def builtin_term(name: str, *types: TypeExpr) -> Term:
    """The combinator that a built-in transduction must agree with."""
    if name not in _BUILTINS or name not in BASICS:
        raise LogicError(f"no combinator is paired with {name}")
    _check_arity(name, types)
    return BASICS[name](*types)


# ------------------------------------------------------------ commuting runs


@dataclass(frozen=True)
class CommuteReport:
    """Outcome of replaying a term against its transduction on samples."""

    total: int
    failures: tuple[tuple[Value, Value, object], ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.ok:
            return f"commutes on {self.total}/{self.total} samples"
        v, want, got = self.failures[0]
        return (
            f"{len(self.failures)}/{self.total} samples disagree; first: "
            f"input {render_value(v)} expected {render_value(want)} got {got!r}"
        )


def check_commutes(term: Term, t: FOTransduction, samples) -> CommuteReport:
    """Run term and transduction on each sample; both routes must decode equal."""
    dom, cod = infer_type(term)
    failures = []
    n = 0
    for v in samples:
        n += 1
        want = eval_term(term, v)
        try:
            got: object = decode_structure(apply_transduction(t, encode_value(v, dom)), cod)
        except (EncodingError, LogicError) as err:
            failures.append((v, want, err))
            continue
        if got != want:
            failures.append((v, want, got))
    return CommuteReport(n, tuple(failures))
