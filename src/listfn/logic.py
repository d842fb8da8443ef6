"""First-order logic over finite structures, and transductions between them.

Values of the nested-list types are encoded as relational structures: one
element per parse-tree node, a parent relation ``pare``, the strict sibling
order ``sib`` (stored transitively closed), and a unary predicate per node of
the type's own parse tree.  ``_encoding`` alone builds these relations:
``decode_structure`` reads a value off ``pare`` and ``sib`` and accepts the
structure only if ``_encoding`` gives it back on the nodes in the order
read.  A transduction keeps up to k copies of each input
element and is given by per-copy formula tables over the *input*
vocabulary: one formula per copy for the universe, and one per tuple of
copies for each output relation.  Each formula is solved once on the input
structure.  ``builtin_fot`` builds the built-in transductions, each typed by
its paired term (a basic combinator, or catalog parts for ``ab_example``): it
maps the encoding of the term's domain to that of its codomain.  Their
formulas are text in the formula syntax below, parsed when a built-in is
built; the encoding's derived relations (``root``, ``nsib``, ...) are their
definitions, each solved once per structure when a formula first reads it.
``check_commutes`` runs a term and its transduction through encode/decode.
Formulas parse on ``types._Cursor``, the one token cursor and nesting limit
that also serves the type, value and term parsers.

Two formula evaluators coexist on purpose.  ``eval_formula`` is the plain
recursive definition of truth and is kept free of any cleverness so it can
serve as the reference.  ``sat_rows``, whose planner ``apply_transduction`` runs,
computes whole sets of satisfying assignments from a plan compiled once per
formula: negations pushed inward, conjuncts joined in a connected order,
smallest first, and negated or fully bound conjuncts applied as anti-joins
and semi-joins instead of complements over the universe, and "nothing in
between", ``E m. R(a,m) & R(m,b) & phi``, read off R's chains where R is a
union of strict linear orders (the chain path).  That is what makes
running whole transductions affordable; the two evaluators are played
against each other in tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, count, product as iproduct
from operator import contains, getitem, itemgetter

from .stdlib import concat, filter_left, filter_right, finite_function
from .terms import (
    Append, Block, CoAppend, Compose, Flat, Map, Pair, Reverse, Term, eval_term, infer_type,
)
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
    ListfnError,
    PairV,
    ParseError,
    Prod,
    Sum,
    Sym,
    TypeExpr,
    Value,
    _Cursor,
    _lexer,
    _tokenize,
    render_value,
    require_value,
)


class LogicError(ListfnError, ValueError):
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


def _atoms(*phis: Formula):
    """Each ``Rel`` and ``Eq`` of ``phis``, left to right, with the variables
    bound above it; walked on an explicit stack."""
    work = [(phi, frozenset()) for phi in reversed(phis)]
    while work:
        phi, bound = work.pop()
        if isinstance(phi, (Rel, Eq)):
            yield phi, bound
        elif isinstance(phi, (Not, Exists, Forall)):
            work.append((phi.body, bound if isinstance(phi, Not) else bound | {phi.var}))
        elif isinstance(phi, (And, Or, Implies, Iff)):
            parts = phi.parts if isinstance(phi, (And, Or)) else (phi.left, phi.right)
            work.extend((p, bound) for p in reversed(parts))
        elif not isinstance(phi, (TrueF, FalseF)):
            raise TypeError(f"not a formula: {phi!r}")


def free_vars(phi: Formula) -> frozenset[str]:
    return frozenset(v for a, bound in _atoms(phi)
                     for v in (a.args if isinstance(a, Rel) else (a.left, a.right))
                     if v not in bound)


def _relations(*phis: Formula) -> set[str]:
    """Names of the relations that ``phis`` read."""
    return {a.name for a, _ in _atoms(*phis) if isinstance(a, Rel)}


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
                if len(row) != arity or not elems.issuperset(row):
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

# no '.' in identifiers: it ends a quantifier's variable
_F_LEXER = _lexer(r"[A-Za-z0-9_#']+", ("<->", "->", "!=", "(", ")", ",", "=", ".", "&", "|", "!"))
_F_RESERVED = {"E", "A", "true", "false"}


def parse_formula(text: str) -> Formula:
    """Parse `E x. A y. (pare(x,y) & !sib(y,x)) -> x=y` style syntax.

    Binding, loosest first: `<->`, `->` (right), `|`, `&`, `!`; a quantifier
    scopes to the end of its subformula.
    """
    p = _FormulaParser(_tokenize(text, _F_LEXER), "formula")
    return p.finish(p.iff())


class _FormulaParser(_Cursor):
    def iff(self) -> Formula:
        return self.chain(self.implies, ("<->",), Iff)

    def implies(self) -> Formula:
        phi = self.disjunction()
        if self.peek() == "->":
            self.next()
            return Implies(phi, self.nested(self.implies))
        return phi

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.peek() == "|":
            self.next()
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conjunction(self) -> Formula:
        parts = [self.unary()]
        while self.peek() == "&":
            self.next()
            parts.append(self.unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unary(self) -> Formula:
        kind, tok, pos = self.next()
        if kind == "!":
            return Not(self.nested(self.unary))
        if tok in ("E", "A"):
            var = self.ident()
            self.expect(".")
            body = self.nested(self.iff)
            return Exists(var, body) if tok == "E" else Forall(var, body)
        if kind == "(":
            phi = self.nested(self.iff)
            self.expect(")")
            return phi
        if tok in ("true", "false"):
            return TrueF() if tok == "true" else FalseF()
        if kind != "id":
            raise ParseError(f"expected an atom at position {pos}, got {tok!r}")
        if self.peek() == "(":
            self.next()
            args = [self.ident()]
            while self.peek() == ",":
                self.next()
                args.append(self.ident())
            self.expect(")")
            return Rel(tok, tuple(args))
        if self.peek() in ("=", "!="):
            op = self.next()[0]
            same = Eq(tok, self.ident())
            return same if op == "=" else Not(same)
        raise ParseError(f"lone identifier {tok!r} is not a formula")

    def ident(self) -> str:
        kind, tok, pos = self.next()
        if kind != "id" or tok in _F_RESERVED:
            raise ParseError(f"expected a variable at position {pos}, got {tok!r}")
        return tok


def render_formula(phi: Formula) -> str:
    """Surface syntax for ``phi``; round trips through parse_formula."""
    return _render(phi, 0)


def _render(phi: Formula, ctx: int, tail: bool = True) -> str:
    # precedence levels: 0 quantifier body, 1 iff, 2 implies, 3 or, 4 and, 5 unary;
    # ``tail``: no text follows phi's before its context closes, so a
    # quantifier there may stay bare (it scopes to the end of its context)
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
        if tail and isinstance(phi.body, (Exists, Forall)):
            return f"!{_render(phi.body, 0)}"
        return wrap(f"!{_render(phi.body, 5, tail)}", 5)
    if isinstance(phi, (And, Or)):
        level = 4 if isinstance(phi, And) else 3
        inner = tail or level < ctx
        last = len(phi.parts) - 1
        return wrap((" & " if level == 4 else " | ").join(
            _render(p, level + 1, inner and i == last)
            for i, p in enumerate(phi.parts)), level)
    if isinstance(phi, Implies):
        return wrap(f"{_render(phi.left, 3, False)} -> "
                    f"{_render(phi.right, 2, tail or 2 < ctx)}", 2)
    if isinstance(phi, Iff):
        return wrap(f"{_render(phi.left, 2, False)} <-> "
                    f"{_render(phi.right, 2, tail or 1 < ctx)}", 1)
    if isinstance(phi, (Exists, Forall)):
        q = "E" if isinstance(phi, Exists) else "A"
        return wrap(f"{q} {phi.var}. {_render(phi.body, 0)}", 0)
    raise TypeError(f"not a formula: {phi!r}")


# -------------------------------------------------- satisfying-set evaluator
#
# ``_plan`` compiles a formula once into a tree of plan nodes: negation is
# pushed inward through Not, Or, Implies and Forall, and into the right side
# of an Iff, whose node solves each side once; nested And and Or nodes are
# flattened, constants are folded, and each node keeps its free variables.
# ``_extend`` solves a node under rows binding some of its free variables and
# returns the rows' extensions that satisfy it.  A node whose
# variables the rows all bind is a filter, checked row by row by the closure
# ``node.test``: a semi-join, an anti-join when negated, and for an
# existential a search that stops at the first witness.  Any other node
# extends the rows with ``node.sat``.  A conjunction grows its rows one
# conjunct at a time: bound conjuncts first, then the one sharing a variable
# with the rows that adds the fewest rows per row, and a cross product only
# when none shares one.  Only a negation or an Iff with unbound variables
# enumerates the universe.  The chain path answers ``E m. R(a,m) & R(m,b) &
# phi``, a and b bound and phi on m and at most one of them, by ranks without
# phi, else by one scan per anchor to the first m where phi holds; it needs R
# a union of strict linear orders (``_Ctx.chains``), else the search runs.

Rows = set  # of tuples, aligned with a variable order


def _getter(positions: list[int]):
    """Row -> tuple of its entries at ``positions``."""
    if len(positions) == 1:
        i = positions[0]
        return lambda row: (row[i],)
    return itemgetter(*positions) if positions else lambda row: ()


def _both(a, b):
    return lambda row: a(row) and b(row)


def _either(a, b):
    return lambda row: a(row) or b(row)


class _Ctx:
    """One structure under evaluation: indexes built, definitions solved on demand."""

    def __init__(self, s: Structure, definitions: tuple = ()) -> None:
        self.univ = s.universe
        self.defs = {name: (args, phi) for name, args, phi in definitions}
        self.rels = {n: r for n, r in s.relations.items() if n not in self.defs}
        self.arity = {**s.vocabulary, **{n: len(a) for n, (a, _) in self.defs.items()}}
        self.indexes: dict[tuple, dict[tuple, set[tuple]]] = {}
        self.orders: dict[str, tuple | None] = {}

    def rows(self, name: str, arity: int) -> frozenset:
        if name not in self.rels:
            if name not in self.defs:
                raise LogicError(f"unknown relation {name}")
            args, phi = self.defs[name]  # reads earlier definitions only: no cycle
            self.rels[name] = frozenset(_solve(self, phi, args))
        return self.rels[name] if self.arity[name] == arity else frozenset()

    def index(self, name: str, args: tuple[str, ...], known: tuple[str, ...]):
        """Relation ``name`` read as ``args``: values of ``known`` -> the others'."""
        index = self.indexes.get((name, args, known))
        if index is None:  # atoms alike up to variable names share one index
            keys = [args.index(v) for v in known]
            keep = [args.index(v) for v in dict.fromkeys(args) if v not in known]
            dups = [(i, args.index(v)) for i, v in enumerate(args) if args.index(v) != i]
            shape = (name, len(args), tuple(keys), tuple(keep), tuple(dups))
            index = self.indexes.get(shape)
            if index is None:
                index = self.indexes[shape] = {}
                key, rest = _getter(keys), _getter(keep)
                for row in self.rows(name, len(args)):  # a repeated variable filters
                    if not dups or all(row[i] == row[j] for i, j in dups):
                        index.setdefault(key(row), set()).add(rest(row))
            self.indexes[name, args, known] = index
        return index

    def chains(self, name: str):
        """(rank, chain) of each element if binary ``name`` is a union of strict
        linear orders here, else None; found once.  Ranks count predecessors: a
        chain ranked 0..L-1, every pair rising inside one, has all L(L-1)/2."""
        if name not in self.orders:
            rel = self.rows(name, 2)
            rank = Counter(v for _, v in rel)
            line: dict = {}
            for u, v in rel:
                if u not in rank:  # u heads v's chain
                    line[v] = line.setdefault(u, [u])
                    line[v].append(v)
            for u in [u for u in line if not rank[u]]:
                line[u].sort(key=rank.__getitem__)
            ok = all(u in line and line[u] is line.get(v) and rank[u] < rank[v] < len(line[v])
                     and line[v][rank[v]] == v for u, v in rel)
            self.orders[name] = (rank, line) if ok else None
        return self.orders[name]


class _Node:
    """Plan node; ``free`` lists its free variables, ``fset`` holds them."""

    direct = False  # sat takes rows with columns beyond the node's variables

    def __init__(self, free) -> None:
        self.free = tuple(dict.fromkeys(free))
        self.fset = frozenset(self.free)

    def rank(self, ctx: _Ctx, bound: set[str]) -> tuple[int, float]:
        """Sort key at a conjunction whose rows bind ``bound``; least goes next.

        Bound conjuncts come first, then those sharing a variable with the
        rows, atoms by the rows they add per row; cross products come last.
        """
        if self.fset <= bound:
            return (0, 0 if self.direct else 1)
        shares = not bound.isdisjoint(self.fset)
        if self.direct:
            return (1 if shares else 3, self.fanout(ctx, bound))
        return (2 if shares else 4, 0)


class _Const(_Node):
    def __init__(self, value: bool) -> None:
        super().__init__(())
        self.value = value

    def test(self, ctx, cols):
        return lambda row: self.value


class _Atom(_Node):
    direct = True

    def __init__(self, name: str, args: tuple[str, ...]) -> None:
        super().__init__(args)
        self.name, self.args = name, args

    def fanout(self, ctx: _Ctx, bound) -> float:
        """Rows that a row binding ``bound`` gains, on average, from this atom."""
        known = tuple(v for v in self.free if v in bound)
        if not known and self.free == self.args:
            return len(ctx.rows(self.name, len(self.args)))
        index = ctx.index(self.name, self.args, known)
        return sum(map(len, index.values())) / max(1, len(index))

    def sat(self, ctx, cols, rows):
        known = tuple(v for v in self.free if v in cols)
        new = tuple(v for v in self.free if v not in cols)
        if new == self.args:  # nothing bound, no variable repeated: the rows as they are
            rel = ctx.rows(self.name, len(self.args))
            return cols + new, {r + e for r in rows for e in rel} if cols else rel
        get = ctx.index(self.name, self.args, known).get
        if known == cols:
            return cols + new, {r + e for r in rows for e in get(r, ())}
        key = _getter([cols.index(v) for v in known])
        return cols + new, {r + e for r in rows for e in get(key(r), ())}

    def test(self, ctx, cols):
        rel = ctx.rows(self.name, len(self.args))
        if len(self.args) == 1:
            i = cols.index(self.args[0])
            return lambda row: (row[i],) in rel
        key = itemgetter(*[cols.index(v) for v in self.args])
        return lambda row: key(row) in rel


class _Same(_Node):
    direct = True

    def fanout(self, ctx, bound):
        return len(ctx.univ) if bound.isdisjoint(self.fset) else 1

    def sat(self, ctx, cols, rows):
        known = [cols.index(v) for v in self.free if v in cols]
        new = tuple(v for v in self.free if v not in cols)
        if known:  # copy the bound side into the other
            i = known[0]
            return cols + new, {r + (r[i],) for r in rows}
        return cols + new, {r + (u,) * len(new) for r in rows for u in ctx.univ}

    def test(self, ctx, cols):
        i, j = cols.index(self.free[0]), cols.index(self.free[-1])
        return lambda row: row[i] == row[j]


class _Neg(_Node):
    def __init__(self, body: _Node) -> None:
        super().__init__(body.free)
        self.body = body

    def rank(self, ctx, bound):
        return (0, 1) if self.fset <= bound else (5, 0)

    def sat(self, ctx, cols, rows):
        bcols, bad = self.body.sat(ctx, cols, rows)
        exts = list(iproduct(ctx.univ, repeat=len(bcols) - len(cols)))
        return bcols, {r + e for r in rows for e in exts} - bad

    def test(self, ctx, cols):
        body = self.body.test(ctx, cols)
        return lambda row: not body(row)


class _Some(_Node):
    def __init__(self, var: str, body: _Node) -> None:
        super().__init__(v for v in body.free if v != var)
        self.var, self.body = var, body

    def sat(self, ctx, cols, rows):
        bcols, brows = self.body.sat(ctx, cols, rows)
        if self.var not in bcols:
            return bcols, (brows if ctx.univ else set())
        i = bcols.index(self.var)
        return bcols[:i] + bcols[i + 1 :], {r[:i] + r[i + 1 :] for r in brows}

    def test(self, ctx, cols):
        """A witness test per row, after the body's conjuncts without the var.
        A body ``R(a,var) & R(var,b) & phi``, a, b bound, phi on var and at most
        one of them and R a union of chains, takes the chain path (``_between``);
        else atoms on the var give candidate sets to intersect, the rest checks them."""
        var = self.var
        parts = self.body.parts if isinstance(self.body, _All) else (self.body,)
        witness = _between(ctx, cols, var, parts) or self._search(ctx, cols, parts)
        outside = [p for p in parts if var not in p.fset]
        if outside:
            first = _tests(ctx, cols, outside, _both)
            return lambda row: first(row) and witness(row)
        return witness

    def _search(self, ctx, cols, parts):
        var, bound = self.var, set(cols) - {self.var}
        atoms = [p for p in parts if isinstance(p, _Atom) and var in p.fset]
        lookups = []
        for atom in sorted(atoms, key=lambda p: p.fanout(ctx, bound)):
            known = tuple(v for v in atom.free if v != var)
            index = ctx.index(atom.name, atom.args, known)
            lookups.append((_getter([cols.index(v) for v in known]), index.get))
        rest = [p for p in parts if var in p.fset and not isinstance(p, _Atom)]
        inner = tuple(None if v == var else v for v in cols) + (var,)  # var may shadow
        check = _tests(ctx, inner, rest, _both) if rest else None
        everything = None if lookups else {(u,) for u in ctx.univ}

        def witness(row: tuple) -> bool:
            found = everything
            for key, get in lookups:
                hits = get(key(row), _NONE)
                found = hits if found is None else found & hits
                if not found:
                    return False
            return bool(found) if check is None else any(check(row + e) for e in found)

        return witness


_NONE: frozenset = frozenset()


def _between(ctx: _Ctx, cols, var: str, parts):
    """Row test for ``E var. R(a,var) & R(var,b) & phi`` (``parts``) by the
    chain path, or None where that does not apply."""
    atoms = [p for p in parts if isinstance(p, _Atom) and len(p.args) == 2]
    into = {p.name: p for p in atoms if p.args[1] == var != p.args[0]}
    ends = [(into[q.name], q) for q in atoms if q.name in into
            and q.args[0] == var != q.args[1] != into[q.name].args[0]]
    order = ctx.chains(ends[0][1].name) if ends else None
    if order is None:
        return None
    (p, q), (rank, line) = ends[0], order
    a, b, rel = p.args[0], q.args[1], ctx.rows(q.name, 2)
    i, j = cols.index(a), cols.index(b)
    phi = [r for r in parts if var in r.fset and r is not p and r is not q]
    if not phi:
        return lambda row: (row[i], row[j]) in rel and rank[row[j]] - rank[row[i]] > 1
    free = {v for r in phi for v in r.free} - {var}
    forward = free <= {a}
    if not (forward or free <= {b}):
        return None
    holds = _tests(ctx, (a if forward else b, var), phi, _both)
    # each anchor's first m after it, or last m before it, where phi holds
    first = {u: next((m for m in (c[rank[u] + 1:] if forward else c[:rank[u]][::-1])
                      if holds((u, m))), None) for u, c in line.items()}
    if forward:
        return lambda row: (first.get(row[i]), row[j]) in rel
    return lambda row: (row[i], first.get(row[j])) in rel


def _tests(ctx: _Ctx, cols: tuple[str, ...], parts, join):
    """One row test for ``parts`` joined by ``join``: atoms first, sparsest
    first, the joins folded balanced so a wide formula nests them shallowly."""

    def cost(p: _Node) -> tuple[int, float]:
        if isinstance(p, _Atom):
            return (0, len(ctx.rows(p.name, len(p.args))) / max(1, len(ctx.univ)) ** len(p.args))
        return (0 if p.direct else 1, 0)

    return _fold([p.test(ctx, cols) for p in sorted(parts, key=cost)], join)


def _fold(tests: list, join):
    half = len(tests) // 2
    return join(_fold(tests[:half], join), _fold(tests[half:], join)) if half else tests[0]


class _All(_Node):
    def __init__(self, parts: list[_Node]) -> None:
        super().__init__(v for p in parts for v in p.free)
        self.parts = tuple(parts)

    def sat(self, ctx, cols, rows):
        todo = list(self.parts)
        while todo and rows:
            bound = set(cols)
            part = min(todo, key=lambda p: p.rank(ctx, bound))
            todo.remove(part)
            cols, rows = _extend(part, ctx, cols, rows)
        return cols + tuple(v for v in self.free if v not in cols), rows

    def test(self, ctx, cols):
        return _tests(ctx, cols, self.parts, _both)


class _Any(_Node):
    def __init__(self, parts: list[_Node]) -> None:
        super().__init__(v for p in parts for v in p.free)
        self.parts = tuple(parts)

    def sat(self, ctx, cols, rows):
        target = cols + tuple(v for v in self.free if v not in cols)
        out: Rows = set()
        for part in self.parts:
            out |= _cylindrify(*_extend(part, ctx, cols, rows), target, ctx.univ)
        return target, out

    def test(self, ctx, cols):
        return _tests(ctx, cols, self.parts, _either)


class _Iff(_Node):
    """Both sides hold or neither does; each side is solved once."""

    rank = _Neg.rank

    def __init__(self, left: _Node, right: _Node) -> None:
        super().__init__(left.free + right.free)
        self.sides = (left, right)

    def sat(self, ctx, cols, rows):
        target = cols + tuple(v for v in self.free if v not in cols)
        a, b = (_cylindrify(*_extend(p, ctx, cols, rows), target, ctx.univ) for p in self.sides)
        exts = list(iproduct(ctx.univ, repeat=len(target) - len(cols)))
        return target, {r + e for r in rows for e in exts} - (a ^ b)

    def test(self, ctx, cols):
        a, b = (p.test(ctx, cols) for p in self.sides)
        return lambda row: a(row) == b(row)


def _extend(node: _Node, ctx: _Ctx, cols: tuple[str, ...], rows: Rows):
    """Rows over ``cols`` extended by ``node``'s other free variables, where it holds.

    Unless ``node`` reads the rows directly, it is solved under their
    projection onto its own variables and joined back on them.
    """
    if not rows:
        return cols + tuple(v for v in node.free if v not in cols), set()
    shared = tuple(v for v in cols if v in node.fset)
    bound = len(shared) == len(node.free)
    if node.direct or shared == cols:
        return (cols, set(filter(node.test(ctx, cols), rows))) if bound else node.sat(ctx, cols, rows)
    key = _getter([cols.index(v) for v in shared])
    part = {key(r) for r in rows}
    if bound:
        good = set(filter(node.test(ctx, shared), part))
        return cols, {r for r in rows if key(r) in good}
    ncols, nrows = node.sat(ctx, shared, part)
    k = len(shared)
    index: dict[tuple, list[tuple]] = {}
    for row in nrows:
        index.setdefault(row[:k], []).append(row[k:])
    return cols + ncols[k:], {r + e for r in rows for e in index.get(key(r), ())}


def _cylindrify(
    order: tuple[str, ...], rows: Rows, target: tuple[str, ...], univ: tuple[int, ...]
) -> Rows:
    """Rows over ``order`` as rows over ``target``, any value in the other places."""
    if order == target or not rows:
        return set(rows)
    missing = tuple(v for v in target if v not in order)
    pick = _getter([(order + missing).index(v) for v in target])
    exts = list(iproduct(univ, repeat=len(missing)))
    return {pick(r + e) for r in rows for e in exts}


def _junction(kind: type, parts: list[_Node]) -> _Node:
    """``kind`` (_All or _Any) of ``parts``, flattened, with constants folded."""
    unit = kind is _All  # the constant that drops out; the other one absorbs
    flat: list[_Node] = []
    for p in parts:
        if isinstance(p, _Const):
            if p.value != unit:
                return p
        else:
            flat.extend(p.parts if isinstance(p, kind) else (p,))
    return kind(flat) if len(flat) > 1 else (flat[0] if flat else _Const(unit))


def _negate(node: _Node) -> _Node:
    return _Const(not node.value) if isinstance(node, _Const) else _Neg(node)


@lru_cache(maxsize=None)
def _plan(phi: Formula, positive: bool) -> _Node:
    """Plan for ``phi``, or for its negation when ``positive`` is false."""
    if isinstance(phi, (TrueF, FalseF)):
        return _Const(isinstance(phi, TrueF) == positive)
    if isinstance(phi, (Rel, Eq)):
        atom = _Atom(phi.name, phi.args) if isinstance(phi, Rel) else _Same((phi.left, phi.right))
        return atom if positive else _Neg(atom)
    if isinstance(phi, Not):
        return _plan(phi.body, not positive)
    if isinstance(phi, And):
        both = _junction(_All, [_plan(p, True) for p in phi.parts])
        return both if positive else _negate(both)
    either = _Any if positive else _All
    if isinstance(phi, Or):
        return _junction(either, [_plan(p, positive) for p in phi.parts])
    if isinstance(phi, Implies):
        return _junction(either, [_plan(phi.left, not positive), _plan(phi.right, positive)])
    if isinstance(phi, Iff):  # not (a <-> b) is a <-> not b
        return _Iff(_plan(phi.left, True), _plan(phi.right, positive))
    if isinstance(phi, (Exists, Forall)):
        some = _Some(phi.var, _plan(phi.body, isinstance(phi, Exists)))
        return some if positive == isinstance(phi, Exists) else _negate(some)
    raise TypeError(f"not a formula: {phi!r}")


def _solve(ctx: _Ctx, phi: Formula, want: tuple[str, ...]) -> Rows:
    cols, rows = _extend(_plan(phi, True), ctx, (), {()})
    return _cylindrify(cols, rows, want, ctx.univ)


def sat_rows(s: Structure, phi: Formula, want: tuple[str, ...]) -> Rows:
    """Satisfying assignments of ``phi``, as rows in the order ``want``."""
    frees = free_vars(phi)
    if not frees <= set(want):
        raise LogicError(f"free variables {sorted(frees - set(want))} not among {want}")
    return _solve(_Ctx(s), phi, want)


# ------------------------------------------------------------ transductions


@dataclass(frozen=True)
class FOTransduction:
    """A k-copying transduction given by per-copy formulas over the input.

    The output element (i, u) is copy i of input element u.  ``universe[i]``,
    free in ``x``, keeps (i, u) where it holds at u.  ``relations[name]`` is
    (variable order, table): ``table[(i1, ..., ir)]`` puts ((i1, u1), ...,
    (ir, ur)) into ``name`` where it holds at u1, ..., ur, read in that
    order.  A missing entry holds for nothing.  ``definitions`` are (name,
    variables, formula): relations over the input and earlier definitions.
    """

    k: int
    input_vocab: dict[str, int]
    output_vocab: dict[str, int]
    universe: dict[int, Formula]
    relations: dict[str, tuple[tuple[str, ...], dict[tuple[int, ...], Formula]]]
    definitions: tuple[tuple[str, tuple[str, ...], Formula], ...] = ()

    def __post_init__(self) -> None:
        if self.k < 1:
            raise LogicError("copy count must be at least 1")
        names = [name for name, _, _ in self.definitions]
        for i, (name, args, phi) in enumerate(self.definitions):
            if name in self.input_vocab or name in names[:i]:
                raise LogicError(f"definition {name} repeats an input relation or definition")
            if not args or len(set(args)) != len(args) or not free_vars(phi) <= set(args):
                raise LogicError(f"definition {name} needs distinct variables, its free ones")
            if ahead := _relations(phi) & set(names[i:]):
                raise LogicError(f"definition {name} reads {min(ahead)}, not an earlier one")
        copies = range(1, self.k + 1)
        for i, phi in self.universe.items():
            if i not in copies:
                raise LogicError(f"universe copy {i} is not in 1..{self.k}")
            if not free_vars(phi) <= {"x"}:
                raise LogicError(f"universe formula of copy {i} may only use x")
        if set(self.relations) != set(self.output_vocab):
            raise LogicError("relation formulas must cover the output vocabulary")
        for name, (order, table) in self.relations.items():
            arity = self.output_vocab[name]
            if len(order) != arity or len(set(order)) != arity:
                raise LogicError(f"variable order for {name} must match its arity")
            for key, phi in table.items():
                if len(key) != arity or not all(i in copies for i in key):
                    raise LogicError(f"copies {key} of {name} must be {arity} of 1..{self.k}")
                if not free_vars(phi) <= set(order):
                    raise LogicError(f"formula for {name} uses undeclared variables")
        arities = {**self.input_vocab, **{name: len(args) for name, args, _ in self.definitions}}
        run = [*self.universe.values(),
               *(phi for _, table in self.relations.values() for phi in table.values())]
        for a, _ in _atoms(*(phi for *_, phi in self.definitions), *run):
            if isinstance(a, Rel) and arities.get(a.name, len(a.args)) != len(a.args):
                raise LogicError(f"{a.name} has arity {arities[a.name]}, read as {render_formula(a)}")
        # every run solves these; a definition's formula is solved only when read
        for a, _ in _atoms(*run):
            if isinstance(a, Rel) and a.name not in arities:
                raise LogicError(f"unknown relation {a.name}: read as {render_formula(a)}")


def apply_transduction(t: FOTransduction, s: Structure) -> Structure:
    """Solve every formula once on ``s``; (i, u) gets id (i-1)*n + position of u."""
    for name, arity in t.input_vocab.items():
        if s.vocabulary.get(name) != arity:
            raise LogicError(f"vocabulary mismatch: input needs {name}/{arity}")
    n = len(s.universe)
    pos = {u: p for p, u in enumerate(s.universe)}
    ctx = _Ctx(s, t.definitions)
    # copy i: each kept u -> its output id; a copy with no formula keeps none
    ids: dict[int, dict[int, int]] = {i: {} for i in range(1, t.k + 1)}
    for i, phi in t.universe.items():
        ids[i] = {u: (i - 1) * n + pos[u] for (u,) in _solve(ctx, phi, ("x",))}
    rels: dict[str, frozenset] = {}
    for name, (order, table) in t.relations.items():
        rows = set()
        for key, phi in table.items():
            maps = [ids[i] for i in key]
            rows.update(tuple(map(getitem, maps, r)) for r in _solve(ctx, phi, order)
                        if all(map(contains, maps, r)))
        rels[name] = frozenset(rows)
    universe = sorted(j for a in ids.values() for j in a.values())
    return Structure(tuple(universe), dict(t.output_vocab), rels)


# ------------------------------------------------------- encoding of values


def _pred_name(path: tuple[int, ...], letter: str | None = None) -> str:
    """The unary predicate of the type node at ``path``, or of its ``letter``."""
    name = "t_" + "_".join(map(str, path)) if path else "t"
    return name if letter is None else name + "__" + letter


def _pred_entries(t: TypeExpr, path: tuple[int, ...] = ()):
    """``(path, letter)`` per unary predicate of a type, its nodes in preorder:
    ``letter`` is None for the node itself, then each letter of a finite set."""
    yield path, None
    if isinstance(t, FinSet):
        for letter in t.names:
            yield path, letter
    elif isinstance(t, (Sum, Prod)):
        yield from _pred_entries(t.left, path + (0,))
        yield from _pred_entries(t.right, path + (1,))
    elif isinstance(t, List):
        yield from _pred_entries(t.elem, path + (0,))


def encoding_vocabulary(t: TypeExpr) -> dict[str, int]:
    vocab = {"pare": 2, "sib": 2}
    for path, letter in _pred_entries(t):
        vocab[_pred_name(path, letter)] = 1
    return vocab


def _encoding(v: Value, t: TypeExpr, ids) -> dict[str, frozenset]:
    """The relations of the encoding of ``v`` at ``t``, keyed in vocabulary
    order; each node takes the next id of ``ids``, in preorder.

    Sum injections do not get nodes of their own: descending through them
    only accumulates extra type predicates on the node underneath.
    """
    rels: dict[str, set] = {name: set() for name in encoding_vocabulary(t)}
    pare, sib = rels["pare"], rels["sib"]

    def walk(val: Value, ty: TypeExpr, path: tuple[int, ...], chain: list[str]) -> int:
        if isinstance(ty, Sum):
            chain = chain + [_pred_name(path)]
            if isinstance(val, InL):
                return walk(val.value, ty.left, path + (0,), chain)
            return walk(val.value, ty.right, path + (1,), chain)
        nid = next(ids)
        for name in chain + [_pred_name(path)]:
            rels[name].add((nid,))
        if isinstance(ty, FinSet):
            rels[_pred_name(path, val.name)].add((nid,))
            return nid
        if isinstance(ty, (Atom, Bot)):
            return nid
        if isinstance(ty, Prod):
            kids = [walk(val.fst, ty.left, path + (0,), []), walk(val.snd, ty.right, path + (1,), [])]
        else:
            kids = [walk(item, ty.elem, path + (0,), []) for item in val.items]
        pare.update((nid, c) for c in kids)
        sib.update(combinations(kids, 2))
        return nid

    walk(v, t, (), [])
    del walk  # its closure refers to it: clear it, or the relations wait for the collector
    return {name: frozenset(rows) for name, rows in rels.items()}


def encode_value(v: Value, t: TypeExpr) -> Structure:
    """Parse tree of ``v`` as a structure; ids are preorder positions."""
    require_value(v, t)
    ids = count()
    rels = _encoding(v, t, ids)
    return Structure(tuple(range(next(ids))), encoding_vocabulary(t), rels)


def decode_structure(s: Structure, t: TypeExpr) -> Value:
    """Inverse of encode_value, for any structure isomorphic to an encoding.

    Reads a value down ``pare`` from its one root, each node's children
    ranked by their number of ``sib`` predecessors, then encodes that value
    again on the nodes in the order read: ``s`` is an encoding iff every
    relation is the same.  A node the read never reached keeps a ``pare``
    tuple that the new encoding lacks.  Raises EncodingError, in one line
    naming the relation at fault.
    """
    if dict(s.vocabulary) != encoding_vocabulary(t):
        raise EncodingError("vocabulary does not match the encoding of the type")
    rels = s.relations
    children: dict[int, list[int]] = {u: [] for u in s.universe}
    for p, c in rels["pare"]:
        children[p].append(c)
    roots = children.keys() - {c for _, c in rels["pare"]}
    if len(roots) != 1 or len(rels["pare"]) != len(children) - 1:
        raise EncodingError(f"pare is not a tree: {len(roots)} root(s) and "
                            f"{len(rels['pare'])} tuple(s) on {len(children)} nodes")
    rank = Counter(c for _, c in rels["sib"])
    order: list[int] = []

    def read(node: int, ty: TypeExpr, path: tuple[int, ...]) -> Value:
        if isinstance(ty, Sum):
            if (node,) in rels[_pred_name(path + (0,))]:
                return InL(read(node, ty.left, path + (0,)))
            return InR(read(node, ty.right, path + (1,)))
        order.append(node)
        if isinstance(ty, FinSet):  # no letter reads as the first; the compare finds it missing
            return Sym(next((l for l in ty.names if (node,) in rels[_pred_name(path, l)]),
                            ty.names[0]))
        if isinstance(ty, Atom):
            return Sym(ty.name)
        if isinstance(ty, Bot):
            return BotV()
        kids = sorted(children[node], key=rank.__getitem__)
        if isinstance(ty, List):
            return ListV(tuple(read(c, ty.elem, path + (0,)) for c in kids))
        if len(kids) != 2:
            raise EncodingError(f"pair node {node} has {len(kids)} children in pare, not 2")
        return PairV(read(kids[0], ty.left, path + (0,)), read(kids[1], ty.right, path + (1,)))

    v = read(next(iter(roots)), t, ())
    del read  # as in _encoding: no cycle through its closure
    for name, rows in _encoding(v, t, iter(order)).items():
        if rows != rels[name]:
            row = min(rows ^ rels[name])
            raise EncodingError(f"{name} does not match the encoding of the value read: "
                                f"{'missing' if row in rows else 'extra'} tuple {row}")
    return v


_AB = FinSet(("a", "b"))


def word_structure(word: str) -> Structure:
    """The encoding of a word over {a, b} as a value of {a,b}^*."""
    bad = [c for c in word if c not in _AB.names]
    if bad:
        raise LogicError(f"letters {bad} not in alphabet {_AB.names}")
    return encode_value(ListV(tuple(map(Sym, word))), List(_AB))


def decode_word_structure(s: Structure) -> str:
    """The word that ``s`` encodes at {a,b}^*."""
    return "".join(x.name for x in decode_structure(s, List(_AB)).items)


# --------------------------------------------------- built-in transductions
#
# Built-in formulas are text in the syntax ``parse_formula`` reads and
# ``save_fot`` writes.  The derived relations of the encoding are defined once,
# in ``_DERIVED``, each over the input vocabulary and the ones before it;
# ``builtin_fot`` declares those that a built-in's formulas reach.  A builder
# paired with a basic returns its copy count, universe formulas and relation
# tables; ``builtin_fot`` reads both vocabularies off the basic's type.

_Built = tuple[int, dict[int, Formula], dict[str, dict[tuple[int, ...], Formula]]]
_fo = parse_formula

_DERIVED = tuple((name, tuple(args.split()), _fo(body)) for name, args, body in (
    ("root", "x", "!E p. pare(p,x)"),
    ("nsib", "x y", "sib(x,y) & !E m. sib(x,m) & sib(m,y)"),
    ("root_child", "x", "E p. pare(p,x) & root(p)"),
    ("first_root_child", "x", "root_child(x) & !E s. sib(s,x)"),
    ("later_root_child", "x", "root_child(x) & E s. sib(s,x)"),
))


def _enc_depth(t: TypeExpr) -> int:
    """Depth of an element's encoding: sums are flattened into their node."""
    if isinstance(t, (Atom, FinSet, Bot)):
        return 0
    if isinstance(t, Sum):
        return max(_enc_depth(t.left), _enc_depth(t.right))
    if isinstance(t, Prod):
        return 1 + max(_enc_depth(t.left), _enc_depth(t.right))
    return 1 + _enc_depth(t.elem)


def _under(anchor: str, depth: int) -> str:
    """x lies at most ``depth`` steps below (or at) a node satisfying the
    derived relation ``anchor``."""
    parts = [f"{anchor}(x)"]
    for j in range(1, depth + 1):
        hops = [f"u{i}" for i in range(j)] + ["x"]
        steps = "".join(f" & pare({a},{b})" for a, b in zip(hops, hops[1:]))
        parts.append("(" + "".join(f"E {h}. " for h in hops[:-1]) + f"{anchor}(u0){steps})")
    return " | ".join(parts)


def _moved(elem: TypeExpr, to: tuple[int, ...], *sources: tuple[int, ...],
           guard: Formula | None = None) -> dict[str, dict[tuple[int, ...], Formula]]:
    """``elem``'s type predicates below path ``to``: each holds in copy 1 where
    the same predicate below one of ``sources`` holds (and ``guard`` does)."""
    tables = {}
    for p, l in _pred_entries(elem):
        atoms = tuple(Rel(_pred_name(s + p, l), ("x",)) for s in sources)
        phi = atoms[0] if len(atoms) == 1 else Or(atoms)
        tables[_pred_name(to + p, l)] = {(1,): phi if guard is None else And((phi, guard))}
    return tables


def _reordered(elem: TypeExpr, sib: str) -> _Built:
    """A list of ``elem`` with every node and parent kept, its siblings
    ordered by the formula ``sib``."""
    tables = {
        "pare": {(1, 1): _fo("pare(x,y)")},
        "sib": {(1, 1): _fo(sib)},
        **_moved(List(elem), (), ()),
    }
    return 1, {1: _fo("true")}, tables


def fot_reverse(elem: TypeExpr) -> _Built:
    """Reverse a list: flip the sibling order among root children only."""
    both = "(root_child(x) & root_child(y))"
    return _reordered(elem, f"{both} & sib(y,x) | !{both} & sib(x,y)")


def fot_append(elem: TypeExpr) -> _Built:
    """(head, tail list) to the list with the head in front.

    The pair's list child is dropped; its children are re-parented by the
    root.  The dropped child is pinned down as the root child that has a
    left sibling.
    """
    universe = {1: _fo("!E p. pare(p,x) & root(p) & !E z. nsib(x,z)")}
    pare = _fo("!root(x) & pare(x,y) | root(x) & pare(x,y) & !(E z. nsib(z,y))"
               " | root(x) & E c. pare(x,c) & (E w. nsib(w,c)) & pare(c,y)")
    sib = _fo("sib(x,y) | first_root_child(x)"
              " & E c. root_child(c) & (E w. sib(w,c)) & pare(c,y)")
    tables = {
        "pare": {(1, 1): pare},
        "sib": {(1, 1): sib},
        "t": {(1,): _fo("t(x)")},
        **_moved(elem, (0,), (0,), (1, 0)),
    }
    return 1, universe, tables


def fot_coappend(elem: TypeExpr) -> _Built:
    """Split off the head of a list; empty lists land in the bottom summand.

    Copy 2 holds the node that becomes the tail list: the second root child
    when the list has two or more elements, or the root itself for singleton
    lists (it has no second child to reuse).  An empty list keeps only its
    childless root, which decodes into the bottom summand.
    """
    second = "(E p. root(p) & pare(p,x) & E z. pare(p,z) & nsib(z,x) & !E w. nsib(w,z))"
    singleton = "root(x) & (E c. pare(x,c)) & !E c. pare(x,c) & E w. sib(w,c)"
    universe = {1: _fo("true"), 2: _fo(f"{second} | {singleton}")}
    false = _fo("false")
    d = _enc_depth(elem)
    tables = {
        "pare": {(1, 1): _fo("root(x) & pare(x,y) & !(E z. nsib(z,y) & pare(x,z))"
                             " | !root(x) & pare(x,y)"),
                 (1, 2): _fo("root(x)"),
                 (2, 1): _fo("E z. root(z) & pare(z,y) & E c. pare(z,c) & nsib(c,y)"),
                 (2, 2): false},
        "sib": {(1, 1): _fo("sib(x,y) & !first_root_child(x)"),
                (1, 2): _fo("first_root_child(x)"), (2, 1): false, (2, 2): false},
        "t": {(1,): _fo("root(x)")},
        "t_0": {(1,): _fo("root(x) & E c. pare(x,c)")},
        "t_1": {(1,): _fo("root(x) & !E c. pare(x,c)")},
        "t_0_1": {(2,): _fo("true")},
        **_moved(elem, (0, 0), (0,), guard=_fo(_under("first_root_child", d))),
        **_moved(elem, (0, 1, 0), (0,), guard=_fo(_under("later_root_child", d))),
    }
    return 2, universe, tables


def fot_flat(elem: TypeExpr) -> _Built:
    """Concatenate a list of lists: grandchildren become the root's children."""
    sib = _fo("sib(x,y) | E p. pare(p,x) & root_child(p)"
              " & E q. pare(q,y) & root_child(q) & sib(p,q)")
    tables = {
        "pare": {(1, 1): _fo("!root(x) & pare(x,y) | root(x) & E c. pare(x,c) & pare(c,y)")},
        "sib": {(1, 1): sib},
        "t": {(1,): _fo("t(x)")},
        **_moved(elem, (0,), (0, 0)),
    }
    return 1, {1: _fo("(E p. pare(p,x) & !root(p)) | root(x)")}, tables


def fot_block(left: TypeExpr, right: TypeExpr) -> _Built:
    """Group a list of sums into maximal same-summand runs.

    Copy 2 holds one marker per run: the root children whose next sibling has
    the other summand's type, plus the last child.  Markers become the run
    lists; each adopts the contiguous stretch of same-summand siblings ending
    at its own position.
    """
    # t_0_0 and t_0_1 mark the two summands' nodes
    run_end = ("t_0_0(x) & (A w. nsib(x,w) -> !t_0_0(w))"
               " | t_0_1(x) & (A w. nsib(x,w) -> !t_0_1(w))")
    psi1 = "(sib(y,x) | x = y) & (x != y -> (t_0_0(y) <-> t_0_0(x)) | (t_0_1(y) <-> t_0_1(x)))"
    psi2 = ("E z. sib(z,x) & sib(y,z)"
            " & ((t_0_0(y) <-> !t_0_0(z)) | (t_0_1(y) <-> !t_0_1(z)))")
    same_run = ("(t_0_0(x) & t_0_0(y) | t_0_1(x) & t_0_1(y)) & !E z. sib(x,z) & sib(z,y)"
                " & ((t_0_0(z) <-> !t_0_0(x)) | (t_0_1(z) <-> !t_0_1(x)))")
    universe = {1: _fo("true"), 2: _fo(f"(E z. pare(z,x) & root(z)) & ({run_end})")}
    false = _fo("false")
    tables = {
        "pare": {(1, 1): _fo("!root(x) & pare(x,y)"), (1, 2): _fo("root(x) & pare(x,y)"),
                 (2, 1): _fo(f"({psi1}) & !{psi2}"), (2, 2): false},
        "sib": {(1, 1): _fo(f"sib(x,y) & (!root_child(x) | {same_run})"),
                (1, 2): false, (2, 1): false, (2, 2): _fo("sib(x,y)")},
        "t": {(1,): _fo("root(x)")},
        "t_0": {(2,): _fo("true")},
        "t_0_0": {(2,): _fo("t_0_0(x)")},
        "t_0_1": {(2,): _fo("t_0_1(x)")},
        **_moved(left, (0, 0, 0), (0, 0)),
        **_moved(right, (0, 1, 0), (0, 1)),
    }
    return 2, universe, tables


def fot_ab_example() -> _Built:
    """Over {a,b}^*, move every a in front of every b: equal letters keep
    their order, and each a goes before each b."""
    return _reordered(_AB, "sib(x,y) & (t_0__a(x) <-> t_0__a(y)) | t_0__a(x) & t_0__b(y)")


def _ab_example_term() -> Term:
    """ab_example's list function: tag each letter as a left or a right
    summand, keep each side's letters in order, and concatenate them."""
    tag = Map(finite_function(_AB, {"a": InL(Sym("a")), "b": InR(Sym("b"))}, Sum(_AB, _AB)))
    return Compose(concat(_AB), Pair(Compose(filter_left(_AB, _AB), tag),
                                     Compose(filter_right(_AB, _AB), tag)))


# name -> (term constructor, formula builder); both take the element types
_BUILTINS = {
    "reverse": (Reverse, fot_reverse),
    "append": (Append, fot_append),
    "coappend": (CoAppend, fot_coappend),
    "flat": (Flat, fot_flat),
    "block": (Block, fot_block),
    "ab_example": (_ab_example_term, fot_ab_example),
}


def builtin_names() -> dict[str, int]:
    """Built-in transduction names mapped to their type-argument counts."""
    return {name: build.__code__.co_argcount for name, (_, build) in _BUILTINS.items()}


def builtin_fot(name: str, *types: TypeExpr) -> FOTransduction:
    """A named built-in transduction; type arguments are the element types."""
    dom, cod = infer_type(builtin_term(name, *types))
    k, universe, tables = _BUILTINS[name][1](*types)
    out = encoding_vocabulary(cod)
    relations = {r: (("x", "y")[:a], tables.get(r, {})) for r, a in out.items()}
    reached = _relations(*universe.values(), *(p for tb in tables.values() for p in tb.values()))
    for d, _, phi in reversed(_DERIVED):  # a definition reads earlier ones only
        if d in reached:
            reached |= _relations(phi)
    return FOTransduction(k, encoding_vocabulary(dom), out, universe, relations,
                          tuple(d for d in _DERIVED if d[0] in reached))


def builtin_term(name: str, *types: TypeExpr) -> Term:
    """The term that a built-in transduction must agree with."""
    if name not in _BUILTINS:
        raise LogicError(f"unknown builtin transduction {name}")
    arity = builtin_names()[name]
    if len(types) != arity:
        raise ParseError(f"{name} takes {arity} type argument(s), got {len(types)}")
    return _BUILTINS[name][0](*types)


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
